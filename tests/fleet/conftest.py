"""Shared fixtures for the fleet tests.

The fleet homes are generated once per session — the simulator and fit
are cheap (tens of milliseconds for four 30 h homes), but every test in
this tree wants the same deterministic fleet, and sharing it keeps the
parity tests honest: the standalone baselines and the sharded runs see
the *same* detector objects.
"""

from __future__ import annotations

import pytest

from repro.fleet import build_fleet_homes

FLEET_SEED = 3
FLEET_HOMES = 4
FLEET_HOURS = 30.0
FLEET_TRAIN_HOURS = 24.0


@pytest.fixture(scope="session")
def fleet_homes():
    return build_fleet_homes(
        FLEET_HOMES, seed=FLEET_SEED, hours=FLEET_HOURS,
        train_hours=FLEET_TRAIN_HOURS,
    )


@pytest.fixture(scope="session")
def fleet_detectors(fleet_homes):
    return {home.home_id: home.fit_detector() for home in fleet_homes}
