"""Fleet conformance: sharding stays invisible for every backend.

The acceptance property from the fleet suite, lifted over the backend
registry: a fleet hosting per-home instances of any registered backend at
shard count 1, 2 or 4 produces, per home, exactly the alert sequence that
home's runtime produces standalone.  The fleet checkpoint manifest must
also round-trip the per-home backend choice.
"""

import pytest

from repro.fleet import (
    FleetGateway,
    build_fleet_homes,
    merged_ticks,
    replay_fleet,
    restore_fleet,
)
from repro.streaming import HardenedOnlineDice, canonical_alerts

FLEET_HOMES = 3
FLEET_SEED = 11
FLEET_HOURS = 28.0
FLEET_TRAIN_HOURS = 24.0


@pytest.fixture(scope="module")
def homes():
    return build_fleet_homes(
        FLEET_HOMES,
        seed=FLEET_SEED,
        hours=FLEET_HOURS,
        train_hours=FLEET_TRAIN_HOURS,
    )


def _fit(home, backend_name):
    # A fresh fit per runtime: backend instances carry transient streaming
    # state, so the standalone baseline and each sharded gateway must not
    # share one.  Fits are deterministic, so the models are identical.
    return home.fit_detector(backend=backend_name)


@pytest.fixture(scope="module")
def standalone_alerts(homes, backend_name):
    expected = {}
    for home in homes:
        runtime = HardenedOnlineDice(
            _fit(home, backend_name), start=home.split
        )
        alerts = runtime.ingest_many(list(home.live))
        alerts += runtime.finish_stream(home.trace.end)
        expected[home.home_id] = canonical_alerts(alerts)
    return expected


def _build_gateway(num_shards, homes, backend_name):
    gateway = FleetGateway(num_shards)
    for home in homes:
        gateway.add_home(
            home.home_id, _fit(home, backend_name), start=home.split
        )
    return gateway


@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_fleet_matches_standalone(
    num_shards, homes, backend_name, standalone_alerts
):
    gateway = _build_gateway(num_shards, homes, backend_name)
    replay_fleet(gateway, homes)
    for home in homes:
        assert canonical_alerts(gateway.alerts_of(home.home_id)) == (
            standalone_alerts[home.home_id]
        ), f"{home.home_id} diverged at {num_shards} shards"
    assert gateway.unrouted == 0


def test_health_reports_backend_per_home(homes, backend_name):
    gateway = _build_gateway(2, homes, backend_name)
    rollup = gateway.health()["homes"]
    assert all(
        entry["backend"] == backend_name for entry in rollup.values()
    )


def test_checkpoint_manifest_round_trips_backend(
    homes, backend_name, standalone_alerts, tmp_path
):
    # Checkpoint mid-stream, restore with freshly fitted backends, replay
    # the tail: per-home alert parity with the standalone baseline, and
    # the manifest records which backend each home runs.
    import json

    first = _build_gateway(2, homes, backend_name)
    ticks = list(merged_ticks(homes))
    for _, batch in ticks[: len(ticks) // 2]:
        first.dispatch(batch)
    first.save_checkpoint(tmp_path)
    with open(tmp_path / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert {
        entry["backend"] for entry in manifest["homes"].values()
    } == {backend_name}

    detectors = {home.home_id: _fit(home, backend_name) for home in homes}
    restored = restore_fleet(detectors, tmp_path, num_shards=2)
    replay_fleet(restored, homes)
    for home in homes:
        head = first.alerts_of(home.home_id)
        tail = restored.alerts_of(home.home_id)
        assert canonical_alerts(head + tail) == standalone_alerts[home.home_id], (
            f"{home.home_id} diverged across checkpoint/restore"
        )
