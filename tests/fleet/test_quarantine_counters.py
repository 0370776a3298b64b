"""Deterministic counter gate for the quarantine-aware hot path.

A fixed two-home fleet whose homes spend nearly every window with some
sensor quarantined is replayed through the batched gateway, and two exact
counts are checked (no timings):

* the masked correlation memo scans each ``(qbits, visible mask)`` key
  once — masked misses equal the number of distinct keys per checker, and
  every other masked lookup is a hit;
* the runtime rebuilds its quarantine mask once per change of a home's
  quarantine set, never per window.
"""

from __future__ import annotations

import collections

import pytest

from repro.core.checks import CorrelationChecker
from repro.fleet import (
    FleetGateway,
    build_fleet_homes,
    fit_fleet_detectors,
    replay_fleet,
)
from repro.streaming import DeviceStatus, DeviceSupervisor


def _scanned(supervisor):
    return frozenset(
        device_id
        for device_id, health in supervisor._health.items()
        if health.status is DeviceStatus.QUARANTINED
    )


@pytest.mark.parametrize("unique_homes", [None, 1], ids=["distinct", "shared"])
def test_masked_memo_and_mask_rebuild_counts(monkeypatch, unique_homes):
    homes = build_fleet_homes(
        2, seed=0, hours=48.0, train_hours=36.0, unique_homes=unique_homes
    )
    detectors = fit_fleet_detectors(homes)
    gateway = FleetGateway(2)
    for home in homes:
        gateway.add_home(home.home_id, detectors[home.home_id], start=home.split)

    masked_keys = collections.defaultdict(set)
    masked_lookups = collections.Counter()
    masked_misses = collections.Counter()
    plain_windows = 0
    check = CorrelationChecker.check

    def counting_check(self, mask, qbits=0):
        nonlocal plain_windows
        if not qbits:
            plain_windows += 1
            return check(self, mask, qbits)
        key = (qbits, mask & ~qbits)
        hits, misses = self.cache_hits, self.cache_misses
        result = check(self, mask, qbits)
        # Every masked lookup lands in exactly one of the memo counters,
        # and it is a miss exactly when the key is new to this checker.
        new = key not in masked_keys[id(self)]
        assert (self.cache_hits - hits, self.cache_misses - misses) == (
            (0, 1) if new else (1, 0)
        )
        masked_keys[id(self)].add(key)
        masked_lookups[id(self)] += 1
        masked_misses[id(self)] += self.cache_misses - misses
        return result

    changes = 0

    def counting(name):
        original = getattr(DeviceSupervisor, name)

        def wrapper(self, *args):
            nonlocal changes
            before = _scanned(self)
            result = original(self, *args)
            changes += _scanned(self) != before
            return result

        return wrapper

    rebuilds = 0
    quarantined = DeviceSupervisor.quarantined

    def counting_read(self):
        nonlocal rebuilds
        rebuilds += 1
        return quarantined.fget(self)

    monkeypatch.setattr(CorrelationChecker, "check", counting_check)
    for name in ("observe", "record_error", "check_silence"):
        monkeypatch.setattr(DeviceSupervisor, name, counting(name))
    monkeypatch.setattr(DeviceSupervisor, "quarantined", property(counting_read))

    replay_fleet(gateway, homes)

    lookups = sum(masked_lookups.values())
    # Quarantine-heavy: nearly every window runs the masked path.
    assert lookups > 10 * max(plain_windows, 1)
    for checker_id, keys in masked_keys.items():
        assert masked_misses[checker_id] == len(keys)
    assert sum(len(keys) for keys in masked_keys.values()) < lookups / 10
    assert changes > 0
    assert rebuilds == changes
