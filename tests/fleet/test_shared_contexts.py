"""The capacity layers are invisible: shared contexts + batched tick.

Two guarantees are pinned here:

* **Content addressing is sound** — detectors fitted to the same data
  hash equal, interning dedups them onto one frozen model, and
  copy-on-write forking breaks the sharing loudly and privately.
* **Sharing changes nothing observable per home** — a randomized
  differential sweep (same stamped fleet, shared+batched vs fully
  replicated per-event) asserts byte-identical per-home alert sequences
  and identical per-home telemetry counters (modulo the deliberately
  shared cache/kernel accounting and wall-clock timings), including a
  home whose :class:`~repro.streaming.ContextRefresher` forks its
  context mid-stream.
"""

import json
import os
import random

import pytest

from repro import telemetry
from repro.core import (
    SharedContextStore,
    context_hash,
    trained_context_nbytes,
)
from repro.fleet import (
    FleetGateway,
    build_fleet_homes,
    fit_fleet_detectors,
    replay_fleet,
    restore_fleet,
)
from repro.fleet.checkpoint import MANIFEST_NAME
from repro.streaming import CheckpointError, RefreshPolicy, canonical_alerts

SEED = 20260808

#: Counter families legitimately allowed to differ between the shared and
#: replicated arms: the correlation memo is shared across homes (hit/miss
#: patterns shift), the kernel/eviction deltas are published owner-only,
#: and the seconds totals are wall clock.
_EXCLUDED = ("cache", "kernel", "seconds")


def _null_metrics():
    return telemetry.NULL_REGISTRY


def _stamped(num_homes, unique, seed, hours=24.0, train_hours=18.0):
    return build_fleet_homes(
        num_homes, seed=seed, hours=hours, train_hours=train_hours,
        unique_homes=unique,
    )


# --------------------------------------------------------------------- #
# Content addressing
# --------------------------------------------------------------------- #


def test_context_hash_is_content_addressed(fleet_homes):
    first, second = fleet_homes[0], fleet_homes[1]
    d1 = first.fit_detector(metrics=telemetry.NULL_REGISTRY)
    d2 = first.fit_detector(metrics=telemetry.NULL_REGISTRY)
    other = second.fit_detector(metrics=telemetry.NULL_REGISTRY)
    assert context_hash(d1) == context_hash(d2)
    assert context_hash(d1) != context_hash(other)


def test_stamped_clones_hash_identical():
    homes = _stamped(4, 2, seed=9)
    detectors = fit_fleet_detectors(homes, metrics_factory=_null_metrics)
    hashes = [context_hash(detectors[h.home_id]) for h in homes]
    # home-0002/0003 are clones of 0000/0001 — same bytes, same hash.
    assert hashes[0] == hashes[2]
    assert hashes[1] == hashes[3]
    assert hashes[0] != hashes[1]


def test_intern_dedups_onto_one_frozen_model():
    homes = _stamped(2, 1, seed=11)
    detectors = fit_fleet_detectors(homes, metrics_factory=_null_metrics)
    d1, d2 = (detectors[h.home_id] for h in homes)
    store = SharedContextStore()
    shared = store.intern(d1)
    assert store.intern(d2) is shared
    assert len(store) == 1
    assert shared.holders == 2
    assert d1.model is d2.model
    assert store.stats()["intern_hits"] == 1
    with pytest.raises(RuntimeError):
        d1.model.groups.add(0b1)


def test_fork_context_is_copy_on_write():
    homes = _stamped(2, 1, seed=11)
    detectors = fit_fleet_detectors(homes, metrics_factory=_null_metrics)
    d1, d2 = (detectors[h.home_id] for h in homes)
    store = SharedContextStore()
    store.intern(d1)
    store.intern(d2)
    shared_model = d2.model
    groups_before = len(shared_model.groups)
    assert d1.fork_context()
    assert d1.model is not shared_model
    assert d2.model is shared_model
    # The fork is private and unfrozen; the shared copy is untouched.
    novel = (1 << groups_before) | 1
    d1.model.groups.add(novel)
    assert len(shared_model.groups) == groups_before
    assert len(d1.model.groups) == groups_before + 1
    # Forking twice is a no-op — already private.
    assert not d1.fork_context()


def test_memory_report_accounts_for_dedup():
    homes = _stamped(6, 2, seed=13)
    detectors = fit_fleet_detectors(homes, metrics_factory=_null_metrics)
    gateway = FleetGateway(2, metrics=telemetry.NULL_REGISTRY)
    for home in homes:
        gateway.add_home(home.home_id, detectors[home.home_id], start=home.split)
    report = gateway.memory_report()
    assert report["homes"] == 6
    assert report["distinct_contexts"] == 2
    assert report["savings_ratio"] == pytest.approx(3.0)
    assert report["trained_bytes_replicated"] == pytest.approx(
        3 * report["trained_bytes_shared"]
    )
    # The estimator agrees with summing the canonical contexts directly.
    per_home = {h.home_id: trained_context_nbytes(detectors[h.home_id]) for h in homes}
    assert report["trained_bytes_replicated"] == sum(per_home.values())
    assert report["store"]["contexts"] == 2
    assert report["store"]["holders"] == 6


# --------------------------------------------------------------------- #
# Differential sweep: shared+batched vs fully replicated
# --------------------------------------------------------------------- #


def _comparable_counters(metrics) -> dict:
    """Per-home counter values minus the families allowed to differ."""
    snapshot = metrics.counters_snapshot()["metrics"]
    out = {}
    for name, entry in snapshot.items():
        if any(word in name for word in _EXCLUDED):
            continue
        for row in entry["series"]:
            labels = tuple(sorted(row.get("labels", {}).items()))
            out[(name, labels)] = row["value"]
    return out


def _run_fleet(homes, *, share, shards, tick, refresh_home, refresh_policy):
    detectors = fit_fleet_detectors(homes)
    gateway = FleetGateway(
        shards,
        metrics=telemetry.NULL_REGISTRY,
        share_contexts=share,
        batch_tick=share,
    )
    for home in homes:
        kwargs = {}
        if home.home_id == refresh_home:
            kwargs["refresh"] = refresh_policy
        gateway.add_home(
            home.home_id, detectors[home.home_id], start=home.split, **kwargs
        )
    replay_fleet(gateway, homes, tick_seconds=tick)
    canons = {h.home_id: canonical_alerts(gateway.alerts_of(h.home_id)) for h in homes}
    counters = {
        h.home_id: _comparable_counters(gateway.runtime_of(h.home_id).metrics)
        for h in homes
    }
    return gateway, canons, counters


@pytest.mark.parametrize("trial", range(3))
def test_sharing_and_batching_are_invisible(trial):
    rng = random.Random(SEED + trial)
    num_homes = rng.choice([4, 6])
    unique = rng.choice([2, 3])
    homes = _stamped(num_homes, unique, seed=rng.randrange(1000))
    shards = rng.choice([1, 3])
    tick = rng.choice([60.0, 300.0, 1800.0])
    refresh_home = homes[rng.randrange(num_homes)].home_id
    # Aggressive refresh so the chosen home plausibly forks mid-stream;
    # parity must hold whether or not it fires.
    policy = RefreshPolicy(
        enabled=True, violation_window=5, violation_threshold=0.2,
        collect_windows=2, cooldown_windows=5,
    )
    shared_gw, shared_canons, shared_counters = _run_fleet(
        homes, share=True, shards=shards, tick=tick,
        refresh_home=refresh_home, refresh_policy=policy,
    )
    _, plain_canons, plain_counters = _run_fleet(
        homes, share=False, shards=shards, tick=tick,
        refresh_home=refresh_home, refresh_policy=policy,
    )
    assert shared_canons == plain_canons
    assert shared_counters == plain_counters
    # Dedup really happened in the shared arm.
    assert shared_gw.memory_report()["distinct_contexts"] <= unique + 1


def test_midstream_refresh_forks_only_its_home():
    homes = _stamped(4, 2, seed=29)
    policy = RefreshPolicy(
        enabled=True, violation_window=5, violation_threshold=0.2,
        collect_windows=2, cooldown_windows=5,
    )
    refresh_home = homes[0].home_id
    gateway, _, _ = _run_fleet(
        homes, share=True, shards=2, tick=300.0,
        refresh_home=refresh_home, refresh_policy=policy,
    )
    refreshed = gateway.runtime_of(refresh_home)
    assert refreshed.refresher.stats()["applied"] >= 1, (
        "fixture stream was expected to trigger a refresh; pick another seed"
    )
    twin = homes[2].home_id  # stamped from the same archetype
    assert gateway.runtime_of(twin).detector.model is not refreshed.detector.model
    # The untouched homes still share their archetype's frozen context.
    report = gateway.memory_report()
    assert report["distinct_contexts"] == 3  # 2 archetypes + 1 private fork


# --------------------------------------------------------------------- #
# Checkpoint context-hash validation
# --------------------------------------------------------------------- #


def test_restore_rejects_tampered_context_hash(tmp_path):
    homes = _stamped(2, 2, seed=17, hours=20.0, train_hours=16.0)
    detectors = fit_fleet_detectors(homes, metrics_factory=_null_metrics)
    gateway = FleetGateway(2, metrics=telemetry.NULL_REGISTRY)
    for home in homes:
        gateway.add_home(home.home_id, detectors[home.home_id], start=home.split)
    directory = tmp_path / "ck"
    gateway.save_checkpoint(directory)

    manifest_path = os.path.join(directory, MANIFEST_NAME)
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    victim = homes[0].home_id
    recorded = manifest["homes"][victim]["context"]
    assert recorded == context_hash(detectors[victim])
    manifest["homes"][victim]["context"] = "0" * 32
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)

    with pytest.raises(CheckpointError) as excinfo:
        restore_fleet(detectors, directory)
    message = str(excinfo.value)
    assert victim in message
    assert "0" * 32 in message
    assert context_hash(detectors[victim]) in message


def test_restore_reinterns_shared_contexts(tmp_path):
    homes = _stamped(4, 2, seed=19, hours=20.0, train_hours=16.0)
    detectors = fit_fleet_detectors(homes, metrics_factory=_null_metrics)
    gateway = FleetGateway(2, metrics=telemetry.NULL_REGISTRY)
    for home in homes:
        gateway.add_home(home.home_id, detectors[home.home_id], start=home.split)
    replay_fleet(gateway, homes, finish=False)
    directory = tmp_path / "ck"
    gateway.save_checkpoint(directory)

    fresh = fit_fleet_detectors(homes, metrics_factory=_null_metrics)
    restored = restore_fleet(fresh, directory, num_shards=3)
    report = restored.memory_report()
    assert report["homes"] == 4
    assert report["distinct_contexts"] == 2
    assert report["savings_ratio"] == pytest.approx(2.0)
