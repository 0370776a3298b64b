"""Online context refresh: drift detection, staged re-fit, persistence.

The headline properties:

* a drifted stream with refresh enabled stops alerting once the context
  is re-learned, while the refresh-disabled twin alerts forever;
* a genuine sustained-violation threshold gates the re-fit — sporadic
  violations never retrain the model;
* checkpoint/restore carries the refresh history: resuming against a
  *freshly fitted* detector re-applies the recorded batches and
  reproduces the uninterrupted alert stream byte for byte.
"""

import json

import numpy as np
import pytest

from repro.core import DiceDetector
from repro.faults import inject_seasonal_shift
from repro.streaming import (
    ContextRefresher,
    HardenedOnlineDice,
    RefreshPolicy,
    canonical_alerts,
    restore_runtime,
)
from tests.conftest import HOUR, make_cyclic_trace

ENABLED = RefreshPolicy(
    enabled=True,
    violation_window=20,
    violation_threshold=0.6,
    collect_windows=30,
    cooldown_windows=60,
)


@pytest.fixture
def drifted_trace(registry):
    trace = make_cyclic_trace(registry, hours=9.0)
    drifted, _drift = inject_seasonal_shift(
        trace, 4.5 * HOUR, np.random.default_rng(7)
    )
    return drifted


def _fit(registry, trace):
    return DiceDetector(registry).fit(trace.slice(0.0, 3.0 * HOUR))


def _runtime(detector, refresh):
    return HardenedOnlineDice(
        detector, start=3.0 * HOUR, lateness_seconds=120.0, refresh=refresh
    )


def _detections_after(alerts, t0):
    return [a for a in alerts if a.kind == "detection" and a.time >= t0]


class TestPolicy:
    def test_disabled_by_default(self):
        assert RefreshPolicy().enabled is False

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"violation_window": 0},
            {"violation_threshold": 0.0},
            {"violation_threshold": 1.5},
            {"collect_windows": 1},
            {"cooldown_windows": -1},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RefreshPolicy(**kwargs)


class TestRefresherStaging:
    @pytest.fixture
    def refresher(self, registry):
        trace = make_cyclic_trace(registry, hours=4.0)
        detector = _fit(registry, trace)
        return ContextRefresher(detector, ENABLED)

    def test_unfitted_detector_rejected(self, registry):
        with pytest.raises(ValueError):
            ContextRefresher(DiceDetector(registry), ENABLED)

    def test_disabled_never_declares(self, registry):
        trace = make_cyclic_trace(registry, hours=4.0)
        refresher = ContextRefresher(_fit(registry, trace), RefreshPolicy())
        for i in range(100):
            assert refresher.observe(0b11, frozenset(), True, float(i)) is None
        assert refresher.stats()["declared"] == 0

    def test_sporadic_violations_do_not_declare(self, refresher):
        # Alternating hit/miss stays at a 50% rate, under the 60% bar.
        for i in range(200):
            out = refresher.observe(0b1, frozenset(), i % 2 == 0, float(i))
            assert out is None
        assert refresher.phase == "idle"

    def test_sustained_violations_declare_then_apply(self, refresher):
        events = []
        for i in range(ENABLED.violation_window + ENABLED.collect_windows):
            out = refresher.observe(0b101, frozenset(("hue_kitchen",)), True, float(i))
            if out:
                events.append((i, out))
        kinds = [kind for _, kind in events]
        assert kinds == ["declared", "applied"]
        stats = refresher.stats()
        assert stats["declared"] == 1
        assert stats["applied"] == 1
        # The collected mask was interned into the live group registry.
        assert stats["groups_added"] >= 1
        assert refresher.phase == "cooldown"

    def test_cooldown_blocks_redeclaration(self, refresher):
        for i in range(ENABLED.violation_window + ENABLED.collect_windows):
            refresher.observe(0b101, frozenset(), True, float(i))
        assert refresher.phase == "cooldown"
        # Sustained violations during cooldown change nothing.
        for i in range(ENABLED.cooldown_windows - 1):
            assert refresher.observe(0b101, frozenset(), True, 1000.0 + i) is None
        assert refresher.stats()["declared"] == 1

    def test_refresh_merges_transitions(self, refresher):
        model = refresher.detector.model
        before = len(model.groups)
        for i in range(ENABLED.violation_window + ENABLED.collect_windows):
            refresher.observe(0b101, frozenset(), True, float(i))
        assert len(model.groups) > before
        new_gid = model.groups.lookup(0b101)
        assert new_gid is not None
        # The collected self-loop is now a known transition.
        assert model.transitions.g2g.probability(new_gid, new_gid) > 0.0


class TestGracefulDegradation:
    def test_refresh_collapses_sustained_alert_rate(self, registry, drifted_trace):
        onset, settle = 4.5 * HOUR, HOUR
        rates = {}
        for enabled in (False, True):
            detector = _fit(registry, drifted_trace)
            runtime = _runtime(detector, RefreshPolicy(enabled=enabled))
            alerts = runtime.replay(drifted_trace.slice(3.0 * HOUR, drifted_trace.end))
            tail = _detections_after(alerts, onset + settle)
            hours = (drifted_trace.end - onset - settle) / HOUR
            rates[enabled] = len(tail) / hours
        assert rates[True] < rates[False] / 4.0, rates

    def test_health_surface_reports_refresh(self, registry, drifted_trace):
        detector = _fit(registry, drifted_trace)
        runtime = _runtime(detector, ENABLED)
        runtime.replay(drifted_trace.slice(3.0 * HOUR, drifted_trace.end))
        health = runtime.health()
        assert health["refresh"]["enabled"] is True
        assert health["refresh"]["applied"] >= 1
        assert health["refresh"]["groups_added"] >= 1


class TestCheckpointWithRefresh:
    @pytest.mark.parametrize("fraction", [0.5, 0.8])
    def test_resume_after_refresh_reproduces_alerts(
        self, registry, drifted_trace, fraction
    ):
        start, end = 3.0 * HOUR, drifted_trace.end
        events = list(drifted_trace.slice(start, end))

        uninterrupted = _runtime(_fit(registry, drifted_trace), ENABLED)
        expected = uninterrupted.ingest_many(events)
        expected += uninterrupted.finish_stream(end)
        assert uninterrupted.refresher.stats()["applied"] >= 1

        cut = int(len(events) * fraction)
        first = _runtime(_fit(registry, drifted_trace), ENABLED)
        head = first.ingest_many(events[:cut])
        snapshot = json.loads(json.dumps(first.checkpoint()))

        # The restore target is a *freshly fitted* detector: the refresh
        # history rides in the checkpoint and is re-applied on load.
        resumed = restore_runtime(
            _fit(registry, drifted_trace), snapshot, refresh=ENABLED
        )
        tail = resumed.ingest_many(events[cut:])
        tail += resumed.finish_stream(end)

        assert canonical_alerts(head + tail) == canonical_alerts(expected)
        assert (
            resumed.refresher.stats()["applied"]
            == uninterrupted.refresher.stats()["applied"]
        )

    def test_mutated_detector_rejected_as_restore_target(
        self, registry, drifted_trace
    ):
        # Restoring against the *already refreshed* detector would
        # double-apply the history; the fingerprint check refuses it.
        start, end = 3.0 * HOUR, drifted_trace.end
        runtime = _runtime(_fit(registry, drifted_trace), ENABLED)
        runtime.replay(drifted_trace.slice(start, end))
        assert runtime.refresher.stats()["applied"] >= 1
        snapshot = json.loads(json.dumps(runtime.checkpoint()))
        from repro.streaming import CheckpointError

        with pytest.raises(CheckpointError):
            restore_runtime(runtime.detector, snapshot, refresh=ENABLED)
