"""Ensemble voting semantics, pinned with scripted stub children.

The quorum rules under test: a detection needs at least ``quorum``
children detecting in the same window; an identification needs at least
``quorum`` children concluding in the same window and blames only the
devices named by at least ``quorum`` of them.  A degenerate always-alert
child must therefore never dominate a quorum of two or more.
"""

import json
import random

import pytest

from repro import telemetry
from repro.core import create_backend
from repro.core.backend import (
    DetectorBackend,
    EnsembleBackend,
    WindowVerdict,
    _BatchWindow,
)
from repro.core.identification import ProbableFaultSet
from repro.model import DeviceRegistry, SensorType, binary_sensor
from repro.streaming import canonical_alerts
from tests.backends.conftest import SEED, build_deployment, perturbed_live


@pytest.fixture
def registry():
    return DeviceRegistry(
        [
            binary_sensor("m0", SensorType.MOTION, "room0"),
            binary_sensor("m1", SensorType.MOTION, "room1"),
            binary_sensor("m2", SensorType.MOTION, "room2"),
        ]
    )


class ScriptedChild(DetectorBackend):
    """A stub backend: violates on scripted window indices, always blames
    its fixed device set.  Exercises the ensemble's voting layer without
    any model underneath."""

    def __init__(self, registry, name, violate_on=(), devices=("m0",)):
        super().__init__(registry)
        self.name = name
        self._violate_on = frozenset(violate_on)
        self._devices = frozenset(devices)

    @property
    def is_fitted(self):
        return True

    def fit(self, trace):
        return self

    def check(self, snapshot, qbits=0):
        return WindowVerdict(
            snapshot.index in self._violate_on, check="scripted"
        )

    def identify(self, verdict, snapshot):
        return ProbableFaultSet(self._devices)

    def fingerprint(self):
        return {"backend": self.name}

    def context_hash(self):
        return self.name


def _window(index):
    return _BatchWindow(index, 60.0 * index, 60.0 * (index + 1), 0)


def _ensemble(registry, children, quorum):
    return EnsembleBackend(registry, children=children, quorum=quorum)


ALWAYS = frozenset(range(1000))


class TestDetectionQuorum:
    def test_one_of_n_detects_on_any_child(self, registry):
        children = [
            ScriptedChild(registry, "a", violate_on={0}),
            ScriptedChild(registry, "b"),
            ScriptedChild(registry, "c"),
        ]
        ensemble = _ensemble(registry, children, quorum=1)
        outcome = ensemble.observe_window(_window(0))
        # The single-device probable set converges within the window, so
        # the lone child's identification rides along with the detection.
        assert [a.kind for a in outcome.alerts] == [
            "detection",
            "identification",
        ]
        assert all(a.check == "ensemble" for a in outcome.alerts)
        assert outcome.violation

    def test_n_of_n_requires_unanimity(self, registry):
        def build(quorum, violators):
            children = [
                ScriptedChild(
                    registry, name, violate_on={0} if name in violators else ()
                )
                for name in ("a", "b", "c")
            ]
            return _ensemble(registry, children, quorum=quorum)

        assert not build(3, {"a", "b"}).observe_window(_window(0)).alerts
        unanimous = build(3, {"a", "b", "c"}).observe_window(_window(0))
        assert unanimous.alerts
        assert unanimous.alerts[0].kind == "detection"

    def test_tie_quorum_is_met_exactly(self, registry):
        # Four children, two detecting: quorum 2 fires, quorum 3 does not.
        def build(quorum):
            children = [
                ScriptedChild(
                    registry, name, violate_on={0} if name in "ab" else ()
                )
                for name in "abcd"
            ]
            return _ensemble(registry, children, quorum=quorum)

        assert build(2).observe_window(_window(0)).alerts
        assert not build(3).observe_window(_window(0)).alerts

    def test_always_alert_child_cannot_dominate_two_of_three(self, registry):
        children = [
            ScriptedChild(registry, "noisy", violate_on=ALWAYS),
            ScriptedChild(registry, "quiet1"),
            ScriptedChild(registry, "quiet2"),
        ]
        ensemble = _ensemble(registry, children, quorum=2)
        for index in range(50):
            outcome = ensemble.observe_window(_window(index))
            assert not outcome.alerts
            assert not outcome.violation
        assert ensemble.finish_segment(50 * 60.0) is None


class TestDeviceVoting:
    def test_blames_only_devices_named_by_a_quorum(self, registry):
        # Children a and b open sessions at window 0 (two-device probable
        # sets stay open past numThre=1); finish_segment concludes both:
        # a names {m0, m1}, b names {m1, m2} — only m1 carries two votes.
        children = [
            ScriptedChild(
                registry, "a", violate_on={0}, devices=("m0", "m1")
            ),
            ScriptedChild(
                registry, "b", violate_on={0}, devices=("m1", "m2")
            ),
            ScriptedChild(registry, "c"),
        ]
        ensemble = _ensemble(registry, children, quorum=2)
        assert [
            a.kind for a in ensemble.observe_window(_window(0)).alerts
        ] == ["detection"]
        tail = ensemble.finish_segment(600.0)
        assert tail is not None
        assert tail.kind == "identification"
        assert sorted(tail.devices) == ["m1"]
        assert tail.converged is False

    def test_no_identification_below_quorum(self, registry):
        children = [
            ScriptedChild(registry, "a", violate_on={0}, devices=("m0",)),
            ScriptedChild(registry, "b"),
            ScriptedChild(registry, "c"),
        ]
        ensemble = _ensemble(registry, children, quorum=2)
        ensemble.observe_window(_window(0))
        assert ensemble.finish_segment(600.0) is None


class TestConstruction:
    def test_quorum_must_fit_the_children(self, registry):
        children = [ScriptedChild(registry, "a"), ScriptedChild(registry, "b")]
        with pytest.raises(ValueError, match=r"quorum must be in \[1, 2\]"):
            _ensemble(registry, children, quorum=3)
        with pytest.raises(ValueError, match=r"quorum must be in"):
            _ensemble(registry, children, quorum=0)

    def test_needs_at_least_one_child(self, registry):
        with pytest.raises(ValueError, match="at least one child"):
            EnsembleBackend(registry, children=[])

    def test_default_registered_ensemble_is_dice_and_markov(self, registry):
        ensemble = create_backend("ensemble", registry)
        assert [c.name for c in ensemble.children] == ["dice", "markov"]
        assert ensemble.quorum == 2


class TestCheckpoint:
    def test_child_state_round_trips_inside_ensemble_checkpoint(self):
        # Stream half a perturbed segment through a real dice+markov
        # ensemble, serialize, load into a freshly fitted ensemble, finish
        # both: the resumed run must match the uninterrupted one exactly.
        rng = random.Random(SEED + 3)
        registry, trace, split = build_deployment(rng)
        live = perturbed_live(rng, trace, split, "corrupt")
        training = trace.slice(trace.start, split)

        def fitted():
            return create_backend(
                "ensemble", registry, metrics=telemetry.NULL_REGISTRY
            ).fit(training)

        full = fitted()
        windows = full.encode_window(live)
        seconds = windows.window_seconds

        def snap(i, mask, acts):
            start = windows.window_start(i)
            return _BatchWindow(i, start, start + seconds, mask, acts)

        expected = []
        for i, (mask, acts) in enumerate(windows):
            expected.extend(full.observe_window(snap(i, mask, acts)).alerts)

        cut = len(windows) // 2
        first = fitted()
        head = []
        for i, (mask, acts) in enumerate(windows):
            if i == cut:
                break
            head.extend(first.observe_window(snap(i, mask, acts)).alerts)
        state = json.loads(json.dumps(first.checkpoint_state()))
        assert [c["name"] for c in state["ensemble"]["children"]] == [
            "dice",
            "markov",
        ]

        resumed = fitted()
        resumed.load_state(state)
        tail = []
        for i, (mask, acts) in enumerate(windows):
            if i < cut:
                continue
            tail.extend(resumed.observe_window(snap(i, mask, acts)).alerts)
        assert canonical_alerts(head + tail) == canonical_alerts(expected)
        # And the end states themselves agree byte for byte.
        assert json.dumps(resumed.checkpoint_state(), sort_keys=True) == (
            json.dumps(full.checkpoint_state(), sort_keys=True)
        )

    def test_child_name_mismatch_is_rejected(self, registry):
        ensemble = create_backend("ensemble", registry)
        state = ensemble.checkpoint_state()
        state["ensemble"]["children"][0]["name"] = "imposter"
        with pytest.raises(ValueError, match="imposter"):
            create_backend("ensemble", registry).load_state(state)

    def test_child_count_mismatch_is_rejected(self, registry):
        ensemble = create_backend("ensemble", registry)
        state = ensemble.checkpoint_state()
        state["ensemble"]["children"].append(
            {"name": "extra", "state": {}}
        )
        with pytest.raises(ValueError, match="children"):
            create_backend("ensemble", registry).load_state(state)
