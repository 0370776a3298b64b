"""Tests for the device supervisor's quarantine state machine."""

import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DiceDetector
from repro.model import (
    DeviceRegistry,
    Event,
    SensorType,
    actuator,
    binary_sensor,
    numeric_sensor,
)
from repro.streaming import (
    DeviceStatus,
    DeviceSupervisor,
    HardenedOnlineDice,
    SupervisorPolicy,
)
from tests.conftest import HOUR, make_cyclic_trace


@pytest.fixture
def registry():
    return DeviceRegistry(
        [
            binary_sensor("motion", SensorType.MOTION, "hall"),
            binary_sensor("door", SensorType.DOOR, "hall"),
            actuator("bulb", SensorType.BULB, "hall"),
        ]
    )


POLICY = SupervisorPolicy(silence_seconds=60.0, quarantine_seconds=120.0)


class TestSilenceMachine:
    def test_healthy_until_silence_budget(self, registry):
        sup = DeviceSupervisor(registry, POLICY)
        assert sup.check_silence(50.0) == []
        assert sup.health_of("motion").status is DeviceStatus.HEALTHY

    def test_degraded_is_silent_alertwise(self, registry):
        sup = DeviceSupervisor(registry, POLICY)
        assert sup.check_silence(90.0) == []  # degradation emits no edge list
        assert sup.health_of("motion").status is DeviceStatus.DEGRADED

    def test_quarantine_emits_transition_once(self, registry):
        sup = DeviceSupervisor(registry, POLICY)
        edges = sup.check_silence(150.0)
        assert {e.device_id for e in edges} == {"motion", "door"}
        assert all(e.current is DeviceStatus.QUARANTINED for e in edges)
        # Re-checking does not re-raise.
        assert sup.check_silence(200.0) == []
        assert sup.quarantined == frozenset({"motion", "door"})

    def test_actuators_not_watched_by_default(self, registry):
        sup = DeviceSupervisor(registry, POLICY)
        sup.check_silence(1000.0)
        assert "bulb" not in sup.quarantined
        watched = DeviceSupervisor(
            registry,
            SupervisorPolicy(
                silence_seconds=60.0, quarantine_seconds=120.0, watch_actuators=True
            ),
        )
        watched.check_silence(1000.0)
        assert "bulb" in watched.quarantined

    def test_recovery_path(self, registry):
        sup = DeviceSupervisor(registry, POLICY)
        sup.check_silence(150.0)
        edges = sup.observe(Event(160.0, "motion", 1.0))
        assert len(edges) == 1
        assert edges[0].current is DeviceStatus.RECOVERED
        assert sup.health_of("motion").recoveries == 1
        # A second event settles back to HEALTHY with no new edge.
        assert sup.observe(Event(170.0, "motion", 1.0)) == []
        assert sup.health_of("motion").status is DeviceStatus.HEALTHY

    def test_event_keeps_device_healthy(self, registry):
        sup = DeviceSupervisor(registry, POLICY)
        sup.observe(Event(100.0, "motion", 1.0))
        sup.observe(Event(100.0, "door", 1.0))
        assert sup.check_silence(150.0) == []

    def test_late_event_does_not_rewind_heartbeat(self, registry):
        sup = DeviceSupervisor(registry, POLICY)
        sup.observe(Event(100.0, "motion", 1.0))
        sup.observe(Event(40.0, "motion", 1.0))
        assert sup.health_of("motion").last_seen == 100.0


class TestErrorMachine:
    def test_error_threshold_quarantines(self, registry):
        policy = SupervisorPolicy(
            silence_seconds=60.0, quarantine_seconds=120.0, error_threshold=3
        )
        sup = DeviceSupervisor(registry, policy)
        assert sup.record_error("motion", 10.0) == []
        assert sup.record_error("motion", 11.0) == []
        edges = sup.record_error("motion", 12.0)
        assert len(edges) == 1
        assert edges[0].reason == "errors"
        assert sup.quarantined == frozenset({"motion"})

    def test_recovery_resets_error_counter(self, registry):
        policy = SupervisorPolicy(
            silence_seconds=60.0, quarantine_seconds=120.0, error_threshold=2
        )
        sup = DeviceSupervisor(registry, policy)
        sup.record_error("motion", 1.0)
        sup.record_error("motion", 2.0)
        sup.observe(Event(3.0, "motion", 1.0))  # recovered
        assert sup.health_of("motion").errors == 0

    def test_unknown_device_ignored(self, registry):
        sup = DeviceSupervisor(registry, POLICY)
        assert sup.record_error("ghost", 1.0) == []
        assert sup.observe(Event(1.0, "ghost", 1.0)) == []


class TestPolicyValidation:
    def test_quarantine_before_silence_rejected(self):
        with pytest.raises(ValueError):
            SupervisorPolicy(silence_seconds=100.0, quarantine_seconds=50.0)

    def test_zero_error_threshold_rejected(self):
        with pytest.raises(ValueError):
            SupervisorPolicy(error_threshold=0)


class TestSupervisorState:
    def test_round_trip(self, registry):
        sup = DeviceSupervisor(registry, POLICY)
        sup.observe(Event(30.0, "door", 1.0))
        sup.check_silence(150.0)  # quarantines motion
        state = json.loads(json.dumps(sup.state_dict()))
        clone = DeviceSupervisor(registry, SupervisorPolicy())
        clone.load_state(state)
        assert clone.policy == POLICY
        assert clone.quarantined == sup.quarantined
        assert clone.health_of("door").last_seen == 30.0
        assert clone.health_of("motion").silences == 1


class TestSilenceFastPath:
    """The O(1) amortised deadline bound must never change outcomes."""

    def test_early_checks_are_noops_until_deadline(self, registry):
        sup = DeviceSupervisor(registry, POLICY)
        # Hammer the fast path below the first deadline: nothing happens.
        for now in (1.0, 10.0, 30.0, 59.0, 60.0):
            assert sup.check_silence(now) == []
            assert sup.health_of("motion").status is DeviceStatus.HEALTHY
        # Strictly past the silence budget the degradation still fires.
        assert sup.check_silence(61.0) == []
        assert sup.health_of("motion").status is DeviceStatus.DEGRADED

    def test_fast_path_matches_always_scanning_twin(self, registry):
        """Differential: interleaved heartbeats + dense checks, one
        supervisor using the bound, one forced to full-scan every call."""
        fast = DeviceSupervisor(registry, POLICY)
        slow = DeviceSupervisor(registry, POLICY)
        heartbeats = {30.0: "motion", 80.0: "door", 200.0: "motion"}
        for now10 in range(0, 3000, 5):
            now = now10 / 10.0
            device = heartbeats.get(now)
            if device is not None:
                assert fast.observe(Event(now, device, 1.0)) == slow.observe(
                    Event(now, device, 1.0)
                )
            slow._next_check = float("-inf")  # disable the bound
            assert fast.check_silence(now) == slow.check_silence(now)
            for dev in ("motion", "door"):
                assert fast.health_of(dev).status is slow.health_of(dev).status
        assert fast.quarantined == slow.quarantined

    def test_recovery_rearms_the_bound(self, registry):
        sup = DeviceSupervisor(registry, POLICY)
        sup.check_silence(90.0)  # both sensors degraded
        assert sup.health_of("motion").status is DeviceStatus.DEGRADED
        sup.observe(Event(91.0, "motion", 1.0))  # recovery heartbeat
        # The recovered device's fresh deadline (91 + 60) must re-enter the
        # bound: at 152 motion has re-degraded, and door — silent since 0 —
        # has crossed its quarantine budget (120).
        edges = sup.check_silence(152.0)
        assert {e.device_id for e in edges} == {"door"}
        assert sup.health_of("motion").status is DeviceStatus.DEGRADED

    def test_load_state_recomputes_the_bound(self, registry):
        sup = DeviceSupervisor(registry, POLICY)
        sup.observe(Event(30.0, "door", 1.0))
        state = json.loads(json.dumps(sup.state_dict()))
        clone = DeviceSupervisor(registry, SupervisorPolicy())
        clone.load_state(state)
        clone.check_silence(95.0)
        assert clone.health_of("door").status is DeviceStatus.DEGRADED


# ---------------------------------------------------------------------------
# Incremental quarantine set: a property search against full scans
# ---------------------------------------------------------------------------

DEVICES = ("motion_kitchen", "motion_bedroom", "temp_kitchen", "hue_kitchen", "ghost")


@functools.lru_cache(maxsize=None)
def _fitted_detector():
    """The shared conftest deployment (two binary sensors, one numeric,
    one actuator), fitted once for the whole property search."""
    registry = DeviceRegistry(
        [
            binary_sensor("motion_kitchen", SensorType.MOTION, "kitchen"),
            binary_sensor("motion_bedroom", SensorType.MOTION, "bedroom"),
            numeric_sensor("temp_kitchen", SensorType.TEMPERATURE, "kitchen"),
            actuator("hue_kitchen", SensorType.BULB, "kitchen"),
        ]
    )
    trace = make_cyclic_trace(registry).slice(0.0, 3.0 * HOUR)
    return DiceDetector(registry).fit(trace)


def _scanned_quarantine(supervisor):
    """Oracle: the quarantined set by a full scan of device health."""
    return frozenset(
        device_id
        for device_id, health in supervisor._health.items()
        if health.status is DeviceStatus.QUARANTINED
    )


def _scanned_bits(runtime):
    """Oracle: the quarantine mask rebuilt from scratch (the loop the
    runtime used to run every window)."""
    bits = 0
    layout = runtime.windower.layout
    registry = runtime.backend.registry
    for device_id in _scanned_quarantine(runtime.supervisor):
        device = registry.get(device_id)
        if device is None or device.is_actuator:
            continue
        for bit in layout.bits_of_device(device_id):
            bits |= 1 << bit
    return bits


_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), st.sampled_from(DEVICES), st.floats(0.0, 200.0)),
        st.tuples(st.just("error"), st.sampled_from(DEVICES), st.just(0.0)),
        st.tuples(st.just("silence"), st.just(""), st.floats(0.0, 200.0)),
        st.tuples(st.just("reload"), st.just(""), st.just(0.0)),
    ),
    max_size=40,
)


class TestIncrementalQuarantineSet:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        steps=_STEPS,
        watch_actuators=st.booleans(),
        error_threshold=st.integers(1, 3),
    )
    def test_matches_full_scan_after_every_step(
        self, steps, watch_actuators, error_threshold
    ):
        policy = SupervisorPolicy(
            silence_seconds=60.0,
            quarantine_seconds=120.0,
            error_threshold=error_threshold,
            watch_actuators=watch_actuators,
        )
        runtime = HardenedOnlineDice(_fitted_detector(), start=0.0, policy=policy)
        sup = runtime.supervisor
        now = 0.0
        before, version = frozenset(), sup.quarantine_version
        for op, device, dt in steps:
            now += dt
            if op == "observe":
                sup.observe(Event(now, device, 1.0))
            elif op == "error":
                sup.record_error(device, now)
            elif op == "silence":
                sup.check_silence(now)
            else:
                sup.load_state(json.loads(json.dumps(sup.state_dict())))
            expected = _scanned_quarantine(sup)
            assert sup.quarantined == expected
            if expected != before:
                # Every change of the set moves the counter readers key on.
                assert sup.quarantine_version > version
            before, version = expected, sup.quarantine_version
            assert runtime._quarantine_bits() == _scanned_bits(runtime)
            assert runtime._quarantined_now() == tuple(sorted(expected))
            assert runtime.quarantined_devices == sorted(expected)
