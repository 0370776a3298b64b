"""Tests for the bounded reorder buffer and its watermark semantics."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import Event
from repro.streaming import DUPLICATE, TOO_LATE, DropLog, ReorderBuffer
from tests.reference_reorder import ReferenceReorderBuffer


def _ev(t, device="d", value=1.0):
    return Event(float(t), device, float(value))


class TestReorderBuffer:
    def test_in_order_stream_released_behind_watermark(self):
        buf = ReorderBuffer(lateness_seconds=10.0)
        assert buf.push(_ev(0.0)) == []
        assert buf.push(_ev(5.0)) == []
        released = buf.push(_ev(20.0))
        assert [e.timestamp for e in released] == [0.0, 5.0]
        assert buf.pending == 1

    def test_late_event_within_budget_resorted(self):
        buf = ReorderBuffer(lateness_seconds=30.0)
        buf.push(_ev(100.0))
        buf.push(_ev(90.0))  # late but inside the budget
        released = buf.flush()
        assert [e.timestamp for e in released] == [90.0, 100.0]

    def test_event_beyond_budget_dropped_and_counted(self):
        log = DropLog()
        buf = ReorderBuffer(lateness_seconds=10.0, log=log)
        buf.push(_ev(100.0))  # watermark -> 90
        assert buf.push(_ev(50.0)) == []
        assert log.count(TOO_LATE) == 1
        assert buf.pending == 1

    def test_exact_duplicate_dropped(self):
        log = DropLog()
        buf = ReorderBuffer(lateness_seconds=60.0, log=log)
        buf.push(_ev(10.0))
        buf.push(_ev(10.0))
        assert log.count(DUPLICATE) == 1
        assert buf.pending == 1

    def test_same_timestamp_different_device_kept(self):
        buf = ReorderBuffer(lateness_seconds=60.0)
        buf.push(_ev(10.0, "a"))
        buf.push(_ev(10.0, "b"))
        assert buf.pending == 2

    def test_overflow_force_releases_and_advances_watermark(self):
        log = DropLog()
        buf = ReorderBuffer(lateness_seconds=1000.0, max_pending=3, log=log)
        for t in (1.0, 2.0, 3.0):
            assert buf.push(_ev(t)) == []
        released = buf.push(_ev(4.0))
        assert [e.timestamp for e in released] == [1.0]
        assert buf.watermark == 1.0
        # An arrival older than the forced watermark is now too late.
        buf.push(_ev(0.5))
        assert log.count(TOO_LATE) == 1

    def test_advance_to_releases_event_free_time(self):
        buf = ReorderBuffer(lateness_seconds=10.0)
        buf.push(_ev(0.0))
        assert buf.advance_to(5.0) == []
        released = buf.advance_to(50.0)
        assert [e.timestamp for e in released] == [0.0]

    def test_watermark_monotone_under_random_arrivals(self):
        rng = np.random.default_rng(7)
        buf = ReorderBuffer(lateness_seconds=5.0)
        last_released = float("-inf")
        for t in rng.uniform(0.0, 100.0, size=500):
            for event in buf.push(_ev(round(t, 3))):
                assert event.timestamp >= last_released
                last_released = event.timestamp
        for event in buf.flush():
            assert event.timestamp >= last_released
            last_released = event.timestamp

    def test_state_round_trip(self):
        buf = ReorderBuffer(lateness_seconds=30.0, max_pending=16)
        buf.push(_ev(100.0))
        buf.push(_ev(95.0))
        state = json.loads(json.dumps(buf.state_dict()))
        clone = ReorderBuffer(lateness_seconds=1.0)
        clone.load_state(state)
        assert clone.lateness_seconds == 30.0
        assert clone.max_pending == 16
        assert clone.watermark == buf.watermark
        assert [e.timestamp for e in clone.flush()] == [95.0, 100.0]

    def test_holds_tracks_pending_events(self):
        buf = ReorderBuffer(lateness_seconds=10.0)
        buf.push(_ev(0.0, "a"))
        assert buf.holds(_ev(0.0, "a"))
        assert not buf.holds(_ev(0.0, "b"))
        assert not buf.holds(_ev(0.0, "a", value=2.0))
        buf.push(_ev(20.0, "a"))  # releases 0.0
        assert not buf.holds(_ev(0.0, "a"))
        assert buf.holds(_ev(20.0, "a"))


# Few distinct timestamps, devices and values, so equal timestamps,
# shared devices, exact duplicates and late arrivals are all common.
_EVENTS = st.builds(
    Event,
    st.integers(0, 12).map(float),
    st.sampled_from(["a", "b", "c"]),
    st.sampled_from([0.0, 1.0, 2.5]),
)
_OPS = st.lists(
    st.one_of(
        _EVENTS.map(lambda e: ("push", e)),
        st.integers(0, 16).map(lambda t: ("advance", float(t))),
        st.just(("state", None)),
    ),
    max_size=60,
)


def _drops(log):
    return log.counts, [
        (d.timestamp, d.device_id, d.value, d.reason) for d in log.samples
    ]


def _keys(events):
    return [(e.timestamp, e.device_id, e.value) for e in events]


class TestReferenceParity:
    """The tuple-keyed heap releases, drops and checkpoints exactly as the
    :class:`Event`-heap reference does."""

    @settings(max_examples=300, deadline=None)
    @given(
        ops=_OPS,
        lateness=st.sampled_from([0.0, 1.0, 3.0, 10.0]),
        max_pending=st.integers(1, 6),
        restore_at=st.integers(0, 60),
    )
    def test_release_sequence_drops_and_state_match(
        self, ops, lateness, max_pending, restore_at
    ):
        buf = ReorderBuffer(lateness, max_pending=max_pending, log=DropLog())
        ref = ReferenceReorderBuffer(lateness, max_pending=max_pending, log=DropLog())
        for index, (op, arg) in enumerate(ops):
            if index == restore_at:
                # Continue from a checkpoint of the buffer under test.
                clone = ReorderBuffer(1.0, log=buf.log)
                clone.load_state(json.loads(json.dumps(buf.state_dict())))
                buf = clone
            if op == "push":
                assert _keys(buf.push(arg)) == _keys(ref.push(arg))
            elif op == "advance":
                assert _keys(buf.advance_to(arg)) == _keys(ref.advance_to(arg))
            else:
                assert json.dumps(buf.state_dict()) == json.dumps(ref.state_dict())
            assert buf.pending == ref.pending
            assert buf.watermark == ref.watermark
        assert json.dumps(buf.state_dict()) == json.dumps(ref.state_dict())
        assert _keys(buf.flush()) == _keys(ref.flush())
        assert _drops(buf.log) == _drops(ref.log)
