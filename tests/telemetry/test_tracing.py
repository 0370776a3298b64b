"""Tracer: span nesting, timing, histogram reporting, disabled mode."""

import time

from repro.telemetry import NULL_REGISTRY, NULL_TRACER, MetricsRegistry, Tracer
from repro.telemetry.spans import SPAN_HISTOGRAM, _NULL_SPAN


def _finished(tracer):
    return [(s.name, s.parent, s.depth) for s in tracer.finished]


class TestNesting:
    def test_parent_child_linkage(self):
        tracer = Tracer(MetricsRegistry())
        with tracer.trace("window") as outer:
            with tracer.trace("correlation"):
                pass
            with tracer.trace("transition"):
                pass
        assert _finished(tracer) == [
            ("correlation", "window", 1),
            ("transition", "window", 1),
            ("window", None, 0),
        ]
        assert outer.children == 2

    def test_children_finish_before_parents(self):
        tracer = Tracer(MetricsRegistry())
        with tracer.trace("a"):
            with tracer.trace("b"):
                with tracer.trace("c"):
                    pass
        assert [s.name for s in tracer.finished] == ["c", "b", "a"]

    def test_exception_unwinds_cleanly(self):
        tracer = Tracer(MetricsRegistry())
        try:
            with tracer.trace("outer"):
                with tracer.trace("inner"):
                    raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert [s.name for s in tracer.finished] == ["inner", "outer"]
        # The stack is empty again: the next span is a root.
        with tracer.trace("fresh") as span:
            assert span.depth == 0


class TestTiming:
    def test_duration_covers_the_block(self):
        tracer = Tracer(MetricsRegistry())
        with tracer.trace("sleepy"):
            time.sleep(0.01)
        span = tracer.finished[-1]
        assert span.duration >= 0.01

    def test_durations_land_in_histogram(self):
        reg = MetricsRegistry()
        tracer = Tracer(reg)
        for name in ("stage", "other", "stage"):
            with tracer.trace(name):
                pass
        rows = reg.snapshot()["metrics"][SPAN_HISTOGRAM]["series"]
        assert [(r["labels"], r["count"]) for r in rows] == [
            ({"span": "other"}, 1),
            ({"span": "stage"}, 2),
        ]

    def test_ring_is_bounded(self):
        tracer = Tracer(MetricsRegistry(), keep=3)
        for i in range(10):
            with tracer.trace(f"s{i}"):
                pass
        assert [s.name for s in tracer.finished] == ["s7", "s8", "s9"]


class TestDisabled:
    def test_null_registry_yields_shared_null_span(self):
        tracer = Tracer(NULL_REGISTRY)
        assert not tracer.enabled
        span = tracer.trace("anything")
        assert span is _NULL_SPAN
        with span:
            pass
        assert len(tracer.finished) == 0

    def test_null_tracer_is_disabled(self):
        assert NULL_TRACER.trace("x") is _NULL_SPAN
