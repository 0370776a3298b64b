"""Span-based stage tracing for the detection pipeline.

A *span* is one named, timed unit of work; spans nest, so a window handled
by the streaming runtime traces as::

    window                      1.9 ms
      correlation               1.6 ms
      transition                0.1 ms
      identification            0.2 ms

:class:`Tracer` keeps a per-thread stack for parent/child linkage, records
every finished span's wall-clock into the ``dice_span_seconds`` histogram
(labelled by span name) of its :class:`~repro.telemetry.MetricsRegistry`,
and retains a bounded ring of recent :class:`Span` records for inspection.
A tracer over a disabled registry is a no-op: ``trace`` returns a shared
null context manager, so instrumented code needs no ``if telemetry:``
branches.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional

from .registry import NULL_REGISTRY, MetricsRegistry

#: Histogram family every finished span reports into.
SPAN_HISTOGRAM = "dice_span_seconds"


@dataclass
class Span:
    """One finished (or in-flight) traced interval."""

    name: str
    parent: Optional[str]
    depth: int
    start: float  # perf_counter seconds; comparable within a process only
    duration: float = 0.0
    children: int = 0
    _tracer: "Tracer" = field(default=None, repr=False, compare=False)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._finish(self)


class _NullSpan:
    """Shared no-op span for disabled tracers."""

    __slots__ = ()
    name = parent = None
    depth = children = 0
    start = duration = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Produces nested, timed spans that report into a metrics registry.

    ``keep`` bounds the finished-span ring; the ring holds the *most
    recent* spans in finish order (children finish before parents, so a
    window's stage spans precede its enclosing window span).
    """

    def __init__(
        self, metrics: Optional[MetricsRegistry] = None, keep: int = 256
    ) -> None:
        self.metrics = NULL_REGISTRY if metrics is None else metrics
        self.enabled = self.metrics.enabled
        self.finished: Deque[Span] = deque(maxlen=keep)
        self._hist = self.metrics.histogram(
            SPAN_HISTOGRAM, "Wall-clock seconds per traced span", labelnames=("span",)
        )
        # Histogram child per span name, bound on first use: a handful of
        # names, finished thousands of times per second.
        self._children: Dict[str, object] = {}
        self._local = threading.local()

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_local"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def trace(self, name: str) -> Span:
        """Open a span; use as a context manager.

        >>> with tracer.trace("correlation"):
        ...     checker.check(mask)
        """
        if not self.enabled:
            return _NULL_SPAN
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(
            name=name,
            parent=parent.name if parent else None,
            depth=len(stack),
            start=time.perf_counter(),
            _tracer=self,
        )
        if parent is not None:
            parent.children += 1
        stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.duration = time.perf_counter() - span.start
        stack = self._stack()
        # Tolerate exits out of order (an exception unwinding several
        # levels): pop everything above the finishing span.
        while stack and stack[-1] is not span:
            stack.pop()
        if stack:
            stack.pop()
        self.finished.append(span)
        child = self._children.get(span.name)
        if child is None:
            child = self._children[span.name] = self._hist.labels(span=span.name)
        child.observe(span.duration)


#: Shared disabled tracer (the span analogue of ``NULL_REGISTRY``).
NULL_TRACER = Tracer(NULL_REGISTRY)
