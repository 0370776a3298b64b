"""Bounded reorder buffer with watermark semantics.

Gateway pipes deliver telemetry late and out of order: a Zigbee retry, a
congested uplink, a device flushing a backlog after a brief radio outage.
The :class:`ReorderBuffer` absorbs that within a configurable *lateness
budget*: events are held in a min-heap and released in timestamp order once
the **watermark** — the highest timestamp seen minus the budget — passes
them, so anything that arrives within the budget is re-sorted into its
correct window.  Events behind the watermark are counted-and-dropped
(``too_late``) rather than raising mid-stream, and exact duplicates still
pending in the buffer are dropped as ``duplicate`` — re-delivered frames
would otherwise skew numeric window statistics.

The buffer is bounded (``max_pending``): on overflow the oldest pending
event is force-released and the watermark advances to its timestamp, which
keeps memory flat under a pathological pipe at the cost of shrinking the
effective budget while the burst lasts.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Set, Tuple

from .. import telemetry
from ..model import Event
from .guard import DUPLICATE, TOO_LATE, DropLog, DroppedEvent

#: Counter of overflow force-releases (budget-shrinking events).
FORCE_RELEASED_TOTAL = "dice_reorder_force_released_total"

_NEG_INF = float("-inf")

#: An event's order key: exactly :class:`Event`'s ``order=True`` fields.
_Key = Tuple[float, str, float]

_log = telemetry.get_logger("repro.streaming.reorder")


class ReorderBuffer:
    """Re-sorts events that arrive within ``lateness_seconds`` of the front."""

    def __init__(
        self,
        lateness_seconds: float,
        max_pending: int = 4096,
        log: Optional[DropLog] = None,
        metrics: Optional["telemetry.MetricsRegistry"] = None,
    ) -> None:
        if lateness_seconds < 0:
            raise ValueError("lateness_seconds must be non-negative")
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        self.lateness_seconds = float(lateness_seconds)
        self.max_pending = int(max_pending)
        self.log = log if log is not None else DropLog()
        # Heap entries are ``(key, event)``: tuple comparison on the key
        # releases in ``Event`` order (keys of pending events are unique,
        # so the event itself is never compared).
        self._heap: List[Tuple[_Key, Event]] = []
        self._pending_keys: Set[_Key] = set()
        self._watermark = _NEG_INF
        self._newest = _NEG_INF
        self.force_released = 0
        registry = telemetry.NULL_REGISTRY if metrics is None else metrics
        self._force_counter = registry.counter(
            FORCE_RELEASED_TOTAL,
            "Events released early because the reorder buffer overflowed",
        )

    # ------------------------------------------------------------------ #

    @property
    def watermark(self) -> float:
        """No event at or before this time will be released in the future."""
        return self._watermark

    @property
    def pending(self) -> int:
        return len(self._heap)

    @property
    def watermark_lag(self) -> float:
        """Seconds between the newest timestamp seen and the watermark —
        how far behind real time released windows currently run.  ``0.0``
        before any event arrives."""
        if self._newest == _NEG_INF:
            return 0.0
        return max(0.0, self._newest - self._watermark)

    def holds(self, event: Event) -> bool:
        """Whether an event equal to *event* is pending (not yet released)."""
        return (event.timestamp, event.device_id, event.value) in self._pending_keys

    def push(self, event: Event) -> List[Event]:
        """Buffer one event; returns events newly released in time order."""
        timestamp = event.timestamp
        if timestamp < self._watermark:
            self.log.record(
                DroppedEvent(timestamp, event.device_id, event.value, TOO_LATE)
            )
            return []
        key = (timestamp, event.device_id, event.value)
        if key in self._pending_keys:
            self.log.record(
                DroppedEvent(timestamp, event.device_id, event.value, DUPLICATE)
            )
            return []
        heapq.heappush(self._heap, (key, event))
        self._pending_keys.add(key)
        if timestamp > self._newest:
            self._newest = timestamp
        released = self._release(timestamp - self.lateness_seconds)
        while len(self._heap) > self.max_pending:
            forced = self._pop_front()
            released.append(forced)
            self.force_released += 1
            self._force_counter.inc()
            # A flood over capacity force-releases per event — throttle the
            # warning so the log survives; suppressed repeats are counted.
            _log.throttled(
                "warning",
                "force_release",
                5.0,
                timestamp=forced.timestamp,
                device=forced.device_id,
                pending=len(self._heap),
                watermark=self._watermark,
            )
        return released

    def advance_to(self, timestamp: float) -> List[Event]:
        """Account for wall-clock reaching *timestamp* with no new events:
        releases everything at or before ``timestamp - lateness``."""
        return self._release(timestamp - self.lateness_seconds)

    def flush(self) -> List[Event]:
        """End-of-stream: release every pending event in time order."""
        released: List[Event] = []
        while self._heap:
            released.append(self._pop_front())
        return released

    # ------------------------------------------------------------------ #

    def _release(self, watermark: float) -> List[Event]:
        if watermark > self._watermark:
            self._watermark = watermark
        released: List[Event] = []
        heap = self._heap
        while heap and heap[0][0][0] <= self._watermark:
            released.append(self._pop_front())
        return released

    def _pop_front(self) -> Event:
        key, event = heapq.heappop(self._heap)
        self._pending_keys.discard(key)
        # A force-released event (overflow) drags the watermark with it so
        # later arrivals older than it are correctly counted as too late.
        if event.timestamp > self._watermark:
            self._watermark = event.timestamp
        return event

    # -- checkpoint support ---------------------------------------------- #

    def state_dict(self) -> dict:
        return {
            "lateness_seconds": self.lateness_seconds,
            "max_pending": self.max_pending,
            "watermark": None if self._watermark == _NEG_INF else self._watermark,
            "pending": [list(key) for key, _ in sorted(self._heap)],
        }

    def load_state(self, state: dict) -> None:
        self.lateness_seconds = float(state["lateness_seconds"])
        self.max_pending = int(state["max_pending"])
        wm = state["watermark"]
        self._watermark = _NEG_INF if wm is None else float(wm)
        self._heap = []
        for t, d, v in state["pending"]:
            event = Event(float(t), str(d), float(v))
            self._heap.append(((event.timestamp, event.device_id, event.value), event))
        self._newest = max([self._watermark] + [key[0] for key, _ in self._heap])
        heapq.heapify(self._heap)
        self._pending_keys = {key for key, _ in self._heap}
