"""Reference reorder buffer: a heap of :class:`Event` objects.

:class:`repro.streaming.ReorderBuffer` keys its heap on
``(timestamp, device_id, value)`` tuples and tracks pending events in a
set.  This module keeps the earlier, independent formulation — a heap of
``Event`` objects ordered by the dataclass's generated comparisons and a
per-key pending count — so the reorder suite compares two genuinely
different implementations of the same release rule.  It drops into a
:class:`repro.streaming.DropLog` exactly as the production buffer does.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.model import Event
from repro.streaming import DUPLICATE, TOO_LATE, DropLog
from repro.streaming.guard import DroppedEvent

_NEG_INF = float("-inf")


class ReferenceReorderBuffer:
    """Event-heap reorder buffer with the production buffer's interface."""

    def __init__(
        self, lateness_seconds: float, max_pending: int = 4096, log: Optional[DropLog] = None
    ) -> None:
        self.lateness_seconds = float(lateness_seconds)
        self.max_pending = int(max_pending)
        self.log = log if log is not None else DropLog()
        self._heap: List[Event] = []
        self._pending_keys: Dict[Tuple[float, str, float], int] = {}
        self._watermark = _NEG_INF
        self.force_released = 0

    @property
    def watermark(self) -> float:
        return self._watermark

    @property
    def pending(self) -> int:
        return len(self._heap)

    def push(self, event: Event) -> List[Event]:
        if event.timestamp < self._watermark:
            self.log.record(
                DroppedEvent(event.timestamp, event.device_id, event.value, TOO_LATE)
            )
            return []
        key = (event.timestamp, event.device_id, event.value)
        if self._pending_keys.get(key, 0):
            self.log.record(
                DroppedEvent(event.timestamp, event.device_id, event.value, DUPLICATE)
            )
            return []
        heapq.heappush(self._heap, event)
        self._pending_keys[key] = self._pending_keys.get(key, 0) + 1
        released = self._release(event.timestamp - self.lateness_seconds)
        while len(self._heap) > self.max_pending:
            released.append(self._pop_front())
            self.force_released += 1
        return released

    def advance_to(self, timestamp: float) -> List[Event]:
        return self._release(timestamp - self.lateness_seconds)

    def flush(self) -> List[Event]:
        released: List[Event] = []
        while self._heap:
            released.append(self._pop_front())
        return released

    def _release(self, watermark: float) -> List[Event]:
        if watermark > self._watermark:
            self._watermark = watermark
        released: List[Event] = []
        while self._heap and self._heap[0].timestamp <= self._watermark:
            released.append(self._pop_front())
        return released

    def _pop_front(self) -> Event:
        event = heapq.heappop(self._heap)
        key = (event.timestamp, event.device_id, event.value)
        count = self._pending_keys[key]
        if count <= 1:
            del self._pending_keys[key]
        else:
            self._pending_keys[key] = count - 1
        if event.timestamp > self._watermark:
            self._watermark = event.timestamp
        return event

    def state_dict(self) -> dict:
        return {
            "lateness_seconds": self.lateness_seconds,
            "max_pending": self.max_pending,
            "watermark": None if self._watermark == _NEG_INF else self._watermark,
            "pending": [[e.timestamp, e.device_id, e.value] for e in sorted(self._heap)],
        }
