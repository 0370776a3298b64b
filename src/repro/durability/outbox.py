"""At-least-once alert delivery: journal first, deliver until acked.

An alert that never reaches its sink is a silent failure of the whole
system — the detector did its job and nobody heard.  The outbox gives
alerts the same durability the event journal gives events:

1. every alert is **journaled** (``outbox.wal``, same length+CRC frame as
   the event journal) before any delivery attempt;
2. delivery to a pluggable :class:`AlertSink` retries with exponential
   backoff plus jitter, up to a bounded attempt budget;
3. a delivered alert is **acked** (``acks.wal``) so a restart does not
   re-send it; an exhausted alert goes to the dead-letter file
   (``dead-letter.jsonl``) and is acked as dead so it stops blocking;
4. on restart the outbox re-offers every journaled-but-unacked alert —
   *at-least-once*: a crash between delivery and ack re-delivers, and the
   deterministic alert id lets sinks (and the outbox itself, on
   re-offer) dedup the copies.

Alert ids are pure functions of ``(home, sequence, alert content)``, so a
recovery replay that reproduces the alert stream reproduces the ids —
redelivery after a crash is idempotent end to end.

The unacked records are kept in their own insertion-ordered map, so
:attr:`AlertOutbox.pending` and :meth:`AlertOutbox.deliver_pending` cost
what is pending, not the whole history.  ``outbox.wal``, ``acks.wal`` and
:class:`FileSink`'s file each keep one append handle for the object's
lifetime and are flushed after every record (the bytes reach the OS at
the same points as with a handle per write; nothing is fsynced);
``close()`` releases them and the next write reopens.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Dict, List, Optional, Set, Union

from .. import telemetry
from ..streaming import Alert
from ..telemetry.provenance import alert_body, trace_id
from .journal import AppendFile, encode_record, read_segment

PathLike = Union[str, os.PathLike]

OUTBOX_WAL = "outbox.wal"
ACKS_WAL = "acks.wal"
DEAD_LETTER = "dead-letter.jsonl"

OUTBOX_OFFERED_TOTAL = "dice_outbox_offered_total"
OUTBOX_DELIVERED_TOTAL = "dice_outbox_delivered_total"
OUTBOX_RETRIES_TOTAL = "dice_outbox_retries_total"
OUTBOX_DEAD_LETTER_TOTAL = "dice_outbox_dead_letter_total"
OUTBOX_DEDUPED_TOTAL = "dice_outbox_deduped_total"

_log = telemetry.get_logger("repro.durability.outbox")


def alert_record(home_id: str, seq: int, alert: Alert) -> dict:
    """The JSON form of one alert, with its deterministic delivery id.

    The id hashes the home, the per-home sequence number, and the full
    alert content — any run that reproduces the alert stream (the
    recovery guarantee) reproduces the ids, which is what makes
    redelivery after a crash idempotent.
    """
    body = alert_body(home_id, seq, alert)
    return {"id": trace_id(body), **body}


class AlertSink:
    """Delivery target interface: raise to signal a failed attempt."""

    def deliver(self, record: dict) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Release whatever the sink holds open; the outbox's ``close``
        calls it."""


class FileSink(AlertSink):
    """Append each delivered alert as one JSON line (the default target)."""

    def __init__(self, path: PathLike) -> None:
        self.path = os.fspath(path)
        self._file = AppendFile(self.path, "a", encoding="utf-8")

    def deliver(self, record: dict) -> None:
        self._file.write(json.dumps(record, sort_keys=True) + "\n")

    def close(self) -> None:
        self._file.close()


class CallbackSink(AlertSink):
    """Deliver by calling a function (webhooks, queues, test probes)."""

    def __init__(self, callback: Callable[[dict], None]) -> None:
        self.callback = callback

    def deliver(self, record: dict) -> None:
        self.callback(record)


class FlakySink(AlertSink):
    """Test/chaos sink: fail the first *failures* attempts per alert id.

    With ``failures`` below the outbox's attempt budget every alert is
    eventually delivered (exercising the retry path); above it, alerts
    dead-letter (exercising exhaustion).
    """

    def __init__(self, inner: AlertSink, failures: int = 1) -> None:
        self.inner = inner
        self.failures = int(failures)
        self.attempts: Dict[str, int] = {}
        self.delivered: List[dict] = []

    def deliver(self, record: dict) -> None:
        seen = self.attempts.get(record["id"], 0)
        self.attempts[record["id"]] = seen + 1
        if seen < self.failures:
            raise ConnectionError(
                f"flaky sink: attempt {seen + 1} for {record['id']}"
            )
        self.inner.deliver(record)
        self.delivered.append(record)

    def close(self) -> None:
        self.inner.close()


class AlertOutbox:
    """Durable, retrying, deduplicating alert dispatcher for one process.

    Parameters
    ----------
    directory:
        Where the outbox journal, ack log and dead-letter file live.
    sink:
        The delivery target.
    max_attempts:
        Delivery attempts per alert before it dead-letters.
    base_delay / max_delay / jitter:
        Exponential backoff: attempt *n* waits
        ``min(max_delay, base_delay * 2**(n-1)) * (1 + jitter * U[0,1))``.
    sleep:
        Injectable clock (tests pass a recorder; production the default).
    rng:
        Jitter source; ``random.Random`` instance or anything with
        ``random()``.  Takes precedence over *jitter_seed*.
    jitter_seed:
        Seed for the default jitter source, so chaos trials and retry
        tests replay a byte-identical backoff schedule; two outboxes with
        the same seed (and no explicit *rng*) draw the same delays.
        Defaults to 0 — the backoff sequence has always been
        deterministic-by-default.
    """

    def __init__(
        self,
        directory: PathLike,
        sink: AlertSink,
        *,
        max_attempts: int = 5,
        base_delay: float = 0.05,
        max_delay: float = 2.0,
        jitter: float = 0.5,
        sleep: Callable[[float], None] = time.sleep,
        rng=None,
        jitter_seed: Optional[int] = None,
        metrics: Optional["telemetry.MetricsRegistry"] = None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.sink = sink
        self.max_attempts = int(max_attempts)
        self.base_delay = float(base_delay)
        self.max_delay = float(max_delay)
        self.jitter = float(jitter)
        self.sleep = sleep
        if rng is None:
            import random

            rng = random.Random(0 if jitter_seed is None else jitter_seed)
        self.rng = rng
        self.metrics = metrics if metrics is not None else telemetry.NULL_REGISTRY
        self._offered_counter = self.metrics.counter(
            OUTBOX_OFFERED_TOTAL, "Alerts offered to the outbox"
        )
        self._delivered_counter = self.metrics.counter(
            OUTBOX_DELIVERED_TOTAL, "Alerts successfully delivered to the sink"
        )
        self._retries_counter = self.metrics.counter(
            OUTBOX_RETRIES_TOTAL, "Failed delivery attempts that were retried"
        )
        self._dead_counter = self.metrics.counter(
            OUTBOX_DEAD_LETTER_TOTAL, "Alerts dead-lettered after retry exhaustion"
        )
        self._deduped_counter = self.metrics.counter(
            OUTBOX_DEDUPED_TOTAL, "Alert offers suppressed as duplicates"
        )
        self._wal_path = os.path.join(self.directory, OUTBOX_WAL)
        self._acks_path = os.path.join(self.directory, ACKS_WAL)
        self._dead_path = os.path.join(self.directory, DEAD_LETTER)
        self._wal = AppendFile(self._wal_path)
        self._acks = AppendFile(self._acks_path)
        self._journaled: Set[str] = set()
        self._acked: Dict[str, str] = {}
        #: Journaled, unacked records by id, in journal order.
        self._pending: Dict[str, dict] = {}
        self._load()

    # ------------------------------------------------------------------ #

    def _load(self) -> None:
        """Rebuild journaled/acked sets from disk (restart path).

        Both logs tolerate a torn tail — a crash mid-append loses at most
        the record being written, which for the ack log just means one
        redelivery (at-least-once, by design).
        """
        if os.path.exists(self._acks_path):
            acks, _ = read_segment(self._acks_path)
            for ack in acks:
                self._acked[ack["id"]] = ack.get("outcome", "delivered")
        if os.path.exists(self._wal_path):
            records, _ = read_segment(self._wal_path)
            for record in records:
                record_id = record["id"]
                self._journaled.add(record_id)
                if record_id not in self._acked:
                    self._pending[record_id] = record

    @property
    def pending(self) -> List[dict]:
        """Journaled alerts not yet acked, in journal order."""
        return list(self._pending.values())

    def dead_letters(self) -> List[dict]:
        """The dead-letter file's records (empty when it does not exist)."""
        if not os.path.exists(self._dead_path):
            return []
        with open(self._dead_path, "r", encoding="utf-8") as handle:
            return [json.loads(line) for line in handle if line.strip()]

    def delivered_ids(self) -> List[str]:
        return sorted(
            record_id
            for record_id, outcome in self._acked.items()
            if outcome == "delivered"
        )

    # ------------------------------------------------------------------ #

    def offer(self, record: dict) -> bool:
        """Journal one alert for delivery; returns False for duplicates.

        A record whose id is already journaled (a recovery replay
        re-offering history) is suppressed — the original journal entry
        and its delivery state stand.
        """
        self._offered_counter.inc()
        record_id = record["id"]
        if record_id in self._journaled:
            self._deduped_counter.inc()
            return False
        self._wal.write(encode_record(record))
        self._journaled.add(record_id)
        if record_id not in self._acked:
            self._pending[record_id] = record
        return True

    def _ack(self, record_id: str, outcome: str) -> None:
        self._acks.write(encode_record({"id": record_id, "outcome": outcome}))
        self._acked[record_id] = outcome
        self._pending.pop(record_id, None)

    def close(self) -> None:
        """Close the outbox and ack logs and the sink (each reopens on its
        next write)."""
        self._wal.close()
        self._acks.close()
        self.sink.close()

    def _backoff(self, attempt: int) -> float:
        delay = min(self.max_delay, self.base_delay * (2.0 ** (attempt - 1)))
        return delay * (1.0 + self.jitter * self.rng.random())

    def deliver_pending(self) -> Dict[str, int]:
        """Drive every pending alert to delivery or the dead-letter file.

        Returns ``{"delivered": n, "dead": m}``.  At-least-once: an alert
        is acked only *after* the sink accepted it, so a crash inside this
        loop re-sends on the next run rather than losing anything.
        """
        delivered = dead = 0
        for record in self.pending:
            outcome = self._deliver_one(record)
            if outcome == "delivered":
                delivered += 1
            else:
                dead += 1
        return {"delivered": delivered, "dead": dead}

    def _deliver_one(self, record: dict) -> str:
        last_error: Optional[BaseException] = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                self.sink.deliver(record)
            except Exception as exc:  # noqa: BLE001 - sinks may raise anything
                last_error = exc
                if attempt < self.max_attempts:
                    self._retries_counter.inc()
                    self.sleep(self._backoff(attempt))
                continue
            self._ack(record["id"], "delivered")
            self._delivered_counter.inc()
            return "delivered"
        with open(self._dead_path, "a", encoding="utf-8") as handle:
            handle.write(
                json.dumps(
                    {
                        "record": record,
                        "attempts": self.max_attempts,
                        "error": str(last_error),
                    },
                    sort_keys=True,
                )
                + "\n"
            )
        self._ack(record["id"], "dead")
        self._dead_counter.inc()
        _log.warning(
            "alert_dead_lettered",
            id=record["id"],
            kind=record.get("kind"),
            attempts=self.max_attempts,
            error=str(last_error),
        )
        return "dead"
