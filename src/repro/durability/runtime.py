"""The durable gateway: journal → runtime → outbox, with crash recovery.

:class:`DurableOnlineDice` wraps a
:class:`~repro.streaming.HardenedOnlineDice` so that

* every raw event from the pipe is appended to the per-home
  :class:`~repro.durability.journal.EventJournal` **before** it touches
  any runtime state (the guard's drop decisions replay identically, so
  drop counters recover too);
* every alert the runtime raises is stamped with a per-home sequence
  number and offered to the :class:`~repro.durability.outbox.AlertOutbox`
  (when one is attached) for at-least-once delivery;
* :meth:`save_checkpoint` extends the streaming layer's versioned
  snapshot with a ``durability`` section (journal epoch, alert sequence),
  rotates the journal to the next epoch, and truncates the superseded
  segments;
* :meth:`recover` rebuilds the runtime from checkpoint + journal tail —
  by construction the recovered process reproduces the alert stream an
  uninterrupted run would have produced (pinned by the chaos harness).
"""

from __future__ import annotations

import json
import os
import time
from typing import Iterable, List, Optional, Tuple, Union

from .. import telemetry
from ..core import DiceDetector
from ..model import Event
from ..streaming import (
    Alert,
    CheckpointError,
    HardenedOnlineDice,
    checkpoint_state,
    load_checkpoint,
    restore_runtime,
)
from ..streaming.checkpoint import write_json_atomic
from .journal import EventJournal, frame_payload, replay_records
from .outbox import AlertOutbox, alert_record
from .provenance import ProvenanceLog

PathLike = Union[str, os.PathLike]

RECOVERY_SECONDS_HISTOGRAM = "dice_recovery_seconds"

#: Buckets for the recovery-time histogram: recovery is checkpoint load +
#: journal replay, so it scales with the tail length — 1 ms to ~1 min.
RECOVERY_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0)

_log = telemetry.get_logger("repro.durability.runtime")


def event_to_record(event: Event) -> dict:
    """The journal form of one event (lossless float round trip)."""
    return {"type": "event", "t": event.timestamp, "d": event.device_id, "v": event.value}


def record_to_event(record: dict) -> Event:
    return Event(record["t"], record["d"], record["v"])


_INF = float("inf")
_device_json_cache: dict = {}


def _json_num(value) -> str:
    """``json.dumps`` rendering of one number, without the dispatch cost.

    ``json`` serializes floats via ``repr`` (shortest round trip) except
    the non-finite values, which it spells ``NaN``/``Infinity``; matching
    that exactly keeps the fast path byte-identical to
    ``encode_record(event_to_record(event))``.
    """
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INF:
            return "Infinity"
        if value == -_INF:
            return "-Infinity"
        return repr(value)
    return json.dumps(value)


def encode_event_frame(event: Event) -> bytes:
    """Pre-framed journal bytes for one event.

    Byte-identical to ``encode_record(event_to_record(event))`` but several
    times faster — the ingest hot path pays this per accepted event, and
    the journal's overhead budget is 1.5x of the unjournaled runtime.
    """
    device = _device_json_cache.get(event.device_id)
    if device is None:
        device = json.dumps(event.device_id, ensure_ascii=False)
        _device_json_cache[event.device_id] = device
    payload = (
        f'{{"d":{device},"t":{_json_num(event.timestamp)},'
        f'"type":"event","v":{_json_num(event.value)}}}'
    ).encode("utf-8")
    return frame_payload(payload)


class DurableOnlineDice:
    """A hardened runtime with a write-ahead journal and an alert outbox.

    Parameters
    ----------
    detector:
        The fitted detector (as for :class:`HardenedOnlineDice`).
    journal_dir:
        Per-home journal directory.
    home_id:
        Stamped into alert records/ids so a fleet's sinks can attribute
        and dedup per home.
    outbox:
        Optional :class:`AlertOutbox`; without one, alerts are journaled
        implicitly by the event journal only (replay regenerates them).
    fsync / fsync_interval:
        Journal fsync policy (see :mod:`repro.durability.journal`).
    runtime:
        Internal — a pre-built runtime to adopt (the recovery path).
    """

    def __init__(
        self,
        detector: DiceDetector,
        journal_dir: PathLike,
        *,
        home_id: str = "home",
        start: float = 0.0,
        fsync: str = "never",
        fsync_interval: int = 64,
        outbox: Optional[AlertOutbox] = None,
        runtime: Optional[HardenedOnlineDice] = None,
        alert_seq: int = 0,
        **runtime_kwargs,
    ) -> None:
        adopted = runtime is not None
        if runtime is None:
            runtime = HardenedOnlineDice(detector, start=start, **runtime_kwargs)
        self.runtime = runtime
        self.home_id = home_id
        self.outbox = outbox
        self.alert_seq = int(alert_seq)
        self.metrics = runtime.metrics
        # The recorder must stamp the same home into its trace ids as the
        # outbox stamps into delivery ids — that equality is what lets
        # ``repro explain <id>`` take ids straight off an alerts file.
        if runtime.provenance.enabled:
            runtime.provenance.home_id = home_id
        self.provenance_log = ProvenanceLog(journal_dir, metrics=self.metrics)
        self.journal = EventJournal(
            journal_dir,
            fsync=fsync,
            fsync_interval=fsync_interval,
            metrics=self.metrics,
        )
        if not adopted and self.journal.segments():
            # A fresh runtime over a dirty journal directory: never extend
            # a segment from an earlier life (it may end in a torn record,
            # and its history belongs to a different run) — start a new one.
            _log.warning(
                "journal_dir_not_empty",
                directory=os.fspath(journal_dir),
                epoch=self.journal.epoch,
            )
            self.journal.rotate(self.journal.epoch + 1)

    # ------------------------------------------------------------------ #

    @property
    def alerts(self) -> List[Alert]:
        return self.runtime.alerts

    @property
    def detector(self) -> DiceDetector:
        return self.runtime.detector

    def _publish(self, fresh: List[Alert]) -> List[Alert]:
        """Stamp sequence numbers, hand alerts to the outbox, and archive
        their evidence records (the recorder sealed one per alert, in the
        same emission order — its seq equals ``alert_seq``)."""
        for alert in fresh:
            self.alert_seq += 1
            if self.outbox is not None:
                self.outbox.offer(alert_record(self.home_id, self.alert_seq, alert))
        for record in self.runtime.provenance.drain_unjournaled():
            self.provenance_log.append(record)
        return fresh

    def ingest(self, event: Event) -> List[Alert]:
        """Journal one raw event, then feed it to the hardened runtime."""
        self.journal.append_frame(encode_event_frame(event))
        return self._publish(self.runtime.ingest(event))

    def ingest_many(self, events: Iterable[Event]) -> List[Alert]:
        fresh: List[Alert] = []
        for event in events:
            fresh.extend(self.ingest(event))
        return fresh

    def finish_stream(self, end: Optional[float] = None) -> List[Alert]:
        return self._publish(self.runtime.finish_stream(end))

    def deliver_pending(self) -> dict:
        """Drive the outbox (no-op without one)."""
        if self.outbox is None:
            return {"delivered": 0, "dead": 0}
        return self.outbox.deliver_pending()

    def health(self) -> dict:
        report = self.runtime.health()
        report["durability"] = {
            "journal_epoch": self.journal.epoch,
            "journal_segments": len(self.journal.segments()),
            "alert_seq": self.alert_seq,
            "outbox_pending": 0 if self.outbox is None else len(self.outbox.pending),
            "provenance_records": len(self.provenance_log),
        }
        return report

    def close(self) -> None:
        self.journal.close()

    # ------------------------------------------------------------------ #
    # Checkpoint & recovery
    # ------------------------------------------------------------------ #

    def save_checkpoint(self, path: PathLike) -> None:
        """Snapshot the runtime, then rotate and truncate the journal.

        Order is the crash-safety argument: the journal is synced first
        (every event the snapshot accounts for is on disk), the snapshot
        is written atomically recording the current journal epoch, and
        only then are superseded segments removed — a crash at any point
        leaves either the old checkpoint with its full journal, or the
        new checkpoint with at worst some not-yet-truncated (ignored)
        segments.
        """
        self.journal.sync()
        state = checkpoint_state(self.runtime)
        state["durability"] = {
            "journal_epoch": self.journal.epoch,
            "alert_seq": self.alert_seq,
            "home_id": self.home_id,
        }
        write_json_atomic(state, path)
        superseded = self.journal.epoch
        self.journal.rotate(superseded + 1)
        self.journal.truncate_through(superseded)
        _log.info(
            "durable_checkpoint_saved",
            path=os.fspath(path),
            epoch=superseded,
            alert_seq=self.alert_seq,
        )

    @classmethod
    def recover(
        cls,
        detector: DiceDetector,
        journal_dir: PathLike,
        *,
        checkpoint_path: Optional[PathLike] = None,
        home_id: str = "home",
        start: float = 0.0,
        fsync: str = "never",
        fsync_interval: int = 64,
        outbox: Optional[AlertOutbox] = None,
        **runtime_kwargs,
    ) -> Tuple["DurableOnlineDice", List[Alert]]:
        """Checkpoint + journal-tail restart after a crash.

        Loads the checkpoint when *checkpoint_path* names an existing
        file (otherwise starts a fresh runtime at *start*); a checkpoint
        without the ``durability`` section :meth:`save_checkpoint` writes
        raises :class:`CheckpointError`.  Then replays every
        journal record after the checkpoint's epoch, re-offers the
        replayed alerts to the outbox (idempotent: already-journaled ids
        dedup; unacked ones redeliver — at-least-once), and rotates to a
        fresh segment so post-recovery appends never extend a possibly
        torn file.

        Returns ``(runtime, replayed_alerts)``.
        """
        t0 = time.perf_counter()
        after_epoch = -1
        alert_seq = 0
        runtime: Optional[HardenedOnlineDice] = None
        if checkpoint_path is not None and os.path.exists(os.fspath(checkpoint_path)):
            state = load_checkpoint(checkpoint_path)
            durability = state.get("durability")
            if durability is None:
                # A plain runtime snapshot names no journal epoch: replaying
                # the whole journal over it would double-apply events and
                # renumber alerts from 0, colliding with outbox ids.
                raise CheckpointError(
                    f"{os.fspath(checkpoint_path)}: checkpoint has no "
                    "'durability' section (not written by "
                    "DurableOnlineDice.save_checkpoint)"
                )
            runtime = restore_runtime(detector, state, **runtime_kwargs)
            after_epoch = durability["journal_epoch"]
            alert_seq = durability["alert_seq"]
            home_id = durability["home_id"]
        if runtime is None:
            runtime = HardenedOnlineDice(detector, start=start, **runtime_kwargs)
        records, torn = replay_records(
            journal_dir, after_epoch=after_epoch, metrics=runtime.metrics
        )
        durable = cls(
            detector,
            journal_dir,
            home_id=home_id,
            fsync=fsync,
            fsync_interval=fsync_interval,
            outbox=outbox,
            runtime=runtime,
            alert_seq=alert_seq,
        )
        replayed: List[Alert] = []
        for record in records:
            if record.get("type") != "event":
                continue
            fresh = runtime.ingest(record_to_event(record))
            durable._publish(fresh)
            replayed.extend(fresh)
        # Never append after a (possibly torn) crash-cut segment: recovery
        # always opens a fresh one.
        if durable.journal.segments():
            durable.journal.rotate(durable.journal.epoch + 1)
        elapsed = time.perf_counter() - t0
        runtime.metrics.histogram(
            RECOVERY_SECONDS_HISTOGRAM,
            "Wall-clock seconds to restore checkpoint and replay the journal tail",
            buckets=RECOVERY_BUCKETS,
        ).observe(elapsed)
        _log.info(
            "recovered",
            journal=os.fspath(journal_dir),
            checkpoint=None if checkpoint_path is None else os.fspath(checkpoint_path),
            replayed=len(records),
            torn=torn,
            seconds=round(elapsed, 6),
        )
        return durable, replayed
