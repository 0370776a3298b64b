"""The durable gateway: per-home journals + shared outbox around a fleet.

:class:`DurableFleetGateway` is the one durability wrapper — a journaled
standalone home is a one-home, one-shard fleet:

* each hosted home owns one :class:`~repro.durability.journal.EventJournal`
  under a shared root (``<root>/<home_id>/``) — journals are keyed by
  *home*, not by shard, so resharding on restore replays correctly (the
  home → shard map is a pure hash and carries no journal state).  A new
  life never extends a segment from an earlier one (it may end in a torn
  record): a home journal found non-empty rotates to a fresh epoch first;
* every routed event is journaled before dispatch; unrouted events are
  dropped by the router as always and never journaled (they carry no
  state to recover).  A tick is group-committed: each home's frames for
  the tick go to its journal in one write (one fsync under ``"always"``),
  and every home is written before the tick is dispatched;
* fleet alerts get per-home sequence numbers and flow into one shared
  :class:`~repro.durability.outbox.AlertOutbox`, with home-qualified ids,
  and each home's sealed evidence records are archived beside its
  journal (``<root>/<home_id>/provenance.wal``);
* :meth:`save_checkpoint` writes the fleet checkpoint directory, each
  home's snapshot carrying that home's ``durability`` section (journal
  epoch, alert sequence, ingest sequence) in the same atomic write, then
  rotates and truncates every home journal;
* :meth:`recover` = restore fleet checkpoint + replay every home's
  journal tail, home by home — per-home alert streams are reproduced
  exactly for any shard count (chaos-harness pinned).
"""

from __future__ import annotations

import os
import time
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .. import telemetry
from ..core import DiceDetector
from ..model import Event
from ..streaming.checkpoint import CheckpointError
from ..fleet import FleetAlert, FleetGateway, restore_fleet
from ..fleet.checkpoint import MANIFEST_NAME, save_fleet_checkpoint
from .journal import EventJournal, replay_records
from .outbox import AlertOutbox, alert_record
from .provenance import ProvenanceLog
from .runtime import encode_event_frame, record_to_event

PathLike = Union[str, os.PathLike]

RECOVERY_SECONDS_HISTOGRAM = "dice_recovery_seconds"

#: Buckets for the recovery-time histogram: recovery is checkpoint load +
#: journal replay, so it scales with the tail length — 1 ms to ~1 min.
RECOVERY_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0)

_log = telemetry.get_logger("repro.durability.fleet")


class DurableFleetGateway:
    """A :class:`FleetGateway` wrapped with per-home journals + outbox."""

    def __init__(
        self,
        gateway: FleetGateway,
        journal_root: PathLike,
        *,
        fsync: str = "never",
        fsync_interval: int = 64,
        outbox: Optional[AlertOutbox] = None,
        alert_seqs: Optional[Dict[str, int]] = None,
        ingest_seqs: Optional[Dict[str, int]] = None,
    ) -> None:
        self.gateway = gateway
        self.journal_root = os.fspath(journal_root)
        self.fsync = fsync
        self.fsync_interval = int(fsync_interval)
        self.outbox = outbox
        self.alert_seqs: Dict[str, int] = dict(alert_seqs or {})
        #: Per-home count of journaled events — advances exactly when a
        #: routed event's frame hits its journal, so it doubles as the
        #: ingest service's exact resume sequence.
        self.ingest_seqs: Dict[str, int] = dict(ingest_seqs or {})
        self.journals: Dict[str, EventJournal] = {}
        self.provenance_logs: Dict[str, ProvenanceLog] = {}
        for home_id in gateway.home_ids:
            self._journal_of(home_id)

    def _journal_of(self, home_id: str) -> EventJournal:
        journal = self.journals.get(home_id)
        if journal is None:
            journal = EventJournal(
                os.path.join(self.journal_root, home_id),
                fsync=self.fsync,
                fsync_interval=self.fsync_interval,
                metrics=self.gateway.runtime_of(home_id).metrics,
            )
            if journal.segments():
                # Never extend an earlier life's segment: appends after a
                # torn record would be invisible to replay.
                journal.seal()
            self.journals[home_id] = journal
        return journal

    def provenance_log_of(self, home_id: str) -> ProvenanceLog:
        """*home_id*'s evidence archive (opened on first use)."""
        log = self.provenance_logs.get(home_id)
        if log is None:
            log = ProvenanceLog(
                os.path.join(self.journal_root, home_id),
                metrics=self.gateway.runtime_of(home_id).metrics,
            )
            self.provenance_logs[home_id] = log
        return log

    # ------------------------------------------------------------------ #

    @property
    def alerts(self) -> List[FleetAlert]:
        return self.gateway.alerts

    @property
    def num_shards(self) -> int:
        return self.gateway.num_shards

    def __len__(self) -> int:
        return len(self.gateway)

    def __contains__(self, home_id: str) -> bool:
        return home_id in self.gateway

    @property
    def home_ids(self) -> List[str]:
        return self.gateway.home_ids

    @property
    def unrouted(self) -> int:
        return self.gateway.unrouted

    def runtime_of(self, home_id: str):
        return self.gateway.runtime_of(home_id)

    def metrics_snapshot(self) -> dict:
        return self.gateway.metrics_snapshot()

    def alerts_of(self, home_id: str):
        return self.gateway.alerts_of(home_id)

    def _publish(self, fresh: List[FleetAlert]) -> List[FleetAlert]:
        homes: List[str] = []
        for fleet_alert in fresh:
            seq = self.alert_seqs.get(fleet_alert.home_id, 0) + 1
            self.alert_seqs[fleet_alert.home_id] = seq
            if self.outbox is not None:
                self.outbox.offer(
                    alert_record(fleet_alert.home_id, seq, fleet_alert.alert)
                )
            if fleet_alert.home_id not in homes:
                homes.append(fleet_alert.home_id)
        # Archive each involved home's sealed evidence records beside its
        # event journal (dedup makes recovery re-publishes idempotent).
        for home_id in homes:
            recorder = self.gateway.runtime_of(home_id).provenance
            if not recorder.enabled:
                continue
            log = self.provenance_log_of(home_id)
            for record in recorder.drain_unjournaled():
                log.append(record)
        return fresh

    def dispatch(self, events: Iterable[Tuple[str, Event]]) -> List[FleetAlert]:
        """Journal each routed event into its home's journal, then route.

        The batch is materialised and every home's frames are written (one
        group-committed call per home) before the dispatch that consumes
        them — the write-ahead invariant.
        """
        batch = list(events)
        gateway = self.gateway
        frames: Dict[str, List[bytes]] = {}
        for home_id, event in batch:
            if home_id in gateway:
                home_frames = frames.get(home_id)
                if home_frames is None:
                    home_frames = frames[home_id] = []
                home_frames.append(encode_event_frame(event))
        for home_id, home_frames in frames.items():
            count = len(home_frames)
            self._journal_of(home_id).append_frame(b"".join(home_frames), count)
            self.ingest_seqs[home_id] = self.ingest_seqs.get(home_id, 0) + count
        return self._publish(self.gateway.dispatch(batch))

    def finish(self, ends=None) -> List[FleetAlert]:
        return self._publish(self.gateway.finish(ends))

    def finish_home(self, home_id: str, end=None) -> List[FleetAlert]:
        """Close one home's stream (the service's per-connection ``end``)."""
        return self._publish(self.gateway.finish_home(home_id, end))

    def deliver_pending(self) -> dict:
        if self.outbox is None:
            return {"delivered": 0, "dead": 0}
        return self.outbox.deliver_pending()

    def health(self) -> dict:
        report = self.gateway.health()
        report["durability"] = {
            "journal_epochs": {
                home_id: journal.epoch
                for home_id, journal in sorted(self.journals.items())
            },
            "alert_seqs": dict(sorted(self.alert_seqs.items())),
            "ingest_seqs": dict(sorted(self.ingest_seqs.items())),
            "outbox_pending": 0 if self.outbox is None else len(self.outbox.pending),
        }
        return report

    def close(self) -> None:
        """Close every journal, the outbox and the provenance logs (each
        reopens on its next write)."""
        for journal in self.journals.values():
            journal.close()
        for log in self.provenance_logs.values():
            log.close()
        if self.outbox is not None:
            self.outbox.close()

    # ------------------------------------------------------------------ #
    # Checkpoint & recovery
    # ------------------------------------------------------------------ #

    def save_checkpoint(self, directory: PathLike) -> None:
        """Fleet checkpoint with per-home durability sections, then
        rotate/truncate.

        Order is the crash-safety argument: the journals are synced first
        (every event the snapshots account for is on disk); each home's
        snapshot is written atomically together with its journal epoch,
        alert sequence and ingest sequence, the manifest last; only then
        are superseded segments dropped.  A kill at any point leaves every
        home file self-consistent — its state and the epoch its journal
        tail starts after come from the same write.
        """
        directory = os.fspath(directory)
        sections: Dict[str, dict] = {}
        for home_id in self.gateway.home_ids:
            journal = self._journal_of(home_id)
            journal.sync()
            sections[home_id] = {
                "durability": {
                    "journal_epoch": journal.epoch,
                    "alert_seq": self.alert_seqs.get(home_id, 0),
                    "ingest_seq": self.ingest_seqs.get(home_id, 0),
                }
            }
        save_fleet_checkpoint(self.gateway, directory, sections)
        for home_id, section in sections.items():
            superseded = section["durability"]["journal_epoch"]
            self.journals[home_id].rotate(superseded + 1)
            self.journals[home_id].truncate_through(superseded)
        _log.info(
            "durable_fleet_checkpoint_saved",
            directory=directory,
            homes=len(sections),
        )

    @classmethod
    def recover(
        cls,
        detectors: Dict[str, DiceDetector],
        journal_root: PathLike,
        *,
        checkpoint_dir: Optional[PathLike] = None,
        gateway: Optional[FleetGateway] = None,
        num_shards: Optional[int] = None,
        fsync: str = "never",
        fsync_interval: int = 64,
        outbox: Optional[AlertOutbox] = None,
        metrics: Optional["telemetry.MetricsRegistry"] = None,
        **runtime_kwargs,
    ) -> Tuple["DurableFleetGateway", List[FleetAlert]]:
        """Fleet-wide checkpoint + journal-tail restart.

        When *checkpoint_dir* holds a manifest, the fleet is restored from
        it (optionally resharded via *num_shards* — journals are per-home,
        so the replay is shard-layout independent); a home snapshot
        without the ``durability`` section :meth:`save_checkpoint` writes
        raises :class:`CheckpointError` naming the home.  Otherwise the
        caller must supply a freshly built *gateway* to replay into (the
        crashed-before-first-checkpoint case).  Replayed alerts are
        re-offered to the outbox (idempotent: already-journaled ids
        dedup; unacked ones redeliver — at-least-once).

        Returns ``(durable_fleet, replayed_alerts)``.
        """
        t0 = time.perf_counter()
        sections: Dict[str, dict] = {}

        def read_section(home_id: str, state: dict) -> None:
            section = state.get("durability")
            if section is None:
                # A plain snapshot names no journal epoch: replaying the
                # whole journal over it would double-apply events and
                # renumber alerts from 0, colliding with outbox ids.
                raise CheckpointError(
                    f"home {home_id!r}: checkpoint has no 'durability' "
                    "section (not written by DurableFleetGateway.save_checkpoint)"
                )
            sections[home_id] = section

        if checkpoint_dir is not None and os.path.isfile(checkpoint_dir):
            raise CheckpointError(
                f"corrupt checkpoint {os.fspath(checkpoint_dir)}: a file, "
                "not a fleet checkpoint directory"
            )
        if checkpoint_dir is not None and os.path.exists(
            os.path.join(os.fspath(checkpoint_dir), MANIFEST_NAME)
        ):
            gateway = restore_fleet(
                detectors,
                checkpoint_dir,
                num_shards=num_shards,
                metrics=metrics,
                on_snapshot=read_section,
                **runtime_kwargs,
            )
        elif gateway is None:
            raise CheckpointError(
                "no fleet checkpoint to restore and no fresh gateway supplied"
            )
        # Read every tail before the journals open: opening rotates a
        # non-empty journal, and a torn record is legal only in the newest
        # segment.
        tails: Dict[str, List[dict]] = {}
        for home_id in gateway.home_ids:
            records, _ = replay_records(
                os.path.join(os.fspath(journal_root), home_id),
                after_epoch=sections.get(home_id, {}).get("journal_epoch", -1),
                metrics=gateway.runtime_of(home_id).metrics,
            )
            tails[home_id] = [r for r in records if r.get("type") == "event"]
        # The resume sequence advances past the events journaled since.
        ingest_seqs = {
            home_id: sections.get(home_id, {}).get("ingest_seq", 0) + len(tail)
            for home_id, tail in tails.items()
        }
        durable = cls(
            gateway,
            journal_root,
            fsync=fsync,
            fsync_interval=fsync_interval,
            outbox=outbox,
            alert_seqs={home_id: s["alert_seq"] for home_id, s in sections.items()},
            ingest_seqs=ingest_seqs,
        )
        replayed: List[FleetAlert] = []
        for home_id in gateway.home_ids:
            runtime = gateway.runtime_of(home_id)
            fresh = [
                FleetAlert(home_id, alert)
                for record in tails[home_id]
                for alert in runtime.ingest(record_to_event(record))
            ]
            gateway.alerts.extend(fresh)
            durable._publish(fresh)
            replayed.extend(fresh)
        elapsed = time.perf_counter() - t0
        gateway.metrics.histogram(
            RECOVERY_SECONDS_HISTOGRAM,
            "Wall-clock seconds to restore checkpoint and replay the journal tail",
            buckets=RECOVERY_BUCKETS,
        ).observe(elapsed)
        _log.info(
            "fleet_recovered",
            journal_root=os.fspath(journal_root),
            homes=len(gateway),
            replayed=sum(len(tail) for tail in tails.values()),
            seconds=round(elapsed, 6),
        )
        return durable, replayed
