"""Durable provenance archive: evidence records journaled beside alerts.

The in-memory :class:`~repro.telemetry.provenance.ProvenanceRecorder` ring
forgets old records by design; the durable gateway drains it into a
``provenance.wal`` file in the home's journal directory so ``repro
explain`` works long after the alert scrolled out of the ring — and after
a crash.  The file uses the event journal's length+CRC framing, is
append-only, and is **never truncated** by checkpoints: it is the audit
archive, not replay state.

Deduplication is the crash-safety story.  Recovery replays the journal
tail, the runtime regenerates byte-identical evidence records (everything
in them derives from event time and fitted state), and the log skips ids
it already holds — so a record written before the crash is never
duplicated, and one lost in a torn tail is simply re-written from the
replay.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Union

from .. import telemetry
from ..telemetry.provenance import canonical_record_bytes
from .journal import AppendFile, frame_payload, read_segment

PathLike = Union[str, os.PathLike]

PROVENANCE_WAL = "provenance.wal"

PROVENANCE_RECORDS_TOTAL = "dice_provenance_records_total"
PROVENANCE_DEDUPED_TOTAL = "dice_provenance_deduped_total"

_log = telemetry.get_logger("repro.durability.provenance")


class ProvenanceLog:
    """Append-only, deduplicating archive of alert evidence records.

    One per home, living next to the event journal.  ``append`` is
    idempotent over trace ids; a torn tail (crash mid-append) loses at
    most the record being written, which the recovery replay regenerates.
    The append handle stays open for the log's lifetime, flushed after
    every record.
    """

    def __init__(
        self,
        directory: PathLike,
        *,
        metrics: Optional["telemetry.MetricsRegistry"] = None,
    ) -> None:
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.path = os.path.join(self.directory, PROVENANCE_WAL)
        self.metrics = metrics if metrics is not None else telemetry.NULL_REGISTRY
        self._appended_counter = self.metrics.counter(
            PROVENANCE_RECORDS_TOTAL, "Evidence records appended to the provenance log"
        )
        self._deduped_counter = self.metrics.counter(
            PROVENANCE_DEDUPED_TOTAL,
            "Evidence-record appends suppressed as duplicates",
        )
        self._ids: Dict[str, int] = {}
        self._load()
        self._file = AppendFile(self.path)

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        records, torn = read_segment(self.path)
        for index, record in enumerate(records):
            self._ids[record["id"]] = index
        if torn:
            # Shear the partial frame off: readers stop at the first torn
            # frame, so an append landing after the garbage would be
            # archived in the index yet invisible on disk.  Every frame is
            # ``frame_payload(canonical_record_bytes(...))``, so the valid
            # prefix length is exactly reconstructible from the records.
            valid = sum(
                len(frame_payload(canonical_record_bytes(record)))
                for record in records
            )
            with open(self.path, "r+b") as handle:
                handle.truncate(valid)
            _log.warning(
                "provenance_log_torn_tail", path=self.path, kept_records=len(records)
            )

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._ids

    def append(self, record: dict) -> bool:
        """Archive one evidence record; returns False for known ids."""
        if record["id"] in self._ids:
            self._deduped_counter.inc()
            return False
        self._file.write(frame_payload(canonical_record_bytes(record)))
        self._ids[record["id"]] = len(self._ids)
        self._appended_counter.inc()
        return True

    def close(self) -> None:
        """Release the append handle (the next append reopens it)."""
        self._file.close()

    def append_many(self, records: List[dict]) -> int:
        appended = 0
        for record in records:
            if self.append(record):
                appended += 1
        return appended

    def records(self) -> List[dict]:
        """All archived records, append order (re-read from disk)."""
        if not os.path.exists(self.path):
            return []
        records, _ = read_segment(self.path)
        return records

    def find(self, selector: str) -> Optional[dict]:
        """Newest archived record whose trace id starts with *selector*."""
        match: Optional[dict] = None
        for record in self.records():
            if record["id"].startswith(selector):
                match = record
        return match
