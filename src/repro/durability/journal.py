"""Per-home append-only write-ahead journal (the durability backbone).

Between two checkpoints, everything the gateway has accepted lives only in
process memory — a crash silently loses buffered windows and in-flight
alerts, which is exactly the fault class DICE exists to surface.  The
journal closes that hole: every **accepted** event is appended here
*before* it touches any windowing state, so that

    restore(checkpoint) + replay(journal tail)  ==  uninterrupted run

holds exactly (the chaos harness in :mod:`repro.faults.crash` kills
runtimes at random points and asserts it).

Wire format — one record::

    +----------------+----------------+------------------+
    | length (u32 BE)| CRC32 (u32 BE) | payload (JSON)   |
    +----------------+----------------+------------------+

The payload is compact UTF-8 JSON with sorted keys; floats survive the
round trip losslessly (``json`` uses ``repr``, shortest-round-trip in
Python 3).  The CRC covers the payload bytes, so a torn tail — the
half-written record a power cut leaves behind — is detected and safely
discarded rather than replayed as garbage.

Segments rotate on checkpoint epochs: the writer appends to
``journal-<epoch>.wal``; a checkpoint at epoch *e* supersedes every
record in segments ≤ *e*, so they are truncated and a fresh segment
*e*+1 is opened.  Recovery replays only the segments **after** the
checkpoint's epoch, in epoch order.

Writes are group-committed: one :meth:`EventJournal.append_frame` call
writes a whole batch of frames (the durable gateway passes one home's
events of one tick), and the fsync policy applies per call:

* ``"never"``   — rely on the OS page cache (default; survives process
  crashes, not power loss);
* ``"interval"`` — ``os.fsync`` once a call brings the unsynced record
  count to *fsync_interval* or more, so whenever a call returns fewer than
  *fsync_interval* records are unsynced (bounded loss under power
  failure), with never more fsyncs than record-at-a-time appends would
  make;
* ``"always"``  — one ``os.fsync`` per call, before it returns: every
  record is on disk before the gateway dispatches it (no loss; the batch
  shares one sync, so the cost is per home per tick, not per event).
"""

from __future__ import annotations

import json
import os
import re
import struct
import zlib
from typing import Iterator, List, Optional, Tuple, Union

from .. import telemetry

PathLike = Union[str, os.PathLike]

#: Legal fsync policies, loosest to strictest.
FSYNC_POLICIES = ("never", "interval", "always")

SEGMENT_PREFIX = "journal-"
SEGMENT_SUFFIX = ".wal"
_SEGMENT_RE = re.compile(r"^journal-(\d{8})\.wal$")

_HEADER = struct.Struct(">II")  # (payload length, CRC32 of payload)

#: A single journal record may not exceed this (sanity bound: a frame
#: whose length field decodes past it is corruption, not a real record).
MAX_RECORD_BYTES = 1 << 20

JOURNAL_APPENDS_TOTAL = "dice_journal_appends_total"
JOURNAL_REPLAYED_TOTAL = "dice_journal_replayed_total"
JOURNAL_TORN_TOTAL = "dice_journal_torn_records_total"
JOURNAL_TRUNCATED_TOTAL = "dice_journal_truncated_segments_total"
JOURNAL_ROTATIONS_TOTAL = "dice_journal_rotations_total"

_log = telemetry.get_logger("repro.durability.journal")


class JournalError(ValueError):
    """The journal is corrupt beyond the recoverable torn-tail case."""


def frame_payload(payload: bytes) -> bytes:
    """Wrap already-serialized payload bytes in the record frame."""
    if len(payload) > MAX_RECORD_BYTES:
        raise JournalError(f"record of {len(payload)} bytes exceeds {MAX_RECORD_BYTES}")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def encode_record(record: dict) -> bytes:
    """Frame one record: length prefix + CRC32 + compact JSON payload."""
    return frame_payload(
        json.dumps(
            record, sort_keys=True, separators=(",", ":"), ensure_ascii=False
        ).encode("utf-8")
    )


def iter_segment(path: PathLike) -> Iterator[Tuple[Optional[dict], bool]]:
    """Yield ``(record, is_torn)`` for one segment file.

    Well-formed records yield ``(dict, False)``.  A torn tail — short
    header, short payload, CRC mismatch, or undecodable JSON at the end of
    the scan — yields a single final ``(None, True)`` and stops; bytes
    after a torn record are never interpreted (a partial write means the
    writer died *here*, so nothing after it can be trusted).
    """
    with open(path, "rb") as handle:
        while True:
            header = handle.read(_HEADER.size)
            if not header:
                return
            if len(header) < _HEADER.size:
                yield None, True
                return
            length, crc = _HEADER.unpack(header)
            if length > MAX_RECORD_BYTES:
                yield None, True
                return
            payload = handle.read(length)
            if len(payload) < length or zlib.crc32(payload) != crc:
                yield None, True
                return
            try:
                record = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                yield None, True
                return
            yield record, False


def read_segment(path: PathLike) -> Tuple[List[dict], bool]:
    """All well-formed records of a segment, plus a torn-tail flag."""
    records: List[dict] = []
    torn = False
    for record, is_torn in iter_segment(path):
        if is_torn:
            torn = True
        else:
            records.append(record)
    return records, torn


def segment_name(epoch: int) -> str:
    return f"{SEGMENT_PREFIX}{epoch:08d}{SEGMENT_SUFFIX}"


def list_segments(directory: PathLike) -> List[Tuple[int, str]]:
    """Sorted ``(epoch, path)`` for every segment under *directory*."""
    directory = os.fspath(directory)
    if not os.path.isdir(directory):
        return []
    found = []
    for name in os.listdir(directory):
        match = _SEGMENT_RE.match(name)
        if match:
            found.append((int(match.group(1)), os.path.join(directory, name)))
    return sorted(found)


class AppendFile:
    """One append handle kept open for its owner's lifetime.

    Opened on the first write and flushed after every write, so each
    record reaches the OS at the same point a per-write ``open`` would
    put it there; never fsynced.  :meth:`close` releases the handle and
    the next write reopens it.
    """

    def __init__(self, path: str, mode: str = "ab", encoding: Optional[str] = None) -> None:
        self.path = path
        self._mode = mode
        self._encoding = encoding
        self._handle = None

    def write(self, data) -> None:
        handle = self._handle
        if handle is None:
            handle = self._handle = open(self.path, self._mode, encoding=self._encoding)
        handle.write(data)
        handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class EventJournal:
    """Append-only, segmented, CRC-checked journal for one home.

    Parameters
    ----------
    directory:
        The journal directory (created if missing).  One journal per home;
        a fleet keeps one directory per home under a shared root.
    fsync:
        One of :data:`FSYNC_POLICIES`; see the module docstring.
    fsync_interval:
        Under the ``"interval"`` policy, the most records left unsynced
        by an append call is one fewer than this.
    metrics:
        Telemetry registry for append/rotate/truncate counters; defaults
        to the disabled registry so library use records nothing.
    """

    def __init__(
        self,
        directory: PathLike,
        *,
        fsync: str = "never",
        fsync_interval: int = 64,
        metrics: Optional["telemetry.MetricsRegistry"] = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}")
        if fsync_interval < 1:
            raise ValueError("fsync_interval must be at least 1")
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.fsync = fsync
        self.fsync_interval = int(fsync_interval)
        self.metrics = metrics if metrics is not None else telemetry.NULL_REGISTRY
        self._appends_counter = self.metrics.counter(
            JOURNAL_APPENDS_TOTAL, "Records appended to the event journal"
        )
        self._rotations_counter = self.metrics.counter(
            JOURNAL_ROTATIONS_TOTAL, "Journal segment rotations"
        )
        self._truncated_counter = self.metrics.counter(
            JOURNAL_TRUNCATED_TOTAL, "Journal segments truncated by checkpoints"
        )
        existing = list_segments(self.directory)
        self.epoch = existing[-1][0] if existing else 0
        self._handle = None
        self._since_sync = 0

    # ------------------------------------------------------------------ #

    @property
    def current_segment_path(self) -> str:
        return os.path.join(self.directory, segment_name(self.epoch))

    def segments(self) -> List[Tuple[int, str]]:
        return list_segments(self.directory)

    def _open(self):
        if self._handle is None:
            self._handle = open(self.current_segment_path, "ab")
        return self._handle

    def append(self, record: dict) -> None:
        """Durably (per policy) append one record to the current segment."""
        self.append_frame(encode_record(record))

    def append_frame(self, frames: bytes, count: int = 1) -> None:
        """Append *count* already-framed records (see :func:`frame_payload`),
        concatenated in *frames*, with one write and at most one fsync.

        The ingest hot path pays this once per home per tick; callers that
        can pre-encode (cached device ids, direct float formatting) skip
        the generic ``json.dumps`` of :meth:`append`.
        """
        handle = self._handle
        if handle is None:
            handle = self._open()
        handle.write(frames)
        if self.fsync == "always":
            handle.flush()
            os.fsync(handle.fileno())
        elif self.fsync == "interval":
            self._since_sync += count
            if self._since_sync >= self.fsync_interval:
                handle.flush()
                os.fsync(handle.fileno())
                self._since_sync = 0
        self._appends_counter.inc(count)

    def sync(self) -> None:
        """Flush and fsync the current segment regardless of policy."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._since_sync = 0

    def rotate(self, epoch: Optional[int] = None) -> int:
        """Close the current segment and start a new one at *epoch*
        (default: current + 1).  Returns the new epoch."""
        if epoch is None:
            epoch = self.epoch + 1
        if epoch <= self.epoch and self.segments():
            raise ValueError(
                f"cannot rotate backwards: epoch {epoch} <= current {self.epoch}"
            )
        self.close()
        self.epoch = int(epoch)
        # Create the new segment eagerly: the epoch is re-derived from the
        # directory on restart, so it must be recorded on disk even if the
        # process dies before the first post-rotation append — otherwise a
        # rotate + truncate cycle that empties the directory would restart
        # at an epoch the checkpoint has already superseded, and appends
        # made there would be skipped on the next recovery.
        self._open()
        self._rotations_counter.inc()
        _log.debug("journal_rotated", directory=self.directory, epoch=self.epoch)
        return self.epoch

    def seal(self) -> int:
        """Close off an earlier life's segments: cut a torn final record
        off the newest one, then rotate to a fresh epoch.  Returns it.

        A crash mid-append leaves a partial frame that replay discards
        anyway; cutting it keeps the torn-tail rule (legal only in the
        newest segment) true once this life's segment follows, and the
        rotation means no record is ever appended after the garbage.
        Every frame is ``encode_record`` of its decoded record, so the
        valid prefix length is exactly reconstructible from the records.
        """
        segments = self.segments()
        if segments:
            path = segments[-1][1]
            records, torn = read_segment(path)
            if torn:
                with open(path, "r+b") as handle:
                    handle.truncate(sum(len(encode_record(r)) for r in records))
                _log.warning("journal_torn_tail_cut", segment=path, kept=len(records))
        return self.rotate(self.epoch + 1)

    def truncate_through(self, epoch: int) -> int:
        """Delete every segment with epoch ≤ *epoch* (superseded by a
        checkpoint at that epoch).  Returns the number removed."""
        removed = 0
        for seg_epoch, path in self.segments():
            if seg_epoch <= epoch and path != self.current_segment_path:
                os.remove(path)
                removed += 1
        if removed:
            self._truncated_counter.inc(removed)
            _log.debug(
                "journal_truncated",
                directory=self.directory,
                through_epoch=epoch,
                segments=removed,
            )
        return removed

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None
        self._since_sync = 0

    def __enter__(self) -> "EventJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def replay_records(
    directory: PathLike,
    *,
    after_epoch: int = -1,
    metrics: Optional["telemetry.MetricsRegistry"] = None,
) -> Tuple[List[dict], int]:
    """All records in segments with epoch > *after_epoch*, in order.

    Returns ``(records, torn)`` where *torn* counts discarded torn-tail
    records.  A torn tail is legal only in the **final** segment — that is
    where a crash can land mid-write.  A torn record in any earlier
    segment means records after it were already lost when later segments
    were written, so replaying across the gap would silently reorder
    history: that raises :class:`JournalError` instead.
    """
    registry = metrics if metrics is not None else telemetry.NULL_REGISTRY
    replayed_counter = registry.counter(
        JOURNAL_REPLAYED_TOTAL, "Journal records replayed during recovery"
    )
    torn_counter = registry.counter(
        JOURNAL_TORN_TOTAL, "Torn (CRC-failed) journal records discarded"
    )
    segments = [
        (epoch, path)
        for epoch, path in list_segments(directory)
        if epoch > after_epoch
    ]
    records: List[dict] = []
    torn = 0
    for index, (epoch, path) in enumerate(segments):
        segment_records, segment_torn = read_segment(path)
        if segment_torn and index != len(segments) - 1:
            raise JournalError(
                f"segment {path} has a torn record but is not the newest "
                f"segment — the journal is corrupt, not merely crash-cut"
            )
        records.extend(segment_records)
        if segment_torn:
            torn += 1
            _log.warning(
                "journal_torn_tail_discarded", segment=path, epoch=epoch
            )
    if records:
        replayed_counter.inc(len(records))
    if torn:
        torn_counter.inc(torn)
    return records, torn
