"""Durability layer: write-ahead journal, at-least-once alert outbox,
and crash recovery for the fleet gateway (a journaled standalone home is
a one-home fleet).

The contract, pinned by the chaos harness (:mod:`repro.faults.crash`):
for any crash point — including one that tears the final journal record
mid-write — ``checkpoint + journal-tail replay`` reproduces the exact
alert stream of an uninterrupted run, and every alert is delivered to its
sink at least once (with dead-letters recorded after retry exhaustion).
"""

from .journal import (
    FSYNC_POLICIES,
    JOURNAL_APPENDS_TOTAL,
    JOURNAL_REPLAYED_TOTAL,
    JOURNAL_ROTATIONS_TOTAL,
    JOURNAL_TORN_TOTAL,
    JOURNAL_TRUNCATED_TOTAL,
    MAX_RECORD_BYTES,
    EventJournal,
    JournalError,
    encode_record,
    frame_payload,
    iter_segment,
    list_segments,
    read_segment,
    replay_records,
    segment_name,
)
from .outbox import (
    OUTBOX_DEAD_LETTER_TOTAL,
    OUTBOX_DEDUPED_TOTAL,
    OUTBOX_DELIVERED_TOTAL,
    OUTBOX_OFFERED_TOTAL,
    OUTBOX_RETRIES_TOTAL,
    AlertOutbox,
    AlertSink,
    CallbackSink,
    FileSink,
    FlakySink,
    alert_record,
)
from .provenance import (
    PROVENANCE_DEDUPED_TOTAL,
    PROVENANCE_RECORDS_TOTAL,
    PROVENANCE_WAL,
    ProvenanceLog,
)
from .runtime import encode_event_frame, event_to_record, record_to_event
from .fleet import RECOVERY_SECONDS_HISTOGRAM, DurableFleetGateway

__all__ = [
    "FSYNC_POLICIES",
    "JOURNAL_APPENDS_TOTAL",
    "JOURNAL_REPLAYED_TOTAL",
    "JOURNAL_ROTATIONS_TOTAL",
    "JOURNAL_TORN_TOTAL",
    "JOURNAL_TRUNCATED_TOTAL",
    "MAX_RECORD_BYTES",
    "EventJournal",
    "JournalError",
    "encode_record",
    "frame_payload",
    "iter_segment",
    "list_segments",
    "read_segment",
    "replay_records",
    "segment_name",
    "OUTBOX_DEAD_LETTER_TOTAL",
    "OUTBOX_DEDUPED_TOTAL",
    "OUTBOX_DELIVERED_TOTAL",
    "OUTBOX_OFFERED_TOTAL",
    "OUTBOX_RETRIES_TOTAL",
    "AlertOutbox",
    "AlertSink",
    "CallbackSink",
    "FileSink",
    "FlakySink",
    "alert_record",
    "PROVENANCE_DEDUPED_TOTAL",
    "PROVENANCE_RECORDS_TOTAL",
    "PROVENANCE_WAL",
    "ProvenanceLog",
    "encode_event_frame",
    "event_to_record",
    "record_to_event",
    "RECOVERY_SECONDS_HISTOGRAM",
    "DurableFleetGateway",
]
