"""Per-layer spans recorded from outside the program.

A traced run patches the calls into each layer of the program (the table
:data:`LAYER_CALLS`) with a wrapper that records one span per call: layer,
start, end and *self* time, which is the span's duration minus the time
covered by the spans nested inside it.  Spans are kept in memory in flat
arrays and written out when the run ends; a summary over a time window
gives each layer's self time, and the window's remaining time is
``unattributed``.  Because every span's self time excludes its children,
the layer self times plus ``unattributed`` add up to the window exactly.

The program itself is not changed: spans wrap the public calls (plus two
event-loop hooks for the ingest server, see below) from this file.
Recording assumes one thread does the work, which holds for every traced
process here: the fleet replay, the evaluation protocol and the asyncio
ingest server are all single-threaded.
"""

from __future__ import annotations

import collections
import importlib
import inspect
import json
import os
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

from common import percentile

#: ``(layer, module, class, attribute)`` for every timed call.  The
#: ``service.server`` layer is the ingest server's event loop: each loop
#: callback (one coroutine step of a connection handler, the consumer or
#: the HTTP handler, which serves the ``/metrics`` scrape) is one span, so
#: the layers it calls (decode, dispatch, ...) nest inside it.
#: ``loop_idle`` is the loop waiting in ``select`` for I/O.
LAYER_CALLS: Tuple[Tuple[str, str, str, str], ...] = (
    ("service.protocol", "repro.service.protocol", "FrameDecoder", "feed"),
    ("service.server", "asyncio.events", "Handle", "_run"),
    ("loop_idle", "selectors", "DefaultSelector", "select"),
    ("durability.fleet", "repro.durability.fleet", "DurableFleetGateway", "dispatch"),
    ("durability.fleet", "repro.durability.fleet", "DurableFleetGateway", "finish"),
    ("durability.fleet", "repro.durability.fleet", "DurableFleetGateway", "finish_home"),
    ("durability.journal", "repro.durability.journal", "EventJournal", "append_frame"),
    ("durability.journal", "repro.durability.journal", "EventJournal", "sync"),
    ("fleet.gateway", "repro.fleet.gateway", "FleetGateway", "dispatch"),
    ("fleet.gateway", "repro.fleet.gateway", "FleetShard", "dispatch_batched"),
    ("fleet.gateway", "repro.core.checks", "CorrelationChecker", "warm"),
    ("streaming.runtime", "repro.streaming.runtime", "HardenedOnlineDice", "stage_event"),
    ("streaming.runtime", "repro.streaming.runtime", "HardenedOnlineDice", "drain_staged"),
    ("streaming.runtime", "repro.streaming.runtime", "HardenedOnlineDice", "finish_stream"),
    ("streaming.runtime", "repro.streaming.runtime", "HardenedOnlineDice", "ingest"),
    ("streaming.guard", "repro.streaming.guard", "IngestGuard", "admit"),
    ("streaming.reorder", "repro.streaming.reorder", "ReorderBuffer", "push"),
    ("streaming.reorder", "repro.streaming.reorder", "ReorderBuffer", "advance_to"),
    ("streaming.reorder", "repro.streaming.reorder", "ReorderBuffer", "flush"),
    ("streaming.supervisor", "repro.streaming.supervisor", "DeviceSupervisor", "observe"),
    ("streaming.supervisor", "repro.streaming.supervisor", "DeviceSupervisor", "check_silence"),
    ("streaming.supervisor", "repro.streaming.supervisor", "DeviceSupervisor", "record_error"),
    ("streaming.supervisor", "repro.streaming.supervisor", "DeviceSupervisor", "quarantined"),
    ("streaming.windower", "repro.streaming.windower", "OnlineWindower", "push"),
    ("streaming.windower", "repro.streaming.windower", "OnlineWindower", "advance_to"),
    ("streaming.windower", "repro.streaming.windower", "OnlineWindower", "flush"),
    ("core.backend", "repro.core.backend", "DetectorBackend", "observe_window"),
    ("core.checks", "repro.core.checks", "CorrelationChecker", "check"),
    ("core.checks", "repro.core.checks", "CorrelationChecker", "check_many"),
    ("core.checks", "repro.core.checks", "TransitionChecker", "check"),
    ("core.identification", "repro.core.identification", "Identifier", "from_correlation_violation"),
    ("core.identification", "repro.core.identification", "Identifier", "from_transition_violations"),
    ("core.identification", "repro.core.identification", "IdentificationSession", "__init__"),
    ("core.identification", "repro.core.identification", "IdentificationSession", "update"),
    ("core.encoding", "repro.core.encoding", "StateSetEncoder", "encode"),
    ("core.detector", "repro.core.detector", "DiceDetector", "fit"),
    ("core.detector", "repro.core.detector", "DiceDetector", "process_windows"),
    ("telemetry.provenance", "repro.telemetry.provenance", "ProvenanceRecorder", "record"),
    ("durability.provenance", "repro.durability.provenance", "ProvenanceLog", "append"),
    ("durability.outbox", "repro.durability.outbox", "AlertOutbox", "offer"),
    ("durability.outbox", "repro.durability.outbox", "AlertOutbox", "deliver_pending"),
    ("telemetry", "repro.telemetry.log", "TelemetryLogger", "log"),
    ("telemetry", "repro.telemetry.spans", "Span", "__exit__"),
    ("eval.runner", "repro.eval.runner", "EvaluationRunner", "evaluate"),
)

#: Every layer in report order; ``unattributed`` is the window's leftover.
LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(layer for layer, _, _, _ in LAYER_CALLS)
) + ("unattributed",)


class Recorder:
    """In-memory span store plus the counts hooks add."""

    def __init__(self) -> None:
        self.names: List[str] = [layer for layer in LAYERS if layer != "unattributed"]
        self.layer = array("H")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.stack: List[List[float]] = []
        self.counts: Dict[str, float] = collections.defaultdict(float)
        self.samples: Dict[str, array] = collections.defaultdict(lambda: array("d"))

    def layer_id(self, name: str) -> int:
        return self.names.index(name)

    # -- persistence ---------------------------------------------------- #

    def dump(self, path: str) -> None:
        """Write spans, counts and samples (the end-of-run flush)."""
        header = {
            "names": self.names,
            "spans": len(self.layer),
            "counts": dict(self.counts),
            "samples": {name: len(values) for name, values in self.samples.items()},
        }
        with open(path, "wb") as handle:
            blob = json.dumps(header).encode("utf-8")
            handle.write(len(blob).to_bytes(8, "little"))
            handle.write(blob)
            for column in (self.layer, self.start, self.end, self.self_time):
                column.tofile(handle)
            for name in header["samples"]:
                self.samples[name].tofile(handle)

    @classmethod
    def load(cls, path: str) -> "Recorder":
        rec = cls()
        with open(path, "rb") as handle:
            size = int.from_bytes(handle.read(8), "little")
            header = json.loads(handle.read(size).decode("utf-8"))
            rec.names = header["names"]
            n = header["spans"]
            for column in (rec.layer, rec.start, rec.end, rec.self_time):
                column.fromfile(handle, n)
            rec.counts.update(header["counts"])
            for name, count in header["samples"].items():
                rec.samples[name].fromfile(handle, count)
        return rec

    # -- summary --------------------------------------------------------- #

    def self_times(self, t0: float, t1: float) -> Dict[str, float]:
        """Self seconds per layer inside ``[t0, t1]``, plus ``unattributed``.

        Spans wholly inside the window count in full.  A leaf span that
        straddles an edge (the loop idling in ``select`` when the window
        opens) counts for its overlap; a straddling span with children is
        left out, so its time stays in ``unattributed``.
        """
        totals = [0.0] * len(self.names)
        layer, start, end, self_time = self.layer, self.start, self.end, self.self_time
        for i in range(len(layer)):
            s, e = start[i], end[i]
            if e <= t0 or s >= t1:
                continue
            own = self_time[i]
            if s >= t0 and e <= t1:
                totals[layer[i]] += own
            elif own >= (e - s) * 0.999999:
                totals[layer[i]] += min(e, t1) - max(s, t0)
        out = {name: totals[i] for i, name in enumerate(self.names)}
        out["unattributed"] = (t1 - t0) - sum(totals)
        return out

    def spans_in(self, t0: float, t1: float) -> int:
        return sum(
            1 for s, e in zip(self.start, self.end) if s >= t0 and e <= t1
        )


# ---------------------------------------------------------------------- #
# Installing wrappers
# ---------------------------------------------------------------------- #


def _timed(rec: Recorder, lid: int, fn: Callable,
           after: Optional[Callable] = None) -> Callable:
    stack = rec.stack
    clock = time.perf_counter
    put_layer, put_start = rec.layer.append, rec.start.append
    put_end, put_self = rec.end.append, rec.self_time.append

    def wrapper(*args, **kwargs):
        frame = [clock(), 0.0]
        stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            stop = clock()
            stack.pop()
            duration = stop - frame[0]
            if stack:
                stack[-1][1] += duration
            put_layer(lid)
            put_start(frame[0])
            put_end(stop)
            put_self(duration - frame[1])
        if after is not None:
            after(args, result, duration)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _hooks(rec: Recorder) -> Dict[Tuple[str, str], Callable]:
    """Counts gathered at the wrapped calls (where the program exports no
    counter of its own)."""
    counts = rec.counts

    def warm(args, result, _):
        counts["fleet.gateway.warm_masks"] += len(args[1])

    def push(args, result, _):
        pending = args[0].pending
        if pending > counts["streaming.reorder.pending_max"]:
            counts["streaming.reorder.pending_max"] = pending

    def quarantined(args, result, _):
        counts["streaming.supervisor.quarantined_reads"] += 1

    def observe_window(args, result, _):
        counts["core.backend.windows"] += 1

    def session(args, result, _):
        counts["core.identification.sessions"] += 1

    def fit(args, result, duration):
        counts["core.detector.fit_s"] += duration

    def record(args, result, _):
        counts["telemetry.provenance.records"] += 1

    def offer(args, result, _):
        counts["durability.outbox.offered"] += 1

    def deliver(args, result, _):
        counts["durability.outbox.delivered"] += result["delivered"]

    def evaluate(args, result, _):
        counts["eval.runner.pairs"] += len(result.outcomes)

    return {
        ("CorrelationChecker", "warm"): warm,
        ("ReorderBuffer", "push"): push,
        ("DeviceSupervisor", "quarantined"): quarantined,
        ("DetectorBackend", "observe_window"): observe_window,
        ("IdentificationSession", "__init__"): session,
        ("DiceDetector", "fit"): fit,
        ("ProvenanceRecorder", "record"): record,
        ("AlertOutbox", "offer"): offer,
        ("AlertOutbox", "deliver_pending"): deliver,
        ("EvaluationRunner", "evaluate"): evaluate,
    }


def install(rec: Recorder, with_server: bool = False) -> None:
    """Patch every call of :data:`LAYER_CALLS` to record into *rec*.

    The event-loop hooks (``service.server``, ``loop_idle``) and the
    admission-queue wait samples are installed only *with_server*, in the
    process that hosts the ingest server.
    """
    hooks = _hooks(rec)
    for layer, module_name, class_name, attr in LAYER_CALLS:
        if layer in ("service.server", "loop_idle") and not with_server:
            continue
        cls = getattr(importlib.import_module(module_name), class_name)
        original = inspect.getattr_static(cls, attr)
        after = hooks.get((class_name, attr))
        lid = rec.layer_id(layer)
        if isinstance(original, property):
            setattr(cls, attr, property(_timed(rec, lid, original.fget, after)))
        elif callable(original):
            setattr(cls, attr, _timed(rec, lid, original, after))
        else:
            raise TypeError(f"{class_name}.{attr} is not a plain method")
    _count_fsyncs(rec)
    if with_server:
        _sample_queue_waits(rec)


def _count_fsyncs(rec: Recorder) -> None:
    """``durability.journal.syncs``: the journal is the program's only
    ``os.fsync`` caller, and under ``fsync="interval"`` it syncs inside
    ``append_frame`` rather than through ``sync()``."""
    original = os.fsync
    counts = rec.counts

    def fsync(fd):
        counts["durability.journal.syncs"] += 1
        return original(fd)

    os.fsync = fsync


def _sample_queue_waits(rec: Recorder) -> None:
    """Admission-queue wait per event: the queue is FIFO, so a parallel
    FIFO of enqueue times pairs each dequeued event with its put."""
    import asyncio

    queue_cls = asyncio.Queue
    put_nowait, get_nowait = queue_cls.put_nowait, queue_cls.get_nowait
    stamps: collections.deque = collections.deque()
    waits = rec.samples["service.server.queue_wait_s"]
    clock = time.perf_counter

    def put(self, item):
        put_nowait(self, item)
        if item[0] == "event":
            stamps.append(clock())

    def get(self):
        item = get_nowait(self)
        if item[0] == "event":
            waits.append(clock() - stamps.popleft())
        return item

    queue_cls.put_nowait = put
    queue_cls.get_nowait = get


# ---------------------------------------------------------------------- #
# Report
# ---------------------------------------------------------------------- #


def self_time_table(self_s: Dict[str, float], wall: float) -> List[str]:
    """Human-readable per-layer table; shares add up to 100 %."""
    lines = [f"{'layer':<24}{'self_s':>12}{'share':>9}"]
    for layer in LAYERS:
        seconds = self_s.get(layer, 0.0)
        lines.append(f"{layer:<24}{seconds:>12.4f}{100.0 * seconds / wall:>8.2f}%")
    total = sum(self_s.get(layer, 0.0) for layer in LAYERS)
    lines.append(f"{'total':<24}{total:>12.4f}{100.0 * total / wall:>8.2f}%")
    lines.append(f"{'traced wall':<24}{wall:>12.4f}")
    return lines


def queue_wait_p50_ms(rec: Recorder) -> float:
    waits = rec.samples.get("service.server.queue_wait_s")
    return 1000.0 * percentile(waits, 50) if waits else 0.0
