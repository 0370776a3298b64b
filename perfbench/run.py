"""Repository benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload fleet-replay --seed 0 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` makes a separate traced run that prints the
per-layer self-time table and the per-layer metrics.  Every run checks the
program's outputs (alert digests, protocol fingerprints) and prints, as
its last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  A run whose check fails reports no metrics and exits 1.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from common import (
    BENCH_DIR,
    BenchError,
    counter_total,
    emit,
    load_benchmark_spec,
    require_program,
    result_line,
)

WORKLOADS = ("fleet-replay", "service-ingest", "eval-batch")
DROP_REASONS = (
    "empty_device_id", "non_finite_timestamp", "non_finite_value",
    "unknown_device", "before_start", "too_late", "duplicate", "overload",
)


def load_references() -> dict:
    with open(os.path.join(BENCH_DIR, "references.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def layer_metrics(trace: dict, failed_ratio: float):
    """``(metrics, table)``: every per-layer metric of a traced run by
    name, and the self-time table."""
    import tracing

    rec = trace["recorder"]
    t0, t1 = trace["t0"], trace["t1"]
    self_s = rec.self_times(t0, t1)
    samples = trace["samples"]
    counts = rec.counts
    extra = trace["extra"]

    def program(name, label=None):
        return counter_total(samples, name, label)

    hits = program("dice_correlation_cache_hits_total")
    misses = program("dice_correlation_cache_misses_total")
    if "cache_hits" in extra:  # batch path: the runner's stage timings
        hits, misses = extra["cache_hits"], extra["cache_misses"]
    offered = counts.get("durability.outbox.offered", 0.0)
    metrics = {f"{layer}.self_s": (self_s[layer], "s") for layer in tracing.LAYERS}
    metrics.update({
        "service.protocol.frames": (program("dice_service_frames_total"), "count"),
        "service.server.queue_wait_p50_ms": (tracing.queue_wait_p50_ms(rec), "ms"),
        "service.server.queue_depth_max": (extra.get("queue_depth_max", 0.0), "count"),
        "service.server.sheds": (program("dice_service_shed_total"), "count"),
        "service.server.disconnects": (program("dice_service_disconnects_total"), "count"),
        "durability.journal.appends": (program("dice_journal_appends_total"), "count"),
        "durability.journal.syncs": (counts.get("durability.journal.syncs", 0.0), "count"),
        "fleet.gateway.dispatches": (program("dice_fleet_dispatches_total"), "count"),
        "fleet.gateway.warm_masks": (counts.get("fleet.gateway.warm_masks", 0.0), "count"),
    })
    for reason in DROP_REASONS:
        metrics[f"streaming.guard.dropped.{reason}"] = (
            program("dice_ingest_dropped_total", f'reason="{reason}"'), "count"
        )
    metrics.update({
        "streaming.reorder.pending_max": (counts.get("streaming.reorder.pending_max", 0.0), "count"),
        "streaming.reorder.late_drops": (
            program("dice_ingest_dropped_total", 'reason="too_late"'), "count"),
        "streaming.supervisor.quarantined_reads": (
            counts.get("streaming.supervisor.quarantined_reads", 0.0), "count"),
        "streaming.supervisor.transitions": (program("dice_supervisor_transitions_total"), "count"),
        "streaming.windower.windows": (program("dice_windows_total"), "count"),
        "core.backend.windows": (counts.get("core.backend.windows", 0.0), "count"),
        "core.checks.correlation_cache_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "core.identification.sessions": (counts.get("core.identification.sessions", 0.0), "count"),
        "core.detector.fit_s": (counts.get("core.detector.fit_s", 0.0), "s"),
        "telemetry.provenance.records": (counts.get("telemetry.provenance.records", 0.0), "count"),
        "durability.provenance.records": (program("dice_provenance_records_total"), "count"),
        "durability.outbox.delivered_ratio": (
            counts.get("durability.outbox.delivered", 0.0) / offered if offered else 0.0,
            "ratio"),
        "telemetry.spans": (program("dice_span_seconds_count"), "count"),
        "telemetry.log_lines": (float(trace["log_lines"]), "count"),
        "eval.runner.pairs": (counts.get("eval.runner.pairs", 0.0), "count"),
        "trace.wall_s": (t1 - t0, "s"),
        "trace.overhead_ratio": (trace["overhead"], "ratio"),
        "trace.spans": (float(rec.spans_in(t0, t1)), "count"),
        "failed_ratio": (failed_ratio, "ratio"),
        "generator.lateness_p50_ms": (extra.get("lateness_p50_ms", 0.0), "ms"),
        "generator.lateness_p99_ms": (extra.get("lateness_p99_ms", 0.0), "ms"),
        "generator.samples": (extra.get("lateness_samples", 0.0), "count"),
        "ingest.samples": (extra.get("ingest_samples", 0.0), "count"),
    })
    return metrics, tracing.self_time_table(self_s, t1 - t0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        require_program()
        spec = load_benchmark_spec()
        references = load_references()
        if args.workload == "fleet-replay":
            import fleet_replay

            out = fleet_replay.run(
                args.seed, args.seconds, bool(args.trace), references["fleet-replay"]
            )
        elif args.workload == "eval-batch":
            import eval_batch

            out = eval_batch.run(
                args.seed, args.seconds, bool(args.trace), references["eval-batch"]
            )
        else:
            import service_ingest

            out = service_ingest.run(args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    emit(out["notes"])
    if not out["correct"]:
        emit([result_line(False, out["attempted"], out["failed"], {})])
        return 1
    failed_ratio = out["failed"] / out["attempted"]
    if args.trace:
        metrics, table = layer_metrics(out["trace"], failed_ratio)
        emit(table)
        emit([f"tracing overhead: {out['trace']['overhead']:.3f}x (traced / untraced)"])
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        metrics = out["end_to_end"]
        wanted = [m["name"] for m in spec["end_to_end"]]
    if sorted(metrics) != sorted(wanted):
        print(
            f"perfbench: metric set drifted from BENCHMARK.json: "
            f"extra {sorted(set(metrics) - set(wanted))}, "
            f"missing {sorted(set(wanted) - set(metrics))}",
            file=sys.stderr,
        )
        return 2
    emit([f"{name:<44}{value:>16.6f} {unit}" for name, (value, unit) in metrics.items()])
    emit([f"run wall: {time.perf_counter() - started:.1f} s"])
    emit([result_line(True, out["attempted"], out["failed"], metrics)])
    return 0


if __name__ == "__main__":
    sys.exit(main())
