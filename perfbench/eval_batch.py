"""``eval-batch``: the paper's Ch. V protocol as one batch job.

All ten datasets at the benchmark-suite scale (0.7 of Table 4.1 hours, 40
faultless/faulty segment pairs each, one worker), each run through
``EvaluationRunner.evaluate``: fit, segment, inject, encode, check and
identify — the batch detector path Fig. 5.3 times, with the streaming,
durability and service layers idle.

A *pass* loads every dataset for one protocol seed (set-up), then
evaluates every dataset once (timed).  Passes repeat until ``--seconds``
of protocol time have accumulated, pass *k* of a run with ``--seed n``
using protocol seed ``(n + k) % SEED_SLOTS``.  Every pass must reproduce
each dataset's committed ``aggregate_fingerprint``.  Untraced passes
sample the host speed before every load, preparation and evaluation, and
report their times at reference host speed (:class:`common.HostSpeed`).
"""

from __future__ import annotations

import math
import os
import time
from typing import Dict, List

from common import (
    BenchError,
    HostSpeed,
    count_lines,
    fresh_dir,
    median,
    percentile,
    tails,
    vm_hwm_mb,
)

HOURS_SCALE = 0.7
PAIRS = 40
#: Protocol seeds are ``0 .. SEED_SLOTS - 1``; every seed has committed
#: reference fingerprints in ``references.json``.
SEED_SLOTS = 16


def settings_for(slot: int):
    from repro.eval.experiments import ProtocolSettings

    return ProtocolSettings(hours_scale=HOURS_SCALE, pairs=PAIRS, seed=slot, workers=1)


def load_all(settings, host: HostSpeed = HostSpeed(False)) -> tuple:
    """``(datasets, seconds)`` — ``load_dataset`` for every dataset."""
    from repro.datasets import load_dataset
    from repro.datasets.registry import ALL_NAMES

    data = {}
    load_s = 0.0
    for name in ALL_NAMES:
        host.sample()
        start = time.perf_counter()
        data[name] = load_dataset(name, seed=settings.seed, hours=settings.scaled_hours(name))
        load_s += time.perf_counter() - start
    return data, load_s


def protocol_pass(settings, data, host: HostSpeed = HostSpeed(False)) -> dict:
    """Evaluate every dataset once (the timed phase, less the host-speed
    samples between datasets)."""
    clock = time.perf_counter
    per_dataset: List[float] = []
    results = {}
    failed_pairs = 0
    t0 = clock()
    for name, loaded in data.items():
        host.sample()
        start = clock()
        try:
            results[name] = settings.runner().evaluate(name, loaded.trace)
        except Exception as exc:  # a raising dataset fails all its pairs
            print(f"eval-batch: {name} raised {exc!r}")
            failed_pairs += settings.pairs
        per_dataset.append(clock() - start)
    t1 = clock()
    return {
        "wall": sum(per_dataset), "t0": t0, "t1": t1, "per_dataset": per_dataset,
        "results": results, "failed_pairs": failed_pairs,
    }


def full_pass(slot: int, calibrate: bool) -> dict:
    """Load (set-up), count the protocol's input, evaluate (timed); with
    *calibrate*, sample the host speed between the timed calls."""
    settings = settings_for(slot)
    # One host-speed tracker per phase, sampled just before its timed calls.
    hosts = {phase: HostSpeed(calibrate) for phase in ("load", "prepare", "evaluate")}
    data, load_s = load_all(settings, hosts["load"])
    # Events the protocol processes (both segments of every pair), and
    # per-dataset ingest time: turning a loaded trace into segment pairs.
    events = 0
    ingest_s: List[float] = []
    for loaded in data.values():
        hosts["prepare"].sample()
        start = time.perf_counter()
        _, pairs = settings.runner().prepare(loaded.trace)
        ingest_s.append(time.perf_counter() - start)
        events += sum(len(p.faultless) + len(p.faulty) for p in pairs)
    done = protocol_pass(settings, data, hosts["evaluate"])
    done.update(slot=slot, setup_s=load_s, events=events, ingest_s=ingest_s,
                attempted=settings.pairs * len(data),
                factors={phase: host.factor() for phase, host in hosts.items()})
    return done


def fingerprints_of(slot: int) -> Dict[str, str]:
    """Reference generation: one pass's fingerprints."""
    settings = settings_for(slot)
    data, _ = load_all(settings)
    done = protocol_pass(settings, data)
    return {name: r.aggregate_fingerprint() for name, r in done["results"].items()}


def run(seed: int, seconds: float, trace: bool, reference: Dict[str, Dict[str, str]]) -> dict:
    from repro import telemetry

    missing = [s for s in range(SEED_SLOTS) if str(s) not in reference]
    if missing:
        raise BenchError(f"no reference fingerprints for protocol seeds {missing}")
    log_path = os.path.join(fresh_dir("eval-batch"), "program.log")
    passes = []
    rec = None
    with open(log_path, "w", encoding="utf-8") as handle:
        telemetry.configure(stream=handle)
        try:
            if trace:  # an untraced and a traced pass over the same seed
                import tracing

                passes.append(full_pass(seed % SEED_SLOTS, False))
                handle.flush()
                lines_before = count_lines(log_path)
                rec = tracing.Recorder()
                tracing.install(rec)
                passes.append(full_pass(seed % SEED_SLOTS, False))
            else:
                while not passes or sum(p["wall"] for p in passes) < seconds:
                    passes.append(full_pass((seed + len(passes)) % SEED_SLOTS, True))
        finally:
            telemetry.configure(stream=None)
    mismatched = sorted(
        f"{p['slot']}/{name}"
        for p in passes
        for name, result in p["results"].items()
        if result.aggregate_fingerprint() != reference[str(p["slot"])].get(name)
    )
    failed = sum(p["failed_pairs"] for p in passes)
    # Times at reference host speed (factor 1.0 on traced runs).  A tick is
    # one dataset's evaluate(): the p50 is each dataset's median over the
    # passes, geometric-meaned over the datasets, so that no p50 falls in
    # the gap between two datasets of different size.
    by_dataset = list(zip(*[
        [v / p["factors"]["evaluate"] for v in p["per_dataset"]] for p in passes
    ]))
    tick_p50 = math.exp(sum(math.log(median(v)) for v in by_dataset) / len(by_dataset))
    ticks = [v for times in by_dataset for v in times]
    ingest_s = [sum(p["ingest_s"]) / p["factors"]["prepare"] for p in passes]
    walls = [p["wall"] / p["factors"]["evaluate"] for p in passes]
    events = sum(p["events"] for p in passes)
    out = {
        "correct": not mismatched and failed == 0,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": failed,
        "notes": [
            f"eval-batch: {len(passes)} pass(es) over protocol seeds "
            f"{[p['slot'] for p in passes]}, 10 datasets x {PAIRS} pairs each, "
            f"{events} events, fingerprints "
            f"{'match' if not mismatched else 'MISMATCH: ' + ','.join(mismatched)}",
            f"eval-batch: tick = one dataset's evaluate() ({len(ticks)} samples; p50 = "
            f"geometric mean of the per-dataset medians), "
            f"ingest = one pass's segment-pair preparation ({len(ingest_s)} samples)",
            f"eval-batch: host factor per pass (evaluate) "
            f"{[round(p['factors']['evaluate'], 3) for p in passes]}; "
            f"raw protocol_s {median([p['wall'] for p in passes]):.4f}, "
            f"raw setup_s {median([p['setup_s'] for p in passes]):.4f}",
            tails(ticks, ingest_s),
        ],
        "end_to_end": {
            "events_per_s": (events / sum(walls), "1/s"),
            "tick_p50_ms": (1000.0 * tick_p50, "ms"),
            "ingest_p50_ms": (1000.0 * percentile(ingest_s, 50), "ms"),
            "protocol_s": (sum(walls) / len(walls), "s"),
            "setup_s": (median([p["setup_s"] / p["factors"]["load"] for p in passes]), "s"),
            "peak_rss_mb": (vm_hwm_mb(), "MB"),
        },
    }
    if trace:
        traced, untraced = passes[1], passes[0]
        results = traced["results"].values()
        out["trace"] = {
            "recorder": rec,
            "t0": traced["t0"], "t1": traced["t1"],
            "overhead": traced["wall"] / untraced["wall"],
            "samples": {},
            "log_lines": count_lines(log_path) - lines_before,
            "extra": {
                "cache_hits": float(sum(r.timings.correlation_cache_hits for r in results)),
                "cache_misses": float(sum(r.timings.correlation_cache_misses for r in results)),
            },
        }
    return out
