"""``fleet-replay``: the canonical closed-loop path, in one process.

Eight generated ISLA homes, fitted with live per-home metrics registries,
are hosted on a two-shard :class:`FleetGateway` (batched tick, shared
contexts) inside a :class:`DurableFleetGateway` (per-home journals with
``fsync="interval"``, provenance archive) whose alerts go through an
:class:`AlertOutbox` to a file sink.  The merged tick stream is replayed
as fast as the system goes, with ``deliver_pending()`` after every tick.

A *pass* takes one input set, fits fresh detectors, builds the gateway
(set-up) and replays the set's first ``PASS_EVENTS`` events (timed).
Passes repeat until ``--seconds`` of replay time have accumulated, pass
*k* of a run with ``--seed n`` using input set ``(n + k) % SEED_SLOTS``,
so a run's figures pool several input sets and set-up is measured once
per pass.  Untraced passes sample the host speed around set-up and every
``TICKS_PER_SAMPLE`` ticks, and report their times at reference host
speed (:class:`common.HostSpeed`).
"""

from __future__ import annotations

import gc
import json
import os
import time
from typing import Dict, List, Tuple

from common import (
    LATENESS_S,
    QUARANTINE_S,
    SILENCE_S,
    BenchError,
    HostSpeed,
    beyond,
    count_lines,
    fleet_digest,
    fresh_dir,
    home_digests,
    median,
    percentile,
    registry_samples,
    tails,
    vm_hwm_mb,
)

HOMES = 8
SHARDS = 2
TRAIN_HOURS = 36.0
LIVE_HOURS = 60.0
TICK_SECONDS = 300.0
#: Events per pass (whole ticks, so a pass ends at the first tick boundary
#: past this count); equal work per pass keeps input sets comparable.
PASS_EVENTS = 20_000
#: Input sets are numbered ``0 .. SEED_SLOTS - 1``; every set has a
#: committed reference digest in ``references.json``.
SEED_SLOTS = 16
#: Ticks between host-speed samples: a sample (about 2.5 ms) per 30-40 ms
#: of replay.
TICKS_PER_SAMPLE = 8
SETUP_SAMPLES = 4


def build_inputs(slot: int):
    """``(homes, ticks, end)`` of input set *slot*."""
    from repro.fleet import build_fleet_homes, merged_ticks

    homes = build_fleet_homes(
        HOMES, seed=slot, hours=TRAIN_HOURS + LIVE_HOURS, train_hours=TRAIN_HOURS
    )
    ticks = []
    events = 0
    for tick_start, batch in merged_ticks(homes, TICK_SECONDS):
        ticks.append(batch)
        events += len(batch)
        if events >= PASS_EVENTS:
            return homes, ticks, tick_start + TICK_SECONDS
    raise BenchError(f"input set {slot} has only {events} live events")


def set_up(homes, workdir: str):
    """Fit + gateway, journals and outbox; returns ``(durable, sink, s)``."""
    from repro.durability import AlertOutbox, DurableFleetGateway, FileSink
    from repro.fleet import FleetGateway, fit_fleet_detectors
    from repro.streaming import SupervisorPolicy

    sink_path = os.path.join(workdir, "alerts.jsonl")
    t0 = time.perf_counter()
    detectors = fit_fleet_detectors(homes)
    policy = SupervisorPolicy(silence_seconds=SILENCE_S, quarantine_seconds=QUARANTINE_S)
    gateway = FleetGateway(SHARDS)
    for home in homes:
        gateway.add_home(
            home.home_id, detectors[home.home_id], start=home.split,
            lateness_seconds=LATENESS_S, policy=policy,
        )
    outbox = AlertOutbox(os.path.join(workdir, "outbox"), FileSink(sink_path))
    durable = DurableFleetGateway(gateway, workdir, fsync="interval", outbox=outbox)
    return durable, sink_path, time.perf_counter() - t0


def replay(durable, ticks, end, host: HostSpeed
           ) -> Tuple[List[float], List[float], int, float, float, float]:
    """Timed phase: ``(tick_s, ingest_s, events, wall, t0, t1)``; *wall*
    is the ticks' time, without the host-speed samples between them."""
    clock = time.perf_counter
    tick_s: List[float] = []
    ingest_s: List[float] = []
    events = 0
    t0 = clock()
    for index, batch in enumerate(ticks):
        if index % TICKS_PER_SAMPLE == 0:
            host.sample()
        start = clock()
        durable.dispatch(batch)
        dispatched = clock()
        durable.deliver_pending()
        tick_s.append(clock() - start)
        ingest_s.append(dispatched - start)
        events += len(batch)
    start = clock()
    durable.finish(end)
    dispatched = clock()
    durable.deliver_pending()
    t1 = clock()
    tick_s.append(t1 - start)
    ingest_s.append(dispatched - start)
    return tick_s, ingest_s, events, sum(tick_s), t0, t1


def read_sink(path: str) -> List[dict]:
    if not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def run_pass(slot: int, index: int, calibrate: bool = False) -> dict:
    """One pass; with *calibrate*, sample the host speed between the timed
    calls."""
    from repro import telemetry

    gc.collect()  # the previous pass's gateway, so peak RSS is one pass's
    homes, ticks, end = build_inputs(slot)
    workdir = fresh_dir("fleet-replay", f"pass-{index}")
    log_path = os.path.join(workdir, "program.log")
    # One host-speed tracker for set-up (sampled around it) and one for
    # the replay (sampled between ticks).
    setup_host, replay_host = HostSpeed(calibrate), HostSpeed(calibrate)
    with open(log_path, "w", encoding="utf-8") as handle:
        telemetry.configure(stream=handle)
        try:
            setup_host.sample(SETUP_SAMPLES)
            durable, sink_path, setup_s = set_up(homes, workdir)
            setup_host.sample(SETUP_SAMPLES)
            tick_s, ingest_s, events, wall, t0, t1 = replay(durable, ticks, end, replay_host)
            durable.close()
        finally:
            telemetry.configure(stream=None)
    records = read_sink(sink_path)
    outbox = durable.outbox
    undelivered = len(outbox.pending) + len(outbox.dead_letters())
    return {
        "slot": slot, "setup_s": setup_s, "tick_s": tick_s, "ingest_s": ingest_s,
        "events": events, "wall": wall, "t0": t0, "t1": t1,
        "factor": replay_host.factor(), "setup_factor": setup_host.factor(),
        "alerts": len({r["id"] for r in records}), "undelivered": undelivered,
        "digest": fleet_digest(home_digests(records)),
        "snapshot": durable.metrics_snapshot(),
        "log_lines": count_lines(log_path),
    }


def digest_of(slot: int) -> str:
    """The alert digest of one pass (reference generation)."""
    return run_pass(slot, 0)["digest"]


def run(seed: int, seconds: float, trace: bool, reference: Dict[str, str]) -> dict:
    missing = [s for s in range(SEED_SLOTS) if str(s) not in reference]
    if missing:
        raise BenchError(f"no reference digest for input sets {missing}")
    passes = []
    rec = None
    if trace:  # an untraced and a traced pass over the same input set
        import tracing

        passes.append(run_pass(seed % SEED_SLOTS, 0))
        rec = tracing.Recorder()
        tracing.install(rec)
        passes.append(run_pass(seed % SEED_SLOTS, 1))
        rec.dump(os.path.join(fresh_dir("fleet-replay", "spans"), "spans.bin"))
    else:
        while not passes or sum(p["wall"] for p in passes) < seconds:
            passes.append(run_pass((seed + len(passes)) % SEED_SLOTS, len(passes), True))
    mismatched = [
        f"set {p['slot']}: {p['digest']}" for p in passes
        if p["digest"] != reference[str(p["slot"])]
    ]
    attempted = sum(p["events"] + p["alerts"] for p in passes)
    failed = sum(p["undelivered"] for p in passes)
    # Times at reference host speed (factor 1.0 on traced runs).
    tick_s = [v / p["factor"] for p in passes for v in p["tick_s"]]
    ingest_s = [v / p["factor"] for p in passes for v in p["ingest_s"]]
    walls = [p["wall"] / p["factor"] for p in passes]
    events = sum(p["events"] for p in passes)
    out = {
        "correct": not mismatched and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "notes": [
            f"fleet-replay: {len(passes)} pass(es) over input sets "
            f"{[p['slot'] for p in passes]}, {events} events, {len(tick_s)} tick "
            f"samples ({beyond(tick_s, 99)} beyond p99), "
            f"alerts {[p['alerts'] for p in passes]}, digests "
            f"{'match' if not mismatched else 'DIFFER'}",
            f"fleet-replay: host factor per pass {[round(p['factor'], 3) for p in passes]}; "
            f"raw protocol_s {median([p['wall'] for p in passes]):.4f}, "
            f"raw setup_s {median([p['setup_s'] for p in passes]):.4f}",
        ],
        "end_to_end": {
            "events_per_s": (events / sum(walls), "1/s"),
            "tick_p50_ms": (1000.0 * percentile(tick_s, 50), "ms"),
            "ingest_p50_ms": (1000.0 * percentile(ingest_s, 50), "ms"),
            "protocol_s": (sum(walls) / len(walls), "s"),
            "setup_s": (median([p["setup_s"] / p["setup_factor"] for p in passes]), "s"),
            "peak_rss_mb": (vm_hwm_mb(), "MB"),
        },
    }
    out["notes"].append(tails(tick_s, ingest_s))
    if mismatched:
        out["notes"].append(f"ALERT DIGEST MISMATCH: {mismatched}")
    if trace:
        traced, untraced = passes[1], passes[0]
        out["trace"] = {
            "recorder": rec,
            "t0": traced["t0"], "t1": traced["t1"],
            "overhead": traced["wall"] / untraced["wall"],
            "samples": registry_samples(traced["snapshot"]),
            "log_lines": traced["log_lines"],
            "extra": {},
        }
    return out
