"""Kernel microbenchmarks and the provenance gate (``repro bench``).

The paper singles out "obtaining probable groups" — the Hamming scan over
all training groups — as the dominant real-time cost (Fig. 5.3).  The
running system is measured end to end by ``perfbench/`` (fleet replay,
ingest service, batch evaluation, with per-layer self time); this module
keeps only what that harness cannot isolate, and writes it to
``BENCH_perf.json``:

* **fit** — group interning (``GroupRegistry.from_windows``) over growing
  synthetic traces; linear thanks to the capacity-doubled bitset storage;
* **scan** — the per-window correlation check over ``G`` groups ×
  ``W`` windows, four ways: uncached scalar (the seed path), memoised
  scalar cold/warm, and the batched ``check_many`` matrix pass, plus both
  forced kernels;
* **provenance** — the alert-evidence recorder's hot-path cost: the same
  live stream with ``NULL_PROVENANCE`` vs the default recorder (budget:
  ≤ 1.1x — evidence capture must be nearly free because it only does
  work when an alert actually fires).  CI gates on this ratio.

All workloads are seeded and synthetic — the harness needs no dataset
files, and the document validator checks shape and parity flags, never
timings.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import telemetry
from ..core import DiceConfig
from ..core.checks import CorrelationChecker
from ..core.encoding import BitLayout, WindowedTrace
from ..core.groups import GroupRegistry
from ..model import DeviceRegistry, SensorType, binary_sensor

#: /2 added the ``telemetry`` overhead section; /3 ``fleet``; /4
#: ``journal``; /5 ``scenarios``; /6 ``capacity`` and per-kernel scan
#: accounting; /7 ``provenance``; /8 ``backends``; /9 ``service``; /10
#: dropped ``telemetry`` and the ``segment`` scalar arm; /11 keeps only
#: ``fit``, ``scan`` and ``provenance`` (the end-to-end sections moved to
#: ``perfbench/`` and the test suite).
BENCH_SCHEMA = "dice-bench-perf/11"
DEFAULT_OUTPUT = "BENCH_perf.json"

#: Every top-level key of a ``BENCH_perf.json`` document.
DOCUMENT_KEYS = frozenset(
    {"schema", "quick", "seed", "machine", "fit", "scan", "provenance"}
)


# --------------------------------------------------------------------- #
# Synthetic workloads
# --------------------------------------------------------------------- #


def _synthetic_layout(num_bits: int) -> BitLayout:
    registry = DeviceRegistry(
        [
            binary_sensor(f"s{i:03d}", SensorType.MOTION, f"room{i % 8}")
            for i in range(num_bits)
        ]
    )
    return BitLayout(registry)


def _random_mask(rng: np.random.Generator, num_bits: int, density: float) -> int:
    bits = np.nonzero(rng.random(num_bits) < density)[0]
    mask = 0
    for b in bits:
        mask |= 1 << int(b)
    return mask


def _group_pool(
    rng: np.random.Generator, num_bits: int, count: int, density: float = 0.08
) -> List[int]:
    """*count* distinct synthetic group masks."""
    pool: List[int] = []
    seen = set()
    while len(pool) < count:
        mask = _random_mask(rng, num_bits, density)
        if mask not in seen:
            seen.add(mask)
            pool.append(mask)
    return pool


def _probe_stream(
    rng: np.random.Generator, pool: Sequence[int], num_bits: int, count: int
) -> List[int]:
    """A window-mask stream with smart-home repetition structure.

    State sets "retain their value for several rounds" (§5.2): ~70 % of
    windows repeat a known group mask, ~20 % are near misses (1-2 bits
    flipped), ~10 % are novel — so the stream exercises cache hits, probable
    groups, and violations alike.
    """
    probes: List[int] = []
    for _ in range(count):
        roll = rng.random()
        base = pool[int(rng.integers(len(pool)))]
        if roll < 0.7:
            probes.append(base)
        elif roll < 0.9:
            for b in rng.integers(0, num_bits, size=int(rng.integers(1, 3))):
                base ^= 1 << int(b)
            probes.append(base)
        else:
            probes.append(_random_mask(rng, num_bits, 0.1))
    return probes


# --------------------------------------------------------------------- #
# Sections
# --------------------------------------------------------------------- #


def bench_fit(
    sizes: Sequence[int], num_bits: int, seed: int
) -> List[Dict]:
    """Group interning over growing synthetic traces (amortised append)."""
    layout = _synthetic_layout(num_bits)
    results = []
    for n_windows in sizes:
        rng = np.random.default_rng(seed)
        # ~60 % unique masks so the registry itself grows with the trace.
        pool = _group_pool(rng, num_bits, max(2, int(n_windows * 0.6)))
        masks = [pool[int(rng.integers(len(pool)))] for _ in range(n_windows)]
        windowed = WindowedTrace(
            layout, 60.0, 0.0, masks, [frozenset()] * n_windows
        )
        t0 = time.perf_counter()
        registry, _ = GroupRegistry.from_windows(windowed)
        seconds = time.perf_counter() - t0
        results.append(
            {
                "windows": int(n_windows),
                "groups": len(registry),
                "seconds": seconds,
            }
        )
    return results


def _best_of(repeats: int, make_timed):
    """Run ``make_timed()`` *repeats* times; return (best seconds, result).

    Taking the minimum is the standard defence against scheduler noise on
    loaded machines — every run does identical work, so the fastest run is
    the closest to the true cost.
    """
    best_s = float("inf")
    result = None
    for i in range(repeats):
        t0 = time.perf_counter()
        out = make_timed()
        seconds = time.perf_counter() - t0
        if seconds < best_s:
            best_s = seconds
        if i == 0:
            result = out
    return best_s, result


def bench_scan(
    n_groups: int, n_windows: int, num_bits: int, seed: int, repeats: int = 3
) -> Dict:
    """The correlation check four ways over G groups × W windows."""
    rng = np.random.default_rng(seed)
    layout = _synthetic_layout(num_bits)
    groups = GroupRegistry(layout)
    for mask in _group_pool(rng, num_bits, n_groups):
        groups.add(mask)
    probes = _probe_stream(rng, groups.masks, num_bits, n_windows)
    config = DiceConfig(max_candidate_distance=2)

    # Seed scalar path: one uncached scan per window.
    scalar = CorrelationChecker(groups, config, cache_size=0)
    scalar_s, scalar_results = _best_of(
        repeats, lambda: [scalar.scan(mask) for mask in probes]
    )

    # Memoised scalar: cold pass fills the LRU, warm pass mostly hits it.
    def _memo_cold():
        checker = CorrelationChecker(groups, config)
        return checker, [checker.check(mask) for mask in probes]

    memo_cold_s, (memo, memo_results) = _best_of(repeats, _memo_cold)
    memo_warm_s, _ = _best_of(
        repeats, lambda: [memo.check(mask) for mask in probes]
    )

    # Batch + memoised: one (W, G) matrix pass over the cache misses.
    def _kernel_delta(before: Dict[str, int]) -> Dict[str, int]:
        calls = groups._bitsets.kernel_calls
        return {name: calls[name] - before[name] for name in calls}

    def _dominant(delta: Dict[str, int]) -> str:
        if not any(delta.values()):
            return "none"
        return max(delta, key=lambda name: delta[name])

    def _batch_cold():
        checker = CorrelationChecker(groups, config)
        return checker, checker.check_many(probes)

    before = dict(groups._bitsets.kernel_calls)
    batch_cold_s, (batch, batch_results) = _best_of(repeats, _batch_cold)
    cold_calls = _kernel_delta(before)
    cold_info = batch.cache_info()  # counters from the first cold pass only
    before = dict(groups._bitsets.kernel_calls)
    batch_warm_s, _ = _best_of(repeats, lambda: batch.check_many(probes))
    warm_calls = _kernel_delta(before)

    if not (scalar_results == memo_results == batch_results):
        raise AssertionError("scalar, memoised and batch paths disagree")

    # The DiceConfig crossover knob, both ways: force the GEMM kernel and
    # the XOR+popcount kernel for the same cold batch pass.  Results must
    # not move — the kernel choice is a pure performance decision.
    default_min_rows = groups.gemm_min_rows
    forced_kernel_s: Dict[str, float] = {}
    try:
        for label, min_rows in (("gemm", 0), ("xor", 1 << 30)):
            forced_config = DiceConfig(
                max_candidate_distance=2, gemm_min_rows=min_rows
            )

            def _forced():
                checker = CorrelationChecker(groups, forced_config)
                return checker.check_many(probes)

            seconds, forced_results = _best_of(repeats, _forced)
            if forced_results != batch_results:
                raise AssertionError(
                    f"forced {label} kernel changed correlation results"
                )
            forced_kernel_s[label] = seconds
    finally:
        groups.gemm_min_rows = default_min_rows

    def _speedup(base: float, new: float) -> float:
        return base / new if new > 0 else float("inf")

    return {
        "groups": int(n_groups),
        "windows": int(n_windows),
        "num_bits": int(num_bits),
        "scalar_s": scalar_s,
        "memoized_cold_s": memo_cold_s,
        "memoized_warm_s": memo_warm_s,
        "batch_cold_s": batch_cold_s,
        "batch_warm_s": batch_warm_s,
        "cache_hits": cold_info["hits"],
        "cache_misses": cold_info["misses"],
        "gemm_min_rows": int(default_min_rows),
        "kernel": _dominant(cold_calls),
        "kernel_calls": {"batch_cold": cold_calls, "batch_warm": warm_calls},
        "forced_kernel_s": forced_kernel_s,
        "per_window_us": {
            "scalar": 1e6 * scalar_s / n_windows,
            "memoized_warm": 1e6 * memo_warm_s / n_windows,
            "batch_cold": 1e6 * batch_cold_s / n_windows,
        },
        "speedup_batch_vs_scalar": _speedup(scalar_s, batch_cold_s),
        "speedup_warm_vs_scalar": _speedup(scalar_s, batch_warm_s),
    }


def bench_provenance(seed: int, hours: float = 24.0, repeats: int = 5) -> Dict:
    """Evidence-recorder overhead on the hardened streaming hot path.

    Streams one seeded chaos deployment's live events through a
    :class:`~repro.streaming.HardenedOnlineDice` twice: with the recorder
    replaced by ``NULL_PROVENANCE`` (the zero-cost twin) and with the
    default :class:`~repro.telemetry.ProvenanceRecorder`.  Arms are
    interleaved so machine-load drift hits both equally, and the enabled arm's alert stream is asserted identical
    to the baseline's — evidence capture must observe, never steer.  The
    acceptance budget is ≤ 1.1x wall clock: the recorder only does real
    work when an alert fires, which is rare relative to events.
    """
    from ..faults.crash import (
        LATENESS_SECONDS,
        POLICY,
        build_chaos_deployment,
    )
    from ..streaming import HardenedOnlineDice, canonical_alerts

    deployment = build_chaos_deployment(seed, hours=hours)
    events = deployment.events

    def _timed(recorder_factory):
        detector = deployment.fit_detector(metrics=telemetry.NULL_REGISTRY)
        runtime = HardenedOnlineDice(
            detector, start=deployment.split,
            lateness_seconds=LATENESS_SECONDS, policy=POLICY,
            provenance=recorder_factory(),
        )
        t0 = time.perf_counter()
        alerts = runtime.ingest_many(events)
        alerts += runtime.finish_stream(deployment.end)
        return time.perf_counter() - t0, alerts, runtime

    disabled_s = enabled_s = float("inf")
    baseline_canon: Optional[str] = None
    identical = True
    records = 0
    for i in range(repeats):
        seconds, alerts, _ = _timed(lambda: telemetry.NULL_PROVENANCE)
        disabled_s = min(disabled_s, seconds)
        if baseline_canon is None:
            baseline_canon = canonical_alerts(alerts)
        seconds, alerts, runtime = _timed(telemetry.ProvenanceRecorder)
        enabled_s = min(enabled_s, seconds)
        if canonical_alerts(alerts) != baseline_canon:
            identical = False
        if i == 0:
            records = len(runtime.provenance.records())
    if not identical:
        raise AssertionError("provenance recording changed the alert stream")

    ratio = enabled_s / disabled_s if disabled_s > 0 else float("inf")
    return {
        "events": len(events),
        "alerts": len(alerts),
        "records": int(records),
        "disabled_s": disabled_s,
        "enabled_s": enabled_s,
        "events_per_s_disabled": (
            len(events) / disabled_s if disabled_s > 0 else 0.0
        ),
        "events_per_s_enabled": (
            len(events) / enabled_s if enabled_s > 0 else 0.0
        ),
        "overhead_ratio": ratio,
        "overhead_pct": (ratio - 1.0) * 100.0,
        "alerts_identical": identical,
    }


# --------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------- #


def run_benchmarks(
    quick: bool = False,
    seed: int = 0,
    groups: Optional[int] = None,
    windows: Optional[int] = None,
    num_bits: int = 96,
) -> Dict:
    """Run every section; returns the ``BENCH_perf.json`` document."""
    if quick:
        groups = groups or 120
        windows = windows or 800
        fit_sizes = [500, 2000]
    else:
        groups = groups or 500
        windows = windows or 5000
        fit_sizes = [2000, 8000, 16000]
    doc = {
        "schema": BENCH_SCHEMA,
        "quick": bool(quick),
        "seed": int(seed),
        "machine": {
            "cpus": os.cpu_count() or 1,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "fit": bench_fit(fit_sizes, num_bits, seed),
        "scan": [bench_scan(groups, windows, num_bits, seed)],
        # The recorder's cost is per *alert*, so the stream must be long
        # enough for the per-event ratio to dominate setup jitter (~2 s).
        "provenance": bench_provenance(seed, hours=24.0),
    }
    validate_document(doc)
    return doc


def write_document(doc: Dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --------------------------------------------------------------------- #
# Schema validation (no external dependency)
# --------------------------------------------------------------------- #


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(f"BENCH_perf.json schema violation: {message}")


def validate_document(doc: Dict) -> Dict:
    """Structurally validate a ``BENCH_perf.json`` document.

    Raises :class:`ValueError` on any shape mismatch; returns *doc* so the
    call can be chained.  Checks structure and value domains only — never
    timings — so CI validation cannot flake.
    """
    _require(isinstance(doc, dict), "top level must be an object")
    _require(
        set(doc) == DOCUMENT_KEYS,
        f"top-level keys must be exactly {sorted(DOCUMENT_KEYS)}",
    )
    _require(doc.get("schema") == BENCH_SCHEMA, f"schema must be {BENCH_SCHEMA!r}")
    _require(isinstance(doc.get("quick"), bool), "quick must be a bool")
    _require(isinstance(doc.get("seed"), int), "seed must be an int")
    machine = doc.get("machine")
    _require(isinstance(machine, dict), "machine must be an object")
    _require(
        isinstance(machine.get("cpus"), int) and machine["cpus"] >= 1,
        "machine.cpus must be a positive int",
    )
    for key in ("python", "numpy"):
        _require(isinstance(machine.get(key), str), f"machine.{key} must be a string")

    fit = doc.get("fit")
    _require(isinstance(fit, list) and fit, "fit must be a non-empty list")
    for row in fit:
        for key in ("windows", "groups"):
            _require(
                isinstance(row.get(key), int) and row[key] > 0,
                f"fit[].{key} must be a positive int",
            )
        _require(
            isinstance(row.get("seconds"), (int, float)) and row["seconds"] >= 0,
            "fit[].seconds must be a non-negative number",
        )

    scan = doc.get("scan")
    _require(isinstance(scan, list) and scan, "scan must be a non-empty list")
    for row in scan:
        for key in ("groups", "windows", "num_bits"):
            _require(
                isinstance(row.get(key), int) and row[key] > 0,
                f"scan[].{key} must be a positive int",
            )
        for key in (
            "scalar_s",
            "memoized_cold_s",
            "memoized_warm_s",
            "batch_cold_s",
            "batch_warm_s",
            "speedup_batch_vs_scalar",
            "speedup_warm_vs_scalar",
        ):
            _require(
                isinstance(row.get(key), (int, float)) and row[key] >= 0,
                f"scan[].{key} must be a non-negative number",
            )
        for key in ("cache_hits", "cache_misses"):
            _require(
                isinstance(row.get(key), int) and row[key] >= 0,
                f"scan[].{key} must be a non-negative int",
            )
        _require(
            row.get("kernel") in ("gemm", "xor", "none"),
            "scan[].kernel must be one of gemm/xor/none",
        )
        _require(
            isinstance(row.get("gemm_min_rows"), int)
            and row["gemm_min_rows"] >= 0,
            "scan[].gemm_min_rows must be a non-negative int",
        )
        calls = row.get("kernel_calls")
        _require(
            isinstance(calls, dict)
            and set(calls) == {"batch_cold", "batch_warm"},
            "scan[].kernel_calls must map batch_cold/batch_warm",
        )
        for pass_name, delta in calls.items():
            _require(
                isinstance(delta, dict)
                and all(
                    isinstance(n, int) and n >= 0 for n in delta.values()
                ),
                f"scan[].kernel_calls.{pass_name} must count kernel calls",
            )
        forced = row.get("forced_kernel_s")
        _require(
            isinstance(forced, dict) and set(forced) == {"gemm", "xor"},
            "scan[].forced_kernel_s must time both forced kernels",
        )
        for name, seconds in forced.items():
            _require(
                isinstance(seconds, (int, float)) and seconds >= 0,
                f"scan[].forced_kernel_s.{name} must be a non-negative number",
            )

    prov = doc.get("provenance")
    _require(isinstance(prov, dict), "provenance must be an object")
    for key in ("events", "alerts", "records"):
        _require(
            isinstance(prov.get(key), int) and prov[key] >= 0,
            f"provenance.{key} must be a non-negative int",
        )
    _require(prov.get("events", 0) > 0, "provenance.events must be positive")
    for key in (
        "disabled_s",
        "enabled_s",
        "events_per_s_disabled",
        "events_per_s_enabled",
        "overhead_ratio",
    ):
        _require(
            isinstance(prov.get(key), (int, float)) and prov[key] >= 0,
            f"provenance.{key} must be a non-negative number",
        )
    _require(
        isinstance(prov.get("overhead_pct"), (int, float)),
        "provenance.overhead_pct must be a number",
    )
    _require(
        prov.get("alerts_identical") is True,
        "provenance.alerts_identical must be true "
        "(evidence capture changed the alert stream)",
    )
    return doc
