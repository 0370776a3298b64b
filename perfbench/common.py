"""Helpers shared by every workload: paths, statistics, alert digests,
metric scraping and the result line.

The benchmark runs from the root of a checkout (``python3 perfbench/run.py``)
and imports the program from ``./src``; everything it writes goes under
``./.perfbench_work``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import shutil
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: Production supervisor and reorder settings: the defaults of
#: ``repro serve`` / ``repro fleet``, so the in-process workloads and the
#: served one host homes identically.
LATENESS_S = 120.0
SILENCE_S = 900.0
QUARANTINE_S = 1800.0


class BenchError(RuntimeError):
    """A run that cannot produce a result (missing program, bad check)."""


def require_program() -> None:
    """Put ``./src`` on the import path, or fail when it is absent."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(
            "no program under ./src/repro; run from the repository root"
        )
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def fresh_dir(*parts: str) -> str:
    """An empty directory under the work root."""
    path = os.path.join(WORK, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of *values*."""
    if not values:
        raise BenchError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(values: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the *q*-th percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def tails(tick_s: Sequence[float], ingest_s: Sequence[float]) -> str:
    """The p99 latencies, printed on every run but not gated: their spread
    between runs on a shared 2-CPU host is wider than any bound allows."""
    return (
        f"tick_p99_ms={1000.0 * percentile(tick_s, 99):.3f} ({len(tick_s)} samples, "
        f"{beyond(tick_s, 99)} beyond)  ingest_p99_ms="
        f"{1000.0 * percentile(ingest_s, 99):.3f} ({len(ingest_s)} samples, "
        f"{beyond(ingest_s, 99)} beyond)"
    )


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise BenchError("median of an empty sample")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


# ---------------------------------------------------------------------- #
# Host speed
# ---------------------------------------------------------------------- #

#: What the calibration kernel takes on the reference host (a shared 2-CPU
#: x86 box); host-normalised times are stated at this host speed.
KERNEL_REF_S = 0.0025


def _kernel() -> int:
    """A fixed pure-Python load (dict updates, list appends, a keyed sort)
    that never touches the program."""
    table: Dict[int, int] = {}
    picked = []
    for i in range(12000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        if i % 7 == 0:
            picked.append((key, i))
    picked.sort(key=lambda pair: pair[1] % 97)
    return len(picked) + len(table)


class HostSpeed:
    """The speed of a shared host, sampled by running the calibration
    kernel between the timed calls of a pass.

    On a shared machine the same work takes up to twice as long from one
    minute to the next, far beyond any change a program edit makes.  The
    kernel slows down with the host, so a time divided by :meth:`factor`
    (the mean kernel time over :data:`KERNEL_REF_S`, sampled next to that
    time's calls) is the time the work would take at reference speed.  Kernel time is never inside a
    timed section.  A disabled tracker (traced runs, reference generation)
    takes no samples and has factor 1.0.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.samples: List[float] = []

    def sample(self, repeats: int = 1) -> None:
        if not self.enabled:
            return
        clock = time.perf_counter
        for _ in range(repeats):
            start = clock()
            _kernel()
            self.samples.append(clock() - start)

    def factor(self) -> float:
        if not self.enabled:
            return 1.0
        if not self.samples:
            raise BenchError("host speed was never sampled")
        return sum(self.samples) / len(self.samples) / KERNEL_REF_S


# ---------------------------------------------------------------------- #
# Canonical alert digest
# ---------------------------------------------------------------------- #


def alert_line(record: dict) -> str:
    """One alert in a form that no hash seed or repr can change: kind,
    fixed-format time, check, cases, sorted devices, converged."""
    check = record.get("check")
    return "|".join(
        (
            str(record["kind"]),
            f"{float(record['time']):.6f}",
            "-" if check is None else str(check),
            ",".join(str(case) for case in record.get("cases", ())),
            ",".join(sorted(str(d) for d in record.get("devices", ()))),
            "1" if record.get("converged", True) else "0",
        )
    )


def home_digests(records: Iterable[dict]) -> Dict[str, str]:
    """Per-home SHA-256 over alert lines in per-home sequence order.

    *records* are :func:`repro.durability.alert_record` dicts (what the
    outbox delivers); copies of one id (at-least-once redelivery) count
    once.
    """
    by_home: Dict[str, Dict[int, dict]] = {}
    seen = set()
    for record in records:
        if record["id"] in seen:
            continue
        seen.add(record["id"])
        by_home.setdefault(record["home"], {})[int(record["seq"])] = record
    digests = {}
    for home, seqs in sorted(by_home.items()):
        lines = "\n".join(alert_line(seqs[s]) for s in sorted(seqs))
        digests[home] = hashlib.sha256(lines.encode("utf-8")).hexdigest()
    return digests


def fleet_digest(per_home: Dict[str, str]) -> str:
    body = "\n".join(f"{home}:{digest}" for home, digest in sorted(per_home.items()))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------- #
# Program counters (Prometheus text, the program's own exposition)
# ---------------------------------------------------------------------- #

_SAMPLE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})?\s+(\S+)")


def parse_prometheus(text: str) -> Dict[str, Dict[str, float]]:
    """``{family_sample_name: {label_string: value}}`` from exposition text."""
    out: Dict[str, Dict[str, float]] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            continue
        name, labels, value = match.groups()
        out.setdefault(name, {})[labels or ""] = float(value)
    return out


def counter_total(samples: Dict[str, Dict[str, float]], name: str,
                  label: Optional[str] = None) -> float:
    """Sum of a family's series, optionally only those carrying *label*
    (e.g. ``'reason="too_late"'``)."""
    series = samples.get(name, {})
    return float(
        sum(v for labels, v in series.items() if label is None or label in labels)
    )


def registry_samples(snapshot: dict) -> Dict[str, Dict[str, float]]:
    """Program counters of an in-process snapshot, read through the same
    Prometheus exposition the service serves on ``/metrics``."""
    from repro.telemetry import to_prometheus

    return parse_prometheus(to_prometheus(snapshot))


# ---------------------------------------------------------------------- #
# Process memory
# ---------------------------------------------------------------------- #


def vm_hwm_mb(pid: str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for process {pid}")


def count_lines(path: str) -> int:
    if not os.path.exists(path):
        return 0
    with open(path, "rb") as handle:
        return sum(1 for _ in handle)


# ---------------------------------------------------------------------- #
# Output
# ---------------------------------------------------------------------- #


def load_benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def emit(lines: List[str]) -> None:
    for line in lines:
        print(line)
    sys.stdout.flush()


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, tuple]) -> str:
    """The final stdout line: ``metrics`` maps name → (value, unit)."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        },
        sort_keys=False,
    )
