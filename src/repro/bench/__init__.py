"""Performance benchmark harness (``repro bench``)."""

from .perf import (
    BENCH_SCHEMA,
    DEFAULT_OUTPUT,
    bench_backends,
    bench_fleet,
    bench_provenance,
    bench_service,
    run_benchmarks,
    validate_document,
)

__all__ = [
    "BENCH_SCHEMA",
    "DEFAULT_OUTPUT",
    "bench_backends",
    "bench_fleet",
    "bench_provenance",
    "bench_service",
    "run_benchmarks",
    "validate_document",
]
