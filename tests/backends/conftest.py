"""Shared harness for the backend conformance suite.

Every test here is parametrized over ``available_backends()`` — register a
backend and it is automatically subjected to the full oracle battery
(streaming==batch parity, checkpoint-cut determinism, quarantine masking,
fleet shard parity, chaos crash-recovery).  The deployment generator is
the differential suite's (``tests/test_differential.py``), so the corpus
covers the same healthy and faulty stream shapes that caught real bugs
in the streaming, fleet and durability PRs.
"""

from __future__ import annotations

import pytest

from repro.core import available_backends, create_backend
from tests.test_differential import _build_registry, _build_trace, _perturb

HOUR = 3600.0
SEED = 20260808
PERTURBATIONS = [
    "identity",
    "drop_device",
    "drop_random",
    "duplicate",
    "corrupt",
]

#: Backends whose default configuration is expected to raise alerts on the
#: perturbed corpus.  The default ensemble (dice AND markov agreeing in the
#: same window, quorum 2) is deliberately conservative and may stay silent.
ALERTING_BACKENDS = ("dice", "markov")


@pytest.fixture(params=available_backends(), scope="session")
def backend_name(request):
    return request.param


def build_deployment(
    rng,
    *,
    hours=8.0,
    phase=600.0,
    k_binary=4,
    with_numeric=True,
    with_actuator=True,
):
    """One seeded random deployment: registry, full trace, train/live split."""
    registry = _build_registry(k_binary, with_numeric, with_actuator)
    trace = _build_trace(rng, registry, hours, phase)
    split = trace.start + hours * HOUR * 0.7
    return registry, trace, split


def fit_backend(name, registry, trace, split, *, metrics=None):
    """A freshly fitted backend over the training prefix.

    Each runtime must get its *own* backend instance — transient streaming
    state (previous group/states, open sessions) lives on the backend, and
    sharing one instance across runtimes would leak state between them.
    Fitting is deterministic, so two fits over the same prefix carry the
    same model.
    """
    backend = create_backend(name, registry, metrics=metrics)
    return backend.fit(trace.slice(trace.start, split))


def perturbed_live(rng, trace, split, kind):
    return _perturb(rng, trace.slice(split, trace.end), kind)
