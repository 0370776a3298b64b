"""Versioned checkpoint/restore for the hardened gateway runtime.

A gateway can lose power mid-window.  A checkpoint captures *everything*
the online path accumulates between events — the windower's in-flight
accumulators, the detector-side group/anchor/session state, the reorder
buffer's pending events, and the supervisor's health counters — as plain
JSON, so that::

    restore(checkpoint(mid-stream)) + replay(tail)  ==  uninterrupted replay

holds exactly (the test suite checks byte-identical alert sequences).
Floats survive the round-trip losslessly because ``json`` serializes them
via ``repr``, which is shortest-round-trip in Python 3.

The snapshot does **not** include the fitted detector model (fit artefacts
are large and immutable; persist them separately) nor the alert history
(alerts already raised have been delivered).  ``model_fingerprint`` guards
against restoring state onto a different model.
"""

from __future__ import annotations

import json
import os
from typing import Union

from .. import telemetry
from ..core import DetectorBackend, DiceDetector, as_backend

_log = telemetry.get_logger("repro.streaming.checkpoint")

#: Version 5 carries the ``telemetry`` counters, the context-refresh and
#: alert-provenance state and the ``backend`` name stamp.  Only the current
#: version restores: older snapshots were never written outside tests.
CHECKPOINT_VERSION = 5
COMPATIBLE_VERSIONS = frozenset({CHECKPOINT_VERSION})


class CheckpointError(ValueError):
    """A snapshot is malformed, from a different version, from a different
    fitted model, or from a different detector backend."""


def model_fingerprint(detector: Union[DiceDetector, DetectorBackend]) -> dict:
    """Cheap invariants of the fitted model a snapshot must match."""
    return as_backend(detector).fingerprint()


def checkpoint_state(runtime) -> dict:
    """The full versioned snapshot for a :class:`HardenedOnlineDice`.

    Includes the telemetry *counter* families (monotone totals survive a
    gateway restart); gauges and histograms are point-in-time/process-local
    and restart from zero.
    """
    # The *base* fingerprint (captured at construction, before any context
    # refresh added groups): restore fits the model fresh and re-applies
    # the carried refresh history, so the snapshot must match the
    # pre-refresh model, not the refreshed one.
    fingerprint = getattr(runtime, "base_fingerprint", None)
    if fingerprint is None:
        fingerprint = runtime.backend.fingerprint()
    state = {
        "version": CHECKPOINT_VERSION,
        "backend": runtime.backend.name,
        "model": fingerprint,
        "runtime": runtime.state_dict(),
    }
    metrics = getattr(runtime, "metrics", None)
    if metrics is not None and metrics.enabled:
        state["telemetry"] = metrics.counters_snapshot()
    return state


def restore_runtime(
    detector: Union[DiceDetector, DetectorBackend], state: dict, **runtime_kwargs
):
    """Rebuild a :class:`HardenedOnlineDice` from a snapshot.

    ``runtime_kwargs`` pass through to the :class:`HardenedOnlineDice`
    constructor.  The snapshot itself restores the reorder buffer's
    lateness/capacity, but the supervisor *policy* is not serialized —
    a caller that ran with a non-default policy must supply it again here
    (the CLI's resume path does).
    """
    from .runtime import HardenedOnlineDice

    if not isinstance(state, dict) or "version" not in state:
        raise CheckpointError("not a checkpoint snapshot")
    if state["version"] not in COMPATIBLE_VERSIONS:
        raise CheckpointError(
            f"checkpoint version {state['version']} not in "
            f"{sorted(COMPATIBLE_VERSIONS)}"
        )
    backend = as_backend(detector)
    recorded = state.get("backend")
    if recorded != backend.name:
        raise CheckpointError(
            f"checkpoint was written by backend {recorded!r} but restore "
            f"targets backend {backend.name!r}"
        )
    expected = backend.fingerprint()
    if state.get("model") != expected:
        raise CheckpointError(
            f"checkpoint was taken against a different model: "
            f"{state.get('model')} != {expected}"
        )
    runtime = HardenedOnlineDice(backend, **runtime_kwargs)
    runtime.load_state(state["runtime"])
    telemetry_state = state.get("telemetry")
    if telemetry_state is not None:
        runtime.metrics.restore_counters(telemetry_state)
    return runtime


def write_json_atomic(state: dict, path: Union[str, os.PathLike]) -> None:
    """Write *state* as JSON via write-then-rename, so a crash mid-save
    leaves the previous file intact."""
    payload = json.dumps(state, indent=2, sort_keys=True)
    tmp = f"{os.fspath(path)}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(payload)
    os.replace(tmp, path)
    _log.info("checkpoint_saved", path=os.fspath(path), bytes=len(payload))


def save_checkpoint(runtime, path: Union[str, os.PathLike]) -> None:
    """Atomically write the snapshot as JSON."""
    write_json_atomic(checkpoint_state(runtime), path)


def load_checkpoint(path: Union[str, os.PathLike]) -> dict:
    """Read a snapshot file.

    A missing, unreadable, truncated or non-JSON file raises
    :class:`CheckpointError` naming the offending path — callers (and the
    CLI) get one actionable line instead of a raw ``JSONDecodeError``
    traceback.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise CheckpointError(
            f"cannot read checkpoint {os.fspath(path)}: {exc}"
        ) from exc
    except ValueError as exc:  # json.JSONDecodeError: corrupt or truncated
        raise CheckpointError(
            f"corrupt checkpoint {os.fspath(path)}: {exc}"
        ) from exc


def restore_from_file(
    detector: Union[DiceDetector, DetectorBackend],
    path: Union[str, os.PathLike],
    **runtime_kwargs,
):
    """``restore_runtime(load_checkpoint(path))`` convenience."""
    return restore_runtime(detector, load_checkpoint(path), **runtime_kwargs)
