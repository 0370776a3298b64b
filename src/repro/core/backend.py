"""Pluggable streaming detector backends.

The streaming runtime used to be welded to the DICE pipeline: the window
loop called the correlation checker, the transition checker and the
identifier directly.  :class:`DetectorBackend` extracts the seam — a
backend owns *what to check per window and whom to blame*, while the
runtime keeps everything transport-level (windowing, reorder, supervision,
checkpoints, provenance, telemetry).

The contract per backend:

* ``fit(trace)`` — precomputation on fault-free data;
* ``encoder`` / ``encode_window`` — the state-set encoding the windower
  drives (all backends reuse the paper's Eq. 3.1-3.4 encoding);
* ``check(snapshot, qbits)`` — one window's verdict.  ``qbits`` are
  state-set bits owned by quarantined sensors; a backend must ignore them;
* ``identify(verdict, snapshot)`` — the probable-faulty device set a
  violating window contributes to the shared identification session;
* ``checkpoint_state()`` / ``load_state(state)`` — JSON round-trip of the
  backend's transient streaming state (the fitted model is *not* included,
  mirroring the runtime checkpoint contract);
* ``fingerprint()`` / ``context_hash()`` — cheap invariants and a content
  hash of the fitted model, so checkpoints and fleet manifests can refuse
  restores onto the wrong model.

Three backends register here:

* ``dice`` — the paper's pipeline, byte-compatible with every golden
  fixture that predates the backend seam;
* ``markov`` — a per-device Markov-process transition detector (the WSN
  anomaly-framework restriction of DICE's transition check): one state
  chain per device, a violation whenever a device takes a transition never
  observed in training;
* ``ensemble`` — N child backends voting on alerts with a quorum.

Every registered backend is automatically run through the conformance
suite in ``tests/backends/``.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from .. import telemetry
from ..model import DeviceRegistry, Trace
from .checks import CorrelationResult, TransitionCase
from .config import DEFAULT_CONFIG, KNOWN_BACKENDS, DiceConfig
from .detector import (
    CORRELATION_CHECK,
    TRANSITION_CHECK,
    DiceDetector,
    StageTimings,
)
from .encoding import StateSetEncoder, WindowedTrace
from .identification import IdentificationSession, ProbableFaultSet
from .transitions import TransitionMatrix
from .weights import DeviceWeights

#: Check labels for the non-DICE backends (DICE keeps the paper's
#: "correlation"/"transition").
MARKOV_CHECK = "markov"
ENSEMBLE_CHECK = "ensemble"


@dataclass(frozen=True)
class BackendAlert:
    """One alert a backend raises; the runtime re-wraps it as a streaming
    :class:`~repro.streaming.Alert` without touching any field.

    ``window`` is the index of the window that raised it; identifications
    also carry their session's ``windows_used``/``weighted_early``, which
    the batch :class:`~repro.core.SegmentReport` view reports."""

    kind: str  # "detection" or "identification"
    time: float
    check: Optional[str] = None
    cases: Tuple[TransitionCase, ...] = ()
    devices: FrozenSet[str] = frozenset()
    converged: bool = True
    window: int = -1
    windows_used: int = 0
    weighted_early: bool = False


class WindowVerdict(NamedTuple):
    """One window's check outcome.

    ``payload`` is backend-private evidence (whatever ``identify`` and
    ``window_evidence`` need); ``drift_signal`` feeds the context-refresh
    drift monitor and is deliberately distinct from ``violation`` — for
    DICE only *correlation* violations indicate drifted contexts.
    """

    violation: bool
    check: Optional[str] = None
    cases: Tuple[TransitionCase, ...] = ()
    payload: object = None
    drift_signal: bool = False


class WindowOutcome(NamedTuple):
    """What one completed window produced, for the runtime to publish."""

    alerts: Tuple[BackendAlert, ...] = ()
    violation: bool = False
    drift_signal: bool = False


#: Outcomes of a quiet window with no session open, by drift signal: the
#: common case allocates nothing.
_QUIET_OUTCOMES = (WindowOutcome(), WindowOutcome(drift_signal=True))

#: A window without violation contributes no evidence to an open session.
_NO_EVIDENCE = ProbableFaultSet(frozenset())

#: DICE's allocation-free verdicts: a quiet window and a correlation
#: violation (the evidence lives on the backend, see ``DiceBackend.check``).
_QUIET_VERDICT = WindowVerdict(False)
_CORRELATION_VIOLATION = WindowVerdict(True, CORRELATION_CHECK, drift_signal=True)


@dataclass(slots=True)
class _BatchWindow:
    """Duck-typed window snapshot for batch replay (kept local so
    ``repro.core`` never imports ``repro.streaming``).  The batch loop
    rebinds one instance per window, so backends must not keep it."""

    index: int = 0
    start: float = 0.0
    end: float = 0.0
    mask: int = 0
    actuator_activations: FrozenSet[str] = frozenset()


class DetectorBackend:
    """Base class: the shared identification-session state machine plus the
    checkpoint plumbing; subclasses supply ``fit``/``check``/``identify``.

    :meth:`observe_window` is the only detect-then-identify state machine:
    the streaming runtime calls it per window, and :meth:`run_windows`
    (behind :meth:`process_batch` and ``DiceDetector.process``) calls it
    over a whole encoded segment.  Subclassing it is what makes
    streaming==batch parity hold for free for a new backend.

    ``check`` and the session template add their wall-clock seconds to
    :attr:`timings`; the batch loop reports it per segment and the
    streaming runtime observes its per-window deltas.
    """

    #: Registry name; subclasses override.
    name = "abstract"

    def __init__(
        self,
        registry: DeviceRegistry,
        config: DiceConfig = DEFAULT_CONFIG,
        weights: Optional[DeviceWeights] = None,
        metrics: Optional["telemetry.MetricsRegistry"] = None,
    ) -> None:
        self.registry = registry
        self.config = config
        self.weights = weights
        self.metrics = telemetry.resolve(metrics)
        self.tracer = telemetry.Tracer(self.metrics)
        self.timings = StageTimings()
        self._session: Optional[IdentificationSession] = None
        self._session_trigger: str = CORRELATION_CHECK

    # -- fitting -------------------------------------------------------- #

    @property
    def is_fitted(self) -> bool:
        raise NotImplementedError

    def fit(self, trace: Trace) -> "DetectorBackend":
        raise NotImplementedError

    @property
    def encoder(self) -> StateSetEncoder:
        """The fitted state-set encoder the streaming windower drives."""
        raise NotImplementedError

    def encode_window(self, trace: Trace) -> WindowedTrace:
        """Encode a segment into the per-window view this backend checks."""
        return self.encoder.encode(trace)

    # -- per-window checking -------------------------------------------- #

    def check(self, snapshot, qbits: int = 0) -> WindowVerdict:
        """Check one completed window (must not mutate streaming state)."""
        raise NotImplementedError

    def identify(self, verdict: WindowVerdict, snapshot) -> ProbableFaultSet:
        """Probable faulty devices a violating window contributes (§3.4)."""
        raise NotImplementedError

    def _post_window(self, snapshot, verdict: WindowVerdict, qbits: int) -> None:
        """Hook: advance backend streaming state after a window concludes."""

    def observe_window(self, snapshot, qbits: int = 0) -> WindowOutcome:
        """Run one window through check + the identification session.

        This is the exact state machine of the paper's real-time phase: a
        violation with no session open raises a detection and opens a
        session; while a session is open every window feeds it
        probable-faulty evidence; a converged (or exhausted) session
        concludes with an identification.
        """
        verdict = self.check(snapshot, qbits)
        session = self._session
        if session is None and not verdict.violation:
            self._post_window(snapshot, verdict, qbits)
            return _QUIET_OUTCOMES[verdict.drift_signal]
        t0 = time.perf_counter()
        alerts: List[BackendAlert] = []
        if session is None:
            alerts.append(
                BackendAlert(
                    "detection",
                    snapshot.end,
                    check=verdict.check,
                    cases=verdict.cases,
                    window=snapshot.index,
                )
            )
            session = self._session = IdentificationSession(
                self.config, self.identify(verdict, snapshot), self.weights
            )
            self._session_trigger = verdict.check
        else:
            session.update(
                self.identify(verdict, snapshot)
                if verdict.violation
                else _NO_EVIDENCE
            )
        outcome = session.outcome
        if outcome is not None:
            alerts.append(
                BackendAlert(
                    "identification",
                    snapshot.end,
                    check=self._session_trigger,
                    devices=outcome.devices,
                    converged=outcome.converged,
                    window=snapshot.index,
                    windows_used=outcome.windows_used,
                    weighted_early=outcome.weighted_early,
                )
            )
            self._session = None
        self.timings.identification_s += time.perf_counter() - t0
        self._post_window(snapshot, verdict, qbits)
        return WindowOutcome(
            tuple(alerts), verdict.violation, verdict.drift_signal
        )

    def finish_segment(self, end_time: float) -> Optional[BackendAlert]:
        """End-of-segment: conclude an open session with its best guess."""
        if self._session is None:
            return None
        alert = BackendAlert(
            "identification",
            end_time,
            check=self._session_trigger,
            devices=self._session.intersection,
            converged=False,
            windows_used=self._session.windows_used,
        )
        self._session = None
        return alert

    # -- batch replay ----------------------------------------------------- #

    def batch_twin(self) -> "DetectorBackend":
        """A backend sharing this one's fitted model but with fresh
        transient streaming state — what :meth:`process_batch` drives."""
        raise NotImplementedError

    def process_batch(self, trace: Trace) -> List[BackendAlert]:
        """Replay a segment through :meth:`observe_window` on a fresh twin."""
        twin = self.batch_twin()
        return twin.run_windows(twin.encode_window(trace))

    def prefetch_windows(self, windowed: WindowedTrace) -> None:
        """Hook: resolve per-window work for a whole segment up front,
        before :meth:`run_windows` checks it window by window."""

    def run_windows(self, windowed: WindowedTrace) -> List[BackendAlert]:
        """Drive fresh streaming state through a whole encoded segment.

        Returns the alerts in window order, an open session concluded at
        the segment end; :attr:`timings` gains the segment's stage
        seconds, window count and memo hit/miss deltas.
        """
        timings = self.timings
        hits0, misses0 = self.cache_counters()
        self.prefetch_windows(windowed)
        alerts: List[BackendAlert] = []
        window = _BatchWindow()
        start, seconds = windowed.start, windowed.window_seconds
        observe = self.observe_window
        for i, (mask, acts) in enumerate(windowed):
            window.index, window.mask, window.actuator_activations = i, mask, acts
            window.start = begin = start + i * seconds
            window.end = begin + seconds
            outcome = observe(window)
            if outcome.alerts:
                alerts.extend(outcome.alerts)
        n = len(windowed)
        tail = self.finish_segment(window.end) if n else None
        if tail is not None:
            alerts.append(replace(tail, window=n - 1))
        hits1, misses1 = self.cache_counters()
        timings.windows += n
        timings.correlation_cache_hits += hits1 - hits0
        timings.correlation_cache_misses += misses1 - misses0
        return alerts

    # -- evidence / telemetry ------------------------------------------- #

    def window_evidence(self, snapshot) -> dict:
        """Deterministic JSON evidence for the last checked window."""
        return {
            "window": snapshot.index,
            "start": snapshot.start,
            "end": snapshot.end,
            "mask": format(snapshot.mask, "x"),
            "actuators": sorted(snapshot.actuator_activations),
        }

    def context_summary(self) -> dict:
        """One-line fitted-context summary stamped into provenance."""
        return {"backend": self.name}

    def cache_counters(self) -> Tuple[int, int]:
        """(hits, misses) of whatever per-window memo the backend keeps."""
        return (0, 0)

    #: The underlying :class:`DiceDetector` when this backend has one
    #: (``None`` otherwise); the fleet's shared-context interning and the
    #: context refresher only apply to DICE-backed runtimes.
    dice_detector: Optional[DiceDetector] = None

    #: The live correlation checker for memo pre-warming (``None`` when the
    #: backend has no correlation memo).
    correlation_checker = None

    # -- checkpointing --------------------------------------------------- #

    def state_payload(self) -> Optional[dict]:
        """Backend-private transient state beyond the shared session."""
        return None

    def load_payload(self, payload: Optional[dict]) -> None:
        """Inverse of :meth:`state_payload` (``None`` = fresh state)."""

    def checkpoint_state(self) -> dict:
        """JSON-serializable transient streaming state (flat keys, merged
        into the runtime checkpoint)."""
        state = {
            "session": (
                None if self._session is None else self._session.state_dict()
            ),
            "session_trigger": self._session_trigger,
        }
        payload = self.state_payload()
        if payload is not None:
            state[self.name] = payload
        return state

    def load_state(self, state: dict) -> None:
        session = state["session"]
        self._session = (
            None
            if session is None
            else IdentificationSession.from_state_dict(
                self.config, session, self.weights
            )
        )
        self._session_trigger = state["session_trigger"]
        self.load_payload(state.get(self.name))

    # -- model identity --------------------------------------------------- #

    def fingerprint(self) -> dict:
        """Cheap invariants of the fitted model; checkpoints must match."""
        raise NotImplementedError

    def context_hash(self) -> str:
        """Content hash of the fitted model (fleet manifests record it)."""
        raise NotImplementedError


class DiceBackend(DetectorBackend):
    """The paper's pipeline as the reference backend.

    Wraps a :class:`DiceDetector`; every checker is read through the
    detector on each access, so shared-context interning, copy-on-write
    forks and context refreshes keep working unchanged.  The checkpoint
    keys are flat (no per-backend payload) and the fingerprint carries no
    backend name.
    """

    name = "dice"

    def __init__(self, detector: DiceDetector) -> None:
        super().__init__(
            detector.registry,
            detector.config,
            detector.weights,
            metrics=detector.metrics,
        )
        # Share the detector's tracer so spans nest as before.
        self.tracer = detector.tracer
        self.dice_detector = detector
        self._prev_group: Optional[int] = None
        self._anchor_group: Optional[int] = None
        self._prev_acts: FrozenSet[str] = frozenset()
        # The last checked window's correlation result and transition
        # violations: what ``identify``, ``_post_window`` and the
        # provenance evidence read.
        self._corr = CorrelationResult(0, None, ())
        self._violations: Sequence = ()
        # Batch replay only: every window's correlation result, resolved
        # up front by one ``check_many`` pass (see ``prefetch_windows``).
        self._prefetched: Optional[List[CorrelationResult]] = None

    @property
    def is_fitted(self) -> bool:
        return self.dice_detector.model is not None

    def fit(self, trace: Trace) -> "DiceBackend":
        self.dice_detector.fit(trace)
        return self

    @property
    def encoder(self) -> StateSetEncoder:
        return self.dice_detector._require_fitted().encoder

    @property
    def correlation_checker(self):
        return self.dice_detector._correlation_checker

    # -- checking --------------------------------------------------------- #

    def check(self, snapshot, qbits: int = 0) -> WindowVerdict:
        timings = self.timings
        prefetched = self._prefetched
        if prefetched is not None and not qbits:
            corr = prefetched[snapshot.index]
        else:
            t0 = time.perf_counter()
            # Quarantine-aware and memoised either way (see
            # ``CorrelationChecker.check``).
            corr = self.dice_detector._correlation_checker.check(
                snapshot.mask, qbits
            )
            timings.correlation_s += time.perf_counter() - t0
        self._corr = corr
        main = corr.main_group
        if main is None:
            self._violations = ()
            return _CORRELATION_VIOLATION
        t0 = time.perf_counter()
        violations = self.dice_detector._transition_checker.check(
            self._prev_group, main, self._prev_acts, snapshot.actuator_activations
        )
        timings.transition_s += time.perf_counter() - t0
        self._violations = violations
        if violations:
            return WindowVerdict(
                True, TRANSITION_CHECK, tuple(v.case for v in violations)
            )
        return _QUIET_VERDICT

    def identify(self, verdict: WindowVerdict, snapshot) -> ProbableFaultSet:
        corr = self._corr
        identifier = self.dice_detector._identifier
        if corr.main_group is None:
            return identifier.from_correlation_violation(
                corr, self._anchor_group
            )
        return identifier.from_transition_violations(
            self._violations, snapshot.mask, self._prev_group
        )

    def _post_window(self, snapshot, verdict: WindowVerdict, qbits: int) -> None:
        main = self._corr.main_group
        self._prev_group = main
        if main is not None:
            self._anchor_group = main
        self._prev_acts = snapshot.actuator_activations

    # -- batch ------------------------------------------------------------ #

    def batch_twin(self) -> "DiceBackend":
        # A fresh wrap over the same fitted detector: clean transient
        # streaming state, shared trained model.
        return DiceBackend(self.dice_detector)

    def prefetch_windows(self, windowed: WindowedTrace) -> None:
        """Resolve the whole segment's correlation checks through one
        vectorised ``check_many`` matrix pass (result-identical to the
        per-window memoised check, hit/miss counters included)."""
        t0 = time.perf_counter()
        self._prefetched = self.dice_detector._correlation_checker.check_many(
            windowed.masks
        )
        self.timings.correlation_s += time.perf_counter() - t0

    # -- evidence / telemetry --------------------------------------------- #

    def window_evidence(self, snapshot) -> dict:
        from .checks import correlation_evidence, violation_evidence

        detector = self.dice_detector
        corr = self._corr
        return {
            "window": snapshot.index,
            "start": snapshot.start,
            "end": snapshot.end,
            "mask": format(snapshot.mask, "x"),
            "actuators": sorted(snapshot.actuator_activations),
            "correlation": correlation_evidence(
                corr, detector._correlation_checker.max_distance
            ),
            "transitions": [
                violation_evidence(detector.model.transitions, v)
                for v in self._violations
            ],
        }

    def context_summary(self) -> dict:
        return self.dice_detector.context_summary()

    def cache_counters(self) -> Tuple[int, int]:
        checker = self.dice_detector._correlation_checker
        return (checker.cache_hits, checker.cache_misses)

    # -- checkpointing ----------------------------------------------------- #

    def checkpoint_state(self) -> dict:
        state = super().checkpoint_state()
        state["prev_group"] = self._prev_group
        state["anchor_group"] = self._anchor_group
        state["prev_acts"] = sorted(self._prev_acts)
        return state

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self._prev_group = state["prev_group"]
        self._anchor_group = state["anchor_group"]
        self._prev_acts = frozenset(state["prev_acts"])

    # -- model identity ----------------------------------------------------- #

    def fingerprint(self) -> dict:
        model = self.dice_detector.model
        if model is None:
            raise ValueError("detector must be fitted")
        return {
            "num_bits": model.encoder.layout.num_bits,
            "num_groups": len(model.groups),
            "window_seconds": model.encoder.window_seconds,
            "num_devices": len(self.registry),
        }

    def context_hash(self) -> str:
        from .context import context_hash

        detector = self.dice_detector
        return detector._interned_hash or context_hash(detector)


class MarkovBackend(DetectorBackend):
    """Per-device Markov-process transition detector.

    A restriction of DICE's transition check: each device gets its own
    state chain (a binary sensor's window state is its activation bit, a
    numeric sensor's its three derived bits, an actuator's its per-window
    activation), and a window violates when any device takes a transition
    whose training count is zero while its source state is trusted
    (``min_row_observations``).  No cross-device context is extracted —
    which is exactly what makes it a useful baseline for the paper's
    correlated-group claim.
    """

    name = "markov"

    def __init__(
        self,
        registry: DeviceRegistry,
        config: DiceConfig = DEFAULT_CONFIG,
        weights: Optional[DeviceWeights] = None,
        metrics: Optional["telemetry.MetricsRegistry"] = None,
    ) -> None:
        super().__init__(registry, config, weights, metrics=metrics)
        self._encoder: Optional[StateSetEncoder] = None
        self._chains: Optional[Dict[str, TransitionMatrix]] = None
        self._training_windows = 0
        self._sensor_ids: Tuple[str, ...] = ()
        self._actuator_ids: Tuple[str, ...] = ()
        self._device_order: Tuple[str, ...] = ()
        self._prev_states: Dict[str, Optional[int]] = {}
        self._last_violating: Tuple[str, ...] = ()

    @property
    def is_fitted(self) -> bool:
        return self._chains is not None

    @property
    def encoder(self) -> StateSetEncoder:
        if self._encoder is None:
            raise RuntimeError("backend not fitted; call fit() first")
        return self._encoder

    def fit(self, trace: Trace) -> "MarkovBackend":
        encoder = StateSetEncoder(self.registry, self.config.window_seconds)
        encoder.fit(trace)
        self._encoder = encoder
        self._sensor_ids = tuple(
            sorted(
                d.device_id
                for d in self.registry
                if not d.is_actuator
            )
        )
        self._actuator_ids = tuple(
            sorted(d.device_id for d in self.registry if d.is_actuator)
        )
        self._device_order = self._sensor_ids + self._actuator_ids
        chains = {device: TransitionMatrix() for device in self._device_order}
        prev: Optional[Dict[str, int]] = None
        windowed = encoder.encode(trace)
        for mask, acts in windowed:
            states = self._window_states(mask, acts)
            if prev is not None:
                for device, cur in states.items():
                    chains[device].observe(prev[device], cur)
            prev = states
        self._chains = chains
        self._training_windows = len(windowed)
        self._prev_states = {}
        return self

    def _window_states(self, mask: int, acts: FrozenSet[str]) -> Dict[str, int]:
        """Each tracked device's window state (sensor bits / activation)."""
        layout = self.encoder.layout
        states: Dict[str, int] = {}
        for device in self._sensor_ids:
            state = 0
            for k, bit in enumerate(layout.bits_of_device(device)):
                state |= ((mask >> bit) & 1) << k
            states[device] = state
        for device in self._actuator_ids:
            states[device] = 1 if device in acts else 0
        return states

    def check(self, snapshot, qbits: int = 0) -> WindowVerdict:
        self._require_fitted()
        t0 = time.perf_counter()
        layout = self.encoder.layout
        states: Dict[str, Optional[int]] = dict(
            self._window_states(snapshot.mask, snapshot.actuator_activations)
        )
        if qbits:
            # Quarantined sensors are unknowns: no violation can be
            # charged to (or through) their masked bits.
            for device in self._sensor_ids:
                if any(
                    (qbits >> bit) & 1
                    for bit in layout.bits_of_device(device)
                ):
                    states[device] = None
        min_row = self.config.min_row_observations
        violating: List[str] = []
        for device in self._device_order:
            cur = states[device]
            prev = self._prev_states.get(device)
            if prev is None or cur is None:
                continue
            chain = self._chains[device]
            if (
                chain.row_total(prev) >= min_row
                and chain.count(prev, cur) == 0
            ):
                violating.append(device)
        self.timings.transition_s += time.perf_counter() - t0
        self._last_violating = tuple(violating)
        payload = (tuple(violating), states)
        if violating:
            return WindowVerdict(True, MARKOV_CHECK, payload=payload)
        return WindowVerdict(False, payload=payload)

    def identify(self, verdict: WindowVerdict, snapshot) -> ProbableFaultSet:
        violating, _states = verdict.payload
        return ProbableFaultSet(frozenset(violating))

    def _post_window(self, snapshot, verdict: WindowVerdict, qbits: int) -> None:
        _violating, states = verdict.payload
        self._prev_states = dict(states)

    def _require_fitted(self) -> None:
        if self._chains is None:
            raise RuntimeError("backend not fitted; call fit() first")

    # -- batch ------------------------------------------------------------ #

    def batch_twin(self) -> "MarkovBackend":
        twin = MarkovBackend(
            self.registry, self.config, self.weights, metrics=self.metrics
        )
        twin._encoder = self._encoder
        twin._chains = self._chains
        twin._training_windows = self._training_windows
        twin._sensor_ids = self._sensor_ids
        twin._actuator_ids = self._actuator_ids
        twin._device_order = self._device_order
        return twin

    # -- evidence / telemetry --------------------------------------------- #

    def window_evidence(self, snapshot) -> dict:
        evidence = super().window_evidence(snapshot)
        evidence["markov"] = {"violations": sorted(self._last_violating)}
        return evidence

    def context_summary(self) -> dict:
        self._require_fitted()
        return {
            "backend": self.name,
            "chains": len(self._chains),
            "training_windows": self._training_windows,
        }

    # -- checkpointing ----------------------------------------------------- #

    def state_payload(self) -> Optional[dict]:
        return {"prev": dict(sorted(self._prev_states.items()))}

    def load_payload(self, payload: Optional[dict]) -> None:
        self._prev_states = dict(payload["prev"]) if payload else {}

    # -- model identity ----------------------------------------------------- #

    def fingerprint(self) -> dict:
        if self._chains is None:
            raise ValueError("detector must be fitted")
        return {
            "backend": self.name,
            "num_bits": self.encoder.layout.num_bits,
            "window_seconds": self.encoder.window_seconds,
            "num_devices": len(self.registry),
            "num_chains": len(self._chains),
        }

    def context_hash(self) -> str:
        self._require_fitted()
        digest = hashlib.blake2b(digest_size=16)
        digest.update(repr(self.encoder.window_seconds).encode())
        digest.update(repr(self._device_order).encode())
        thresholds = self.encoder._value_thresholds
        if thresholds is not None:
            digest.update(repr(thresholds.tolist()).encode())
        for device in self._device_order:
            chain = self._chains[device]
            for row in sorted(chain._counts):
                for col, count in sorted(chain._counts[row].items()):
                    digest.update(
                        f"{device}:{row}->{col}={count};".encode()
                    )
        return digest.hexdigest()


class EnsembleBackend(DetectorBackend):
    """N child backends voting on alerts with a configurable quorum.

    Every child observes every window (quarantine bits included); the
    ensemble raises a detection when at least ``quorum`` children detect
    in the same window, and an identification when at least ``quorum``
    children conclude one in the same window — blaming the devices named
    by at least ``quorum`` of those concluding children.  A single noisy
    child can therefore never dominate a quorum of two or more.
    """

    name = "ensemble"

    #: Child backends of the default registered ensemble.
    DEFAULT_CHILDREN = ("dice", "markov")
    DEFAULT_QUORUM = 2

    def __init__(
        self,
        registry: DeviceRegistry,
        config: DiceConfig = DEFAULT_CONFIG,
        weights: Optional[DeviceWeights] = None,
        metrics: Optional["telemetry.MetricsRegistry"] = None,
        *,
        children: Optional[Sequence[DetectorBackend]] = None,
        quorum: Optional[int] = None,
    ) -> None:
        super().__init__(registry, config, weights, metrics=metrics)
        if children is None:
            children = [
                create_backend(
                    name, registry, config, weights=weights, metrics=metrics
                )
                for name in self.DEFAULT_CHILDREN
            ]
        self.children: List[DetectorBackend] = list(children)
        if not self.children:
            raise ValueError("ensemble needs at least one child backend")
        self.quorum = self.DEFAULT_QUORUM if quorum is None else int(quorum)
        if not 1 <= self.quorum <= len(self.children):
            raise ValueError(
                f"quorum must be in [1, {len(self.children)}], "
                f"got {self.quorum}"
            )
        # Every child's stage seconds land in the ensemble's one ledger.
        for child in self.children:
            child.timings = self.timings

    @property
    def is_fitted(self) -> bool:
        return all(child.is_fitted for child in self.children)

    @property
    def encoder(self) -> StateSetEncoder:
        # All children fit the same deterministic encoding on the same
        # training trace, so the first child's encoder drives the windower
        # for everyone.
        return self.children[0].encoder

    def fit(self, trace: Trace) -> "EnsembleBackend":
        for child in self.children:
            child.fit(trace)
        return self

    # -- voting ----------------------------------------------------------- #

    def observe_window(self, snapshot, qbits: int = 0) -> WindowOutcome:
        detect_votes = 0
        ident_votes: List[BackendAlert] = []
        drift_votes = 0
        violation_votes = 0
        for child in self.children:
            outcome = child.observe_window(snapshot, qbits)
            if any(a.kind == "detection" for a in outcome.alerts):
                detect_votes += 1
            concluded = [
                a for a in outcome.alerts if a.kind == "identification"
            ]
            if concluded:
                ident_votes.append(concluded[-1])
            if outcome.violation:
                violation_votes += 1
            if outcome.drift_signal:
                drift_votes += 1
        alerts: List[BackendAlert] = []
        if detect_votes >= self.quorum:
            alerts.append(
                BackendAlert(
                    "detection",
                    snapshot.end,
                    check=ENSEMBLE_CHECK,
                    window=snapshot.index,
                )
            )
        if len(ident_votes) >= self.quorum:
            alerts.append(
                BackendAlert(
                    "identification",
                    snapshot.end,
                    check=ENSEMBLE_CHECK,
                    devices=self._vote_devices(ident_votes),
                    converged=(
                        sum(1 for a in ident_votes if a.converged)
                        >= self.quorum
                    ),
                    window=snapshot.index,
                )
            )
        return WindowOutcome(
            tuple(alerts),
            violation_votes >= self.quorum,
            drift_votes >= self.quorum,
        )

    def _vote_devices(
        self, ident_votes: Sequence[BackendAlert]
    ) -> FrozenSet[str]:
        counts: Dict[str, int] = {}
        for alert in ident_votes:
            for device in alert.devices:
                counts[device] = counts.get(device, 0) + 1
        return frozenset(
            device for device, votes in counts.items() if votes >= self.quorum
        )

    def finish_segment(self, end_time: float) -> Optional[BackendAlert]:
        tails = [child.finish_segment(end_time) for child in self.children]
        votes = [tail for tail in tails if tail is not None]
        if len(votes) < self.quorum:
            return None
        return BackendAlert(
            "identification",
            end_time,
            check=ENSEMBLE_CHECK,
            devices=self._vote_devices(votes),
            converged=False,
        )

    # -- batch ------------------------------------------------------------ #

    def prefetch_windows(self, windowed: WindowedTrace) -> None:
        for child in self.children:
            child.prefetch_windows(windowed)

    def batch_twin(self) -> "EnsembleBackend":
        return EnsembleBackend(
            self.registry,
            self.config,
            self.weights,
            metrics=self.metrics,
            children=[child.batch_twin() for child in self.children],
            quorum=self.quorum,
        )

    # -- evidence / telemetry --------------------------------------------- #

    def context_summary(self) -> dict:
        return {
            "backend": self.name,
            "quorum": self.quorum,
            "children": [child.name for child in self.children],
        }

    def cache_counters(self) -> Tuple[int, int]:
        hits = misses = 0
        for child in self.children:
            h, m = child.cache_counters()
            hits += h
            misses += m
        return (hits, misses)

    # -- checkpointing ----------------------------------------------------- #

    def checkpoint_state(self) -> dict:
        return {
            "ensemble": {
                "quorum": self.quorum,
                "children": [
                    {"name": child.name, "state": child.checkpoint_state()}
                    for child in self.children
                ],
            }
        }

    def load_state(self, state: dict) -> None:
        payload = state.get("ensemble")
        if payload is None:
            return
        entries = payload.get("children", [])
        if len(entries) != len(self.children):
            raise ValueError(
                f"ensemble checkpoint has {len(entries)} children, "
                f"runtime has {len(self.children)}"
            )
        for entry, child in zip(entries, self.children):
            if entry.get("name") != child.name:
                raise ValueError(
                    f"ensemble child mismatch: checkpoint has "
                    f"{entry.get('name')!r}, runtime has {child.name!r}"
                )
            child.load_state(entry["state"])

    # -- model identity ----------------------------------------------------- #

    def fingerprint(self) -> dict:
        return {
            "backend": self.name,
            "quorum": self.quorum,
            "children": [child.fingerprint() for child in self.children],
        }

    def context_hash(self) -> str:
        digest = hashlib.blake2b(digest_size=16)
        digest.update(f"quorum={self.quorum};".encode())
        for child in self.children:
            digest.update(f"{child.name}:{child.context_hash()};".encode())
        return digest.hexdigest()


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #

BackendFactory = Callable[..., DetectorBackend]

_BACKENDS: Dict[str, BackendFactory] = {}


def register_backend(name: str, factory: BackendFactory) -> None:
    """Register a backend constructor under *name* (overwrites allowed, so
    tests can shadow a backend and restore it)."""
    _BACKENDS[name] = factory


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted for stable error messages."""
    return tuple(sorted(_BACKENDS))


def create_backend(
    name: Optional[str],
    registry: DeviceRegistry,
    config: DiceConfig = DEFAULT_CONFIG,
    *,
    weights: Optional[DeviceWeights] = None,
    metrics: Optional["telemetry.MetricsRegistry"] = None,
) -> DetectorBackend:
    """Instantiate a registered backend (unfitted).

    ``name=None`` selects ``config.backend``.  An unknown name raises
    ``ValueError`` with one line naming the valid backends — the CLI
    surfaces it verbatim and exits 2.
    """
    if name is None:
        name = config.backend
    factory = _BACKENDS.get(name)
    if factory is None:
        valid = ", ".join(available_backends())
        raise ValueError(f"unknown backend {name!r}; valid backends: {valid}")
    return factory(registry, config, weights=weights, metrics=metrics)


def as_backend(obj) -> DetectorBackend:
    """Coerce a detector-or-backend into a :class:`DetectorBackend`.

    A :class:`DiceDetector` is wrapped in a fresh :class:`DiceBackend`
    (each wrap carries its own transient streaming state, exactly like the
    pre-backend runtime kept that state per-runtime); a backend passes
    through unchanged.
    """
    if isinstance(obj, DetectorBackend):
        return obj
    if isinstance(obj, DiceDetector):
        return DiceBackend(obj)
    raise TypeError(
        f"expected a DetectorBackend or DiceDetector, got {type(obj).__name__}"
    )


def _dice_factory(registry, config=DEFAULT_CONFIG, *, weights=None, metrics=None):
    return DiceBackend(DiceDetector(registry, config, weights, metrics=metrics))


def _markov_factory(registry, config=DEFAULT_CONFIG, *, weights=None, metrics=None):
    return MarkovBackend(registry, config, weights, metrics=metrics)


def _ensemble_factory(registry, config=DEFAULT_CONFIG, *, weights=None, metrics=None):
    return EnsembleBackend(registry, config, weights, metrics=metrics)


register_backend("dice", _dice_factory)
register_backend("markov", _markov_factory)
register_backend("ensemble", _ensemble_factory)

# The config-side name list must cover the built-in registry, so a bad
# ``DiceConfig(backend=...)`` fails at construction with the same message
# shape as ``create_backend``.
assert set(KNOWN_BACKENDS) == set(_BACKENDS), (
    "KNOWN_BACKENDS out of sync with the backend registry"
)
