"""Reference DICE real-time phase: an independent detect-then-identify loop.

``repro`` runs the paper's real-time phase (§3.3-3.4, Fig. 3.2) through one
state machine, :meth:`repro.core.backend.DetectorBackend.observe_window`,
for both the streaming runtime and ``DiceDetector.process``.  This module
keeps a second, self-contained implementation of the same phase — one flat
loop over the windows of a segment, with its own session bookkeeping — so
the differential, batch-parity and conformance suites compare two
genuinely different implementations rather than one with itself.

``batch=True`` resolves every correlation check up front with one
``CorrelationChecker.check_many`` pass; ``batch=False`` checks window by
window through the memoised scalar path.  Both must agree exactly.
"""

from __future__ import annotations

import time
from typing import FrozenSet, List, Optional

from repro.core import BackendAlert, DiceDetector
from repro.core.checks import CorrelationResult
from repro.core.detector import (
    CORRELATION_CHECK,
    TRANSITION_CHECK,
    DetectionRecord,
    IdentificationRecord,
    SegmentReport,
)
from repro.core.encoding import WindowedTrace
from repro.core.identification import IdentificationSession, ProbableFaultSet
from repro.model import Trace


def process(
    detector: DiceDetector, trace: Trace, batch: bool = True
) -> SegmentReport:
    """The real-time phase over a segment trace (no telemetry published)."""
    windowed = detector._require_fitted().encoder.encode(trace)
    return process_windows(detector, windowed, batch)


def process_windows(
    detector: DiceDetector, windowed: WindowedTrace, batch: bool = True
) -> SegmentReport:
    """The real-time phase over pre-encoded windows."""
    report = SegmentReport(
        n_windows=len(windowed),
        window_seconds=windowed.window_seconds,
        start=windowed.start,
    )
    timings = report.timings
    corr_checker = detector._correlation_checker
    trans_checker = detector._transition_checker
    identifier = detector._identifier
    cache_hits0 = corr_checker.cache_hits
    cache_misses0 = corr_checker.cache_misses

    # Batch path: one (W, G) matrix pass answers the correlation check
    # for the whole segment; the per-window loop below then consumes
    # the precomputed results in order.
    corr_results: Optional[List[CorrelationResult]] = None
    if batch and len(windowed):
        t0 = time.perf_counter()
        corr_results = corr_checker.check_many(windowed.masks)
        timings.correlation_s += time.perf_counter() - t0

    prev_group: Optional[int] = None
    # The last window that matched a main group — identification prunes
    # probable groups by their transition probability from this anchor,
    # which stays valid across a run of violating windows.
    anchor_group: Optional[int] = None
    prev_acts: FrozenSet[str] = frozenset()
    session: Optional[IdentificationSession] = None
    session_trigger = CORRELATION_CHECK

    for i, (mask, acts) in enumerate(windowed):
        timings.windows += 1
        window_end = windowed.window_start(i) + windowed.window_seconds

        if corr_results is not None:
            corr = corr_results[i]
        else:
            t0 = time.perf_counter()
            corr = corr_checker.check(mask)
            timings.correlation_s += time.perf_counter() - t0

        violations = ()
        if not corr.is_violation:
            t0 = time.perf_counter()
            violations = trans_checker.check(
                prev_group, corr.main_group, prev_acts, acts
            )
            timings.transition_s += time.perf_counter() - t0

        if session is None:
            if corr.is_violation:
                report.detections.append(
                    DetectionRecord(i, window_end, CORRELATION_CHECK)
                )
                t0 = time.perf_counter()
                probable = identifier.from_correlation_violation(
                    corr, anchor_group
                )
                session = IdentificationSession(
                    detector.config, probable, detector.weights
                )
                timings.identification_s += time.perf_counter() - t0
                session_trigger = CORRELATION_CHECK
            elif violations:
                report.detections.append(
                    DetectionRecord(
                        i,
                        window_end,
                        TRANSITION_CHECK,
                        tuple(v.case for v in violations),
                    )
                )
                t0 = time.perf_counter()
                probable = identifier.from_transition_violations(
                    violations, mask, prev_group
                )
                session = IdentificationSession(
                    detector.config, probable, detector.weights
                )
                timings.identification_s += time.perf_counter() - t0
                session_trigger = TRANSITION_CHECK
        else:
            # §3.4: while identifying, skip fresh detections and feed
            # the session this window's probable-faulty evidence.
            t0 = time.perf_counter()
            if corr.is_violation:
                probable = identifier.from_correlation_violation(
                    corr, anchor_group
                )
            elif violations:
                probable = identifier.from_transition_violations(
                    violations, mask, prev_group
                )
            else:
                probable = ProbableFaultSet(frozenset())
            session.update(probable)
            timings.identification_s += time.perf_counter() - t0

        if session is not None and session.is_done:
            outcome = session.outcome
            report.identifications.append(
                IdentificationRecord(
                    i,
                    window_end,
                    outcome.devices,
                    outcome.windows_used,
                    outcome.converged,
                    outcome.weighted_early,
                    triggered_by=session_trigger,
                )
            )
            session = None

        prev_group = corr.main_group
        if corr.main_group is not None:
            anchor_group = corr.main_group
        prev_acts = acts

    timings.correlation_cache_hits += corr_checker.cache_hits - cache_hits0
    timings.correlation_cache_misses += (
        corr_checker.cache_misses - cache_misses0
    )
    if session is not None:
        # Segment ended mid-session: report the best current guess.
        last_end = windowed.window_start(len(windowed) - 1) + (
            windowed.window_seconds if len(windowed) else 0.0
        )
        report.identifications.append(
            IdentificationRecord(
                max(0, len(windowed) - 1),
                last_end,
                session.intersection,
                session.windows_used,
                converged=False,
                triggered_by=session_trigger,
            )
        )
    return report


def report_alerts(report: SegmentReport) -> List[BackendAlert]:
    """A report's detections and identifications merged into window order
    (a detection precedes the identification concluded in its window)."""
    alerts: List[BackendAlert] = []
    detections = report.detections
    identifications = report.identifications
    di = ii = 0
    while di < len(detections) or ii < len(identifications):
        take_detection = ii >= len(identifications) or (
            di < len(detections)
            and detections[di].window <= identifications[ii].window
        )
        if take_detection:
            r = detections[di]
            di += 1
            alerts.append(
                BackendAlert("detection", r.time, check=r.check, cases=r.cases)
            )
        else:
            r = identifications[ii]
            ii += 1
            alerts.append(
                BackendAlert(
                    "identification",
                    r.time,
                    check=r.triggered_by,
                    devices=r.devices,
                    converged=r.converged,
                )
            )
    return alerts
