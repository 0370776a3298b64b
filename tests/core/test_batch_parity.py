"""Batch, scalar and cache-disabled detection paths must agree exactly.

The batched ``check_many`` matrix pass and the LRU memo are pure
optimisations: for any segment — clean or fault-injected — the
:class:`SegmentReport` of ``DiceDetector.process`` (detections,
identifications, window count, cache counters) must be identical to the
per-window scalar path of the independent reference loop in
``tests/reference_dice.py``.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import DiceConfig, DiceDetector
from repro.faults import FaultInjector, FaultType
from tests import reference_dice

HOUR = 3600.0


@pytest.fixture(scope="module")
def house(small_house):
    return small_house


def _fit(house, **config_kwargs):
    config = DiceConfig(**config_kwargs)
    training = house.trace.slice(0.0, 72.0 * HOUR)
    return DiceDetector(house.trace.registry, config).fit(training)


@pytest.fixture(scope="module")
def detector(house):
    return _fit(house)


@pytest.fixture(scope="module")
def uncached_detector(house):
    return _fit(house, correlation_cache_size=0)


def _segments(house):
    """A clean segment plus one per fault type, all seeded."""
    clean = house.trace.slice(80.0 * HOUR, 86.0 * HOUR)
    segments = [("clean", clean)]
    for i, fault_type in enumerate(
        (FaultType.FAIL_STOP, FaultType.STUCK_AT, FaultType.OUTLIER)
    ):
        injector = FaultInjector(np.random.default_rng(100 + i))
        faulty, fault = injector.inject(clean, fault_type=fault_type)
        segments.append((fault.fault_type.value, faulty))
    return segments


def _assert_reports_equal(a, b):
    assert a.detections == b.detections
    assert a.identifications == b.identifications
    assert a.timings.windows == b.timings.windows


class TestSegmentParity:
    def test_batch_matches_scalar(self, detector, house):
        for label, segment in _segments(house):
            detector._correlation_checker.clear_cache()
            scalar = reference_dice.process(detector, segment, batch=False)
            detector._correlation_checker.clear_cache()
            batch = detector.process(segment)
            _assert_reports_equal(scalar, batch)
            # The memo is transparent to the counters too: both paths see
            # the same hit/miss stream for the same cold start.
            assert scalar.timings.correlation_cache_hits == (
                batch.timings.correlation_cache_hits
            ), label
            assert scalar.timings.correlation_cache_misses == (
                batch.timings.correlation_cache_misses
            ), label

    def test_cache_disabled_matches_cached(self, detector, uncached_detector, house):
        for _label, segment in _segments(house):
            detector._correlation_checker.clear_cache()
            cached = detector.process(segment)
            uncached = uncached_detector.process(segment)
            _assert_reports_equal(cached, uncached)

    def test_warm_cache_matches_cold(self, detector, house):
        _, segment = _segments(house)[1]
        detector._correlation_checker.clear_cache()
        cold = detector.process(segment)
        warm = detector.process(segment)
        _assert_reports_equal(cold, warm)
        assert warm.timings.correlation_cache_misses == 0
        assert warm.timings.correlation_cache_hits == warm.timings.windows

    def test_detection_outcome_fields_identical(self, detector, house):
        """Field-by-field, not just __eq__: guards against timing-bearing
        fields sneaking into the equality contract."""
        _, segment = _segments(house)[2]
        detector._correlation_checker.clear_cache()
        scalar = reference_dice.process(detector, segment, batch=False)
        detector._correlation_checker.clear_cache()
        batch = detector.process(segment)
        assert batch.detections and batch.identifications
        for a, b in zip(scalar.detections, batch.detections):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)
        for a, b in zip(scalar.identifications, batch.identifications):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)
