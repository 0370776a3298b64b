"""Randomized differential tests: independent implementations, one truth.

Two oracle families are cross-checked on generated inputs:

* **streaming vs batch vs reference** — :class:`~repro.streaming.OnlineDice`
  replaying a live segment event-at-a-time must raise exactly the alerts
  that :meth:`DiceDetector.process` derives from the same segment in one
  vectorised pass, and both must match the independent reference loop in
  ``tests/reference_dice.py``: same times, checks, transition cases,
  device sets and convergence flags, in the same order.  A hypothesis
  property searches random deployments (1-5 binary sensors, optional
  numeric sensor and actuator, varying phase structure and window
  alignment), each run through one of five live-segment perturbations
  (identity / drop a device / drop random events / duplicate events /
  corrupt values) so the comparison covers healthy and faulty streams
  alike.  The search is derandomized, so every run checks the same
  examples.

* **packed vs scalar Hamming** — :meth:`PackedBitsets.distances_many`
  (both its XOR-popcount and GEMM bit-plane kernels) must agree with the
  obvious ``(a ^ b).bit_count()`` oracle for every bit width straddling
  the 64-bit word boundaries.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import DiceDetector
from repro.core.bitset import _GEMM_MIN_ROWS, PackedBitsets
from repro.model import (
    DeviceRegistry,
    Event,
    SensorType,
    Trace,
    actuator,
    binary_sensor,
    numeric_sensor,
)
from repro.streaming import OnlineDice, canonical_alerts
from tests import reference_dice

HOUR = 3600.0
SEED = 20260806
TRIALS = 50
PERTURBATIONS = ["identity", "drop_device", "drop_random", "duplicate", "corrupt"]


# ---------------------------------------------------------------------------
# Random deployment generator
# ---------------------------------------------------------------------------


def _build_registry(k_binary, with_numeric, with_actuator):
    devices = [
        binary_sensor(f"m{i}", SensorType.MOTION, f"room{i % 3}")
        for i in range(k_binary)
    ]
    if with_numeric:
        devices.append(numeric_sensor("temp0", SensorType.TEMPERATURE, "room0"))
    if with_actuator:
        devices.append(actuator("act0", SensorType.BULB, "room0"))
    return DeviceRegistry(devices)


def _build_trace(rng, registry, hours, phase):
    """Phased activity: one device active per phase, at a random cadence."""
    events = []
    horizon = hours * HOUR
    ids = registry.device_ids
    t = 0.0
    while t < horizon:
        active = ids[rng.randrange(len(ids))]
        step = rng.choice([20.0, 30.0, 45.0])
        s = t
        while s < min(t + phase, horizon):
            if active.startswith("temp"):
                events.append(Event(s, active, 20.0 + 5.0 * rng.random()))
            elif active.startswith("act"):
                events.append(Event(s, active, 1.0))
                events.append(Event(min(s + step / 2, horizon), active, 0.0))
            else:
                events.append(Event(s, active, 1.0))
            s += step
        t += phase
    return Trace.from_events(registry, events, start=0.0, end=horizon)


def _perturb(rng, live, kind):
    """Inject a fault into the live segment (or none, for ``identity``)."""
    if kind == "identity":
        return live
    if kind == "drop_device":
        return live.without_device(rng.choice(live.registry.device_ids))
    events = list(live)
    if kind == "drop_random":
        events = [e for e in events if rng.random() > 0.25]
    elif kind == "duplicate":
        events = events + [e for e in events if rng.random() < 0.1]
    elif kind == "corrupt":
        events = [
            Event(e.timestamp, e.device_id, 0.0 if rng.random() < 0.1 else e.value)
            for e in events
        ]
    return Trace.from_events(live.registry, events, start=live.start, end=live.end)


def _canonical(online, *reports):
    """The streaming run's alerts, then each report's, in canonical form."""
    return [canonical_alerts(online.alerts)] + [
        canonical_alerts(reference_dice.report_alerts(report)) for report in reports
    ]


# ---------------------------------------------------------------------------
# Part A: streaming runtime vs batch detector
# ---------------------------------------------------------------------------


def test_streaming_matches_batch_on_random_traces():
    alert_counts = []

    @settings(
        max_examples=TRIALS, derandomize=True, deadline=None, database=None
    )
    @given(
        k=st.integers(1, 5),
        with_numeric=st.booleans(),
        with_actuator=st.booleans(),
        hours=st.sampled_from([4.0, 6.0, 8.0]),
        phase=st.sampled_from([300.0, 600.0, 900.0]),
        # A fractional split leaves the live segment unaligned with the
        # window grid, exercising the trailing-partial-window semantics.
        split_frac=st.floats(0.6, 0.75),
        kind=st.sampled_from(PERTURBATIONS),
        seed=st.integers(0, 2**32 - 1),
    )
    # The degenerate single-sensor deployment, always checked.
    @example(
        k=1,
        with_numeric=False,
        with_actuator=False,
        hours=4.0,
        phase=300.0,
        split_frac=0.7,
        kind="identity",
        seed=SEED,
    )
    def streaming_equals_batch_equals_reference(
        k, with_numeric, with_actuator, hours, phase, split_frac, kind, seed
    ):
        # The trace's events and the perturbation draw from one RNG seeded
        # by the example, so a failure's printed example replays exactly.
        rng = random.Random(seed)
        registry = _build_registry(k, with_numeric, with_actuator)
        trace = _build_trace(rng, registry, hours, phase)
        split = hours * HOUR * split_frac
        detector = DiceDetector(registry).fit(trace.slice(0.0, split))
        live = _perturb(rng, trace.slice(split, hours * HOUR), kind)

        reference = reference_dice.process(detector, live)
        batch = detector.process(live)
        online = OnlineDice(detector, start=live.start)
        online.replay(live)

        streamed, batched, referenced = _canonical(online, batch, reference)
        assert streamed == batched == referenced, "alert streams diverged"
        alert_counts.append(len(online.alerts))

    streaming_equals_batch_equals_reference()
    # The search must actually exercise the pipeline, not compare silence.
    assert sum(alert_counts) > 50


def test_streaming_matches_batch_across_silent_gaps():
    # A live segment that goes completely dark mid-stream: every window in
    # the gap is empty, and both sides must step through the same number of
    # (empty) windows and agree on everything raised around the gap.
    rng = random.Random(SEED + 1)
    registry = _build_registry(3, True, False)
    trace = _build_trace(rng, registry, 6.0, 600.0)
    split = 4.0 * HOUR
    detector = DiceDetector(registry).fit(trace.slice(0.0, split))
    live = trace.slice(split, 6.0 * HOUR)
    gap_start, gap_end = split + 0.4 * HOUR, split + 1.1 * HOUR
    gapped = Trace.from_events(
        registry,
        [e for e in live if not gap_start <= e.timestamp < gap_end],
        start=live.start,
        end=live.end,
    )

    reference = reference_dice.process(detector, gapped)
    batch = detector.process(gapped)
    online = OnlineDice(detector, start=gapped.start)
    online.replay(gapped)

    streamed, batched, referenced = _canonical(online, batch, reference)
    assert streamed == batched == referenced


# ---------------------------------------------------------------------------
# Part B: packed Hamming kernels vs the scalar oracle
# ---------------------------------------------------------------------------


def _random_masks(rng, num_bits, count):
    masks = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.1:
            masks.append(0)
        elif roll < 0.2:
            masks.append((1 << num_bits) - 1)
        else:
            masks.append(rng.getrandbits(num_bits))
    return masks


@pytest.mark.parametrize("num_bits", [1, 7, 64, 65, 130])
def test_distances_many_matches_scalar_hamming(num_bits):
    # Widths straddle the packing boundaries: sub-word, exactly one word,
    # one word + 1 bit, two words + 2 bits.
    rng = random.Random(SEED + num_bits)
    for n_rows in [1, 5, 40]:
        rows = _random_masks(rng, num_bits, n_rows)
        packed = PackedBitsets(num_bits, rows)
        for n_probes in [1, 3, _GEMM_MIN_ROWS + 16]:
            probes = _random_masks(rng, num_bits, n_probes)
            got = packed.distances_many(probes)
            assert got.shape == (n_probes, n_rows)
            for i, probe in enumerate(probes):
                for j, row in enumerate(rows):
                    assert got[i, j] == bin(probe ^ row).count("1"), (
                        f"bits={num_bits} probe#{i} row#{j}"
                    )
        # Single-probe path shares the oracle.
        probe = rng.getrandbits(num_bits)
        single = packed.distances(probe)
        assert [int(d) for d in single] == [
            bin(probe ^ row).count("1") for row in rows
        ]


def test_distances_many_exercises_both_kernels():
    rng = random.Random(SEED)
    packed = PackedBitsets(130, _random_masks(rng, 130, 8))
    packed.distances_many(_random_masks(rng, 130, 3))
    assert packed.kernel_calls == {"gemm": 0, "xor": 1}
    packed.distances_many(_random_masks(rng, 130, _GEMM_MIN_ROWS))
    assert packed.kernel_calls == {"gemm": 1, "xor": 1}


def test_distances_many_degenerate_shapes():
    packed = PackedBitsets(16, [0xBEEF, 0x0])
    assert packed.distances_many([]).shape == (0, 2)
    empty = PackedBitsets(16)
    assert empty.distances_many([1, 2]).shape == (2, 0)
    # Degenerate calls return early without picking a kernel.
    assert packed.kernel_calls == {"gemm": 0, "xor": 0}
    assert empty.kernel_calls == {"gemm": 0, "xor": 0}
