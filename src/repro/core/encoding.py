"""Sensor-state-set construction (§3.2.1, Eqs. 3.1-3.4).

Raw sensor data is cut into fixed-duration windows (default one minute) and
each window is summarised as a *sensor state set* — a bit vector over the
deployment's sensors:

* a **binary** sensor contributes one bit: 1 iff it activated at least once
  in the window (Eq. 3.1, a bitwise OR over its readings);
* a **numeric** sensor contributes three bits: sample skewness positive
  (Eq. 3.2), rising trend across the window (Eq. 3.3), and window mean above
  the sensor's training-period mean ``valueThre`` (Eq. 3.4).

Actuators do not appear in the state set; their activations are tracked per
window separately to feed the G2A/A2G transition matrices.

The encoder is fully vectorised: one stable lexsort by (device, window)
followed by segmented reductions produces every bit for a multi-million
event trace in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..model import DeviceRegistry, Trace
from .bitset import words_needed

#: Roles of the three numeric-sensor bits, in layout order.
NUMERIC_ROLES = ("skew", "trend", "mean")
BINARY_ROLE = "active"


@dataclass(frozen=True)
class BitSpec:
    """One bit of the state set: which device and which derived feature."""

    bit: int
    device_id: str
    role: str


class BitLayout:
    """Mapping between sensors and state-set bit positions.

    Binary sensors are laid out first (one bit each, registry order), then
    numeric sensors (three consecutive bits each: skew, trend, mean).
    """

    def __init__(self, registry: DeviceRegistry) -> None:
        self.registry = registry
        self._specs: List[BitSpec] = []
        self._device_bits: Dict[str, Tuple[int, ...]] = {}
        bit = 0
        for device in registry.binary_sensors():
            self._specs.append(BitSpec(bit, device.device_id, BINARY_ROLE))
            self._device_bits[device.device_id] = (bit,)
            bit += 1
        for device in registry.numeric_sensors():
            bits = []
            for role in NUMERIC_ROLES:
                self._specs.append(BitSpec(bit, device.device_id, role))
                bits.append(bit)
                bit += 1
            self._device_bits[device.device_id] = tuple(bits)
        self.num_bits = bit
        self.num_words = words_needed(self.num_bits)

    def __len__(self) -> int:
        return self.num_bits

    @property
    def specs(self) -> List[BitSpec]:
        return list(self._specs)

    def spec(self, bit: int) -> BitSpec:
        return self._specs[bit]

    def device_of_bit(self, bit: int) -> str:
        """The sensor a bit belongs to — the identification step's map from
        differing bits back to probable faulty devices (§3.4)."""
        return self._specs[bit].device_id

    def bits_of_device(self, device_id: str) -> Tuple[int, ...]:
        return self._device_bits[device_id]

    def devices_of_mask(self, mask: int) -> List[str]:
        """Distinct sensors owning the set bits of *mask*, layout order."""
        specs = self._specs
        seen: Dict[str, None] = {}
        while mask:
            low = mask & -mask  # visit set bits only, lowest first
            seen.setdefault(specs[low.bit_length() - 1].device_id, None)
            mask ^= low
        return list(seen)

    @property
    def has_numeric(self) -> bool:
        return any(len(bits) > 1 for bits in self._device_bits.values())

    def describe(self, mask: int) -> str:
        """Human-readable rendering of a state set, for reports/debugging."""
        parts = []
        for spec in self._specs:
            if mask >> spec.bit & 1:
                suffix = "" if spec.role == BINARY_ROLE else f".{spec.role}"
                parts.append(f"{spec.device_id}{suffix}")
        return "{" + ", ".join(parts) + "}"


class WindowedTrace:
    """The per-window view DICE consumes: one state-set mask per window plus
    the set of actuators activated in that window."""

    def __init__(
        self,
        layout: BitLayout,
        window_seconds: float,
        start: float,
        masks: Sequence[int],
        actuator_activations: Sequence[FrozenSet[str]],
    ) -> None:
        if len(masks) != len(actuator_activations):
            raise ValueError("masks and actuator activations must align")
        self.layout = layout
        self.window_seconds = float(window_seconds)
        self.start = float(start)
        self.masks = list(masks)
        self.actuator_activations = list(actuator_activations)

    def __len__(self) -> int:
        return len(self.masks)

    def window_start(self, index: int) -> float:
        return self.start + index * self.window_seconds

    def __iter__(self) -> Iterator[Tuple[int, FrozenSet[str]]]:
        return iter(zip(self.masks, self.actuator_activations))


class StateSetEncoder:
    """Turns traces into :class:`WindowedTrace`.

    ``fit`` learns each numeric sensor's ``valueThre`` (its mean value over
    the precomputation data, §3.2.1); ``encode`` applies Eqs. 3.1-3.4 per
    window.
    """

    def __init__(self, registry: DeviceRegistry, window_seconds: float = 60.0) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        self.registry = registry
        self.layout = BitLayout(registry)
        self.window_seconds = float(window_seconds)
        self._value_thresholds: Optional[np.ndarray] = None  # per device index

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #

    @property
    def is_fitted(self) -> bool:
        return self._value_thresholds is not None

    def fit(self, trace: Trace) -> "StateSetEncoder":
        """Learn per-numeric-sensor ``valueThre`` from fault-free data."""
        if trace.registry is not self.registry:
            raise ValueError("trace registry differs from encoder registry")
        n = len(self.registry)
        sums = np.zeros(n, dtype=np.float64)
        counts = np.zeros(n, dtype=np.int64)
        np.add.at(sums, trace.device_indices, trace.values)
        np.add.at(counts, trace.device_indices, 1)
        thresholds = np.zeros(n, dtype=np.float64)
        nonzero = counts > 0
        thresholds[nonzero] = sums[nonzero] / counts[nonzero]
        self._value_thresholds = thresholds
        return self

    def value_threshold(self, device_id: str) -> float:
        """The learned ``valueThre`` for one sensor."""
        self._require_fitted()
        return float(self._value_thresholds[self.registry.index_of(device_id)])

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError("encoder not fitted; call fit() on training data")

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #

    def num_windows(self, trace: Trace) -> int:
        span = trace.duration
        return max(0, int(np.ceil(span / self.window_seconds - 1e-9)))

    def encode(self, trace: Trace) -> WindowedTrace:
        """Encode every window of *trace* (windows are ``[t, t+d)``)."""
        self._require_fitted()
        if trace.registry is not self.registry:
            raise ValueError("trace registry differs from encoder registry")
        n_windows = self.num_windows(trace)
        layout = self.layout
        words = np.zeros((n_windows, layout.num_words), dtype=np.uint64)
        if n_windows and len(trace):
            window_of = np.floor(
                (trace.timestamps - trace.start) / self.window_seconds
            ).astype(np.int64)
            np.clip(window_of, 0, n_windows - 1, out=window_of)
            self._encode_binary(trace, window_of, words)
            self._encode_numeric(trace, window_of, words)
        masks = _words_to_masks(words)
        activations = self._actuator_activations(trace, n_windows)
        return WindowedTrace(
            layout, self.window_seconds, trace.start, masks, activations
        )

    # -- binary sensors -------------------------------------------------- #

    def _encode_binary(
        self, trace: Trace, window_of: np.ndarray, words: np.ndarray
    ) -> None:
        for device in self.registry.binary_sensors():
            dev_idx = self.registry.index_of(device.device_id)
            mask = (trace.device_indices == dev_idx) & (trace.values > 0)
            if not mask.any():
                continue
            bit = self.layout.bits_of_device(device.device_id)[0]
            _set_bit(words, window_of[mask], bit)

    # -- numeric sensors -------------------------------------------------- #

    def _encode_numeric(
        self, trace: Trace, window_of: np.ndarray, words: np.ndarray
    ) -> None:
        numeric = self.registry.numeric_sensors()
        if not numeric:
            return
        numeric_indices = np.array(
            [self.registry.index_of(d.device_id) for d in numeric], dtype=np.int64
        )
        is_numeric = np.zeros(len(self.registry), dtype=bool)
        is_numeric[numeric_indices] = True
        sel = is_numeric[trace.device_indices]
        if not sel.any():
            return
        dev = trace.device_indices[sel].astype(np.int64)
        win = window_of[sel]
        val = trace.values[sel]

        # Stable sort by (device, window); within a segment events keep the
        # trace's time order, so first/last per segment are genuine
        # window-start and window-end readings (Eq. 3.3).
        order = np.lexsort((win, dev))
        dev, win, val = dev[order], win[order], val[order]
        boundary = np.empty(len(dev), dtype=bool)
        boundary[0] = True
        boundary[1:] = (dev[1:] != dev[:-1]) | (win[1:] != win[:-1])
        seg_start = np.nonzero(boundary)[0]
        seg_dev = dev[seg_start]
        seg_win = win[seg_start]
        seg_end = np.append(seg_start[1:], len(dev)) - 1

        count = (seg_end - seg_start + 1).astype(np.float64)
        s1 = np.add.reduceat(val, seg_start)
        s2 = np.add.reduceat(val * val, seg_start)
        s3 = np.add.reduceat(val * val * val, seg_start)
        first = val[seg_start]
        last = val[seg_end]
        mean = s1 / count

        # Third central moment: E[(x-mu)^3] = (s3 - 3 mu s2 + 2 n mu^3) / n.
        # Its sign equals the sign of the skewness in Eq. 3.2 (sigma > 0).
        # mu^3 is spelled out as multiplies: numpy's vectorised pow can be
        # an ulp off libm's, and after the cancellation above that ulp is
        # enough to flip the bit relative to the streaming windower, which
        # must reproduce this computation exactly with scalar arithmetic.
        m3 = (s3 - 3.0 * mean * s2 + 2.0 * count * (mean * mean * mean)) / count
        variance = s2 / count - mean**2
        # Single-sample windows have no spread: skewness must read False by
        # construction, not by trusting s2/n - mu^2 to cancel to exactly 0.
        skew_bit = (m3 > 1e-12) & (variance > 1e-12) & (count > 1)
        trend_bit = last - first > 0
        thresholds = self._value_thresholds[seg_dev]
        mean_bit = mean > thresholds

        for device in numeric:
            dev_idx = self.registry.index_of(device.device_id)
            here = seg_dev == dev_idx
            if not here.any():
                continue
            wins = seg_win[here]
            skew_b, trend_b, mean_b = self.layout.bits_of_device(device.device_id)
            _set_bit(words, wins[skew_bit[here]], skew_b)
            _set_bit(words, wins[trend_bit[here]], trend_b)
            _set_bit(words, wins[mean_bit[here]], mean_b)

    # -- actuators -------------------------------------------------------- #

    def _actuator_activations(
        self, trace: Trace, n_windows: int
    ) -> List[FrozenSet[str]]:
        activations: List[set] = [set() for _ in range(n_windows)]
        if n_windows:
            for device in self.registry.actuators():
                dev_idx = self.registry.index_of(device.device_id)
                mask = (trace.device_indices == dev_idx) & (trace.values > 0)
                if not mask.any():
                    continue
                wins = np.floor(
                    (trace.timestamps[mask] - trace.start) / self.window_seconds
                ).astype(np.int64)
                np.clip(wins, 0, n_windows - 1, out=wins)
                for w in np.unique(wins):
                    activations[int(w)].add(device.device_id)
        return [frozenset(s) for s in activations]


def _set_bit(words: np.ndarray, window_indices: np.ndarray, bit: int) -> None:
    """OR the given bit into the listed window rows."""
    if len(window_indices) == 0:
        return
    word, pos = divmod(bit, 64)
    np.bitwise_or.at(words[:, word], window_indices, np.uint64(1 << pos))


def _words_to_masks(words: np.ndarray) -> List[int]:
    """Convert packed rows back into Python int bitmasks."""
    n_windows, n_words = words.shape
    masks = [0] * n_windows
    for w in range(n_words):
        shift = 64 * w
        col = words[:, w]
        for i in np.nonzero(col)[0]:
            masks[int(i)] |= int(col[i]) << shift
    return masks
