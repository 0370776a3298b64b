"""Tests for the correlation and transition checks (§3.3)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BitLayout,
    CorrelationChecker,
    DiceConfig,
    GroupRegistry,
    TransitionCase,
    TransitionChecker,
    TransitionModel,
)
from repro.model import DeviceRegistry, SensorType, binary_sensor, numeric_sensor


def groups_with(registry, masks):
    groups = GroupRegistry(BitLayout(registry))
    for mask in masks:
        groups.add(mask)
    return groups


class TestCorrelationChecker:
    def test_exact_match_is_main_group(self, registry):
        groups = groups_with(registry, [0b01, 0b11])
        checker = CorrelationChecker(groups, DiceConfig())
        result = checker.check(0b01)
        assert not result.is_violation
        assert groups.mask_of(result.main_group) == 0b01

    def test_near_misses_are_probable_groups(self, registry):
        groups = groups_with(registry, [0b01, 0b11])
        checker = CorrelationChecker(groups, DiceConfig())
        result = checker.check(0b01)
        probable_masks = [groups.mask_of(g) for g, _ in result.probable_groups]
        assert 0b11 in probable_masks

    def test_no_match_is_violation(self, registry):
        groups = groups_with(registry, [0b11000])
        checker = CorrelationChecker(groups, DiceConfig(max_candidate_distance=1))
        result = checker.check(0b00001)
        assert result.is_violation
        assert result.probable_groups == ()

    def test_candidate_distance_derives_from_fault_count(self, registry):
        # Numeric sensors present: one fault may flip three bits.
        checker = CorrelationChecker(groups_with(registry, [0]), DiceConfig())
        assert checker.max_distance == 3
        two_fault = CorrelationChecker(
            groups_with(registry, [0]), DiceConfig(num_faults=2)
        )
        assert two_fault.max_distance == 6

    def test_nearest_widens_search(self, registry):
        groups = groups_with(registry, [0b11111])
        checker = CorrelationChecker(groups, DiceConfig(max_candidate_distance=1))
        hits = checker.nearest(0, limit_distance=5)
        assert hits and hits[0][1] == 5


def model_from(sequence, activations=None):
    activations = activations or [frozenset()] * len(sequence)
    return TransitionModel.extract(sequence, activations)


class TestCorrelationCache:
    def test_repeat_check_hits_cache(self, registry):
        groups = groups_with(registry, [0b01, 0b11])
        checker = CorrelationChecker(groups, DiceConfig())
        first = checker.check(0b01)
        second = checker.check(0b01)
        assert first == second
        assert checker.cache_info() == {
            "hits": 1,
            "misses": 1,
            "size": 1,
            "max_size": DiceConfig().correlation_cache_size,
            "evictions": 0,
        }

    def test_cache_size_zero_disables_memoisation(self, registry):
        groups = groups_with(registry, [0b01])
        checker = CorrelationChecker(groups, DiceConfig(), cache_size=0)
        checker.check(0b01)
        checker.check(0b01)
        info = checker.cache_info()
        assert info["hits"] == 0
        assert info["misses"] == 2
        assert info["size"] == 0

    def test_lru_evicts_oldest_entry(self, registry):
        groups = groups_with(registry, [0b01, 0b10, 0b11])
        checker = CorrelationChecker(groups, DiceConfig(), cache_size=2)
        checker.check(0b01)
        checker.check(0b10)
        checker.check(0b01)  # touch 0b01 so 0b10 is now the LRU entry
        checker.check(0b11)  # evicts 0b10
        assert set(checker._cache) == {0b01, 0b11}
        checker.check(0b10)
        assert checker.cache_misses == 4  # 0b10 had to be re-scanned

    def test_registry_growth_invalidates_cache(self, registry):
        groups = groups_with(registry, [0b11])
        checker = CorrelationChecker(groups, DiceConfig())
        assert checker.check(0b01).main_group is None
        groups.add(0b01)  # bumps GroupRegistry.version
        result = checker.check(0b01)
        assert result.main_group is not None
        assert groups.mask_of(result.main_group) == 0b01

    def test_check_many_matches_scalar_results_and_counters(self, registry):
        groups = groups_with(registry, [0b001, 0b011, 0b110])
        probes = [0b001, 0b111, 0b001, 0b011, 0b111, 0b000]
        scalar = CorrelationChecker(groups, DiceConfig())
        scalar_results = [scalar.check(mask) for mask in probes]
        batch = CorrelationChecker(groups, DiceConfig())
        batch_results = batch.check_many(probes)
        assert batch_results == scalar_results
        assert batch.cache_info() == scalar.cache_info()

    def test_check_many_without_cache_matches_scan(self, registry):
        groups = groups_with(registry, [0b001, 0b011])
        probes = [0b001, 0b010, 0b001]
        checker = CorrelationChecker(groups, DiceConfig(), cache_size=0)
        assert checker.check_many(probes) == [checker.scan(m) for m in probes]

    def test_check_many_empty_registry(self, registry):
        groups = groups_with(registry, [])
        checker = CorrelationChecker(groups, DiceConfig())
        results = checker.check_many([0b01, 0b10])
        assert all(r.is_violation for r in results)

    def test_clear_cache_resets_entries_not_counters(self, registry):
        groups = groups_with(registry, [0b01])
        checker = CorrelationChecker(groups, DiceConfig())
        checker.check(0b01)
        checker.check(0b01)
        checker.clear_cache()
        info = checker.cache_info()
        assert info["size"] == 0
        assert info["hits"] == 1 and info["misses"] == 1


# A layout straddling the 64-bit word boundary: 66 binary sensors, then one
# numeric sensor's three bits (69 bits, two words).
WIDE_REGISTRY = DeviceRegistry(
    [binary_sensor(f"m{i}", SensorType.MOTION, "r") for i in range(66)]
    + [numeric_sensor("t", SensorType.TEMPERATURE, "r")]
)
#: Bits the generated masks draw from: a dense low cluster (so masked
#: distances collide, including several exact matches) plus bits on both
#: sides of the word boundary.
_BITS = list(range(8)) + [62, 63, 64, 65, 66, 67, 68]


def _masks(max_bits=5):
    return st.sets(st.sampled_from(_BITS), max_size=max_bits).map(
        lambda bits: sum(1 << b for b in bits)
    )


def masked_oracle(group_masks, mask, qbits, max_distance):
    """Pure-Python quarantine-aware scan: distances over the visible bits;
    the first exact match is the main group, further exact matches are
    dropped, near matches are listed by (distance, group id)."""
    visible = ~qbits
    dists = [((mask ^ g) & visible).bit_count() for g in group_masks]
    zero = [i for i, d in enumerate(dists) if d == 0]
    near = sorted(
        (d, i) for i, d in enumerate(dists) if 0 < d <= max_distance
    )
    return (
        mask & visible,
        zero[0] if zero else None,
        tuple((i, d) for d, i in near),
    )


class TestMaskedCorrelationMemo:
    """Quarantine-masked checks share the memo under ``(qbits, mask & ~qbits)``."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        group_masks=st.lists(_masks(), min_size=0, max_size=12, unique=True),
        probes=st.lists(st.tuples(_masks(), _masks(3)), min_size=1, max_size=12),
    )
    def test_memoised_result_equals_uncached_scan(self, group_masks, probes):
        groups = groups_with(WIDE_REGISTRY, group_masks)
        memo = CorrelationChecker(groups, DiceConfig())
        fresh = CorrelationChecker(groups, DiceConfig(), cache_size=0)
        # Each probe twice: the second lookup is served from the memo.
        for mask, qbits in probes + probes:
            got = memo.check(mask, qbits)
            want = fresh.scan_masked(mask, qbits) if qbits else fresh.scan(mask)
            assert got.mask == want.mask
            assert got.main_group == want.main_group
            assert got.probable_groups == want.probable_groups
            if qbits:
                assert (got.mask, got.main_group, got.probable_groups) == (
                    masked_oracle(group_masks, mask, qbits, memo.max_distance)
                )
                assert got.main_group is None or type(got.main_group) is int
                assert all(
                    type(g) is int and type(d) is int
                    for g, d in got.probable_groups
                )
        info = memo.cache_info()
        assert info["hits"] + info["misses"] == 2 * len(probes)
        keys = {(q, m & ~q) if q else m for m, q in probes}
        assert info["misses"] == len(keys)

    def test_masked_lookups_share_entries_by_visible_mask(self, registry):
        groups = groups_with(registry, [0b001, 0b011, 0b111])
        checker = CorrelationChecker(groups, DiceConfig())
        first = checker.check(0b011, qbits=0b010)
        # Differs only in a quarantined bit: the same key, a memo hit.
        second = checker.check(0b001, qbits=0b010)
        assert first is second
        assert first.mask == 0b001
        assert checker.cache_info()["hits"] == 1
        assert checker.cache_info()["misses"] == 1
        # Same mask, unmasked: a different entry.
        assert checker.check(0b001) is not first
        assert checker.cache_info()["misses"] == 2

    def test_masked_distance_zero_differs_from_scan(self, registry):
        # Masking bit 1 makes groups 0b001 and 0b011 both exact matches:
        # the masked path keeps the first as main and drops the second.
        groups = groups_with(registry, [0b001, 0b011])
        checker = CorrelationChecker(groups, DiceConfig())
        result = checker.check(0b001, qbits=0b010)
        assert result.main_group == 0
        assert all(g != 1 for g, _ in result.probable_groups)
        assert (1, 1) in checker.check(0b001).probable_groups

    def test_registry_version_bump_drops_masked_entries(self, registry):
        groups = groups_with(registry, [0b1100])
        checker = CorrelationChecker(groups, DiceConfig())
        assert checker.check(0b0101, qbits=0b0100).is_violation
        assert checker.cache_info()["size"] == 1
        groups.add(0b0001)  # what a refit or context refresh does
        result = checker.check(0b0101, qbits=0b0100)
        assert not result.is_violation
        assert groups.mask_of(result.main_group) == 0b0001
        assert checker.cache_info()["misses"] == 2
        assert checker.cache_info()["size"] == 1

    def test_occupancy_never_exceeds_capacity(self, registry):
        groups = groups_with(registry, [0b0001, 0b0110, 0b1111])
        checker = CorrelationChecker(groups, DiceConfig(), cache_size=3)
        for mask in range(16):
            checker.check(mask)
            for qbits in (0b0001, 0b0010, 0b1000):
                checker.check(mask, qbits)
                assert checker.cache_info()["size"] <= 3
        info = checker.cache_info()
        assert info["size"] == 3
        assert info["evictions"] == info["misses"] - 3

    def test_cache_size_zero_scans_every_masked_check(self, registry, monkeypatch):
        groups = groups_with(registry, [0b01, 0b11])
        checker = CorrelationChecker(groups, DiceConfig(), cache_size=0)
        scans = []
        original = CorrelationChecker.scan_masked

        def counting(self, mask, qbits):
            scans.append((mask, qbits))
            return original(self, mask, qbits)

        monkeypatch.setattr(CorrelationChecker, "scan_masked", counting)
        for _ in range(3):
            checker.check(0b01, qbits=0b10)
        assert len(scans) == 3
        info = checker.cache_info()
        assert (info["hits"], info["misses"], info["size"]) == (0, 3, 0)


class TestTransitionChecker:
    def config(self, **kw):
        defaults = dict(min_group_observations=1, g2g_two_step_closure=False)
        defaults.update(kw)
        return DiceConfig(**defaults)

    def test_known_transition_passes(self):
        checker = TransitionChecker(model_from([0, 1]), self.config())
        assert checker.check(0, 1, frozenset(), frozenset()) == []

    def test_unknown_g2g_transition_violates(self):
        checker = TransitionChecker(model_from([0, 1, 0, 1]), self.config())
        violations = checker.check(1, 1, frozenset(), frozenset())
        assert [v.case for v in violations] == [TransitionCase.G2G]

    def test_none_prev_group_skips_g2g(self):
        checker = TransitionChecker(model_from([0, 1]), self.config())
        assert checker.check(None, 1, frozenset(), frozenset()) == []

    def test_g2a_violation_for_unseen_activation(self):
        model = model_from([0, 1], [frozenset(), frozenset({"hue"})])
        checker = TransitionChecker(model, self.config())
        violations = checker.check(1, 0, frozenset(), frozenset({"hue"}))
        assert any(v.case is TransitionCase.G2A for v in violations)
        assert violations[0].actuator == "hue"

    def test_g2a_known_activation_passes(self):
        model = model_from([0, 1], [frozenset(), frozenset({"hue"})])
        checker = TransitionChecker(model, self.config())
        assert checker.check(0, 1, frozenset(), frozenset({"hue"})) == []

    def test_a2g_violation(self):
        model = model_from([0, 1, 2], [frozenset({"hue"}), frozenset(), frozenset()])
        checker = TransitionChecker(model, self.config())
        violations = checker.check(0, 2, frozenset({"hue"}), frozenset())
        assert any(v.case is TransitionCase.A2G for v in violations)

    def test_a2g_known_passes(self):
        model = model_from([0, 1, 2], [frozenset({"hue"}), frozenset(), frozenset()])
        checker = TransitionChecker(model, self.config())
        assert checker.check(0, 1, frozenset({"hue"}), frozenset()) == []

    def test_min_group_observations_guard(self, registry):
        groups = groups_with(registry, [0b01, 0b10])
        model = model_from([0, 1, 0, 1])
        checker = TransitionChecker(
            model, self.config(min_group_observations=5), groups
        )
        # Both groups observed only twice -> below confidence -> no violation.
        assert checker.check(1, 1, frozenset(), frozenset()) == []

    def test_two_step_closure_absorbs_aliased_pair(self):
        # Training: a -> b -> c (b is a short-dwell hand-over group).
        model = model_from([0, 1, 2, 0, 1, 2])
        strict = TransitionChecker(model, self.config())
        assert strict.check(0, 2, frozenset(), frozenset())
        closed = TransitionChecker(
            model, self.config(g2g_two_step_closure=True)
        )
        assert closed.check(0, 2, frozenset(), frozenset()) == []

    def test_closure_ignores_long_dwell_middles(self):
        # b self-loops heavily: it is a hub, not a skipped boundary group.
        sequence = [0, 1, 1, 1, 1, 1, 1, 1, 1, 2] * 2
        model = model_from(sequence)
        closed = TransitionChecker(model, self.config(g2g_two_step_closure=True))
        violations = closed.check(0, 2, frozenset(), frozenset())
        assert [v.case for v in violations] == [TransitionCase.G2G]
