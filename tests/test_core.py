import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from pairsums.core import (
    Combination,
    Direction,
    EmptyInput,
    IndexOutOfRange,
    InvalidK,
    LengthMismatch,
    NonFiniteInput,
    PaperFrontier,
    PendingSet,
    _LexKey,
    denormalize,
    init,
    iter_top,
    lex_less,
    normalize,
    score,
    shift,
    successors,
    top_k,
)
from pairsums.oracle import brute_force_top_k

PAIRS = [(1, 5), (2, 3), (0, 4)]  # gaps 4, 1, 4


@pytest.fixture
def instance():
    return normalize(PAIRS, Direction.MIN)


class TestCombination:
    def test_from_bits_roundtrip(self):
        c = Combination.from_bits([1, 0, 1, 1])
        assert c.to_bits() == [1, 0, 1, 1]
        assert c.to01() == "1011"
        assert c.n == 4

    def test_bit_is_one_based(self):
        c = Combination.from_bits([1, 0, 1])
        assert [c.bit(i) for i in (1, 2, 3)] == [1, 0, 1]

    def test_equality_and_hash(self):
        a = Combination.from_bits([0, 1])
        b = Combination.from_bits([0, 1])
        assert a == b and hash(a) == hash(b)
        assert a != Combination.from_bits([0, 1, 0])  # length matters

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            Combination(0)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 13, 64, 65, 200])
    def test_bits_and_string_match_per_bit_definition(self, n):
        rng = np.random.default_rng(n)
        masks = [0, (1 << n) - 1, 1 << (n - 1)]
        masks += [int(rng.integers(0, 2, size=n) @ (1 << np.arange(n, dtype=object)))
                  for _ in range(20)]
        for mask in masks:
            c = Combination(n, mask)
            want = [(mask >> j) & 1 for j in range(n)]
            assert c.to_bits() == want
            assert all(type(b) is int for b in c.to_bits())
            assert c.to01() == "".join(map(str, want))


class TestLexOrder:
    def test_position_one_most_significant(self):
        a = Combination.from_bits([0, 1, 1])
        b = Combination.from_bits([1, 0, 0])
        assert lex_less(a, b)
        assert not lex_less(b, a)

    def test_irreflexive(self):
        c = Combination.from_bits([1, 0, 1])
        assert not lex_less(c, c)

    def test_key_total_order_matches_bit_tuples(self):
        masks = list(range(16))
        by_key = sorted(masks, key=_LexKey)
        by_bits = sorted(masks, key=lambda m: tuple((m >> j) & 1 for j in range(4)))
        assert by_key == by_bits


class TestNormalize:
    def test_sorted_gaps_and_permutation(self, instance):
        assert instance.delta.tolist() == [1, 4, 4]
        assert instance.perm.tolist() == [1, 0, 2]  # pair 2 first
        assert instance.s1 == 3
        assert instance.flip_mask == 0

    def test_swapped_pair_sets_flip_bit(self):
        inst = normalize([(5, 1)], Direction.MIN)
        assert inst.delta.tolist() == [4]
        assert inst.flip_mask == 1
        assert inst.s1 == 1

    def test_max_negates_values(self):
        inst = normalize([(1, 5)], Direction.MAX)
        assert inst.delta.tolist() == [4]
        assert inst.s1 == -5

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            normalize([], Direction.MIN)

    def test_nan_rejected(self):
        with pytest.raises(NonFiniteInput):
            normalize([(0.0, math.nan)], Direction.MIN)

    def test_infinity_rejected(self):
        with pytest.raises(NonFiniteInput):
            normalize([(math.inf, 1.0)], Direction.MIN)

    @pytest.mark.parametrize("big", [10**400, -(10**400), 2**1024])
    def test_integer_beyond_float_range_rejected(self, big):
        with pytest.raises(NonFiniteInput):
            normalize([(0.5, 1.0), (big, 1)], Direction.MIN)
        with pytest.raises(NonFiniteInput):
            top_k([[big, 1]], 1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize(
        "pairs",
        [
            [(-1.7e308, 1.7e308)],  # the gap overflows
            [(1e308, 1.5e308), (1e308, 1.2e308)],  # the smaller elements' sum
            [(0.0, 1e308), (0.0, 1e308)],  # the larger elements' sum
        ],
    )
    def test_overflowing_gap_or_sum_rejected(self, pairs, direction):
        with pytest.raises(NonFiniteInput, match="overflow the float range"):
            normalize(pairs, direction)
        with pytest.raises(NonFiniteInput, match="overflow the float range"):
            top_k(pairs, 4, direction)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("direction", list(Direction))
    def test_overflow_rule_ignores_input_order(self, direction):
        # two orderings of these pairs sum to 1e308 in float, one to inf
        pairs = [(1e308, 1e308), (1e308, 1e308), (-1e308, -1e308)]
        for ordering in itertools.permutations(pairs):
            with pytest.raises(NonFiniteInput, match="overflow the float range"):
                normalize(list(ordering), direction)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("direction", list(Direction))
    def test_sums_near_the_float_limit_still_rank(self, direction):
        sums = [r.sum for r in top_k([(1.7e308, 0.0), (-1.7e308, 0.0)], 4, direction)]
        want = [-1.7e308, 0.0, 0.0, 1.7e308]
        assert sums == (want if direction is Direction.MIN else want[::-1])

    def test_arrays_read_only(self, instance):
        with pytest.raises(ValueError):
            instance.delta[0] = 99
        with pytest.raises(ValueError):
            instance.perm[0] = 99


class TestScore:
    def test_all_zeros_is_base_sum(self, instance):
        assert score(instance, Combination(3)) == 3

    def test_single_bit(self, instance):
        assert score(instance, Combination.from_bits([1, 0, 0])) == 4

    def test_all_ones(self, instance):
        assert score(instance, Combination.from_bits([1, 1, 1])) == 12

    def test_length_mismatch(self, instance):
        with pytest.raises(LengthMismatch):
            score(instance, Combination(2))


class TestShift:
    def test_sets_first_bit(self):
        assert shift(Combination.from_bits([0, 0, 0]), 1).to_bits() == [1, 0, 0]

    def test_moves_one_right(self):
        assert shift(Combination.from_bits([1, 1, 0]), 3).to_bits() == [1, 0, 1]

    def test_identity_when_source_empty(self):
        c = Combination.from_bits([0, 1, 0])
        assert shift(c, 2) == c

    def test_identity_when_target_occupied(self):
        c = Combination.from_bits([1, 1, 0])
        assert shift(c, 2) == c

    def test_does_not_mutate_input(self):
        c = Combination.from_bits([0, 0])
        shift(c, 1)
        assert c.to_bits() == [0, 0]

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            shift(Combination(3), 0)
        with pytest.raises(IndexOutOfRange):
            shift(Combination(3), 4)


class TestSuccessors:
    def test_all_zeros(self):
        got = successors(Combination.from_bits([0, 0, 0]))
        assert {c.to01() for c in got} == {"100"}

    def test_middle_one(self):
        got = successors(Combination.from_bits([0, 1, 0]))
        assert {c.to01() for c in got} == {"110", "001"}

    def test_all_ones_has_none(self):
        assert successors(Combination.from_bits([1, 1, 1])) == []

    def test_gap_pattern(self):
        got = successors(Combination.from_bits([1, 0, 1]))
        assert {c.to01() for c in got} == {"011"}

    def test_no_duplicates(self):
        got = successors(Combination.from_bits([1, 1, 0, 1, 0]))
        assert len(got) == len(set(got))


FRONTIERS = pytest.mark.parametrize(
    "frontier", [PendingSet, PaperFrontier], ids=lambda f: f.__name__
)


class TestPendingSet:
    @FRONTIERS
    def test_extract_in_sum_order(self, frontier):
        p = frontier()
        p.insert_batch([(5.0, _LexKey(3), 3), (1.0, _LexKey(1), 1), (3.0, _LexKey(2), 2)])
        sums = [p.extract_min()[0] for _ in range(3)]
        assert sums == [1.0, 3.0, 5.0]
        assert p.extract_min() is None

    @FRONTIERS
    def test_ties_break_lexicographically(self, frontier):
        # equal sums: 001 (mask 4) precedes 110 (mask 3) in bit-string order
        p = frontier()
        p.insert_batch([(2.0, _LexKey(3), 3), (2.0, _LexKey(4), 4)])
        assert p.extract_min()[2] == 4
        assert p.extract_min()[2] == 3

    @FRONTIERS
    def test_interleaved_inserts_stay_sorted(self, frontier):
        p = frontier()
        p.insert_batch([(4.0, _LexKey(8), 8), (1.0, _LexKey(1), 1)])
        assert p.extract_min()[0] == 1.0
        p.insert_batch([(2.0, _LexKey(2), 2), (9.0, _LexKey(16), 16)])
        assert [p.extract_min()[0] for _ in range(3)] == [2.0, 4.0, 9.0]

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_heap_on_random_interleavings(self, seed):
        # the paper's sorted list against the heap; integer sums in 0..5 tie
        # often, so the lex tie-break decides most pops
        rng = random.Random(seed)
        masks = iter(rng.sample(range(1 << 16), 1 << 12))  # distinct
        paper = PaperFrontier()
        heap = PendingSet()
        for _ in range(400):
            if rng.random() < 0.55:
                batch = []
                for _ in range(rng.randint(0, 6)):
                    m = next(masks)
                    batch.append((float(rng.randint(0, 5)), _LexKey(m), m))
                heap.insert_batch(batch)
                paper.insert_batch(batch)
            else:
                assert paper.extract_min() == heap.extract_min()
            assert len(paper) == len(heap)


class TestAdvance:
    def test_first_emission_is_base(self, instance):
        state = init(instance)
        assert state.pending_size() == 1
        first = state.advance()
        assert first.sum == 3
        assert first.combo == Combination(3)

    def test_first_four_sums(self, instance):
        state = init(instance)
        sums = [state.advance().sum for _ in range(4)]
        assert sums == [3, 4, 7, 7]

    def test_complete_run_then_exhausted(self):
        inst = normalize([(0, 1)], Direction.MIN)
        state = init(inst)
        assert state.advance().sum == 0
        assert state.advance().sum == 1
        assert state.advance() is None
        assert state.pending_size() == 0

    def test_emitted_count_tracks_calls(self, instance):
        state = init(instance)
        for expected in range(1, 9):
            state.advance()
            assert state.emitted_count == expected
        assert state.advance() is None
        assert state.emitted_count == 8

    def test_iteration_and_advance_share_one_state(self, instance):
        state = init(instance)
        it = iter(state)
        first = next(it)
        second = state.advance()
        rest = list(it)
        assert [first.sum, second.sum] + [r.sum for r in rest] == [3, 4, 7, 7, 8, 8, 11, 12]
        assert state.emitted_count == 8 and state.advance() is None

    def test_tie_extraction_prefers_lex_smaller(self):
        # delta [1,1,2]; after 3 pulls both 001 (sum 2) and 110 (sum 2) pend
        inst = normalize([(0, 1), (0, 1), (0, 2)], Direction.MIN)
        state = init(inst)
        emitted = [state.advance() for _ in range(8)]
        assert [e.sum for e in emitted] == [0, 1, 1, 2, 2, 3, 3, 4]
        assert emitted[3].combo.to01() == "001"
        assert emitted[4].combo.to01() == "110"

    def test_seen_is_emitted_plus_pending(self):
        # tie-heavy: many children are reached from two parents, and seen
        # must keep the second offer out of the frontier
        inst = normalize([(0, 1), (0, 1), (0, 1), (0, 2), (0, 2), (1, 2)], Direction.MIN)
        state = init(inst)
        masks = []
        while (out := state.advance()) is not None:
            masks.append(out.combo.mask)
            assert len(state.seen) == state.emitted_count + state.pending_size()
        assert len(masks) == 2 ** 6
        assert len(set(masks)) == len(masks)

    def test_iteration_protocol(self, instance):
        sums = [sc.sum for sc in init(instance)]
        assert sums == [3, 4, 7, 7, 8, 8, 11, 12]

    def test_init_holds_no_per_n_state(self):
        # the state reads gaps from delta in place; a copy of N = 200,000
        # gaps would take megabytes
        inst = normalize(np.random.default_rng(5).random((200_000, 2)))
        tracemalloc.start()
        try:
            state = init(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert state.advance().sum == inst.s1


class TestDenormalize:
    def test_identity_instance(self):
        inst = normalize([(0, 1), (0, 2), (0, 3)], Direction.MIN)
        c = Combination.from_bits([1, 0, 1])
        assert denormalize(inst, c) == c

    def test_permutation_undone(self, instance):
        # leading hat bit belongs to input pair 2
        sel = denormalize(instance, Combination.from_bits([1, 0, 0]))
        assert sel.to_bits() == [0, 1, 0]

    def test_flip_converts_larger_to_first(self):
        inst = normalize([(5, 1)], Direction.MIN)
        sel = denormalize(inst, Combination.from_bits([1]))
        assert sel.to_bits() == [0]  # the larger value 5 is the first element

    def test_length_mismatch(self, instance):
        with pytest.raises(LengthMismatch):
            denormalize(instance, Combination(2))


class TestTopK:
    def test_min_four(self):
        results = top_k(PAIRS, 4, Direction.MIN)
        assert [r.sum for r in results] == [3, 4, 7, 7]
        assert [r.rank for r in results] == [1, 2, 3, 4]
        assert results[0].selection_str() == "000"
        assert results[1].selection_str() == "010"

    def test_max_one(self):
        (best,) = top_k(PAIRS, 1, Direction.MAX)
        assert best.sum == 12
        # 1 means the second element of the input pair as given
        assert best.selection_str() == "111"
        chosen = sum(
            p[b] for p, b in zip(PAIRS, best.selection_bits())
        )
        assert chosen == 12

    def test_k_clamped_to_total(self):
        results = top_k([(0, 1)], 5, Direction.MIN)
        assert [r.sum for r in results] == [0, 1]

    def test_selection_recomputes_reported_sum(self):
        for r in top_k(PAIRS, 8, Direction.MIN):
            chosen = sum(p[b] for p, b in zip(PAIRS, r.selection_bits()))
            assert chosen == r.sum

    def test_k_beyond_sys_maxsize_returns_all(self):
        assert [r.sum for r in top_k(PAIRS, 10**20)] == [3, 4, 7, 7, 8, 8, 11, 12]

    def test_k_zero_rejected(self):
        with pytest.raises(InvalidK):
            top_k(PAIRS, 0)

    def test_k_bool_rejected(self):
        with pytest.raises(InvalidK):
            top_k(PAIRS, True)

    @pytest.mark.parametrize("k", [np.int64(3), np.uint8(3)])
    def test_numpy_integer_k(self, k):
        assert [r.sum for r in top_k(PAIRS, k)] == [3, 4, 7]
        assert [r.sum for r in brute_force_top_k(PAIRS, k)] == [3, 4, 7]

    @pytest.mark.parametrize(
        "pairs, error", [([], EmptyInput), ([(math.nan, 1.0)], NonFiniteInput)]
    )
    def test_iter_top_rejects_bad_input_at_the_call(self, pairs, error):
        with pytest.raises(error):
            iter_top(pairs)

    def test_selection_is_not_stored(self):
        results = top_k(np.random.default_rng(4).random((5000, 2)), 1000)
        tracemalloc.start()
        try:
            for r in results:
                r.selection_str()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 100_000  # 1000 stored 5000-bit selections hold about 750 KB

    @pytest.mark.parametrize("direction", list(Direction))
    def test_direction_value_ranks_like_the_enum(self, direction):
        want = [(r.sum, r.selection_str()) for r in top_k(PAIRS, 8, direction)]
        assert [(r.sum, r.selection_str()) for r in top_k(PAIRS, 8, direction.value)] == want

    def test_unknown_direction_raises_at_the_call(self):
        for rank in (normalize, iter_top, lambda pairs, d: top_k(pairs, 1, d)):
            with pytest.raises(ValueError, match="'up' is not a valid Direction"):
                rank(PAIRS, "up")

    def test_iter_top_streams_lazily(self):
        it = iter_top(PAIRS, Direction.MIN)
        assert next(it).sum == 3
        assert next(it).sum == 4

    def test_float_inputs(self):
        results = top_k([(0.5, 1.25), (2.0, 1.75)], 4, Direction.MIN)
        assert [r.sum for r in results] == [2.25, 2.5, 3.0, 3.25]


class TestPendingSizeBound:
    def test_never_exceeds_step_bound(self):
        rng = np.random.default_rng(11)
        for n in (3, 5, 8):
            pairs = [tuple(row) for row in rng.uniform(0, 1, size=(n, 2))]
            state = init(normalize(pairs, Direction.MIN))
            bound_unit = -(-n // 2)
            i = 0
            while state.advance() is not None:
                i += 1
                assert state.pending_size() <= i * bound_unit
            assert i == 2**n
