import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

import pairsums
from conftest import from_bits, score
from pairsums import cli, core
from pairsums.bench import BenchConfig, run_bench
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
    RankedChoice,
    _lex_key,
    denormalize,
    init,
    iter_top,
    normalize,
    shift,
    successors,
    top_k,
)
from pairsums.decode import Checksum, decode_best, make_validator
from pairsums.oracle import brute_force_top_k

PAIRS = [(1, 5), (2, 3), (0, 4)]  # gaps 4, 1, 4


def lex_less(a: Combination, b: Combination) -> bool:
    """True if a precedes b lexicographically (position 1 most significant)."""
    return _lex_key(a.mask) < _lex_key(b.mask)


@pytest.fixture
def instance():
    return normalize(PAIRS, Direction.MIN)


class TestCombination:
    def test_from_bits_roundtrip(self):
        c = from_bits([1, 0, 1, 1])
        assert c.to_bits() == [1, 0, 1, 1]
        assert c.to01() == "1011"
        assert c.n == 4

    def test_bit_is_one_based(self):
        c = from_bits([1, 0, 1])
        assert [c.bit(i) for i in (1, 2, 3)] == [1, 0, 1]

    def test_equality_and_hash(self):
        a = from_bits([0, 1])
        b = from_bits([0, 1])
        assert a == b and hash(a) == hash(b)
        assert a != from_bits([0, 1, 0])  # length matters

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            Combination(0)

    @pytest.mark.parametrize("mask", [8, -1])
    def test_mask_must_fit(self, mask):
        with pytest.raises(ValueError, match="mask does not fit in 3 bits"):
            Combination(3, mask)

    def test_from_bits_rejects_other_values(self):
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            from_bits([0, 2])

    @pytest.mark.parametrize("i", [0, 4])
    def test_bit_out_of_range(self, i):
        with pytest.raises(IndexOutOfRange):
            Combination(3).bit(i)

    def test_len_is_n(self):
        assert len(Combination(5)) == 5

    @pytest.mark.parametrize("field", ["n", "mask"])
    def test_assignment_raises_and_set_member_stays_findable(self, field):
        c = Combination(3, 1)
        members = {c}
        with pytest.raises(AttributeError):
            setattr(c, field, 6)
        assert (c.n, c.mask) == (3, 1) and repr(c) == "Combination('100')"
        assert c in members and Combination(3, 1) in members
        assert hash(c) == hash((3, 1))

    @pytest.mark.parametrize("integer", [int, np.int64, np.uint16], ids=lambda t: t.__name__)
    def test_numpy_integers_accepted_floats_rejected(self, integer):
        wide = Combination(100, 1 << 78)
        c = Combination(integer(3), integer(5))
        assert c == Combination(3, 5) and type(c.n) is int and type(c.mask) is int
        assert wide.bit(integer(79)) == 1 and wide.bit(integer(78)) == 0
        assert shift(wide, integer(80)).mask == 1 << 79
        assert from_bits(np.ones(70, dtype=integer)).mask == (1 << 70) - 1
        for bad in (lambda: Combination(3, 5.0), lambda: wide.bit(79.0),
                    lambda: shift(wide, 80.0)):
            with pytest.raises(TypeError):
                bad()

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
        a = from_bits([0, 1, 1])
        b = from_bits([1, 0, 0])
        assert lex_less(a, b)
        assert not lex_less(b, a)

    def test_irreflexive(self):
        c = from_bits([1, 0, 1])
        assert not lex_less(c, c)

    def test_key_total_order_matches_bit_tuples(self):
        # every 12-bit mask, the edge masks of each width past two bytes, and
        # random masks up to 300 bits against the bit tuple read from position 1
        n = 300
        rng = random.Random(20)
        masks = set(range(1 << 12))
        masks |= {1 << j for j in range(n)} | {(1 << j) - 1 for j in range(n)}
        masks |= {rng.getrandbits(rng.randint(1, n)) for _ in range(2000)}
        by_key = sorted(masks, key=_lex_key)
        by_bits = sorted(masks, key=lambda m: tuple((m >> j) & 1 for j in range(n)))
        assert by_key == by_bits
        assert len(set(map(_lex_key, masks))) == len(masks)


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

    def test_instances_compare_by_identity(self):
        a, b = normalize(PAIRS, Direction.MIN), normalize(PAIRS, Direction.MIN)
        assert a == a and a != b
        assert {a, b, a} == {a, b} and a in {a} and b not in {a}


class TestScore:
    def test_all_zeros_is_base_sum(self, instance):
        assert score(instance, Combination(3)) == 3

    def test_single_bit(self, instance):
        assert score(instance, from_bits([1, 0, 0])) == 4

    def test_all_ones(self, instance):
        assert score(instance, from_bits([1, 1, 1])) == 12

    def test_length_mismatch(self, instance):
        with pytest.raises(LengthMismatch):
            score(instance, Combination(2))


class TestShift:
    def test_sets_first_bit(self):
        assert shift(from_bits([0, 0, 0]), 1).to_bits() == [1, 0, 0]

    def test_moves_one_right(self):
        assert shift(from_bits([1, 1, 0]), 3).to_bits() == [1, 0, 1]

    def test_identity_when_source_empty(self):
        c = from_bits([0, 1, 0])
        assert shift(c, 2) == c

    def test_identity_when_target_occupied(self):
        c = from_bits([1, 1, 0])
        assert shift(c, 2) == c

    def test_does_not_mutate_input(self):
        c = from_bits([0, 0])
        shift(c, 1)
        assert c.to_bits() == [0, 0]

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            shift(Combination(3), 0)
        with pytest.raises(IndexOutOfRange):
            shift(Combination(3), 4)


class TestSuccessors:
    def test_all_zeros(self):
        got = successors(from_bits([0, 0, 0]))
        assert {c.to01() for c in got} == {"100"}

    def test_middle_one(self):
        got = successors(from_bits([0, 1, 0]))
        assert {c.to01() for c in got} == {"110", "001"}

    def test_all_ones_has_none(self):
        assert successors(from_bits([1, 1, 1])) == []

    def test_gap_pattern(self):
        got = successors(from_bits([1, 0, 1]))
        assert {c.to01() for c in got} == {"011"}

    def test_no_duplicates(self):
        got = successors(from_bits([1, 1, 0, 1, 0]))
        assert len(got) == len(set(got))

    @pytest.mark.parametrize("n", [*range(1, 13), 63, 64, 65, 200, 1000])
    def test_list_matches_the_rule_by_position(self, n):
        # every mask for n <= 12, else 503 seeded ones of mixed widths
        if n <= 12:
            masks = range(1 << n)
        else:
            rng = random.Random(n)
            masks = [0, 1, (1 << n) - 1, 1 << (n - 1)]
            masks += [rng.getrandbits(rng.randint(1, n)) for _ in range(499)]
        for m in masks:
            want = reference_moves(m, n)
            combo = Combination(n, m)
            assert [c.mask for c in successors(combo)] == want
            moved = [shift(combo, i) for i in range(1, n + 1)]
            landed = set(want)
            assert [c.mask for c in moved if c.mask in landed] == want
            assert all(c is combo for c in moved if c.mask not in landed)


def reference_moves(m: int, n: int) -> list[int]:
    """Masks one shift from mask m over n positions, by position index.

    Set position 1 if it is clear, then, for k = 1..n-1 in turn, move a one
    at position k to a clear position k+1.
    """
    return ([m | 1] if not m & 1 else []) + [
        m ^ (3 << (k - 1)) for k in range(1, n) if m >> (k - 1) & 1 and not m >> k & 1
    ]


class RecordingHeap(PendingSet):
    """The serving heap, keeping a copy of every batch it is given."""

    __slots__ = ("batches",)

    def __init__(self):
        super().__init__()
        self.batches = []

    def insert_batch(self, batch):
        self.batches.append(list(batch))
        super().insert_batch(batch)


def step_cases():
    rng = np.random.default_rng(26)
    cases = []
    for n in range(1, 11):
        for direction in Direction:
            cases.append((f"uniform-n{n}-{direction.value}", rng.random((n, 2)), direction))
            cases.append((f"int0-3-n{n}-{direction.value}", rng.integers(0, 4, (n, 2)), direction))
    return cases


@pytest.mark.parametrize(
    "pairs, direction", [c[1:] for c in step_cases()], ids=[c[0] for c in step_cases()]
)
def test_advance_admits_exactly_the_unseen_reference_successors(pairs, direction):
    # Step by step over a full enumeration, so every mask with position N set
    # is popped and its move off the end is refused: the written-out moves in
    # advance against the single shifts of shift, which successors collects.
    inst = normalize(pairs, direction)
    n = inst.n
    exact = np.issubdtype(np.asarray(pairs).dtype, np.integer)  # sums exact, ties common
    state = init(inst, frontier=RecordingHeap)
    batches = state.pending.batches
    batches.clear()  # the all-zeros seed
    for _ in range(1 << n):
        seen_before = set(state.seen)
        pending_before = state.pending_size()
        _, mask = state.advance()
        want = {c.mask for c in successors(Combination(n, mask))} - seen_before
        assert state.seen - seen_before == want
        assert state.pending_size() == pending_before - 1 + len(want)
        batch = batches.pop() if want else []
        assert not batches
        assert sorted(child for _, _, child in batch) == sorted(want)
        for total, key, child in batch:
            assert key == _lex_key(child)
            if exact:
                assert total == score(inst, Combination(n, child))
    assert state.advance() is None and state.pending_size() == 0


def test_no_serving_path_calls_the_reference_moves(monkeypatch, tmp_path):
    # successors costs up to bit-length + 1 calls of shift, so every walk
    # writes the moves out instead: each serving path runs with both raising.
    def refuse(*args):
        raise AssertionError("a serving path called the reference move rule")

    for module in (core, pairsums):
        monkeypatch.setattr(module, "shift", refuse)
        monkeypatch.setattr(module, "successors", refuse)
    rng = np.random.default_rng(27)
    ties = rng.integers(0, 2, (40, 2))
    for direction in Direction:
        assert len(top_k(ties, 500, direction)) == 500
    assert sum(1 for _ in itertools.islice(iter_top(rng.random((1000, 2))), 2000)) == 2000
    conf = rng.random((24, 2))
    for checksum in (*Checksum, make_validator(Checksum.CRC8, 24)):
        assert decode_best(conf, checksum, 200).candidates_tested >= 1
    assert run_bench(BenchConfig(n_values=(6,), k_max=64, k_samples=4))
    path = tmp_path / "pairs.csv"
    path.write_text("\n".join(f"{a},{b}" for a, b in ties) + "\n")
    out = tmp_path / "top.csv"
    assert cli.main(["topk", "--input", str(path), "--k", "50", "--output", str(out)]) == 0
    assert out.read_text()


FRONTIERS = pytest.mark.parametrize(
    "frontier", [PendingSet, PaperFrontier], ids=lambda f: f.__name__
)


class TestPendingSet:
    @FRONTIERS
    def test_extract_in_sum_order(self, frontier):
        p = frontier()
        p.insert_batch([(5.0, _lex_key(3), 3), (1.0, _lex_key(1), 1), (3.0, _lex_key(2), 2)])
        sums = [p.extract_min()[0] for _ in range(3)]
        assert sums == [1.0, 3.0, 5.0]
        assert p.extract_min() is None

    @FRONTIERS
    def test_ties_break_lexicographically(self, frontier):
        # equal sums: 001 (mask 4) precedes 110 (mask 3) in bit-string order
        p = frontier()
        p.insert_batch([(2.0, _lex_key(3), 3), (2.0, _lex_key(4), 4)])
        assert p.extract_min()[2] == 4
        assert p.extract_min()[2] == 3

    @FRONTIERS
    def test_interleaved_inserts_stay_sorted(self, frontier):
        p = frontier()
        p.insert_batch([(4.0, _lex_key(8), 8), (1.0, _lex_key(1), 1)])
        assert p.extract_min()[0] == 1.0
        p.insert_batch([(2.0, _lex_key(2), 2), (9.0, _lex_key(16), 16)])
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
                    batch.append((float(rng.randint(0, 5)), _lex_key(m), m))
                heap.insert_batch(batch)
                paper.insert_batch(batch)
            else:
                assert paper.extract_min() == heap.extract_min()
            assert len(paper) == len(heap)


class TestAdvance:
    def test_first_emission_is_base(self, instance):
        state = init(instance)
        assert state.pending_size() == 1
        total, mask = state.advance()
        assert total == 3
        assert mask == 0

    def test_first_four_sums(self, instance):
        state = init(instance)
        sums = [state.advance()[0] for _ in range(4)]
        assert sums == [3, 4, 7, 7]

    def test_complete_run_then_exhausted(self):
        inst = normalize([(0, 1)], Direction.MIN)
        state = init(inst)
        assert state.advance()[0] == 0
        assert state.advance()[0] == 1
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
        assert [first[0], second[0]] + [total for total, _ in rest] == [3, 4, 7, 7, 8, 8, 11, 12]
        assert state.emitted_count == 8 and state.advance() is None

    def test_tie_extraction_prefers_lex_smaller(self):
        # delta [1,1,2]; after 3 pulls both 001 (sum 2) and 110 (sum 2) pend
        inst = normalize([(0, 1), (0, 1), (0, 2)], Direction.MIN)
        state = init(inst)
        emitted = [state.advance() for _ in range(8)]
        assert [total for total, _ in emitted] == [0, 1, 1, 2, 2, 3, 3, 4]
        assert Combination(3, emitted[3][1]).to01() == "001"
        assert Combination(3, emitted[4][1]).to01() == "110"

    @pytest.mark.parametrize("direction", list(Direction))
    def test_readme_tie_example(self, direction):
        # equal gaps: sliding the one from position 1 to 2 costs nothing, and
        # the lex-smaller 01 still comes after the 10 it slides from
        inst = normalize([(0, 0), (0, 0)], direction)
        assert [Combination(2, mask).to01() for _, mask in init(inst)] == ["00", "10", "01", "11"]

    def test_seen_is_emitted_plus_pending(self):
        # tie-heavy: many children are reached from two parents, and seen
        # must keep the second offer out of the frontier
        inst = normalize([(0, 1), (0, 1), (0, 1), (0, 2), (0, 2), (1, 2)], Direction.MIN)
        state = init(inst)
        masks = []
        while (out := state.advance()) is not None:
            masks.append(out[1])
            assert len(state.seen) == state.emitted_count + state.pending_size()
        assert len(masks) == 2 ** 6
        assert len(set(masks)) == len(masks)

    def test_iteration_protocol(self, instance):
        sums = [total for total, _ in init(instance)]
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
        assert state.advance()[0] == inst.s1


class TestDenormalize:
    def test_identity_instance(self):
        inst = normalize([(0, 1), (0, 2), (0, 3)], Direction.MIN)
        c = from_bits([1, 0, 1])
        assert denormalize(inst, c) == c

    def test_permutation_undone(self, instance):
        # leading hat bit belongs to input pair 2
        sel = denormalize(instance, from_bits([1, 0, 0]))
        assert sel.to_bits() == [0, 1, 0]

    def test_flip_converts_larger_to_first(self):
        inst = normalize([(5, 1)], Direction.MIN)
        sel = denormalize(inst, from_bits([1]))
        assert sel.to_bits() == [0]  # the larger value 5 is the first element

    def test_length_mismatch(self, instance):
        with pytest.raises(LengthMismatch):
            denormalize(instance, Combination(2))


def reference_selection(instance, hat_mask: int) -> str:
    """Frozen ``denormalize(instance, Combination(n, hat_mask)).to01()`` of its
    bytearray/``from_bytes`` loop and ``bin`` formatting; do not edit."""
    n = instance.n
    perm = instance.perm
    buf = bytearray((n + 7) // 8)
    m = hat_mask
    while m:
        low = m & -m
        m ^= low
        j = int(perm[low.bit_length() - 1])
        buf[j >> 3] |= 1 << (j & 7)
    indicator = int.from_bytes(bytes(buf), "little")
    return bin(indicator ^ instance.flip_mask)[2:].zfill(n)[::-1]


def selection_pairs(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "uniform":
        return rng.random((n, 2))
    # small integers: many equal gaps and zero gaps, about half the pairs flipped
    return rng.integers(-3, 4, size=(n, 2)).astype(float)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 1000])
@pytest.mark.parametrize("direction", list(Direction))
@pytest.mark.parametrize("kind", ["uniform", "small-int"])
def test_selection_matches_the_frozen_mapping(n, direction, kind):
    # denormalize, selection_str and selection_bits share one hat-mask ->
    # selection mapping; each must give the old loop's bits for any mask
    rng = np.random.default_rng([n, len(kind), direction is Direction.MAX])
    inst = normalize(selection_pairs(kind, n, rng), direction)
    draw = random.Random(n * 7 + len(kind))
    masks = [0, (1 << n) - 1, 1 << (n - 1)]
    masks += [draw.getrandbits(n) for _ in range(20)]
    masks += [draw.getrandbits(n) & draw.getrandbits(n) & draw.getrandbits(n) for _ in range(20)]
    for mask in masks + [0]:  # mask 0 again: no call may have edited the shared base
        want = reference_selection(inst, mask)
        assert denormalize(inst, Combination(n, mask)).to01() == want
        result = RankedChoice(1, 0.0, instance=inst, hat_mask=mask)
        assert result.selection_str() == want
        assert result.selection_bits() == [int(c) for c in want]


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

    def test_repr_shows_rank_and_sum(self):
        assert repr(top_k(PAIRS, 1)[0]) == "RankedChoice(rank=1, sum=3.0)"

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

    @pytest.mark.parametrize("pairs, want", [
        ([(1, -5), (-1, -7)], [0.0, -6.0]),
        ([(-0.0, 1.0)], [1.0, 0.0]),
        ([(0.0, 0.0)], [0.0, 0.0]),
    ])
    def test_max_zero_sum_is_positive_zero(self, pairs, want):
        sums = [r.sum for r in top_k(pairs, 2, Direction.MAX)]
        assert sums == want
        assert [math.copysign(1, s) for s in sums] == [math.copysign(1, w) for w in want]

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
