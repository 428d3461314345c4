import heapq
import math
from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bit_lists, from_bits, int_pair_lists, pair_lists, score
from pairsums.core import (
    Combination,
    Direction,
    init,
    normalize,
    shift,
    successors,
    top_k,
)
from pairsums.oracle import brute_force_top_k


def ceil_half(n: int) -> int:
    return -(-n // 2)


@given(pair_lists(max_n=10))
def test_emitted_sums_non_decreasing(pairs):
    state = init(normalize(pairs, Direction.MIN))
    prev = -math.inf
    while (out := state.advance()) is not None:
        assert out[0] >= prev
        prev = out[0]


@given(pair_lists(max_n=10), st.sampled_from([Direction.MIN, Direction.MAX]))
def test_sums_match_oracle(pairs, direction):
    k = min(2 ** len(pairs), 64)
    got = [r.sum for r in top_k(pairs, k, direction)]
    want = [r.sum for r in brute_force_top_k(pairs, k, direction)]
    for g, w in zip(got, want):
        assert g == w or abs(g - w) <= 1e-9 * max(1.0, abs(w))


@given(int_pair_lists(max_n=10))
def test_integer_sums_match_oracle_exactly(pairs):
    k = min(2 ** len(pairs), 64)
    got = [r.sum for r in top_k(pairs, k, Direction.MIN)]
    want = [r.sum for r in brute_force_top_k(pairs, k, Direction.MIN)]
    assert got == want


@given(pair_lists(max_n=12), bit_lists(max_n=12), st.integers(1, 12))
def test_shift_never_decreases_score(pairs, bits, i):
    n = len(pairs)
    combo = from_bits((bits * n)[:n])
    inst = normalize(pairs, Direction.MIN)
    if i > n:
        i = 1 + (i - 1) % n
    assert score(inst, shift(combo, i)) >= score(inst, combo) - 1e-12


@given(bit_lists(max_n=64))
def test_canonical_chain_reconstructs(bits):
    # set bits right to left; each is walked in from position 1
    target = from_bits(bits)
    cur = Combination(target.n)
    for pos in range(target.n, 0, -1):
        if target.bit(pos):
            for j in range(1, pos + 1):
                cur = shift(cur, j)
    assert cur == target


@given(bit_lists(max_n=64))
def test_successor_count_bound(bits):
    combo = from_bits(bits)
    kids = successors(combo)
    assert len(kids) <= ceil_half(combo.n)
    assert combo not in kids
    assert len(set(kids)) == len(kids)


@given(bit_lists(max_n=16))
def test_successors_are_single_shifts(bits):
    combo = from_bits(bits)
    want = {shift(combo, i) for i in range(1, combo.n + 1)} - {combo}
    assert set(successors(combo)) == want


@given(pair_lists(max_n=9))
def test_pending_bound_and_completeness(pairs):
    n = len(pairs)
    state = init(normalize(pairs, Direction.MIN))
    seen = set()
    i = 0
    while (out := state.advance()) is not None:
        i += 1
        assert state.pending_size() <= i * ceil_half(n)
        seen.add(Combination(n, out[1]))
    assert len(seen) == 2**n
    assert state.pending_size() == 0


@given(int_pair_lists(max_n=10))
def test_max_zero_sums_are_positive_zero_like_the_oracle(pairs):
    # a MAX sum is un-negated; a zero must come back as 0.0, never -0.0
    pairs = pairs + [(1, -1)]  # integer sums reach zero often
    k = min(2 ** len(pairs), 64)
    got = [math.copysign(1, r.sum) for r in top_k(pairs, k, Direction.MAX)]
    want = [math.copysign(1, r.sum) for r in brute_force_top_k(pairs, k, Direction.MAX)]
    assert got == want


@given(pair_lists(max_n=10))
def test_max_is_negated_min_of_negated(pairs):
    k = min(2 ** len(pairs), 32)
    neg = [(-a, -b) for a, b in pairs]
    maxed = [r.sum for r in top_k(pairs, k, Direction.MAX)]
    mined = [-r.sum for r in top_k(neg, k, Direction.MIN)]
    for g, w in zip(maxed, mined):
        assert g == w or abs(g - w) <= 1e-9 * max(1.0, abs(w))


@given(int_pair_lists(max_n=8), st.randoms(use_true_random=False))
def test_permutation_invariance(pairs, rnd):
    # integer pairs keep float sums exact, so sequences match bitwise
    k = 2 ** len(pairs)
    order = list(range(len(pairs)))
    rnd.shuffle(order)
    shuffled = [pairs[j] for j in order]
    base = top_k(pairs, k, Direction.MIN)
    moved = top_k(shuffled, k, Direction.MIN)
    assert [r.sum for r in base] == [r.sum for r in moved]
    base_sets = sorted("".join(str(b) for b in r.selection_bits()) for r in base)
    moved_sets = sorted(
        "".join(str(r.selection_bits()[order.index(j)]) for j in range(len(pairs)))
        for r in moved
    )
    assert base_sets == moved_sets


@given(pair_lists(max_n=10), st.sampled_from([Direction.MIN, Direction.MAX]))
def test_selection_reconstructs_sum(pairs, direction):
    k = min(2 ** len(pairs), 32)
    for r in top_k(pairs, k, direction):
        chosen = sum(p[b] for p, b in zip(pairs, r.selection_bits()))
        assert chosen == r.sum or abs(chosen - r.sum) <= 1e-9 * max(1.0, abs(r.sum))


@given(pair_lists(max_n=10))
def test_normalize_invariants(pairs):
    inst = normalize(pairs, Direction.MIN)
    assert (inst.delta[:-1] <= inst.delta[1:]).all()
    assert (inst.delta >= 0).all()
    assert sorted(inst.perm.tolist()) == list(range(len(pairs)))
    # summation order may differ from python's sum by an ulp
    assert math.isclose(
        inst.s1, sum(min(a, b) for a, b in pairs), rel_tol=1e-9, abs_tol=1e-12
    )


@given(int_pair_lists(max_n=10))
@settings(max_examples=50)
def test_incremental_sums_match_scratch_scores(pairs):
    inst = normalize(pairs, Direction.MIN)
    state = init(inst)
    while (out := state.advance()) is not None:
        total, mask = out
        assert total == score(inst, Combination(inst.n, mask))


def bit_tuple(mask: int, n: int) -> tuple[int, ...]:
    """The stated tie key, built without the engine's: bits, position 1 first."""
    return tuple((mask >> j) & 1 for j in range(n))


def best_first_reference(inst, limit=None):
    """The first ``limit`` hat masks (all if None) in the stated tie order.

    Built independently of the engine: each step takes the (sum, lex)-smallest
    combination that is one shift away from an emitted one (the all-zeros
    vector first). Sums come from ``score``, ties from ``bit_tuple``, and the
    frontier is a heap.
    """
    n = inst.n
    heap = [(inst.s1, bit_tuple(0, n), 0)]
    reached = {0}
    order = []
    while heap and len(order) != limit:
        _, _, mask = heapq.heappop(heap)
        order.append(mask)
        for child in successors(Combination(n, mask)):
            if child.mask not in reached:
                reached.add(child.mask)
                heapq.heappush(heap, (score(inst, child), bit_tuple(child.mask, n), child.mask))
    return order


@given(int_pair_lists(max_n=10), st.sampled_from([Direction.MIN, Direction.MAX]))
def test_tie_order_is_best_first_lex(pairs, direction):
    # Integer inputs keep every sum exact, so only the tie rule decides.
    inst = normalize(pairs, direction)
    assert [mask for _, mask in init(inst)] == best_first_reference(inst)


WIDE_POPS = 1500


@given(int_pair_lists(max_n=40, min_n=12), st.sampled_from([Direction.MIN, Direction.MAX]))
@settings(max_examples=40)
def test_tie_order_is_best_first_lex_past_two_bytes(pairs, direction):
    # N 12..40: some ties are decided past position 16, beyond the key's second
    # byte; a key cut to two bytes passes the N <= 10 property but fails here
    inst = normalize(pairs, direction)
    got = [mask for _, mask in islice(init(inst), WIDE_POPS)]
    assert got == best_first_reference(inst, WIDE_POPS)


distinct_gap_int_pairs = st.lists(
    st.tuples(st.integers(-100, 100), st.integers(-100, 100)),
    min_size=1,
    max_size=10,
    unique_by=lambda p: abs(p[0] - p[1]),
)


@given(distinct_gap_int_pairs, st.sampled_from([Direction.MIN, Direction.MAX]))
def test_distinct_gaps_emit_in_hat_mask_lex_order(pairs, direction):
    # With distinct gaps only setting position 1 can be free, and that child
    # is lex-larger than its parent, so the best-first order is the global
    # sort of all 2^N hat masks by (sum, lex).
    inst = normalize(pairs, direction)
    n = inst.n
    want = sorted(
        range(2**n), key=lambda m: (score(inst, Combination(n, m)), bit_tuple(m, n))
    )
    assert [mask for _, mask in init(inst)] == want
