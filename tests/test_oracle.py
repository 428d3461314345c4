import itertools
import math

import numpy as np
import pytest

from pairsums.core import Direction, EmptyInput, InvalidK, NonFiniteInput, top_k
from pairsums.oracle import MAX_N, TooLarge, brute_force_top_k

PAIRS = [(1, 5), (2, 3), (0, 4)]


def test_full_enumeration_sums():
    results = brute_force_top_k(PAIRS, 8, Direction.MIN)
    assert [r.sum for r in results] == [3, 4, 7, 7, 8, 8, 11, 12]


def test_single_pair():
    assert [r.sum for r in brute_force_top_k([(0, 1)], 2, Direction.MIN)] == [0, 1]


def test_rank_one_is_componentwise_min():
    rng = np.random.default_rng(3)
    pairs = [tuple(row) for row in rng.uniform(-5, 5, size=(10, 2))]
    (best,) = brute_force_top_k(pairs, 1, Direction.MIN)
    assert best.sum == pytest.approx(sum(min(a, b) for a, b in pairs))


def test_rank_one_max_is_componentwise_max():
    (best,) = brute_force_top_k(PAIRS, 1, Direction.MAX)
    assert best.sum == 12
    assert best.selection_str() == "111"


def test_k_clamped():
    assert len(brute_force_top_k([(0, 1), (2, 5)], 99, Direction.MIN)) == 4


def test_selection_reconstructs_sum():
    rng = np.random.default_rng(4)
    pairs = [tuple(row) for row in rng.integers(-9, 9, size=(6, 2)).astype(float)]
    for r in brute_force_top_k(pairs, 64, Direction.MIN):
        chosen = sum(p[b] for p, b in zip(pairs, r.selection_bits()))
        assert chosen == pytest.approx(r.sum)


def test_too_large_guard():
    pairs = [(0.0, 1.0)] * (MAX_N + 1)
    with pytest.raises(TooLarge):
        brute_force_top_k(pairs, 1, Direction.MIN)


def test_direction_value_ranks_like_the_enum():
    got = brute_force_top_k(PAIRS, 8, "max")
    want = brute_force_top_k(PAIRS, 8, Direction.MAX)
    assert [(r.sum, r.selection_str()) for r in got] == [
        (r.sum, r.selection_str()) for r in want
    ]
    with pytest.raises(ValueError):
        brute_force_top_k(PAIRS, 1, "up")


def test_k_zero_rejected():
    with pytest.raises(InvalidK):
        brute_force_top_k(PAIRS, 0, Direction.MIN)


@pytest.mark.parametrize(
    "pairs, error",
    [
        ([(10**400, 1)], NonFiniteInput),
        ([(math.nan, 1.0)], NonFiniteInput),
        ([], EmptyInput),
        ((p for p in [(1, 5), (2, 3)]), ValueError),
        (iter([[1, 2]]), ValueError),
        ({1: 2}, ValueError),
        ([[1, 2], [3]], ValueError),
        ([["a", "b"]], ValueError),
    ],
)
def test_bad_pairs_raise_the_engine_errors(pairs, error):
    # conversion failures name themselves; the other errors keep their text
    match = "^pairs do not convert to a float array: " if error is ValueError else None
    for rank in (top_k, brute_force_top_k):
        with pytest.raises(error, match=match):
            rank(pairs, 1)


@pytest.mark.parametrize("pairs", [[(1, 2, 3)], [1.0, 2.0]], ids=["three-wide", "flat"])
def test_wrong_shape_raises_in_both_rankers(pairs):
    for rank in (top_k, brute_force_top_k):
        with pytest.raises(ValueError, match=r"^expected shape \(N, 2\), got "):
            rank(pairs, 1)


@pytest.mark.parametrize("direction", list(Direction))
@pytest.mark.parametrize("n", range(1, 11))
def test_matches_an_itertools_enumeration(n, direction):
    # reference built without engine code: every bit tuple, sorted by
    # (sum, or -sum for MAX, then the tuple read from position 1)
    pairs = np.random.default_rng(n).integers(-4, 5, size=(n, 2)).tolist()
    sign = -1 if direction is Direction.MAX else 1
    want = sorted(
        (sign * sum(p[b] for p, b in zip(pairs, bits)), bits)
        for bits in itertools.product((0, 1), repeat=n)
    )
    got = brute_force_top_k(pairs, 2**n, direction)
    assert [(r.rank, r.sum, r.selection_str(), r.selection_bits()) for r in got] == [
        (rank, sign * key, "".join(map(str, bits)), list(bits))
        for rank, (key, bits) in enumerate(want, start=1)
    ]


def test_tie_handling():
    # zero and equal gaps force heavy sum ties; sums must still agree with
    # core, and within a tie block the oracle sorts selection strings
    pairs = [(0, 1), (0, 1), (2, 2), (0, 2)]
    got = brute_force_top_k(pairs, 16, Direction.MIN)
    want = top_k(pairs, 16, Direction.MIN)
    assert [r.sum for r in got] == [r.sum for r in want]
    assert {r.selection_str() for r in got} == {r.selection_str() for r in want}
    for prev, cur in zip(got, got[1:]):
        if prev.sum == cur.sum:
            assert prev.selection_str() < cur.selection_str()
