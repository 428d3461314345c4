"""Exhaustive reference ranking, used as ground truth in tests.

Enumerates all 2^N sums with vectorized from-scratch arithmetic in
selection order (pair 1 is the most significant index bit), stable-sorts
them, and returns the first k. It shares the input checks and the result
type with the best-first path in ``core``; its sums and its order are its
own. Deliberately naive: capped at N <= 24, where the full table still
fits in memory and desk-scale time.
"""

from __future__ import annotations

import numpy as np

from .core import Direction, ProblemInstance, RankedChoice, _pairs_array, _positive_count


class TooLarge(ValueError):
    """Exhaustive enumeration refused: 2^N table would be excessive."""


MAX_N = 24


def _all_sums(arr: np.ndarray) -> np.ndarray:
    """Every choice-sum, indexed by its selection bits with pair 1 most significant.

    Each sum adds its chosen elements pair 1 first, from 0.0, as Python's ``sum`` does.
    """
    sums = np.zeros(1)
    for row in arr:
        sums = np.add.outer(sums, row).ravel()
    return sums


def brute_force_top_k(
    pairs, k: int, direction: Direction = Direction.MIN
) -> list[RankedChoice]:
    """The k best selections by exhaustive enumeration and sorting.

    Ties in the sum keep table order, which is lexicographic selection bits
    (position 1 read first), so the output is deterministic. Bad input
    raises what ``top_k`` raises (InvalidK, EmptyInput, NonFiniteInput);
    N > 24, TooLarge.
    """
    k = _positive_count(k, "k")
    direction = Direction(direction)
    arr = _pairs_array(pairs)
    n = arr.shape[0]
    if n > MAX_N:
        raise TooLarge(f"N={n} exceeds the exhaustive cap of {MAX_N}")

    sums = _all_sums(arr)
    keyed = -sums if direction is Direction.MAX else sums
    order = np.argsort(keyed, kind="stable")[:k]
    # no sort, no flips, positions backwards: each table index is its own hat mask
    backwards = ProblemInstance(np.zeros(n), np.arange(n - 1, -1, -1), flip_mask=0, s1=0.0)
    return [
        RankedChoice(rank, float(sums[index]), backwards, int(index))
        for rank, index in enumerate(order, start=1)
    ]
