"""Exhaustive reference ranking, used as ground truth in tests.

Enumerates all 2^N sums with vectorized from-scratch arithmetic, sorts
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
    """sums[mask] over every selection mask; bit j-1 picks pair j's second element."""
    sums = np.zeros(1)
    for j in range(arr.shape[0]):
        sums = np.concatenate([sums + arr[j, 0], sums + arr[j, 1]])
    return sums


def _lex_rank_keys(n: int) -> np.ndarray:
    """Bit-reversed masks: integer order of these = selection-lex order."""
    masks = np.arange(1 << n, dtype=np.uint32)
    rev = np.zeros_like(masks)
    for j in range(n):
        rev |= ((masks >> j) & 1) << (n - 1 - j)
    return rev


def brute_force_top_k(
    pairs, k: int, direction: Direction = Direction.MIN
) -> list[RankedChoice]:
    """The k best selections by exhaustive enumeration and sorting.

    Ties in the sum are ordered by lexicographic selection bits (position 1
    read first) so the output is deterministic. Bad input raises what
    ``top_k`` raises (InvalidK, EmptyInput, NonFiniteInput); N > 24, TooLarge.
    """
    k = _positive_count(k, "k")
    direction = Direction(direction)
    arr = _pairs_array(pairs)
    n = arr.shape[0]
    if n > MAX_N:
        raise TooLarge(f"N={n} exceeds the exhaustive cap of {MAX_N}")

    sums = _all_sums(arr)
    keyed = -sums if direction is Direction.MAX else sums
    order = np.lexsort((_lex_rank_keys(n), keyed))
    k = min(k, 1 << n)
    # no sort, no flips: each result's hat mask is its selection mask
    identity = ProblemInstance(delta=np.zeros(n), perm=np.arange(n), flip_mask=0, s1=0.0)
    return [
        RankedChoice(rank, float(sums[mask]), identity, int(mask))
        for rank, mask in enumerate(order[:k], start=1)
    ]
