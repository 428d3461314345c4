"""Differential test: the heap frontier against the paper's sorted list.

Both frontiers must emit the same combinations with the same sums in the
same order, ties included, and hold the same number of pending entries
after every step. Small integer pairs make almost every comparison a tie,
so the lexicographic tie-break decides most pops.
"""

from itertools import islice

import numpy as np
import pytest

from pairsums.core import Direction, PaperFrontier, PendingSet, init, normalize

K_MAX = 3000


def instances():
    rng = np.random.default_rng(20170419)
    cases = []
    for hi in (7, 1):  # integers 0..7 and 0..1
        for n in (1, 2, 3, 5, 8, 11, 16, 24, 40, 60):
            for direction in Direction:
                cases.append((f"int0-{hi}-n{n}-{direction.value}",
                              rng.integers(0, hi + 1, (n, 2)), direction))
    for n in (4, 12, 60):
        for direction in Direction:
            cases.append((f"uniform-n{n}-{direction.value}", rng.random((n, 2)), direction))
    return cases


def walk(state):
    """(hat mask, sum, pending size after the step) for every step."""
    return [(e.combo.mask, e.sum, state.pending_size()) for e in islice(state, K_MAX)]


@pytest.mark.parametrize(
    "pairs, direction", [c[1:] for c in instances()], ids=[c[0] for c in instances()]
)
def test_heap_matches_paper_frontier(pairs, direction):
    inst = normalize(pairs, direction)
    heap = init(inst)
    paper = init(inst, frontier=PaperFrontier)
    assert type(heap.pending) is PendingSet and type(paper.pending) is PaperFrontier
    got, want = walk(heap), walk(paper)
    assert got == want
    assert len(got) == min(1 << inst.n, K_MAX)
    if inst.n <= 11:  # 2^n <= K_MAX: the walk ran to exhaustion
        assert heap.advance() is None and paper.advance() is None
