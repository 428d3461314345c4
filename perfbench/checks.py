"""Output checks, run outside the timed region.

Every check compares sums, never tie order: two results with equal sums
may come out in either order without failing. The inputs are uniform in
[0, 1) or small integers, so the large-offset misordering tracked by the
exact-arithmetic work on the engine cannot occur here and is out of reach
of these checks; the package's own tests own that defect.
"""

from __future__ import annotations

import json
import math
from typing import Sequence

import numpy as np


def sum_of_selection(pairs: np.ndarray, selection: str) -> float:
    """Exact-as-possible sum of the chosen elements; NaN if the string is malformed."""
    n = pairs.shape[0]
    bits = np.frombuffer(selection.encode("ascii", "replace"), dtype=np.uint8) - ord("0")
    if len(bits) != n or (bits > 1).any():
        return math.nan
    return math.fsum(pairs[np.arange(n), bits].tolist())


def sums_close(a: float, b: float, rel_tol: float) -> bool:
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=rel_tol)


def count_ranked_failures(
    sums: Sequence[float],
    keys: Sequence,
    expected: int,
    maximize: bool,
    samples: Sequence[tuple[float, str]],
    pairs: np.ndarray,
    rel_tol: float,
) -> int:
    """Failed results in one ranked stream.

    A result fails when its sum is out of order against the previous one,
    when its key (selection) repeats an earlier one, or when it is a sampled
    result whose sum, recomputed from its selection string on the original
    pairs, differs from the reported sum. Results missing from the expected
    count fail too.
    """
    failed = max(expected - len(sums), 0) + max(len(sums) - expected, 0)
    s = np.asarray(sums, dtype=float)
    steps = np.diff(s)
    failed += int(np.count_nonzero(steps > 0 if maximize else steps < 0))
    failed += int(np.count_nonzero(np.isnan(s)))
    failed += len(keys) - len(set(keys))
    for reported, selection in samples:
        if not sums_close(sum_of_selection(pairs, selection), reported, rel_tol):
            failed += 1
    return failed


def count_multiset_failures(got: Sequence[float], want: Sequence[float], rel_tol: float) -> int:
    """Positions where two multisets of sums differ, after sorting both."""
    failed = abs(len(got) - len(want))
    for a, b in zip(sorted(got), sorted(want)):
        if not sums_close(a, b, rel_tol):
            failed += 1
    return failed


def decode_ok(conf: np.ndarray, result, budget: int, crc8) -> bool:
    """A found frame passes CRC-8 with the reported confidence; a miss used the budget."""
    if not result.found:
        return result.candidates_tested == budget and result.bits is None
    bits = result.bits
    if bits is None or len(bits) != conf.shape[0] or set(bits) - {"0", "1"}:
        return False
    values = [int(c) for c in bits]
    stored = int(bits[-8:], 2)
    if crc8(values[:-8]) != stored:
        return False
    if result.rank != result.candidates_tested or not 1 <= result.rank <= budget:
        return False
    return sums_close(sum_of_selection(conf, bits), result.confidence, 1e-9)


def parse_topk_output(text: str, fmt: str) -> list[tuple[int, float, str]]:
    """(rank, sum, selection) rows from `pairsums topk` output in any format."""
    if fmt == "json":
        return [(int(r["rank"]), float(r["sum"]), str(r["selection"])) for r in json.loads(text)]
    lines = text.splitlines()[1:]
    rows = []
    for line in lines:
        if fmt == "csv":
            rank, total, selection = line.split(",")
        else:
            rank, total, selection = line.split()
        rows.append((int(rank), float(total), selection))
    return rows
