"""Acceptance gate: ten checks, one PASS/FAIL line each.

Lines reach the console through the tee-sys capture mode configured in
pyproject. Each check also asserts, so pytest tallies stay honest.
"""

import math
import time

import numpy as np
import pytest

from conftest import bytes_to_bits, score
from pairsums.bench import BenchConfig, fit_pending_linear, fit_quadratic, run_bench
from pairsums.core import (
    Combination,
    Direction,
    init,
    normalize,
    shift,
    successors,
    top_k,
)
from pairsums.decode import Checksum, crc8, decode_best, make_validator
from pairsums.oracle import brute_force_top_k


def report(num: int, label: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:2d} {label}: {verdict}", flush=True)
    assert ok, f"acceptance check {num} ({label}) failed"


def ceil_half(n: int) -> int:
    return -(-n // 2)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def random_mask(rng, n: int) -> int:
    return int(rng.integers(0, 1 << n)) if n < 63 else int(rng.integers(0, 1 << 62))


@pytest.fixture(scope="module")
def full_runs():
    # complete enumerations for N = 1..12, shared by checks 2 and 3
    rng = np.random.default_rng(202)
    runs = {}
    start = time.monotonic()
    for n in range(1, 13):
        pairs = rng.random((n, 2))
        state = init(normalize(pairs))
        combos, sums, pendings = [], [], []
        while (out := state.advance()) is not None:
            total, mask = out
            combos.append(Combination(n, mask))
            sums.append(total)
            pendings.append(state.pending_size())
        runs[n] = (combos, sums, pendings)
    return runs, time.monotonic() - start


@pytest.fixture(scope="module")
def bench_records():
    # one campaign shared by checks 6 and 7; grid carries the ratio pair
    # 25000/50000 and the n=15 exhaustion point 2^15
    grid = sorted(
        {int(round(k)) for k in np.geomspace(1, 100_000, 50)}
        | {25_000, 32_768, 50_000, 100_000}
    )
    config = BenchConfig(
        n_values=(15, 100, 1000),
        k_max=100_000,
        k_checkpoints=tuple(grid),
        seed=42,
        trials=1,
    )
    start = time.monotonic()
    records = run_bench(config)
    return records, time.monotonic() - start


def test_01_sums_match_oracle():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    ok = True
    for case in range(400):
        n = int(rng.integers(1, 17))
        k = min(2**n, 1000)
        direction = Direction.MIN if case % 2 == 0 else Direction.MAX
        if case < 200:
            pairs = rng.random((n, 2))
            got = [r.sum for r in top_k(pairs, k, direction)]
            want = [r.sum for r in brute_force_top_k(pairs, k, direction)]
            ok = ok and all(close(g, w) for g, w in zip(got, want))
        else:
            pairs = rng.integers(-100, 101, size=(n, 2)).astype(float)
            got = [r.sum for r in top_k(pairs, k, direction)]
            want = [r.sum for r in brute_force_top_k(pairs, k, direction)]
            ok = ok and got == want  # integer sums are exact
        ok = ok and len(got) == k
    elapsed = time.monotonic() - start
    report(1, "400 random instances match brute force", ok and elapsed < 120)


def test_02_complete_enumeration(full_runs):
    runs, elapsed = full_runs
    ok = elapsed < 30
    for n, (combos, sums, _) in runs.items():
        ok = ok and len(combos) == 2**n
        ok = ok and len(set(combos)) == 2**n
        ok = ok and all(b >= a for a, b in zip(sums, sums[1:]))
    report(2, "N<=12 emits all 2^N exactly once, sorted", ok)


def test_03_frontier_bounds(full_runs):
    runs, _ = full_runs
    ok = True
    for n, (_, _, pendings) in runs.items():
        unit = ceil_half(n)
        ok = ok and all(p <= (i + 1) * unit for i, p in enumerate(pendings))
    rng = np.random.default_rng(303)
    for _ in range(100_000):
        n = int(rng.integers(1, 65))
        combo = Combination(n, random_mask(rng, n))
        ok = ok and len(successors(combo)) <= ceil_half(n)
    report(3, "pending <= i*ceil(N/2), successors <= ceil(N/2)", ok)


def test_04_shift_never_lowers_sum():
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(200):
        n = int(rng.integers(1, 33))
        inst = normalize(rng.random((n, 2)))
        for _ in range(500):
            combo = Combination(n, random_mask(rng, n))
            i = int(rng.integers(1, n + 1))
            ok = ok and score(inst, shift(combo, i)) >= score(inst, combo) - 1e-12
    report(4, "100k random shifts never lower the sum", ok)


def test_05_chain_reachability():
    rng = np.random.default_rng(505)
    ok = True
    for _ in range(10_000):
        n = int(rng.integers(1, 65))
        target = Combination(n, random_mask(rng, n))
        cur = Combination(n)
        for pos in range(n, 0, -1):
            if target.bit(pos):
                for j in range(1, pos + 1):
                    cur = shift(cur, j)
        ok = ok and cur == target
    report(5, "10k combinations rebuilt by shift chains", ok)


def test_06_quadratic_time_scaling(bench_records):
    records, elapsed = bench_records
    ok = elapsed < 600
    for n in (15, 100, 1000):
        fit = fit_quadratic([r for r in records if r.n == n])
        ok = ok and fit.r_squared > 0.99
    by_k = {r.k: r.elapsed_s for r in records if r.n == 100}
    ratio = by_k[50_000] / by_k[25_000]
    report(6, f"time fits K^2 (R2>0.99), doubling ratio {ratio:.2f}", ok and 2.5 <= ratio <= 5.5)


def test_07_frontier_linear_growth(bench_records):
    records, _ = bench_records
    ok = True
    for n in (100, 1000):
        fit = fit_pending_linear([r for r in records if r.n == n])
        ok = ok and fit.r_squared > 0.95
    n15_final = [r for r in records if r.n == 15 and r.k == 32_768]
    ok = ok and len(n15_final) == 1 and n15_final[0].pending_size == 0
    report(7, "frontier grows linearly in K; N=15 exhausts to 0", ok)


def test_08_duality_and_permutation_invariance():
    rng = np.random.default_rng(808)
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 13))
        k = min(2**n, 256)
        pairs = rng.random((n, 2))
        neg = [(-a, -b) for a, b in pairs]
        maxed = [r.sum for r in top_k(pairs, k, Direction.MAX)]
        mined = [-r.sum for r in top_k(neg, k, Direction.MIN)]
        ok = ok and all(close(g, w) for g, w in zip(maxed, mined))
    for _ in range(100):
        n = int(rng.integers(1, 13))
        k = min(2**n, 256)
        pairs = [tuple(row) for row in rng.random((n, 2))]
        order = list(range(n))
        rng.shuffle(order)
        base = top_k(pairs, k, Direction.MIN)
        moved = top_k([pairs[j] for j in order], k, Direction.MIN)
        ok = ok and all(close(b.sum, m.sum) for b, m in zip(base, moved))
        unshuffled = [
            "".join(str(m.selection_bits()[order.index(j)]) for j in range(n))
            for m in moved
        ]
        ok = ok and [b.selection_str() for b in base] == unshuffled
    report(8, "min/max duality and input-order invariance", ok)


def test_09_crc_bit_exact_decode():
    ok = crc8(bytes_to_bits(b"123456789")) == 0xF4
    rng = np.random.default_rng(5)
    message = rng.integers(0, 2, size=16).tolist()
    check = crc8(message)
    word = message + [(check >> (7 - j)) & 1 for j in range(8)]
    confidences = [(0.9, 0.1) if b == 0 else (0.1, 0.9) for b in word]
    good = word[3]
    confidences[3] = (0.55, 0.45) if good == 1 else (0.45, 0.55)
    result = decode_best(confidences, Checksum.CRC8)
    ok = ok and result.found and result.bits == "".join(str(b) for b in word)
    valid = make_validator(Checksum.CRC8, 24)
    oracle = brute_force_top_k(confidences, 1000, Direction.MAX)
    oracle_rank = next(
        i + 1 for i, r in enumerate(oracle) if valid(r.selection_bits())
    )
    report(9, "CRC8 golden value; decode rank matches brute force",
           ok and result.rank == oracle_rank)


def test_10_million_pair_smoke():
    rng = np.random.default_rng(1010)
    pairs = rng.random((1_000_000, 2))
    state = init(normalize(pairs))
    k = 10_000
    prev = -math.inf
    ok = True
    for _ in range(k):
        out = state.advance()
        ok = ok and out is not None and out[0] >= prev
        prev = out[0]
    ok = ok and state.emitted_count == k
    # every stored mask was either emitted or still pends: no hidden growth
    ok = ok and len(state.seen) == k + state.pending_size()
    ok = ok and len(state.seen) < 10 * k
    report(10, "N=1e6, k=1e4 streams sorted sums in bounded space", ok)
