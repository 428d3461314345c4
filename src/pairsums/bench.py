"""Scaling measurements for the best-first enumerator.

Samples uniform random pair sets, runs the enumerator on the paper's
sorted-list frontier (``core.PaperFrontier``, O(|P|) per step) to a K
budget while recording the frontier size |P| and the cumulative process
time at a grid of K checkpoints, fits a second-degree polynomial to the
time curve and a line to the frontier size over K >= max K / 10. CPU
process time is used rather than wall clock, and each timed run is
preceded by a short untimed warm-up pass so allocator and cache startup
noise stays out of the measurement.

``pairsums bench`` is the command-line entry point: it writes the CSV and,
with ``--fit``, prints both fits per n.

Times are machine-dependent; the reproducible claims are fit quality
(time vs K is near-quadratic, |P| vs K near-linear for K << 2^n) and the
exhaustion of the frontier when K reaches 2^n. The serving paths walk the
heap frontier (``core.PendingSet``), which pops in the same order and has
the same |P| at every step but grows in time as O(K log K), so it would
not show the paper's curve.
"""

from __future__ import annotations

import csv
import io
import numbers
import time
from dataclasses import astuple, dataclass, fields
from itertools import islice
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import InvalidK, PaperFrontier, _positive_count, init, normalize

WARMUP_STEPS = 1000  # untimed enumeration steps before each trial


class DegenerateFit(ValueError):
    """Not enough distinct K checkpoints for the requested fit."""


@dataclass(frozen=True)
class BenchConfig:
    """One measurement campaign.

    ``k_checkpoints`` overrides the default log-spaced grid of
    ``k_samples`` points; either way checkpoints are clipped to
    min(k_max, 2^n) per n. Every count, each checkpoint included, is an
    integer >= 1 and ``seed`` an integer >= 0 (numpy's too, not bool);
    ``n_values`` and the checkpoints are stored as tuples of ints and
    ``seed`` as an int, so a config hashes. A bad field, or an
    explicit list that clips to nothing for some n, raises ValueError at
    construction.
    """

    n_values: Sequence[int] = (15, 100, 1000)
    k_max: int = 100_000
    k_samples: int = 50
    seed: int = 42
    trials: int = 1
    k_checkpoints: Optional[Sequence[int]] = None

    def __post_init__(self):
        try:  # each n is a count; the message is the CLI's for --n 0
            n_values = tuple(_positive_count(n, "n") for n in self.n_values)
            if not n_values:
                raise InvalidK("n_values is empty")
        except InvalidK as exc:
            raise ValueError("n_values must be non-empty, all >= 1") from exc
        if len(set(n_values)) != len(n_values):
            raise ValueError(f"n_values must not repeat, got {list(n_values)}")
        object.__setattr__(self, "n_values", n_values)
        for name in ("k_max", "k_samples", "trials"):
            _positive_count(getattr(self, name), name)
        if not (self.k_max >= self.k_samples >= 2):
            raise ValueError("need k_max >= k_samples >= 2")
        if not isinstance(self.seed, numbers.Integral) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        object.__setattr__(self, "seed", int(self.seed))  # numpy's too, for the CSV
        if self.k_checkpoints is not None:
            ks = tuple(_positive_count(k, "k_checkpoints entry") for k in self.k_checkpoints)
            object.__setattr__(self, "k_checkpoints", ks)
        for n in self.n_values:  # raises here, before a caller opens its output
            checkpoints_for(self, n)


@dataclass(frozen=True)
class BenchRecord:
    n: int
    k: int
    pending_size: int
    elapsed_s: float
    trial: int
    seed: int


CSV_HEADER = tuple(f.name for f in fields(BenchRecord))


def checkpoints_for(config: BenchConfig, n: int) -> list[int]:
    """Ascending unique K checkpoints for one n, clipped to min(k_max, 2^n)."""
    k_cap = min(config.k_max, 1 << int(n))  # a numpy n would wrap at 64 bits
    if config.k_checkpoints is not None:
        ks = sorted({k for k in config.k_checkpoints if k <= k_cap})
        if not ks:
            raise ValueError("no checkpoints left after clipping")
        return ks
    grid = np.geomspace(1, k_cap, config.k_samples)
    return sorted({int(round(k)) for k in grid})


def run_bench(config: BenchConfig) -> list[BenchRecord]:
    """Run the measurement campaign on ``PaperFrontier``; deterministic given the seed.

    Pairs are drawn from the standard uniform distribution with a generator
    seeded by (seed, n, trial), so pending-size columns replay exactly;
    elapsed times are machine noise by nature.
    """
    records: list[BenchRecord] = []
    for n in config.n_values:
        cps = checkpoints_for(config, n)
        for trial in range(config.trials):
            rng = np.random.default_rng([config.seed, n, trial])
            pairs = rng.random((n, 2))
            instance = normalize(pairs)
            warmup = init(instance, frontier=PaperFrontier)
            for _ in islice(warmup, min(WARMUP_STEPS, cps[-1])):
                pass
            state = init(instance, frontier=PaperFrontier)
            start = time.process_time()
            for k in cps:
                for _ in islice(state, k - state.emitted_count):
                    pass
                records.append(
                    BenchRecord(
                        n=n,
                        k=k,
                        pending_size=state.pending_size(),
                        elapsed_s=time.process_time() - start,
                        trial=trial,
                        seed=config.seed,
                    )
                )
    return records


class QuadraticFit(NamedTuple):
    c2: float
    c1: float
    c0: float
    r_squared: float


class LinearFit(NamedTuple):
    m1: float
    m0: float
    r_squared: float


def _fit(
    records: Sequence[BenchRecord], column: str, degree: int, k_min: int = 0
) -> list[float]:
    """Least-squares fit of ``column`` vs K over the records with K >= k_min.

    The records must share one n; they may pool trials. Returns the
    coefficients, highest degree first, then R^2. Raises DegenerateFit on
    no records or too few distinct K, ValueError on mixed n.
    """
    if not records:
        raise DegenerateFit("no records")
    if len({r.n for r in records}) != 1:  # before the cutoff can drop an n
        raise ValueError("records must all belong to one n")
    kept = [r for r in records if r.k >= k_min]
    x = np.array([r.k for r in kept], dtype=float)
    y = np.array([getattr(r, column) for r in kept], dtype=float)
    # degree + 1 points fit exactly (R^2 = 1); one more leaves a residual
    distinct = len(np.unique(x))
    if distinct < degree + 2:
        raise DegenerateFit(f"need at least {degree + 2} distinct K values, got {distinct}")
    coeffs = np.polyfit(x, y, degree)
    resid = y - np.polyval(coeffs, x)
    ss_res = float(resid @ resid)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return [*map(float, coeffs), r2]


def fit_quadratic(records: Sequence[BenchRecord]) -> QuadraticFit:
    """Degree-2 fit of elapsed time vs K for one n."""
    return QuadraticFit(*_fit(records, "elapsed_s", 2))


def fit_pending_linear(records: Sequence[BenchRecord]) -> LinearFit:
    """Degree-1 fit of frontier size vs K for one n, over K >= max K // 10."""
    k_min = max((r.k for r in records), default=0) // 10
    return LinearFit(*_fit(records, "pending_size", 1, k_min))


def write_csv(records: Sequence[BenchRecord], fileobj: io.TextIOBase) -> None:
    """Emit records as CSV under CSV_HEADER; ``csv`` writes floats with ``repr``."""
    writer = csv.writer(fileobj)
    writer.writerow(CSV_HEADER)
    writer.writerows(map(astuple, records))
