import dataclasses
import io
import math

import numpy as np
import pytest

from pairsums import core
from pairsums.bench import (
    CSV_HEADER,
    BenchConfig,
    BenchRecord,
    DegenerateFit,
    checkpoints_for,
    fit_pending_linear,
    fit_quadratic,
    run_bench,
    write_csv,
)

TINY = BenchConfig(n_values=(6,), k_max=64, k_samples=8, seed=3, trials=2)


def synthetic(coeffs, ks, n=100):
    c2, c1, c0 = coeffs
    return [
        BenchRecord(
            n=n, k=k, pending_size=3 * k + 7,
            elapsed_s=c2 * k * k + c1 * k + c0, trial=0, seed=0,
        )
        for k in ks
    ]


class TestConfig:
    def test_defaults(self):
        config = BenchConfig()
        assert config.n_values == (15, 100, 1000)
        assert config.k_max == 100_000
        assert config.seed == 42

    def test_rejects_bad_sample_count(self):
        with pytest.raises(ValueError):
            BenchConfig(k_samples=1)
        with pytest.raises(ValueError):
            BenchConfig(k_max=10, k_samples=20)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            BenchConfig(n_values=(0,))
        with pytest.raises(ValueError, match="n_values must be non-empty"):
            BenchConfig(n_values=())

    def test_rejects_repeated_n(self):
        with pytest.raises(ValueError, match="n_values must not repeat"):
            BenchConfig(n_values=(15, 100, 15))

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            BenchConfig(trials=0)

    @pytest.mark.parametrize("kwargs", [
        {"trials": 1.5},
        {"n_values": (15.0,)},
        {"n_values": [True]},
    ], ids=["float-trials", "float-n", "bool-n"])
    def test_counts_follow_the_count_rule(self, kwargs):
        # as for k: a float or a bool is not a count, and the error is a ValueError
        with pytest.raises(ValueError):
            BenchConfig(**kwargs)

    def test_accepts_numpy_counts(self):
        config = BenchConfig(n_values=(np.int64(5), np.int64(100)), k_max=np.int64(20),
                             k_samples=np.int64(4), trials=np.int64(2))
        # 2^100 does not fit an int64; the cap must still be k_max
        assert checkpoints_for(config, np.int64(100))[-1] == 20
        rows = sum(len(checkpoints_for(config, n)) for n in config.n_values)
        assert len(run_bench(config)) == 2 * rows

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            BenchConfig(seed=-1)

    @pytest.mark.parametrize("seed", [1.5, True, False, "3", 2.0])
    def test_seed_must_be_an_integer(self, seed):
        # 1.5 used to pass here and fail in numpy; True ran as seed 1
        with pytest.raises(ValueError, match="seed must be an integer"):
            BenchConfig(n_values=(6,), k_max=64, k_samples=4, seed=seed)

    def test_seed_is_stored_as_int(self):
        config = BenchConfig(n_values=(6,), k_max=64, k_samples=4, seed=np.int64(5))
        assert type(config.seed) is int and config.seed == 5
        assert {type(r.seed) for r in run_bench(config)} == {int}

    def test_n_values_are_stored_as_a_tuple_of_ints(self):
        # a list (as --n parses it) used to stay a list, so the config did
        # not hash, and numpy counts reached every BenchRecord.n
        for given in ([3, 4], (np.int64(3), np.int32(4)), np.array([3, 4])):
            config = BenchConfig(n_values=given, k_max=8, k_samples=2)
            assert config.n_values == (3, 4)
            assert type(config.n_values) is tuple
            assert {type(n) for n in config.n_values} == {int}
            assert hash(config) == hash(BenchConfig(n_values=(3, 4), k_max=8, k_samples=2))
        config = BenchConfig(n_values=(np.int64(6),), k_max=8, k_samples=2)
        assert {type(r.n) for r in run_bench(config)} == {int}

    def test_fields_are_the_bench_flags(self):
        # one field per `pairsums bench` flag; checkpoints come from k_samples
        names = {f.name for f in dataclasses.fields(BenchConfig)}
        assert names == {"n_values", "k_max", "k_samples", "seed", "trials"}


class TestCheckpoints:
    def test_log_spaced_and_unique(self):
        ks = checkpoints_for(BenchConfig(k_max=1000, k_samples=10), n=100)
        assert ks == sorted(set(ks))
        assert ks[0] == 1
        assert ks[-1] == 1000

    def test_capped_by_enumeration_size(self):
        ks = checkpoints_for(BenchConfig(k_max=100_000, k_samples=10), n=5)
        assert ks[-1] == 32


class TestRunBench:
    def test_row_shape_and_coverage(self):
        records = run_bench(TINY)
        ks = checkpoints_for(TINY, 6)
        assert len(records) == len(ks) * TINY.trials
        assert {r.trial for r in records} == {0, 1}
        assert all(r.n == 6 and r.seed == 3 for r in records)

    def test_elapsed_monotone_within_trial(self):
        records = run_bench(TINY)
        for trial in (0, 1):
            rows = [r for r in records if r.trial == trial]
            assert [r.k for r in rows] == sorted(r.k for r in rows)
            elapsed = [r.elapsed_s for r in rows]
            assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))

    def test_exhaustion_empties_pending(self):
        records = run_bench(TINY)
        # k_max 64 = 2^6 walks the whole space
        assert all(r.pending_size == 0 for r in records if r.k == 64)

    def test_pending_deterministic_across_repeat_runs(self):
        a = run_bench(TINY)
        b = run_bench(TINY)
        assert [(r.k, r.pending_size) for r in a] == [
            (r.k, r.pending_size) for r in b
        ]

    def test_trials_draw_independent_instances(self):
        # trial index feeds the rng seed, so replicates differ
        records = run_bench(TINY)
        by_trial = {
            t: [r.pending_size for r in records if r.trial == t] for t in (0, 1)
        }
        assert by_trial[0] != by_trial[1]

    def test_walks_the_paper_frontier(self, monkeypatch):
        # the O(K^2) curve is the paper's sorted list; a heap would pass
        # every other test here and show only as a flatter timing ratio
        def refuse(*args):
            raise AssertionError("run_bench touched the heap frontier")

        monkeypatch.setattr(core.PendingSet, "insert_batch", refuse)
        monkeypatch.setattr(core.PendingSet, "extract_min", refuse)
        records = run_bench(BenchConfig(n_values=(12,), k_max=200, k_samples=5, seed=1))
        assert records[-1].k == 200 and records[-1].pending_size > 0


class TestFits:
    def test_quadratic_recovered_exactly(self):
        ks = [10, 20, 40, 80, 160, 320]
        fit = fit_quadratic(synthetic((2e-8, 1e-6, 5e-4), ks))
        assert fit.c2 == pytest.approx(2e-8, rel=1e-6)
        assert fit.c1 == pytest.approx(1e-6, rel=1e-6)
        assert fit.c0 == pytest.approx(5e-4, rel=1e-6)
        assert fit.r_squared == pytest.approx(1.0)

    def test_constant_series_gives_unit_r2(self):
        # zero variance: the flat fit explains everything
        fit = fit_quadratic(synthetic((0.0, 0.0, 1e-3), [1, 2, 4, 8]))
        assert fit.c2 == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0

    def test_too_few_points_degenerate(self):
        with pytest.raises(DegenerateFit):
            fit_quadratic(synthetic((1e-8, 0, 0), [5, 5, 5]))
        with pytest.raises(DegenerateFit, match="no records"):
            fit_quadratic([])

    def test_exact_fits_are_degenerate(self):
        # degree + 1 distinct K give a curve through every point (R^2 = 1)
        with pytest.raises(DegenerateFit, match="at least 4 distinct K values, got 3"):
            fit_quadratic(synthetic((1e-8, 0, 0), [1, 2, 4, 4]))
        with pytest.raises(DegenerateFit, match="at least 3 distinct K values, got 2"):
            fit_pending_linear(synthetic((1e-8, 0, 0), [1, 2, 400, 800]))
        assert fit_quadratic(synthetic((1e-8, 0, 0), [1, 2, 4, 8])).r_squared == pytest.approx(1.0)
        assert fit_pending_linear(synthetic((1e-8, 0, 0), [1, 2, 4])).m1 == pytest.approx(3.0)

    def test_mixed_n_rejected(self):
        rows = synthetic((1e-8, 0, 0), [1, 2, 4], n=10) + synthetic(
            (1e-8, 0, 0), [1, 2, 4], n=20
        )
        with pytest.raises(ValueError):
            fit_quadratic(rows)
        # the frontier-size cutoff (K >= 40) would drop every n=10 row
        rows = synthetic((1e-8, 0, 0), [1, 2, 4], n=10) + synthetic(
            (1e-8, 0, 0), [100, 200, 400], n=20
        )
        with pytest.raises(ValueError, match="one n"):
            fit_pending_linear(rows)

    def test_pending_linear_recovered(self):
        rows = synthetic((1e-8, 0, 0), [10, 20, 40, 80])
        fit = fit_pending_linear(rows)
        assert fit.m1 == pytest.approx(3.0)
        assert fit.m0 == pytest.approx(7.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_pending_linear_fits_k_from_max_k_over_10(self):
        # max K 1600 puts the cutoff at 160; the rows below it lie off the line
        rows = [
            r if r.k >= 160 else dataclasses.replace(r, pending_size=1000)
            for r in synthetic((1e-8, 0, 0), [1, 2, 159, 160, 800, 1600])
        ]
        fit = fit_pending_linear(rows)
        assert fit.m1 == pytest.approx(3.0)
        assert fit.m0 == pytest.approx(7.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_real_run_times_fit_quadratic_shape(self):
        config = BenchConfig(n_values=(40,), k_max=4000, k_samples=12, seed=9)
        records = run_bench(config)
        fit = fit_quadratic(records)
        assert math.isfinite(fit.c2)
        assert fit.r_squared > 0.8  # noisy at this tiny scale, shape only


class TestCsv:
    def test_header_and_rows(self):
        rows = synthetic((0, 0, 1e-3), [1, 2])
        out = io.StringIO()
        write_csv(rows, out)
        lines = out.getvalue().strip().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert lines[1].startswith("100,1,10,")
        assert len(lines) == 3

    def test_elapsed_written_with_repr(self):
        rows = [BenchRecord(n=5, k=k, pending_size=2, elapsed_s=t, trial=0, seed=7)
                for k, t in ((1, 0.1), (2, 1 / 3), (3, 1e-7), (4, 0.0))]
        out = io.StringIO()
        write_csv(rows, out)
        assert out.getvalue().splitlines()[1:] == [
            "5,1,2,0.1,0,7",
            "5,2,2,0.3333333333333333,0,7",
            "5,3,2,1e-07,0,7",
            "5,4,2,0.0,0,7",
        ]
