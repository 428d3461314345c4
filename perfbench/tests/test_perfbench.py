"""Tests for the benchmark's own code: tail rule, span self times, output checks.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import sys
import time
from array import array
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from pairsums import Direction, cli, core, decode, top_k  # noqa: E402


# -- tail percentile -------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
     (99_999, 99.9), (100_000, 99.99), (1_000_000, 99.999)],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


@pytest.mark.parametrize("n", [100, 250, 1000, 4321])
def test_tail_value_leaves_at_least_ten_samples_beyond(n):
    rng = np.random.default_rng(n)
    samples = rng.exponential(size=n)
    summary = stats.latency_summary(samples)
    tail = summary["latency_tail_ms"] / 1e3
    assert np.count_nonzero(samples > tail) >= 10
    assert summary["latency_samples"] == n
    # The next ladder rung up would leave fewer than ten beyond.
    higher = [p for p in stats.TAIL_LADDER if p > summary["latency_tail_percentile"]]
    if higher:
        assert n * (100 - min(higher)) / 100 < 10


# -- rounds ----------------------------------------------------------------


def test_best_of_rounds_takes_each_unit_and_request_at_its_fastest():
    phase = workloads.Phase()
    for latencies, seconds in (([3.0, 1.0], 4.0), ([2.0, 5.0], 7.0)):
        phase.latencies = array("d", latencies)
        phase.record(0, seconds, 2, 5)
    phase.latencies = array("d", [1.5])
    phase.record(1, 1.5, 1, 1)
    seconds, requests, results, latencies = phase.best_of_rounds()
    assert (seconds, requests, results) == (5.5, 3, 6)
    assert sorted(latencies) == [1.0, 1.5, 2.0]


class _Counting:
    """A workload whose second unit raises and whose check flags one request."""

    def requests(self, unit):
        return 3

    def results(self, out):
        return len(out)

    def run(self, unit, phase):
        if unit == "bad":
            raise RuntimeError("boom")
        return [phase.call(abs, -i) for i in range(3)]

    def check(self, unit, out, phase):
        return 1


def test_run_rounds_counts_failures_and_stops():
    seen = []
    phase = workloads.run_rounds(_Counting(), ["ok", "bad"], workloads.Phase(),
                                 between=seen.append, max_rounds=3)
    assert len(phase.round_s) == 3 and len(seen) == 3
    assert phase.attempted == 18
    assert phase.failed == 3 * (1 + 3)
    assert list(phase.unit_times) == [0] and len(phase.unit_times[0]) == 3


def test_run_rounds_runs_at_least_one_round():
    phase = workloads.run_rounds(_Counting(), ["ok"], workloads.Phase(), seconds=0.0)
    assert len(phase.round_s) == 1


# -- span self times -------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    names = ["a", "b", "c", "d"]
    table = spans.span_self_times(names, {
        "name_id": np.array([0, 1, 2, 3]),
        "start": np.array([0.0, 1.0, 5.0, 6.0]),
        "end": np.array([10.0, 4.0, 9.0, 7.0]),
        "parent": np.array([-1, 0, 0, 2]),
    })
    assert table == {"a": (1, 3.0), "b": (1, 3.0), "c": (1, 3.0), "d": (1, 1.0)}


def test_tracer_records_nesting_and_self_times_sum_to_root():
    tracer = spans.Tracer()

    def inner():
        time.sleep(0.002)

    def outer():
        time.sleep(0.002)
        traced_inner()
        traced_inner()

    traced_inner = tracer.span("inner", inner)
    tracer.span("outer", outer)()
    arr = tracer.arrays()
    assert list(arr["parent"]) == [-1, 0, 0]
    table = tracer.self_times()
    root = float(arr["end"][0] - arr["start"][0])
    assert table["inner"][0] == 2
    assert table["outer"][1] + table["inner"][1] == pytest.approx(root)
    assert table["outer"][1] < root - table["inner"][1] + 1e-9


def test_install_wraps_aliases_and_uninstall_restores():
    originals = (core.normalize, decode.normalize, cli.decode_best, core.PendingSet.insert_batch)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert decode.normalize is core.normalize is not originals[0]
        assert cli.decode_best is decode.decode_best is not originals[2]
        conf = [(0.1, 0.9), (0.8, 0.2), (0.6, 0.4)] * 4
        decode.decode_best(conf, decode.Checksum.CRC8, max_candidates=50)
    finally:
        tracer.uninstall()
    assert (core.normalize, decode.normalize, cli.decode_best,
            core.PendingSet.insert_batch) == originals
    table = tracer.self_times()
    assert {"decode_best", "normalize", "advance", "validator", "denormalize"} <= set(table)
    assert tracer.counters["selection_calls"] > 0
    assert not tracer.missing


def test_removed_boundary_reports_its_metrics_absent(monkeypatch):
    monkeypatch.delattr(core.PendingSet, "extract_min")
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == {"extract_min"}
    phases = []
    for seconds in (1.0, 1.2):
        phase = workloads.Phase()
        phase.latencies = array("d", [seconds])
        phase.record(0, seconds, 1, 1)
        phases.append(phase)
    metrics, detail = run.per_layer_metrics(tracer, *phases)
    assert "core.frontier.extract.self_s" not in metrics
    assert metrics["core.frontier.insert.self_s"] == 0.0
    assert metrics["trace.overhead_ratio"] == pytest.approx(1.2)
    assert detail["missing_boundaries"] == ["extract_min"]


# -- output checks ---------------------------------------------------------


def _ranked(pairs, k, direction=Direction.MIN):
    results = top_k(pairs, k, direction)
    sums = [r.sum for r in results]
    keys = [r.selection_str() for r in results]
    samples = list(zip(sums, keys))
    return sums, keys, samples


PAIRS = np.random.default_rng(7).random((12, 2))


def test_clean_stream_passes():
    sums, keys, samples = _ranked(PAIRS, 50)
    assert checks.count_ranked_failures(sums, keys, 50, False, samples, PAIRS, 1e-9) == 0
    sums, keys, samples = _ranked(PAIRS, 50, Direction.MAX)
    assert checks.count_ranked_failures(sums, keys, 50, True, samples, PAIRS, 1e-9) == 0


def test_swapped_sums_fail():
    sums, keys, samples = _ranked(PAIRS, 50)
    sums[10], sums[20] = sums[20], sums[10]
    assert checks.count_ranked_failures(sums, keys, 50, False, [], PAIRS, 1e-9) > 0


def test_duplicated_selection_fails():
    sums, keys, samples = _ranked(PAIRS, 50)
    keys[5] = keys[4]
    assert checks.count_ranked_failures(sums, keys, 50, False, [], PAIRS, 1e-9) > 0


def test_wrong_sum_for_selection_fails():
    sums, keys, samples = _ranked(PAIRS, 50)
    samples[3] = (samples[3][0] + 1e-3, samples[3][1])
    assert checks.count_ranked_failures(sums, keys, 50, False, samples, PAIRS, 1e-9) == 1


def test_short_stream_fails():
    sums, keys, samples = _ranked(PAIRS, 50)
    assert checks.count_ranked_failures(sums[:-2], keys[:-2], 50, False, [], PAIRS, 1e-9) == 2


def test_multiset_ignores_tie_order_but_not_values():
    assert checks.count_multiset_failures([1.0, 2.0, 2.0], [2.0, 1.0, 2.0], 0.0) == 0
    assert checks.count_multiset_failures([1.0, 2.0, 3.0], [1.0, 2.0, 2.0], 0.0) == 1


def test_cli_output_round_trips_and_corruption_is_caught(tmp_path):
    src = tmp_path / "pairs.csv"
    src.write_text("".join(f"{a!r},{b!r}\n" for a, b in PAIRS.tolist()))
    for fmt in ("csv", "json", "table"):
        out = tmp_path / f"out.{fmt}"
        assert cli.main(["topk", "--input", str(src), "--k", "30", "--format", fmt,
                         "--output", str(out)]) == 0
        rows = checks.parse_topk_output(out.read_text(), fmt)
        assert [r[0] for r in rows] == list(range(1, 31))
        sums = [r[1] for r in rows]
        sels = [r[2] for r in rows]
        samples = list(zip(sums, sels))
        assert checks.count_ranked_failures(sums, sels, 30, False, samples, PAIRS, 1e-9) == 0
        sels[7] = sels[6]
        assert checks.count_ranked_failures(sums, sels, 30, False, [], PAIRS, 1e-9) == 1


def _frame():
    rng = np.random.default_rng(3)
    msg = rng.integers(0, 2, 40).tolist()
    crc = decode.crc8(msg)
    bits = msg + [(crc >> (7 - t)) & 1 for t in range(8)]
    y = 1.0 - 2.0 * np.asarray(bits, dtype=float) + 0.3 * rng.standard_normal(48)
    return np.column_stack((-((y - 1) ** 2), -((y + 1) ** 2)))


def test_decode_check_accepts_real_result_and_flags_wrong_crc():
    conf = _frame()
    result = decode.decode_best(conf, decode.Checksum.CRC8, max_candidates=500)
    assert result.found
    assert checks.decode_ok(conf, result, 500, decode.crc8)
    flipped = result.bits[:-1] + ("1" if result.bits[-1] == "0" else "0")
    bad = decode.DecodeResult(True, flipped, result.rank, result.confidence,
                              result.candidates_tested)
    assert not checks.decode_ok(conf, bad, 500, decode.crc8)
    wrong_conf = decode.DecodeResult(True, result.bits, result.rank, result.confidence + 1.0,
                                     result.candidates_tested)
    assert not checks.decode_ok(conf, wrong_conf, 500, decode.crc8)


def test_decode_check_requires_budget_on_miss():
    conf = _frame()
    miss = decode.DecodeResult(False, None, None, None, 3)
    assert checks.decode_ok(conf, miss, 3, decode.crc8)
    assert not checks.decode_ok(conf, miss, 500, decode.crc8)
