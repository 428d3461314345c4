import errno
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pairsums import cli
from pairsums.bench import BenchConfig
from pairsums.cli import ParseError, build_parser, main, read_pairs

PAIRS_CSV = "1,5\n2,3\n0,4\n"
SRC = Path(__file__).resolve().parents[1] / "src"
QUAD_HEADER = "n,c2,c1,c0,r_squared"
LINE_HEADER = "n,m1,m0,r_squared"
HUGE_INT = "1" + "0" * 400  # an integer beyond float range


def assert_pairs(got, want):
    assert isinstance(got, np.ndarray)
    assert got.dtype == np.float64
    assert got.shape == (len(want), 2)
    assert got.tolist() == [list(row) for row in want]


@pytest.fixture
def pairs_file(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text(PAIRS_CSV)
    return str(path)


@pytest.fixture(scope="module")
def wide_pairs_file(tmp_path_factory):
    """5000 pairs: each selection is 5000 characters, so 1600 rows are 8 MB."""
    path = tmp_path_factory.mktemp("wide") / "pairs.csv"
    pairs = np.random.default_rng(3).random((5000, 2)).tolist()
    path.write_text("".join(f"{a!r},{b!r}\n" for a, b in pairs))
    return str(path)


class ClosedPipe:
    """Stand-in stdout whose reader has gone away, as after `| head`."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    writelines = write


@pytest.fixture
def conf_file(tmp_path):
    path = tmp_path / "conf.csv"
    path.write_text("0.1,0.9\n0.8,0.2\n0.6,0.4\n")
    return str(path)


class TestReadPairs:
    def test_plain_csv(self, pairs_file):
        assert_pairs(read_pairs(pairs_file), [(1, 5), (2, 3), (0, 4)])

    @pytest.mark.parametrize("text", [PAIRS_CSV, '{"pairs": [[1, 5], [2, 3], [0, 4]]}'])
    def test_byte_order_mark_is_ignored(self, tmp_path, capsys, text):
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes("\ufeff".encode("utf-8") + text.encode("utf-8"))
        assert_pairs(read_pairs(str(marked)), [(1, 5), (2, 3), (0, 4)])
        outputs = []
        for path in (plain, marked):
            assert main(["topk", "--input", str(path), "--k", "8", "--format", "csv"]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n1,2\n")
        assert_pairs(read_pairs(str(path)), [(1, 2)])

    def test_json_input(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"pairs": [[0, 1], [0.5, 2]]}')
        assert_pairs(read_pairs(str(path)), [(0, 1), (0.5, 2)])

    def test_wrong_width_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n")
        with pytest.raises(ParseError):
            read_pairs(str(path))

    def test_missing_file_rejected(self):
        with pytest.raises(ParseError):
            read_pairs("/no/such/file.csv")

    def test_file_that_is_not_utf8_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"1,2\n\xff\xfe,3\n")
        with pytest.raises(ParseError, match=f"^cannot read {re.escape(str(path))}: "):
            read_pairs(str(path))
        assert main(["topk", "--input", str(path), "--k", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot read {path}: ")
        assert captured.out == ""

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            read_pairs(str(path))

    def test_json_without_pairs_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": []}')
        with pytest.raises(ParseError):
            read_pairs(str(path))

    @pytest.mark.parametrize("command", ["topk", "decode"])
    @pytest.mark.parametrize(
        "payload",
        [
            '{"pairs": [1, 2]}',
            '{"pairs": [{"a": 1, "b": 2}]}',
            '{"pairs": [[true, false]]}',
            '{"pairs": [["1", 2]]}',
            '{"pairs": [[1, 2], [3]]}',
        ],
    )
    def test_malformed_json_rows_are_parse_errors(self, tmp_path, capsys, command, payload):
        path = tmp_path / "bad.json"
        path.write_text(payload)
        args = [command, "--input", str(path)] + (["--k", "1"] if command == "topk" else [])
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["topk", "decode"])
    @pytest.mark.parametrize("number", [HUGE_INT, "-" + HUGE_INT, "1e400"])
    def test_number_beyond_float_range_exits_three(self, tmp_path, capsys, command, number):
        path = tmp_path / "big.json"
        path.write_text(f'{{"pairs": [[{number}, 2], [0.5, 1]]}}')
        args = [command, "--input", str(path)] + (["--k", "1"] if command == "topk" else [])
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: pairs must be finite (no NaN, no infinities)\n"
        assert captured.out == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["topk", "decode"])
    def test_overflowing_gap_or_sum_exits_three(self, tmp_path, capsys, command):
        path = tmp_path / "overflow.csv"
        path.write_text("-1.7e308,1.7e308\n1e308,1.5e308\n1e308,1.2e308\n")
        args = [command, "--input", str(path)] + (["--k", "8"] if command == "topk" else [])
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: pair gaps or sums overflow the float range\n"
        assert captured.out == ""


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_flags_do_not_leak_into_next_call(self, pairs_file, capsys):
        assert main(["topk", "--input", pairs_file, "--k", "2", "--direction", "max",
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)[0]["selection"] == "111"
        assert main(["topk", "--input", pairs_file, "--k", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split() == ["rank", "sum", "selection"]  # table
        assert lines[1].split() == ["1", "3.0", "000"]  # min

    def test_usage_error_does_not_poison_next_call(self, pairs_file, capsys):
        assert main(["topk", "--input", pairs_file, "--k", "0"]) == 2
        assert main(["topk", "--input", pairs_file, "--wat"]) == 2
        capsys.readouterr()
        assert main(["topk", "--input", pairs_file, "--k", "1", "--format", "csv"]) == 0
        assert capsys.readouterr().out.strip().splitlines()[1] == "1,3,000"


class TestTopkCommand:
    def test_table_output(self, pairs_file, capsys):
        assert main(["topk", "--input", pairs_file, "--k", "4"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert lines[0].split() == ["rank", "sum", "selection"]
        assert lines[1].split() == ["1", "3.0", "000"]

    def test_csv_output(self, pairs_file, capsys):
        code = main(["topk", "--input", pairs_file, "--k", "4", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "rank,sum,selection"
        assert lines[1] == "1,3,000"
        assert [ln.split(",")[1] for ln in lines[1:]] == ["3", "4", "7", "7"]

    def test_single_pair_csv(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("0,1\n")
        main(["topk", "--input", str(path), "--k", "1", "--format", "csv"])
        assert capsys.readouterr().out.strip().splitlines()[1] == "1,0,0"

    def test_json_output(self, pairs_file, capsys):
        main(["topk", "--input", pairs_file, "--k", "2", "--format", "json"])
        rows = json.loads(capsys.readouterr().out)
        assert rows == [
            {"rank": 1, "sum": 3.0, "selection": "000"},
            {"rank": 2, "sum": 4.0, "selection": "010"},
        ]

    def test_max_direction(self, pairs_file, capsys):
        main(["topk", "--input", pairs_file, "--k", "1", "--direction", "max",
              "--format", "csv"])
        assert capsys.readouterr().out.strip().splitlines()[1] == "1,12,111"

    def test_max_zero_sum_prints_as_zero(self, tmp_path, capsys):
        path = tmp_path / "zero.csv"
        path.write_text("1,-5\n-1,-7\n")
        main(["topk", "--input", str(path), "--k", "2", "--direction", "max",
              "--format", "csv"])
        assert capsys.readouterr().out.splitlines()[1:] == ["1,0,00", "2,-6,10"]

    def test_output_file(self, pairs_file, tmp_path):
        dest = tmp_path / "out.csv"
        main(["topk", "--input", pairs_file, "--k", "1", "--format", "csv",
              "--output", str(dest)])
        assert dest.read_text().splitlines()[1] == "1,3,000"

    def test_k_beyond_sys_maxsize_prints_every_row(self, pairs_file, capsys):
        code = main(["topk", "--input", pairs_file, "--k", str(10**20),
                     "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 2**3
        assert [ln.split(",")[0] for ln in lines[1:]] == [str(r) for r in range(1, 9)]

    def test_k_zero_is_usage_error(self, pairs_file):
        assert main(["topk", "--input", pairs_file, "--k", "0"]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["topk", "--input", "p.csv", "--k", "x"], "argument --k: not an integer: 'x'"),
        (["bench", "--n", "1,x"], "argument --n: not a comma-separated int list: '1,x'"),
    ], ids=["k", "n-list"])
    def test_non_integer_argument_is_usage_error(self, capsys, argv, message):
        assert main(argv) == 2
        assert capsys.readouterr().err.rstrip().endswith(message)

    def test_unknown_flag_is_usage_error(self, pairs_file):
        assert main(["topk", "--input", pairs_file, "--k", "1", "--wat"]) == 2

    def test_missing_file_is_usage_error(self):
        assert main(["topk", "--input", "/no/such.csv", "--k", "1"]) == 2

    def test_unwritable_output_is_usage_error(self, pairs_file, tmp_path, capsys):
        dest = tmp_path / "no_such_dir" / "out.csv"
        assert main(["topk", "--input", pairs_file, "--k", "1", "--output", str(dest)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_nan_input_exits_three(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("1,nan\n")
        assert main(["topk", "--input", str(path), "--k", "1"]) == 3

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_memory_does_not_grow_with_k(self, wide_pairs_file, tmp_path, fmt):
        dest = tmp_path / "out"
        peaks = []
        for k in (100, 1600):
            tracemalloc.start()
            try:
                assert main(["topk", "--input", wide_pairs_file, "--k", str(k),
                             "--format", fmt, "--output", str(dest)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert dest.stat().st_size > 8_000_000
        assert peaks[1] - peaks[0] < 1_000_000

    def test_reader_that_stops_early_exits_zero(self, pairs_file, conf_file, monkeypatch,
                                                capsys):
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        for fmt in ("table", "csv", "json"):
            assert main(["topk", "--input", pairs_file, "--k", "8", "--format", fmt]) == 0
        assert main(["decode", "--input", conf_file]) == 0
        assert capsys.readouterr().err == ""


class TestDecodeCommand:
    def test_none_validator(self, conf_file, capsys):
        assert main(["decode", "--input", conf_file]) == 0
        out = capsys.readouterr().out
        assert "bits: 100" in out
        assert "rank: 1" in out

    def test_parity_json(self, conf_file, capsys):
        code = main(["decode", "--input", conf_file, "--checksum", "parity",
                     "--format", "json"])
        assert code == 0
        row = json.loads(capsys.readouterr().out)
        assert row["bits"] == "101"
        assert row["rank"] == 2
        assert row["confidence"] == pytest.approx(2.1)

    def test_budget_exhaustion_exits_one(self, conf_file, capsys):
        code = main(["decode", "--input", conf_file, "--checksum", "parity",
                     "--max-candidates", "1", "--format", "csv"])
        assert code == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "found,bits,rank,confidence,candidates_tested"
        assert lines[1] == "false,,,,1"

    def test_budget_beyond_sys_maxsize(self, conf_file, capsys):
        code = main(["decode", "--input", conf_file, "--checksum", "parity",
                     "--max-candidates", str(10**20), "--format", "csv"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("true,101,2,")

    def test_crc8_too_short_exits_two(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("0.9,0.1\n" * 8)
        assert main(["decode", "--input", path.as_posix(), "--checksum", "crc8"]) == 2


class TestBenchCommand:
    def test_csv_to_stdout(self, capsys):
        code = main(["bench", "--n", "5", "--k-max", "32", "--samples", "4",
                     "--seed", "1"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,k,pending_size,elapsed_s,trial,seed"
        assert len(lines) == 5

    def test_fit_summary(self, tmp_path, capsys):
        dest = tmp_path / "bench.csv"
        code = main(["bench", "--n", "4,6", "--k-max", "16", "--samples", "4",
                     "--fit", "--output", str(dest)])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        split = out.index(LINE_HEADER)
        quad, line = out[:split], out[split:]
        assert quad[0] == QUAD_HEADER
        for block in (quad, line):
            assert [row.split(",")[0] for row in block[1:]] == ["4", "6"]
        assert dest.read_text().startswith("n,k,pending_size,elapsed_s")

    def test_degenerate_pending_fit_is_skipped(self, tmp_path, capsys):
        # K checkpoints 1, 32, 1000: only 1000 clears the cutoff 1000 // 10
        code = main(["bench", "--n", "20", "--k-max", "1000", "--samples", "3",
                     "--fit", "--output", str(tmp_path / "bench.csv")])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.strip().splitlines()[-1] == LINE_HEADER
        assert "n=20: pending fit skipped" in captured.err

    def test_degenerate_time_fit_is_skipped(self, tmp_path, capsys):
        # n=1 has only K = 1, 2: too few checkpoints for a quadratic
        code = main(["bench", "--n", "1,20", "--k-max", "50", "--samples", "5",
                     "--fit", "--output", str(tmp_path / "bench.csv")])
        assert code == 0
        captured = capsys.readouterr()
        out = captured.out.strip().splitlines()
        quad = out[: out.index(LINE_HEADER)]
        assert quad[0] == QUAD_HEADER
        assert [row.split(",")[0] for row in quad[1:]] == ["20"]
        assert "n=1: time fit skipped" in captured.err

    def test_two_point_pending_fit_is_skipped(self, tmp_path, capsys):
        # n=1 has K = 1, 2: a line through two points would report R^2 = 1
        code = main(["bench", "--n", "1,20", "--k-max", "50", "--samples", "5",
                     "--fit", "--output", str(tmp_path / "bench.csv")])
        assert code == 0
        captured = capsys.readouterr()
        out = captured.out.strip().splitlines()
        line = out[out.index(LINE_HEADER) + 1:]
        assert [row.split(",")[0] for row in line] == ["20"]
        assert "n=1: pending fit skipped: need at least 3 distinct K values, got 2" in captured.err

    def test_module_entry_point(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        dest = tmp_path / "bench.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "pairsums.cli", "bench", "--n", "15,100",
             "--k-max", "2000", "--fit", "--output", str(dest)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert dest.read_text().splitlines()[0] == "n,k,pending_size,elapsed_s,trial,seed"
        out = proc.stdout.splitlines()
        assert QUAD_HEADER in out
        assert LINE_HEADER in out

    def test_unwritable_output_fails_before_the_campaign(self, tmp_path, monkeypatch, capsys):
        def no_campaign(config):
            raise AssertionError("run_bench ran")

        monkeypatch.setattr(cli, "run_bench", no_campaign)
        dest = tmp_path / "no" / "such" / "bench.csv"
        assert main(["bench", "--output", str(dest)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_defaults_are_bench_config_defaults(self, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr(cli, "run_bench", lambda config: seen.append(config) or [])
        assert main(["bench"]) == 0
        assert seen == [BenchConfig()]

    def test_bad_seed_leaves_output_untouched(self, tmp_path, capsys):
        dest = tmp_path / "keep.csv"
        dest.write_text("n,k,pending_size,elapsed_s,trial,seed\n15,1,1,0.0,0,42\n")
        before = dest.read_bytes()
        code = main(["bench", "--n", "15", "--k-max", "100", "--samples", "5",
                     "--seed", "-1", "--output", str(dest)])
        assert code == 2
        assert dest.read_bytes() == before
        assert "seed" in capsys.readouterr().err

    def test_repeated_n_leaves_output_untouched(self, tmp_path, capsys):
        dest = tmp_path / "keep.csv"
        dest.write_text("n,k,pending_size,elapsed_s,trial,seed\n15,1,1,0.0,0,42\n")
        before = dest.read_bytes()
        code = main(["bench", "--n", "15,15", "--k-max", "200", "--samples", "5",
                     "--fit", "--output", str(dest)])
        assert code == 2
        assert dest.read_bytes() == before
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n_values must not repeat" in captured.err

    def test_bad_sample_count_is_usage_error(self, capsys):
        assert main(["bench", "--n", "5", "--k-max", "4", "--samples", "9"]) == 2
