"""The benchmark's tracer must still find every layer boundary in the package.

``perfbench/spans.py`` rebinds names such as ``PendingSet.insert_batch``
and ``cli.read_pairs``; a name the package stops defining is skipped
silently and its per-layer metrics vanish from traced runs. These tests
fail instead, and a one-second run of each benchmark workload must end in
a result line that carries every declared metric as a finite number.
"""

import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from pairsums import cli, core, decode

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

METHODS = [
    (core.PendingSet, "insert_batch"),
    (core.PendingSet, "extract_min"),
    (core.EnumerationState, "advance"),
    (core.Combination, "to01"),
    (core.Combination, "to_bits"),
    (core.RankedChoice, "selection_str"),
]
FUNCTIONS = [
    (cli, "read_pairs"), (cli, "main"), (core, "normalize"), (core, "denormalize"),
    (decode, "decode_best"), (decode, "make_validator"),
]


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans").Tracer()


def test_tracer_finds_every_boundary_and_uninstall_restores(tracer):
    wrapped = {(owner, attr): vars(owner)[attr] for owner, attr in METHODS + FUNCTIONS}
    tracer.install()
    try:
        assert tracer.missing == set()
        for (owner, attr), original in wrapped.items():
            assert vars(owner)[attr] is not original, attr
    finally:
        tracer.uninstall()
    for (owner, attr), original in wrapped.items():
        assert vars(owner)[attr] is original, attr


@pytest.mark.parametrize("text", ["a,b\n1,2\n3,4\n5,6\n", '{"pairs": [[1, 2], [3, 4], [5, 6]]}'],
                         ids=["csv", "json"])
def test_traced_read_pairs_counts_its_rows(tracer, tmp_path, text):
    path = tmp_path / "pairs"
    path.write_text(text)
    tracer.install()
    try:
        cli.read_pairs(str(path))
    finally:
        tracer.uninstall()
    assert tracer.counters["rows"] == 3
    assert tracer.self_times()["read_pairs"][0] == 1


def reject_constant(name):
    raise ValueError(f"bare {name} in the result line")


WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


# every workload traced (each wraps its own layers), and one untraced run
# for the end-to-end names, which all workloads report alike
@pytest.mark.parametrize("workload,trace", [(w, 1) for w in WORKLOADS] + [(WORKLOADS[0], 0)])
def test_benchmark_run_ends_in_a_result_line(workload, trace):
    # json.dumps writes NaN and infinities bare, and a wrapped name that
    # disappears drops that layer's metrics from a traced run
    command = [sys.executable, *BENCHMARK["command"][1:]]
    proc = subprocess.run(
        [*command, "--workload", workload, "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=reject_constant)
    assert result["correct"] is True and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
