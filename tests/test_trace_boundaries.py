"""The benchmark's tracer must still find every layer boundary in the package.

``perfbench/spans.py`` rebinds names such as ``PendingSet.insert_batch``
and ``cli.read_pairs``; a name the package stops defining is skipped
silently and its per-layer metrics vanish from traced runs. This test
fails instead.
"""

import importlib
from pathlib import Path

import pytest

from pairsums import cli, core, decode

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

METHODS = [
    (core.PendingSet, "insert_batch"),
    (core.PendingSet, "extract_min"),
    (core.EnumerationState, "advance"),
]
FUNCTIONS = [(cli, "read_pairs"), (cli, "main"), (core, "normalize"), (decode, "decode_best")]


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
