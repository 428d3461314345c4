"""The benchmark's tracer must still find every layer boundary in the package.

``perfbench/spans.py`` rebinds names such as ``PendingSet.insert_batch``;
a name the package stops defining is skipped silently and its per-layer
metrics vanish from traced runs. This test fails instead.
"""

import importlib
from pathlib import Path

from pairsums import core

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_finds_every_boundary_and_uninstall_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    wrapped = {
        (core.PendingSet, "insert_batch"): core.PendingSet.__dict__["insert_batch"],
        (core.PendingSet, "extract_min"): core.PendingSet.__dict__["extract_min"],
        (core.EnumerationState, "advance"): core.EnumerationState.__dict__["advance"],
    }
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == set()
        for (cls, attr), original in wrapped.items():
            assert cls.__dict__[attr] is not original
    finally:
        tracer.uninstall()
    for (cls, attr), original in wrapped.items():
        assert cls.__dict__[attr] is original
