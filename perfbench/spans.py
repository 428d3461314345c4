"""In-memory span tracing around pairsums' layer boundaries.

The tracer wraps public names from outside the package: it rebinds a
class attribute or a module attribute (and every alias of the same
function object in the package's modules, such as the names ``decode``
and ``cli`` import from ``core``) to a wrapper that records one span per
call. A span is (name, start, end, parent, request id); spans live in
flat arrays and are written out once, at the end of the run.

A name the package no longer defines is skipped and reported in
``missing``, so its metrics come out absent rather than zero.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Callable

import numpy as np

# Span name -> layer whose self time it counts toward.
LAYER_OF = {
    "request": "bench.request",
    "normalize": "core.normalize",
    "advance": "core.advance",
    "insert_batch": "core.frontier.insert",
    "extract_min": "core.frontier.extract",
    "denormalize": "core.selection",
    "to01": "core.selection",
    "to_bits": "core.selection",
    "selection_str": "core.selection",
    "validator": "decode.validator",
    "decode_best": "decode",
    "read_pairs": "cli.read_pairs",
    "main": "cli.main",
}
SELECTION_SPANS = ("denormalize", "to01", "to_bits", "selection_str")


class Tracer:
    """Records nested spans and the counters measured at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_ids = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.requests = array("l")
        self.request_id = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()
        self.counters = {
            "offered": 0,
            "accepted": 0,
            "peak_pending": 0,
            "seen_final": 0,
            "rows": 0,
            "bits_out": 0,
            "selection_calls": 0,
        }
        self._last_state = None

    # -- recording ---------------------------------------------------------

    def intern(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def begin(self, name_id: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1])
        self.requests.append(self.request_id)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        """Wrap fn so each call records a span; hook(args, result) adds counters."""
        name_id = self.intern(name)
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(idx)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def in_selection(self) -> bool:
        top = self._stack[-1]
        return top >= 0 and self.names[self.name_ids[top]] in SELECTION_SPANS

    # -- installing wrappers -----------------------------------------------

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap_method(self, cls, attr: str, name: str, make=None) -> None:
        fn = cls.__dict__.get(attr)
        if fn is None:
            self.missing.add(name)
            return
        wrapper = make(fn) if make else self.span(name, fn)
        self._rebind(cls, attr, wrapper)

    def wrap_function(self, modules, home, attr: str, name: str, make=None) -> None:
        """Rebind home.attr and every alias of the same object in modules."""
        fn = getattr(home, attr, None)
        if fn is None:
            self.missing.add(name)
            return
        wrapper = make(fn) if make else self.span(name, fn)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    self._rebind(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self) -> None:
        """Wrap every layer boundary of the pairsums package."""
        import pairsums
        from pairsums import cli, core, decode

        modules = [pairsums, core, decode, cli]
        counters = self.counters

        def selection_hook(args, result):
            if not self.in_selection():
                counters["selection_calls"] += 1
                counters["bits_out"] += _selection_width(result)

        def selection_span(name):
            return lambda fn: self.span(name, fn, selection_hook)

        def insert_span(fn):
            name_id = self.intern("insert_batch")
            begin, end = self.begin, self.end

            @functools.wraps(fn)
            def insert_batch(pending, batch):
                before = len(pending)
                idx = begin(name_id)
                try:
                    return fn(pending, batch)
                finally:
                    end(idx)
                    size = len(pending)
                    counters["offered"] += len(batch)
                    counters["accepted"] += size - before
                    if size > counters["peak_pending"]:
                        counters["peak_pending"] = size

            return insert_batch

        def advance_hook(args, result):
            state = args[0]
            if state is not self._last_state:
                self._flush_state()
                self._last_state = state

        def rows_hook(args, result):
            counters["rows"] += len(result)

        def validator_factory(fn):
            @functools.wraps(fn)
            def make_validator(*args, **kwargs):
                return self.span("validator", fn(*args, **kwargs))

            return make_validator

        self.wrap_function(modules, core, "normalize", "normalize")
        self.wrap_method(core.EnumerationState, "advance", "advance",
                         lambda fn: self.span("advance", fn, advance_hook))
        self.wrap_method(core.PendingSet, "insert_batch", "insert_batch", insert_span)
        self.wrap_method(core.PendingSet, "extract_min", "extract_min")
        self.wrap_function(modules, core, "denormalize", "denormalize",
                           selection_span("denormalize"))
        self.wrap_method(core.Combination, "to01", "to01", selection_span("to01"))
        self.wrap_method(core.Combination, "to_bits", "to_bits", selection_span("to_bits"))
        self.wrap_method(core.RankedChoice, "selection_str", "selection_str",
                         selection_span("selection_str"))
        self.wrap_function(modules, decode, "make_validator", "validator", validator_factory)
        self.wrap_function(modules, decode, "decode_best", "decode_best")
        self.wrap_function(modules, cli, "read_pairs", "read_pairs",
                           lambda fn: self.span("read_pairs", fn, rows_hook))
        self.wrap_function(modules, cli, "main", "main")

    def _flush_state(self) -> None:
        state = self._last_state
        if state is not None:
            seen = len(state.seen)
            if seen > self.counters["seen_final"]:
                self.counters["seen_final"] = seen
        self._last_state = None

    def finish(self) -> None:
        """Record the last enumeration's final state; call after the traced phase."""
        self._flush_state()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.int8),
            "start": np.frombuffer(self.starts, dtype=np.float64),
            "end": np.frombuffer(self.ends, dtype=np.float64),
            "parent": np.frombuffer(self.parents, dtype=np.int64),
            "request": np.frombuffer(self.requests, dtype=np.int64),
        }

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds), self = duration minus direct children."""
        return span_self_times(self.names, self.arrays())

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def span_self_times(names, spans: dict[str, np.ndarray]) -> dict[str, tuple[int, float]]:
    name_id = spans["name_id"]
    duration = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child_time = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    own = duration - child_time
    calls = np.bincount(name_id, minlength=len(names))
    self_s = np.bincount(name_id, weights=own, minlength=len(names))
    return {name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(names)}


def _selection_width(result) -> int:
    """Bits one selection-layer call produced (N of the combination it handled)."""
    if isinstance(result, (str, list)):
        return len(result)
    return result.n
