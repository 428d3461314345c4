"""The benchmark's seeded workloads.

Each workload turns the seed into inputs, sends requests one at a time
from a single caller (a closed loop on one thread), and checks every
output outside the timed region. Inputs reach the library only as the
generated numbers or files; nothing else about the run is passed in.

A run repeats one round of units, fixed by the seed, until its time is
up. A unit is one engine instance, one pass over the CLI request cycle,
or one block of frames.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import sys
import time
import traceback
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import pairsums
from pairsums import Direction, cli, decode
from pairsums.oracle import brute_force_top_k

import checks

COMPANION_N = 16
COMPANION_K = 2000
SAMPLES_PER_STREAM = 33
FLOAT_REL_TOL = 1e-9


class Phase:
    """Timings, counts and check results of repeated rounds over one list of units."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self._request_name = tracer.intern("request") if tracer else None
        self.latencies = array("d")  # the unit being run
        self.round_s: list[float] = []  # timed seconds of each round
        self.unit_times: dict[int, list[float]] = {}
        self.unit_latencies: dict[int, np.ndarray] = {}  # fastest round of each request
        self.unit_work: dict[int, tuple[int, int]] = {}  # (requests, results)
        self.attempted = 0
        self.failed = 0
        self.stats = {"frames": 0, "found": 0, "correct": 0, "candidates": [],
                      "output_bytes": 0}

    def call(self, fn, *args):
        """One timed request; in a traced phase also one root span."""
        tracer = self.tracer
        if tracer is not None:
            tracer.request_id += 1
            idx = tracer.begin(self._request_name)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end(idx)

    @contextmanager
    def untraced(self):
        """Run the output checks with the layer wrappers removed."""
        if self.tracer is None:
            yield
            return
        self.tracer.uninstall()
        try:
            yield
        finally:
            self.tracer.install()

    def record(self, index: int, seconds: float, requests: int, results: int) -> None:
        self.unit_times.setdefault(index, []).append(seconds)
        # A running minimum keeps memory flat however many rounds a run holds.
        latencies = np.frombuffer(self.latencies)
        best = self.unit_latencies.get(index)
        self.unit_latencies[index] = (latencies.copy() if best is None
                                      else np.minimum(best, latencies))
        self.unit_work[index] = (requests, results)

    def best_of_rounds(self) -> tuple[float, int, int, np.ndarray]:
        """(seconds, requests, results, per-request latencies), each unit at its fastest.

        A unit's time is its fastest round; a request's latency is its
        fastest round. Other tenants of a shared machine only ever slow a
        round down, so the fastest of several rounds spread over the run is
        the steadiest estimate of the program's own cost.
        """
        units = sorted(self.unit_times)
        seconds = sum(min(self.unit_times[u]) for u in units)
        requests = sum(self.unit_work[u][0] for u in units)
        results = sum(self.unit_work[u][1] for u in units)
        latencies = np.concatenate([self.unit_latencies[u] for u in units])
        return seconds, requests, results, latencies


def run_rounds(workload, units: list, phase: Phase, seconds: float = float("inf"),
               between=None, max_rounds: int | None = None) -> Phase:
    """Closed loop: run, time and check every unit, round after round.

    Rounds repeat until another round would end past ``seconds`` (at least
    one round runs) or ``max_rounds`` is reached. The cyclic garbage
    collector is paused while a unit runs and a full collection runs
    between units: the loop keeps every result of a unit for its check, and
    collections of those objects would otherwise land in the timed region.
    ``between(elapsed_s)`` runs after each round, outside the timed region.
    """
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        timed = 0.0
        for index, unit in enumerate(units):
            requests = workload.requests(unit)
            phase.attempted += requests
            phase.latencies = array("d")
            gc.collect()
            gc.disable()
            t0 = time.perf_counter()
            try:
                out = workload.run(unit, phase)
            except Exception:
                gc.enable()
                traceback.print_exc(file=sys.stderr)
                phase.failed += requests
                continue
            elapsed = time.perf_counter() - t0
            gc.enable()
            timed += elapsed
            phase.record(index, elapsed, requests, workload.results(out))
            with phase.untraced():
                phase.failed += min(workload.check(unit, out, phase), requests)
        phase.round_s.append(timed)
        round_wall = time.perf_counter() - round_start
        if between is not None:
            between(time.perf_counter() - start)
        if len(phase.round_s) == max_rounds or time.perf_counter() - start + round_wall > seconds:
            return phase


def inputs_digest(workload, units: list) -> str:
    digest = hashlib.sha256()
    for unit in units:
        digest.update(workload.unit_bytes(unit))
    return digest.hexdigest()


def _rng(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, index])


def _sample_indices(count: int) -> list[int]:
    if count == 0:
        return []
    return sorted({round(i * (count - 1) / (SAMPLES_PER_STREAM - 1))
                   for i in range(SAMPLES_PER_STREAM)})


# -- engine ---------------------------------------------------------------


@dataclass
class EngineInstance:
    pairs: np.ndarray
    direction: Direction
    k: int


class EngineWorkload:
    """`iter_top` streamed to K results per instance over N = 1000 pairs.

    Uniform pairs never tie, so the frontier merge does most of the work;
    pairs of small integers tie on almost every comparison, so the lexical
    tie-break runs constantly. Tie instances alternate MIN and MAX.
    """

    N = 1000

    def __init__(self, seed: int, ties: bool):
        self.seed = seed
        self.ties = ties
        self.k = 6_000 if ties else 30_000
        self.instances = 6 if ties else 2
        self.tag = 2 if ties else 1
        self.rel_tol = 0.0 if ties else FLOAT_REL_TOL

    def pairs(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.ties:
            return rng.integers(0, 8, size=(n, 2)).astype(float)
        return rng.random((n, 2))

    def direction(self, index: int) -> Direction:
        return Direction.MAX if self.ties and index % 2 else Direction.MIN

    def prepare(self, workdir: Path) -> None:
        pass

    def units(self) -> list[EngineInstance]:
        return [EngineInstance(self.pairs(_rng(self.seed, self.tag, i), self.N),
                               self.direction(i), self.k)
                for i in range(self.instances)]

    def unit_bytes(self, unit: EngineInstance) -> bytes:
        return unit.pairs.tobytes() + f"{unit.direction.value}:{unit.k}".encode()

    def requests(self, unit: EngineInstance) -> int:
        return unit.k

    def results(self, out) -> int:
        return len(out)

    def run(self, unit: EngineInstance, phase: Phase):
        it = pairsums.iter_top(unit.pairs, unit.direction)
        return [phase.call(next, it) for _ in range(unit.k)]

    def check(self, unit: EngineInstance, out, phase: Phase) -> int:
        samples = [(out[i].sum, out[i].selection_str()) for i in _sample_indices(len(out))]
        return checks.count_ranked_failures(
            [r.sum for r in out],
            [r.selection.mask for r in out],
            unit.k,
            unit.direction is Direction.MAX,
            samples,
            unit.pairs,
            self.rel_tol,
        )

    def companion(self, workdir: Path) -> tuple[int, int]:
        """Small-N instances checked against the exhaustive oracle."""
        attempted = failed = 0
        directions = (Direction.MIN, Direction.MAX) if self.ties else (Direction.MIN,)
        for d in directions:
            pairs = self.pairs(_rng(self.seed, self.tag + 100, 0), COMPANION_N)
            got = [r.sum for r in itertools.islice(pairsums.iter_top(pairs, d), COMPANION_K)]
            want = [r.sum for r in brute_force_top_k(pairs, COMPANION_K, d)]
            attempted += COMPANION_K
            failed += checks.count_multiset_failures(got, want, self.rel_tol)
        return attempted, failed

    def probe_spec(self, workdir: Path) -> dict:
        pairs = self.pairs(_rng(self.seed, self.tag + 200, 0), self.N)
        return {"kind": "engine", "pairs": pairs.tolist(),
                "direction": self.direction(1).value, "k": 200}


# -- cli ------------------------------------------------------------------

# (N, k values, requests) for one pass over the CLI, which is the unit. The
# 100 requests rotate through the k values, the output formats and the
# two input files (CSV and JSON) of their N. By cost, the N >= 1e4
# requests are the top 5% and the ten N = 5e3 requests ranks 6 to 15, so
# the p90 tail sits inside that block; the median sits among the N = 2e3
# requests with k = 50. A pass stays short so a run holds about ten.
CLI_ROUND = (
    (40_000, (10,), 1),
    (20_000, (10,), 2),
    (10_000, (10,), 2),
    (5_000, (20,), 10),
    (2_000, (10, 20, 50, 200), 85),
)
OUTPUT_FORMATS = ("csv", "json", "table")
INPUT_FORMATS = ("csv", "json")


def write_pairs(path: Path, pairs: np.ndarray, fmt: str) -> None:
    rows = pairs.tolist()
    if fmt == "json":
        path.write_text(json.dumps({"pairs": rows}))
    else:
        path.write_text("a,b\n" + "".join(f"{a!r},{b!r}\n" for a, b in rows))


@dataclass
class CliRequest:
    pairs: np.ndarray
    k: int
    fmt: str
    argv: list


class CliWorkload:
    """In-process `pairsums topk` requests over pre-written input files.

    Selection formatting is quadratic in N per result, so large-N output
    dominates; enumeration is a small share.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.requests_list: list[CliRequest] = []
        self.files_digest = b""

    @staticmethod
    def _request(workdir: Path, name: str, pairs, src: Path, k: int, fmt: str) -> CliRequest:
        out = workdir / f"{name}.out.{fmt}"
        argv = ["topk", "--input", str(src), "--k", str(k), "--format", fmt,
                "--output", str(out)]
        return CliRequest(pairs, k, fmt, argv)

    def prepare(self, workdir: Path) -> None:
        digest = hashlib.sha256()
        for n, ks, count in CLI_ROUND:
            inputs = []
            for in_fmt in INPUT_FORMATS:
                pairs = _rng(self.seed, 3, n * 2 + len(inputs)).random((n, 2))
                src = workdir / f"pairs{n}.{in_fmt}"
                write_pairs(src, pairs, in_fmt)
                digest.update(src.read_bytes())
                inputs.append((pairs, src))
            for j in range(count):
                pairs, src = inputs[j % len(inputs)]
                i = len(self.requests_list)
                fmt = OUTPUT_FORMATS[i % len(OUTPUT_FORMATS)]
                self.requests_list.append(
                    self._request(workdir, f"req{i:03d}", pairs, src, ks[j % len(ks)], fmt))
        self.files_digest = digest.digest()

    def units(self) -> list[int]:
        return [0]

    def unit_bytes(self, unit) -> bytes:
        return self.files_digest

    def requests(self, unit) -> int:
        return len(self.requests_list)

    def results(self, out) -> int:
        return sum(req.k for req, rc in zip(self.requests_list, out) if rc == 0)

    def run(self, unit, phase: Phase):
        return [phase.call(cli.main, req.argv) for req in self.requests_list]

    @staticmethod
    def check_request(req: CliRequest, rc: int, phase: Phase) -> int:
        if rc != 0:
            return 1
        out = Path(req.argv[-1])
        text = out.read_text()
        phase.stats["output_bytes"] += out.stat().st_size
        rows = checks.parse_topk_output(text, req.fmt)
        idx = _sample_indices(len(rows))
        failed = checks.count_ranked_failures(
            [r[1] for r in rows],
            [r[2] for r in rows],
            req.k,
            False,
            [(rows[i][1], rows[i][2]) for i in idx],
            req.pairs,
            FLOAT_REL_TOL,
        )
        failed += sum(1 for i, r in enumerate(rows, start=1) if r[0] != i)
        return 1 if failed else 0

    def check(self, unit, out, phase: Phase) -> int:
        return sum(self.check_request(req, rc, phase) for req, rc in zip(self.requests_list, out))

    def companion(self, workdir: Path) -> tuple[int, int]:
        pairs = _rng(self.seed, 103, 0).random((COMPANION_N, 2))
        k = 200
        src = workdir / "companion.csv"
        write_pairs(src, pairs, "csv")
        req = self._request(workdir, "companion", pairs, src, k, "csv")
        rc = cli.main(req.argv)
        if rc != 0:
            return k, k
        rows = checks.parse_topk_output(Path(req.argv[-1]).read_text(), "csv")
        want = [r.sum for r in brute_force_top_k(pairs, k)]
        return k, checks.count_multiset_failures([r[1] for r in rows], want, FLOAT_REL_TOL)

    def probe_spec(self, workdir: Path) -> dict:
        pairs = _rng(self.seed, 203, 0).random((200, 2))
        src = workdir / "probe.csv"
        write_pairs(src, pairs, "csv")
        req = self._request(workdir, "probe", pairs, src, 10, "csv")
        return {"kind": "cli", "argv": req.argv}


# -- decode ---------------------------------------------------------------

FRAME_BITS = 256
MESSAGE_BITS = FRAME_BITS - 8
EBN0_DB = 4.0
BUDGET = 600
FRAMES_PER_UNIT = 64
BLOCKS = 8


@dataclass
class FrameBlock:
    sent: list  # transmitted bit strings
    confs: list  # (FRAME_BITS, 2) log-likelihood arrays


class DecodeWorkload:
    """CRC-8 frames sent as BPSK over AWGN, decoded by `decode_best`.

    Each frame is one short MAX enumeration; the budget is set so a few
    frames per hundred exhaust it and take the not-found path.
    """

    def __init__(self, seed: int):
        self.seed = seed

    @staticmethod
    def frames(rng: np.random.Generator, count: int, ebn0_db: float = EBN0_DB):
        """(transmitted bit strings, per-bit log-likelihood pairs) for count frames."""
        sigma2 = FRAME_BITS / (2.0 * MESSAGE_BITS * 10.0 ** (ebn0_db / 10.0))
        messages = rng.integers(0, 2, size=(count, MESSAGE_BITS))
        noise = rng.standard_normal((count, FRAME_BITS)) * sigma2 ** 0.5
        sent, confs = [], []
        for msg, z in zip(messages.tolist(), noise):
            crc = decode.crc8(msg)
            bits = msg + [(crc >> (7 - t)) & 1 for t in range(8)]
            y = 1.0 - 2.0 * np.asarray(bits, dtype=float) + z
            conf = np.column_stack((-((y - 1.0) ** 2), -((y + 1.0) ** 2))) / (2.0 * sigma2)
            sent.append("".join(map(str, bits)))
            confs.append(conf)
        return sent, confs

    def prepare(self, workdir: Path) -> None:
        pass

    def units(self) -> list[FrameBlock]:
        return [FrameBlock(*self.frames(_rng(self.seed, 4, i), FRAMES_PER_UNIT))
                for i in range(BLOCKS)]

    def unit_bytes(self, unit: FrameBlock) -> bytes:
        return b"".join(c.tobytes() for c in unit.confs)

    def requests(self, unit: FrameBlock) -> int:
        return len(unit.confs)

    def results(self, out) -> int:
        return sum(r.candidates_tested for r in out)

    def run(self, unit: FrameBlock, phase: Phase):
        return [phase.call(decode.decode_best, conf, decode.Checksum.CRC8, BUDGET)
                for conf in unit.confs]

    def check(self, unit: FrameBlock, out, phase: Phase) -> int:
        stats = phase.stats
        failed = 0
        for sent, conf, result in zip(unit.sent, unit.confs, out):
            stats["frames"] += 1
            stats["found"] += result.found
            stats["correct"] += result.bits == sent
            stats["candidates"].append(result.candidates_tested)
            failed += not checks.decode_ok(conf, result, BUDGET, decode.crc8)
        return failed

    def companion(self, workdir: Path) -> tuple[int, int]:
        return 0, 0

    def probe_spec(self, workdir: Path) -> dict:
        # A clean frame, so the warm-up costs the same whatever the seed.
        sent, confs = self.frames(_rng(self.seed, 204, 0), 1, ebn0_db=12.0)
        return {"kind": "decode", "conf": confs[0].tolist(), "budget": BUDGET}


def make(name: str, seed: int):
    if name == "engine-uniform":
        return EngineWorkload(seed, ties=False)
    if name == "engine-ties":
        return EngineWorkload(seed, ties=True)
    if name == "cli-topk":
        return CliWorkload(seed)
    if name == "decode-crc8":
        return DecodeWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")
