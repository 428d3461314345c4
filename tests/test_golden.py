"""Golden digests of the engine and the decoder on seeded inputs.

``tests/golden.json`` stores, for about 200 seeded enumeration instances,
SHA-256 prefixes of (a) the input pairs, (b) the hat mask and frontier
size after every step of ``EnumerationState`` iteration, and (c) the sums
``top_k`` returns, written as exact float hex. A decode block stores
(found, bits, rank, confidence hex, candidates tested) for seeded frames
under every ``Checksum`` kind. A refactor that changes emission order, a
tie, a sum's last bit or a decode result changes a digest.

pytest only reads the file. To regenerate it after a deliberate change of
behaviour, run this module as a script from the repository root::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import functools
import hashlib
import json
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from pairsums import Direction, init, normalize, top_k
from pairsums.decode import Checksum, crc8, decode_best

GOLDEN = Path(__file__).with_name("golden.json")
DIGEST_HEX = 32
INSTANCES = 200
FRAMES_PER_KIND = 300
DECODE_BUDGET_MAX = 600
DISTRIBUTIONS = ("uniform", "normal1e3", "int-3..3", "int0..1")


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else part)
        h.update(b"\n")
    return h.hexdigest()[:DIGEST_HEX]


def instance_spec(index: int) -> dict:
    rng = np.random.default_rng([2017, index])
    dist = DISTRIBUTIONS[index % len(DISTRIBUTIONS)]
    # one instance in five is small enough to exhaust all 2^N sums
    n = int(rng.integers(1, 13)) if index % 5 == 4 else int(rng.integers(1, 401))
    return {
        "index": index,
        "distribution": dist,
        "n": n,
        "k": int(rng.integers(1, 2001)),
        "direction": ("min", "max")[(index // len(DISTRIBUTIONS)) % 2],
    }


def instance_pairs(spec: dict) -> np.ndarray:
    rng = np.random.default_rng([2018, spec["index"]])
    shape = (spec["n"], 2)
    dist = spec["distribution"]
    if dist == "uniform":
        return rng.random(shape)
    if dist == "normal1e3":
        return rng.normal(size=shape) * 1e3
    lo, hi = (-3, 3) if dist == "int-3..3" else (0, 1)
    return rng.integers(lo, hi + 1, size=shape).astype(float)


def instance_digests(spec: dict) -> dict:
    pairs = instance_pairs(spec)
    direction = Direction(spec["direction"])
    state = init(normalize(pairs, direction))
    steps = (
        f"{mask:x} {state.pending_size()}"
        for _, mask in islice(state, spec["k"])
    )
    results = top_k(pairs, spec["k"], direction)
    return {
        "input": _digest([pairs.tobytes()]),
        "order": _digest(steps),
        "sums": _digest(r.sum.hex() for r in results),
        "count": len(results),
    }


def frame_conf(kind: Checksum, index: int) -> tuple[list[tuple[float, float]], int]:
    """Seeded confidences for one frame and its candidate budget.

    Two frames in three are a valid word sent over a noisy channel; the
    third has uniform confidences rounded to one decimal, so ties are
    common and the budget often runs out.
    """
    rng = np.random.default_rng([2019, list(Checksum).index(kind), index])
    n = int(rng.integers(9 if kind is Checksum.CRC8 else 1, 65))
    # every fourth frame may try one candidate only, so parity can miss too
    budget = int(rng.integers(1, DECODE_BUDGET_MAX + 1)) if index % 4 else 1
    if index % 3 == 2:
        conf = rng.random((n, 2)).round(1)
    else:
        bits = rng.integers(0, 2, size=n).tolist()
        if kind is Checksum.CRC8:
            check = crc8(bits[:-8])
            bits[-8:] = [(check >> (7 - t)) & 1 for t in range(8)]
        elif kind is Checksum.PARITY_EVEN:
            bits[-1] ^= sum(bits) & 1
        y = 1.0 - 2.0 * np.array(bits) + rng.normal(scale=0.8, size=n)
        conf = np.stack([y, -y], axis=1)
    return [tuple(row) for row in conf.tolist()], budget


def frame_record(kind: Checksum, index: int) -> list:
    conf, budget = frame_conf(kind, index)
    r = decode_best(conf, kind, budget)
    confidence = None if r.confidence is None else r.confidence.hex()
    return [r.found, r.bits, r.rank, confidence, r.candidates_tested]


def decode_digest(kind: Checksum) -> dict:
    records = [frame_record(kind, i) for i in range(FRAMES_PER_KIND)]
    return {
        "frames": len(records),
        "found": sum(rec[0] for rec in records),
        "digest": _digest(json.dumps(rec) for rec in records),
    }


def build() -> dict:
    return {
        "instances": [
            {**spec, **instance_digests(spec)}
            for spec in map(instance_spec, range(INSTANCES))
        ],
        "decode": {kind.value: decode_digest(kind) for kind in Checksum},
    }


@functools.cache
def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("index", range(INSTANCES))
def test_enumeration_matches_golden(index):
    spec = instance_spec(index)
    assert {**spec, **instance_digests(spec)} == _golden()["instances"][index]


@pytest.mark.parametrize("kind", list(Checksum), ids=lambda k: k.value)
def test_decode_matches_golden(kind):
    assert decode_digest(kind) == _golden()["decode"][kind.value]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(build(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
