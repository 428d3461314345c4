"""Soft-decision recovery of a bit string from per-bit confidences.

Each bit position carries a confidence for value 0 and a confidence for
value 1; the sum of chosen confidences scores a candidate string. The
decoder walks candidates in decreasing score order (a MAX ranking over the
confidence pairs) and returns the first one accepted by a validator, so
the most plausible checksum-consistent string is found without scoring
all 2^N candidates.

Validators: NONE accepts everything (the argmax baseline), PARITY_EVEN
requires an even count of one-bits over the whole string, CRC8 requires
the CRC of the whole string to be zero: the last 8 bits (most-significant
first) carry the CRC of the leading message bits. CRC8 parameters are
fixed: polynomial 0x07, init 0x00, no reflection, xor-out 0x00 (check
value of "123456789" is 0xF4).

Cost model. An acceptor answers yes or no to each candidate, and only the
winner is mapped back to selection bits. Every Checksum kind is one GF(2)
syndrome table, checked in the hat domain: a candidate's syndrome is a
per-frame base syndrome XOR one table entry per set bit of its hat mask.
For CRC8 the entries are the CRC of each one-bit word, so a word's
syndrome is its CRC.
That costs O(N) once per frame and O(popcount) per candidate for every
kind (for parity that is up from the O(1) a popcount would give). A
callable validator sees every candidate's bit list, which costs O(N) per
candidate. Results are identical either way.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Optional, Sequence, Union

from .core import Combination, Direction, ProblemInstance, denormalize, init, normalize
from .core import _positive_count

CRC8_POLY = 0x07
# _CRC8_STEP[r]: register r after one shift with a zero bit fed in
_CRC8_STEP = [((r << 1) ^ (CRC8_POLY if r & 0x80 else 0)) & 0xFF for r in range(256)]

DEFAULT_MAX_CANDIDATES = 10**6


class Checksum(enum.Enum):
    NONE = "none"
    PARITY_EVEN = "parity"
    CRC8 = "crc8"


def crc8(bits: Iterable[int]) -> int:
    """CRC-8 over a bit sequence, first bit processed first (MSB-first).

    The register starts at 0 with no xor-out, which the zero-CRC check and
    ``crc8_syndromes`` rely on.
    """
    reg = 0
    for b in bits:
        reg = _CRC8_STEP[reg ^ ((b & 1) << 7)]
    return reg


def bytes_to_bits(data: bytes) -> list[int]:
    """Expand bytes to bits, most significant bit of each byte first."""
    return [(byte >> (7 - t)) & 1 for byte in data for t in range(8)]


def make_validator(kind: Union[Checksum, str], n: int) -> Callable[[Sequence[int]], bool]:
    """Predicate over candidate bit lists for a checksum kind or its value ("crc8").

    A CRC8 word is valid when the CRC of the word is zero. Raises ValueError
    for any other value, InvalidK when ``n`` is not an integer >= 1, and
    ValueError when the string shape cannot carry the checksum (CRC8 needs
    more message bits than the 8 checksum bits).
    """
    kind = Checksum(kind)
    n = _positive_count(n, "n")
    if kind is Checksum.NONE:
        return lambda bits: True
    if kind is Checksum.PARITY_EVEN:
        return lambda bits: sum(bits) % 2 == 0
    if n <= 8:  # Checksum.CRC8
        raise ValueError(f"CRC8 needs more than 8 bits, got N={n}")
    return lambda bits: crc8(bits) == 0


def crc8_syndromes(n: int) -> list[int]:
    """CRC-8 of each one-bit N-bit word; entry j has its only one at position j.

    The CRC of such a word is the register after the one is fed in, shifted
    through the zero bits that follow it. ``crc8`` starts at zero, so the CRC
    is linear over GF(2): a word's CRC is the XOR of its set bits' entries,
    and the word is valid when that XOR is zero.
    """
    if n <= 8:
        raise ValueError(f"CRC8 needs more than 8 bits, got N={n}")
    table = [0] * n
    reg = 0x80
    for j in range(n - 1, -1, -1):
        reg = _CRC8_STEP[reg]
        table[j] = reg
    return table


def _xor_over_bits(table: list[int], mask: int) -> int:
    """XOR of table[i] over the set bits i of mask, in O(popcount)."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out ^= table[low.bit_length() - 1]
    return out


def _hat_acceptor(kind: Checksum, instance: ProblemInstance) -> Callable[[int], bool]:
    """Per-frame yes/no test of hat-domain candidates, given as hat masks.

    Every kind is a GF(2) syndrome table over original positions (the CRC
    of each one-bit word for CRC-8, all ones for parity, all zeros for
    NONE); a word is valid when the XOR of its set bits' syndromes is zero.
    A selection is the hat mask moved back to original positions XOR
    ``flip_mask``, so the flip mask folds into a base syndrome and each hat
    bit contributes its original position's entry.
    """
    n = instance.n
    if kind is Checksum.CRC8:
        syndromes = crc8_syndromes(n)
    elif kind is Checksum.PARITY_EVEN:
        syndromes = [1] * n
    elif kind is Checksum.NONE:
        syndromes = [0] * n
    else:
        raise ValueError(f"unknown checksum kind: {kind!r}")
    table = [syndromes[j] for j in instance.perm.tolist()]
    base = _xor_over_bits(syndromes, instance.flip_mask)
    return lambda mask: _xor_over_bits(table, mask) == base


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of a candidate walk.

    ``rank`` is the candidate's 1-based position in decreasing-confidence
    order; ``candidates_tested`` counts every candidate tried including the
    accepted one (equal to rank on success).
    """

    found: bool
    bits: Optional[str]
    rank: Optional[int]
    confidence: Optional[float]
    candidates_tested: int


def decode_best(
    confidences: Sequence[Sequence[float]],
    checksum: Union[Checksum, Callable[[Sequence[int]], bool]] = Checksum.NONE,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> DecodeResult:
    """First validator-accepted bit string in decreasing-confidence order.

    ``confidences`` holds one (conf0, conf1) pair per position; candidate
    bit j selects which confidence contributes at position j. ``checksum``
    is a Checksum kind, its value (such as "crc8") or any predicate over
    candidate bit lists. Stops after ``max_candidates`` tries or when all
    2^N candidates are exhausted, reporting failure with the count tested;
    a budget that is not an integer >= 1 (numpy too, not bool) raises InvalidK.
    """
    budget = _positive_count(max_candidates, "max_candidates")
    instance = normalize(confidences, Direction.MAX)
    n = instance.n
    if callable(checksum):
        accept = lambda mask: checksum(denormalize(instance, Combination(n, mask)).to_bits())
    else:  # a kind or its value, such as "crc8"; an unknown value raises here
        accept = _hat_acceptor(Checksum(checksum), instance)
    for tested, (total, mask) in enumerate(islice(init(instance), budget), start=1):
        if accept(mask):
            return DecodeResult(
                found=True,
                bits=denormalize(instance, Combination(n, mask)).to01(),
                rank=tested,
                confidence=0.0 - total,  # exact, and +0.0 rather than -0.0
                candidates_tested=tested,
            )
    return DecodeResult(
        found=False, bits=None, rank=None, confidence=None, candidates_tested=tested
    )
