"""Soft-decision recovery of a bit string from per-bit confidences.

Each bit position carries a confidence for value 0 and a confidence for
value 1; the sum of chosen confidences scores a candidate string. The
decoder walks candidates in decreasing score order (a MAX ranking over the
confidence pairs) and returns the first one accepted by a validator, so
the most plausible checksum-consistent string is found without scoring
all 2^N candidates.

Validators: NONE accepts everything (the argmax baseline), PARITY_EVEN
requires an even count of one-bits over the whole string, CRC8 requires
the last 8 bits (most-significant first) to equal the CRC of the leading
message bits. CRC8 parameters are fixed: polynomial 0x07, init 0x00, no
reflection, xor-out 0x00 (check value of "123456789" is 0xF4).

Cost model. A Checksum kind is checked in the hat domain: both checks are
linear over GF(2), so a candidate's syndrome is a per-frame base syndrome
XOR one table entry per set bit of its hat mask. That costs O(N) once per
frame and O(popcount) per candidate, and only the accepted candidate is
mapped back to selection bits. A callable validator sees every candidate's
bit list, which costs O(N) per candidate. Results are identical either way.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

from .core import Combination, Direction, ProblemInstance, denormalize, init, normalize

CRC8_POLY = 0x07
CRC8_INIT = 0x00

DEFAULT_MAX_CANDIDATES = 10**6


class Checksum(enum.Enum):
    NONE = "none"
    PARITY_EVEN = "parity"
    CRC8 = "crc8"


def crc8(bits: Iterable[int]) -> int:
    """CRC-8 over a bit sequence, first bit processed first (MSB-first)."""
    reg = CRC8_INIT
    for b in bits:
        reg ^= (b & 1) << 7
        if reg & 0x80:
            reg = ((reg << 1) ^ CRC8_POLY) & 0xFF
        else:
            reg = (reg << 1) & 0xFF
    return reg


def bytes_to_bits(data: bytes) -> list[int]:
    """Expand bytes to bits, most significant bit of each byte first."""
    return [(byte >> (7 - t)) & 1 for byte in data for t in range(8)]


def make_validator(kind: Checksum, n: int) -> Callable[[Sequence[int]], bool]:
    """Predicate over candidate bit lists for the given checksum kind.

    Raises ValueError when the string shape cannot carry the checksum
    (CRC8 needs more message bits than the 8 checksum bits).
    """
    if n < 1:
        raise ValueError("need at least one bit")
    if kind is Checksum.NONE:
        return lambda bits: True
    if kind is Checksum.PARITY_EVEN:
        return lambda bits: sum(bits) % 2 == 0
    if kind is Checksum.CRC8:
        if n <= 8:
            raise ValueError(f"CRC8 needs more than 8 bits, got N={n}")

        def crc_ok(bits: Sequence[int]) -> bool:
            stored = 0
            for b in bits[-8:]:
                stored = (stored << 1) | (b & 1)
            return crc8(bits[:-8]) == stored

        return crc_ok
    raise ValueError(f"unknown checksum kind: {kind!r}")


def crc8_syndromes(n: int) -> list[int]:
    """Syndrome ``crc8(message) ^ stored`` of each single-bit N-bit word.

    Entry j belongs to the word whose only one sits at 0-based position j.
    A message bit's syndrome is its CRC: the register after the bit is
    set, shifted through the zero bits that follow it. A stored bit's
    syndrome is its own weight in the stored byte.
    """
    if n <= 8:
        raise ValueError(f"CRC8 needs more than 8 bits, got N={n}")
    table = [0] * n
    reg = 0x80
    for j in range(n - 9, -1, -1):
        if reg & 0x80:
            reg = ((reg << 1) ^ CRC8_POLY) & 0xFF
        else:
            reg = (reg << 1) & 0xFF
        table[j] = reg
    for t in range(8):
        table[n - 8 + t] = 0x80 >> t
    return table


def _xor_over_bits(table: list[int], mask: int) -> int:
    """XOR of table[i] over the set bits i of mask, in O(popcount)."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out ^= table[low.bit_length() - 1]
    return out


def _hat_acceptor(
    kind: Checksum, instance: ProblemInstance
) -> Callable[[int], Optional[Combination]]:
    """Per-frame test of hat masks: selection bits if accepted, else None.

    The selection is ``denormalize(hat) ^ flip_mask`` and both checks are
    linear, so the flip mask folds into a base syndrome and each hat bit
    contributes its original position's syndrome.
    """
    n = instance.n
    make_validator(kind, n)  # the one place that rejects unknown kinds and bad N

    def accept(mask: int) -> Combination:
        return denormalize(instance, Combination(n, mask))

    if kind is Checksum.NONE:
        return accept
    if kind is Checksum.PARITY_EVEN:
        base = instance.flip_mask.bit_count()
        return lambda mask: None if (base + mask.bit_count()) & 1 else accept(mask)
    syndromes = crc8_syndromes(n)
    table = [syndromes[j] for j in instance.perm.tolist()]
    base = _xor_over_bits(syndromes, instance.flip_mask)

    def crc_accept(mask: int) -> Optional[Combination]:
        return None if _xor_over_bits(table, mask) != base else accept(mask)

    return crc_accept


def _callable_acceptor(
    validator: Callable[[Sequence[int]], bool], instance: ProblemInstance
) -> Callable[[int], Optional[Combination]]:
    """Map every candidate to selection bits and ask the validator."""
    n = instance.n

    def accept(mask: int) -> Optional[Combination]:
        selection = denormalize(instance, Combination(n, mask))
        return selection if validator(selection.to_bits()) else None

    return accept


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
    is a Checksum kind or any predicate over candidate bit lists. Stops
    after ``max_candidates`` tries or when all 2^N candidates are
    exhausted, reporting failure with the count tested.
    """
    if max_candidates < 1:
        raise ValueError("max_candidates must be >= 1")
    instance = normalize(confidences, Direction.MAX)
    if isinstance(checksum, Checksum):
        accept = _hat_acceptor(checksum, instance)
    else:
        accept = _callable_acceptor(checksum, instance)
    state = init(instance)
    tested = 0
    while tested < max_candidates:
        emitted = state.advance()
        if emitted is None:
            break
        tested += 1
        selection = accept(emitted.combo.mask)
        if selection is not None:
            return DecodeResult(
                found=True,
                bits=selection.to01(),
                rank=tested,
                confidence=-emitted.sum,
                candidates_tested=tested,
            )
    return DecodeResult(
        found=False, bits=None, rank=None, confidence=None, candidates_tested=tested
    )
