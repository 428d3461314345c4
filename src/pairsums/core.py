"""Best-first enumeration of pair-choice sums.

Given N pairs of reals, one number must be chosen from each pair; the 2^N
possible choice combinations are ranked by the sum of the chosen numbers.
This module emits combinations in non-decreasing sum order without touching
all 2^N of them.

Setup: for each pair, the smaller element goes into v0 and the larger into
v1, and the gaps delta = v1 - v0 (all >= 0) are sorted ascending by a
recorded permutation. In this sorted "hat" domain the all-zeros bit vector
(always pick the smaller element) is the global minimum, and the sum of any
combination c is s1 + sum of delta[i] over set bits i, with s1 = sum(v0).

Successor moves: a single shift either sets bit 1 (position of the smallest
gap) or moves a set bit from position i-1 to position i. Because delta is
ascending, shifts never decrease the sum, so best-first search over the
shift graph, seeded with the all-zeros vector, emits combinations in sum
order. The frontier ("pending set") pops (sum, key, mask) entries in tuple
order, and the ``bytes`` key breaks sum ties by lexicographic bits (see
``_lex_key``). Two frontiers pop in that same order:

- ``PendingSet``, the default, is a binary heap: each pop and each push
  costs O(log |P|), so K results cost O(K log K) frontier work. Every
  serving path (``top_k``, ``iter_top``, ``decode_best``, the CLI) walks it.
- ``PaperFrontier`` is the paper's sorted list: each step pops its head
  and merges the fresh successors into the whole list, O(|P|) per step and
  so O(K^2) for K results. ``bench.run_bench`` (and ``pairsums bench``)
  walks it to reproduce the paper's scaling curve.

Bit packing convention, used everywhere in this package: position j
(1-based) of a combination lives at integer bit j-1, so the all-zeros
vector is mask 0 and masks stay small while only low positions are
touched. Lexicographic comparisons read position 1 first.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
import operator
import sys
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import islice
from typing import Iterator, Optional, Sequence

import numpy as np

PairList = Sequence[Sequence[float]]


class Direction(enum.Enum):
    """Whether the smallest or the largest sums come first."""

    MIN = "min"
    MAX = "max"


class NonFiniteInput(ValueError):
    """Input contains NaN, an infinity, or an integer too large for a float."""

    def __init__(self, message: str = "pairs must be finite (no NaN, no infinities)"):
        super().__init__(message)


class EmptyInput(ValueError):
    """No pairs supplied."""


class LengthMismatch(ValueError):
    """Combination length does not match the instance size."""


class InvalidK(ValueError):
    """A count (k or a candidate budget) must be a positive integer."""


class IndexOutOfRange(IndexError):
    """Shift index outside 1..N."""


@dataclass(frozen=True, slots=True, repr=False)
class Combination:
    """Immutable N-bit choice vector; assigning to ``n`` or ``mask`` raises.

    Equality and hashing are over bit content (and length) only. Lengths,
    masks and positions may be numpy integers; floats raise TypeError.
    """

    n: int
    mask: int = 0

    def __post_init__(self):
        n = operator.index(self.n)
        mask = operator.index(self.mask)
        if n < 1:
            raise ValueError("combination length must be >= 1")
        if mask < 0 or mask.bit_length() > n:
            raise ValueError("mask does not fit in %d bits" % n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "Combination":
        """Build from a sequence of 0/1 values, position 1 first."""
        mask = 0
        for j, b in enumerate(bits):
            if b not in (0, 1):
                raise ValueError("bits must be 0 or 1")
            mask |= operator.index(b) << j
        return cls(len(bits), mask)

    def bit(self, i: int) -> int:
        """Value at 1-based position i."""
        i = operator.index(i)
        if not 1 <= i <= self.n:
            raise IndexOutOfRange(f"position {i} outside 1..{self.n}")
        return (self.mask >> (i - 1)) & 1

    def to_bits(self) -> list[int]:
        """Bit values, position 1 first; O(N) via one byte conversion."""
        raw = np.frombuffer(self.mask.to_bytes((self.n + 7) // 8, "little"), np.uint8)
        return np.unpackbits(raw, bitorder="little")[: self.n].tolist()

    def to01(self) -> str:
        """Bits as a '0'/'1' string, position 1 first; O(N) via ``bin``."""
        return bin(self.mask)[2:].zfill(self.n)[::-1]

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"Combination({self.to01()!r})"


# byte b with its bit order reversed: bit 0 becomes bit 7
_BIT_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _lex_key(mask: int) -> bytes:
    """Tie key: ``bytes`` that compare (in C) like ``mask`` read from position 1.

    Byte i holds positions 8i+1..8i+8, position 8i+1 most significant; the
    length is minimal (mask 0 gives b""), so a key's proper prefix belongs
    to a smaller mask.
    """
    return mask.to_bytes((mask.bit_length() + 7) >> 3, "little").translate(_BIT_REVERSED)


def lex_less(a: Combination, b: Combination) -> bool:
    """True if a precedes b lexicographically (position 1 most significant)."""
    return _lex_key(a.mask) < _lex_key(b.mask)


Entry = tuple[float, bytes, int]  # a frontier entry: (sum, _lex_key(mask), mask)


@dataclass(frozen=True)
class ProblemInstance:
    """Normalized problem, immutable after construction.

    ``delta`` holds the gaps in ascending order and ``perm[i]`` is the
    0-based original pair index stored at sorted position i (both are
    read-only numpy arrays). ``flip_mask`` packs, per original pair j at
    bit j-1, whether the pair arrived with its larger element first (after
    the direction transform). ``s1`` is the sum of the smaller elements.
    For direction MAX all values were negated up front, so sums computed
    here are negated sums of the original data.
    """

    delta: np.ndarray
    perm: np.ndarray
    flip_mask: int
    s1: float

    @property
    def n(self) -> int:
        return len(self.delta)

    @functools.cached_property
    def _selection_base(self) -> bytes:
        """``flip_mask`` as ASCII '0'/'1', position 1 first: hat mask 0's selection.

        Built on first use, so instances that never format a selection
        (the engine alone, most of ``decode_best``) never pay for it.
        """
        return bin(self.flip_mask)[2:].zfill(self.n)[::-1].encode("ascii")


def _positive_count(value, name: str) -> int:
    """An integer >= 1 (numpy's too, not bool) as an int; anything else raises InvalidK."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 1:
        raise InvalidK(f"{name} must be a positive integer, got {value!r}")
    return min(int(value), sys.maxsize)  # islice's cap; no enumeration gets that far


def _pairs_array(pairs: PairList) -> np.ndarray:
    """Pairs as a finite (N, 2) float array, N >= 1; ``normalize`` lists the errors."""
    try:
        arr = np.asarray(pairs, dtype=float)
    except OverflowError:
        raise NonFiniteInput() from None
    except (TypeError, ValueError) as exc:  # an iterator, a dict, ragged rows, strings
        raise ValueError(f"pairs do not convert to a float array: {exc}") from None
    if arr.size == 0:
        raise EmptyInput("need at least one pair")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected shape (N, 2), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteInput()
    return arr


def normalize(pairs: PairList, direction: Direction = Direction.MIN) -> ProblemInstance:
    """Turn raw pairs into a sorted-gap problem instance.

    ``direction`` may also be its value, "min" or "max". Applies the
    direction transform first (MAX negates every value), then
    orders each pair componentwise (recording flips), then stable-sorts the
    gaps ascending (recording the permutation).

    Raises NonFiniteInput on NaN, infinity or an integer too large for a
    float, and also when a gap, the sum of the smaller elements' magnitudes
    or the sum of the larger elements' magnitudes overflows. Those bounds
    do not depend on input order, and every one of the 2^N sums lies
    within them, so every sum is finite. Raises EmptyInput on zero pairs.
    """
    arr = _pairs_array(pairs)
    if Direction(direction) is Direction.MAX:
        arr = -arr

    flipped = arr[:, 0] > arr[:, 1]
    v0 = np.where(flipped, arr[:, 1], arr[:, 0])
    v1 = np.where(flipped, arr[:, 0], arr[:, 1])
    with np.errstate(over="ignore"):  # reported by the raise below instead
        gaps = v1 - v0
        s1 = float(v0.sum())
        # sums of magnitudes bound every partial sum whatever the order
        bounds = (np.abs(v0).sum(), np.abs(v1).sum(), gaps.max())
    if not all(map(math.isfinite, bounds)):
        raise NonFiniteInput("pair gaps or sums overflow the float range")
    perm = np.argsort(gaps, kind="stable")
    delta = gaps[perm]
    flip_mask = int.from_bytes(
        np.packbits(flipped, bitorder="little").tobytes(), "little"
    )
    delta.setflags(write=False)
    perm.setflags(write=False)
    return ProblemInstance(delta=delta, perm=perm, flip_mask=flip_mask, s1=s1)


def score(instance: ProblemInstance, combo: Combination) -> float:
    """Sum of combo from scratch: s1 plus delta over set bits."""
    if combo.n != instance.n:
        raise LengthMismatch(f"combination has {combo.n} bits, instance has {instance.n}")
    total = instance.s1
    delta = instance.delta
    m = combo.mask
    while m:
        low = m & -m
        m ^= low
        total += delta[low.bit_length() - 1]
    return float(total)


def shift(combo: Combination, i: int) -> Combination:
    """Apply the single-shift move at position i.

    i = 1 sets position 1; i > 1 moves a one from position i-1 to i when
    position i-1 holds a one and position i a zero; otherwise the input is
    returned unchanged. Never mutates.
    """
    n = combo.n
    i = operator.index(i)
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"shift index {i} outside 1..{n}")
    m = combo.mask
    if i == 1:
        new = m | 1
    else:
        lo = 1 << (i - 2)
        hi = lo << 1
        if m & lo and not m & hi:
            new = m ^ (lo | hi)
        else:
            new = m
    return combo if new == m else Combination(n, new)


def _child_moves(mask: int, n: int) -> Iterator[tuple[int, int]]:
    """Yield (child_mask, k) for every single shift that alters ``mask``.

    k is the 0-based landing bit: k = 0 means position 1 was set (apply
    delta[0]); k >= 1 means a one moved from bit k-1 to bit k (apply
    delta[k] - delta[k-1]). Children are pairwise distinct by construction:
    each consumes a different landing bit.
    """
    if not mask & 1:
        yield mask | 1, 0
    pattern = (mask << 1) & ~mask
    while pattern:
        low = pattern & -pattern
        pattern ^= low
        k = low.bit_length() - 1
        if k >= n:
            break
        yield mask ^ (low | (low >> 1)), k


def successors(combo: Combination) -> list[Combination]:
    """All combinations one shift away from combo, excluding combo itself.

    Pairwise distinct; at most ceil(N/2) of them.
    """
    n = combo.n
    return [Combination(n, m) for m, _ in _child_moves(combo.mask, n)]


class PendingSet:
    """Serving frontier: a binary heap of (sum, key, mask) entries.

    Extract-min pops the entry with the smallest sum, ties to the
    lex-smallest mask, exactly as ``PaperFrontier`` does, and each insert
    pushes one entry; both cost O(log len(pending)). Callers offer each mask
    at most once (in an enumeration, ``EnumerationState.seen`` guarantees
    it), so no duplicate check runs here.
    """

    __slots__ = ("_entries",)

    def __init__(self):
        self._entries: list[Entry] = []

    def __len__(self) -> int:
        return len(self._entries)

    def extract_min(self) -> Optional[Entry]:
        """Pop the entry with the smallest sum, ties to the lex-smallest mask."""
        return heappop(self._entries) if self._entries else None

    def insert_batch(self, batch: list[Entry]) -> None:
        """Push each new entry; ``batch`` is left as it is."""
        entries = self._entries
        for entry in batch:
            heappush(entries, entry)


class PaperFrontier:
    """The paper's frontier: (sum, key, mask) entries in one ascending list.

    Extract-min pops the head, and each batch of new entries is sorted and
    merged into the whole list in one pass, so a step costs
    O(len(pending) + b log b) and K results cost O(K^2). Kept as the
    reproduction baseline that ``bench.run_bench`` walks; it pops in the
    same order as ``PendingSet`` and, like it, runs no duplicate check.
    The benchmark tracer wraps ``PendingSet`` only, so this class is never
    traced.
    """

    __slots__ = ("_entries",)

    def __init__(self):
        self._entries: list[Entry] = []

    def __len__(self) -> int:
        return len(self._entries)

    def extract_min(self) -> Optional[Entry]:
        """Pop the entry with the smallest sum, ties to the lex-smallest mask."""
        return self._entries.pop(0) if self._entries else None

    def insert_batch(self, batch: list[Entry]) -> None:
        """Merge new entries in; sorts ``batch`` in place."""
        batch.sort()
        old = self._entries
        merged: list[Entry] = []
        lo = 0
        for entry in batch:
            pos = bisect_left(old, entry, lo)
            merged += old[lo:pos]
            merged.append(entry)
            lo = pos
        merged += old[lo:]
        self._entries = merged


class EnumerationState:
    """Mutable iterator state: pending frontier, seen masks, emit counter.

    ``frontier`` is the frontier class, ``PendingSet`` (a heap) unless the
    caller reproduces the paper's O(K^2) curve with ``PaperFrontier``; both
    emit the same combinations in the same order.

    ``seen`` spans everything ever generated (emitted plus pending), which
    keeps already-ranked combinations out of the frontier even when sums
    tie or two parents generate the same child. Single-owner: do not call
    advance concurrently on one state.
    """

    __slots__ = ("instance", "pending", "seen", "emitted_count", "_delta")

    def __init__(self, instance: ProblemInstance, frontier: type = PendingSet):
        self.instance = instance
        self.pending = frontier()
        self.seen: set[int] = {0}
        self.emitted_count = 0
        # O(1) view of the gaps, no copy; indexing it yields Python floats
        self._delta = memoryview(instance.delta)
        self.pending.insert_batch([(instance.s1, _lex_key(0), 0)])

    def advance(self) -> Optional[tuple[float, int]]:
        """Emit the next ``(sum, hat mask)`` in sum order, or None when exhausted.

        Extract-min, then generate all unseen successors with incrementally
        computed sums and insert them into the frontier. The sum is on the
        instance's scale (negated for MAX); no ``Combination`` is built.
        """
        entry = self.pending.extract_min()
        if entry is None:
            return None
        total, _, mask = entry
        n = self.instance.n
        seen = self.seen
        delta = self._delta
        batch = []
        for child, k in _child_moves(mask, n):
            if child not in seen:
                seen.add(child)
                # the sum increment for landing bit k (see _child_moves)
                step = delta[k] - delta[k - 1] if k else delta[0]
                batch.append((total + step, _lex_key(child), child))
        if batch:
            self.pending.insert_batch(batch)
        self.emitted_count += 1
        return total, mask

    def pending_size(self) -> int:
        return len(self.pending)

    def __iter__(self) -> Iterator[tuple[float, int]]:
        """Call ``advance`` until it returns None.

        The iterator shares this state: each item is one ``advance`` call,
        so ``pending_size`` and ``emitted_count`` stay in step with it.
        """
        return iter(self.advance, None)


def init(instance: ProblemInstance, frontier: type = PendingSet) -> EnumerationState:
    """Fresh enumeration state: pending holds only the all-zeros vector."""
    return EnumerationState(instance, frontier)


def _selection_bytes(instance: ProblemInstance, hat_mask: int) -> bytearray:
    """Selection of a hat mask as ASCII '0'/'1' bytes, position 1 first.

    Hat bit i stands for original pair ``perm[i]``, so each set bit flips
    that one byte of a copy of the instance's base (the selection of mask
    0): one C copy of N bytes plus O(popcount) Python steps.
    """
    out = bytearray(instance._selection_base)
    perm = memoryview(instance.perm)  # indexing yields Python ints, no numpy scalars
    m = hat_mask
    while m:
        low = m & -m
        m ^= low
        out[perm[low.bit_length() - 1]] ^= 1  # b"0" <-> b"1"
    return out


def denormalize(instance: ProblemInstance, combo: Combination) -> Combination:
    """Map a hat-domain combination to user-facing selection bits.

    Selection bit j = 1 means the second element of input pair j is chosen.
    Undoes the gap-sort permutation on a copy of the flip mask, which
    converts the smaller/larger indicator into first/second indexing (see
    ``_selection_bytes``, which ``RankedChoice.selection_str`` shares).
    Direction needs no step here: negation affects sums only.
    """
    if combo.n != instance.n:
        raise LengthMismatch(f"combination has {combo.n} bits, instance has {instance.n}")
    selection = _selection_bytes(instance, combo.mask)
    selection.reverse()  # position 1 becomes the low bit
    return Combination(instance.n, int(selection, 2))


class RankedChoice:
    """One emitted result: 1-based rank, sum, and selection bits.

    Sums are reported on the original scale (un-negated for MAX). A result
    from the enumerator keeps only its hat mask and computes the selection
    on every access without storing it, so a list of results holds O(K)
    data at any N and untouched selections cost nothing. Every result of
    one instance shares that instance's N-byte selection base, so
    ``selection_str`` costs one N-byte copy and one step per set hat bit.
    """

    __slots__ = ("rank", "sum", "_selection", "_instance", "_hat_mask")

    def __init__(
        self,
        rank: int,
        sum: float,
        selection: Optional[Combination] = None,
        instance: Optional[ProblemInstance] = None,
        hat_mask: Optional[int] = None,
    ):
        if selection is None and (instance is None or hat_mask is None):
            raise ValueError("need either selection or (instance, hat_mask)")
        self.rank = rank
        self.sum = sum
        self._selection = selection
        self._instance = instance
        self._hat_mask = hat_mask

    @property
    def selection(self) -> Combination:
        if self._selection is not None:
            return self._selection
        inst = self._instance
        return denormalize(inst, Combination(inst.n, self._hat_mask))

    def selection_bits(self) -> list[int]:
        return self.selection.to_bits()

    def selection_str(self) -> str:
        if self._selection is not None:
            return self._selection.to01()
        return _selection_bytes(self._instance, self._hat_mask).decode("ascii")

    def __repr__(self) -> str:
        return f"RankedChoice(rank={self.rank}, sum={self.sum!r})"


def iter_top(
    pairs: PairList, direction: Direction = Direction.MIN
) -> Iterator[RankedChoice]:
    """Stream RankedChoice results best-first; bad input raises at the call."""
    direction = Direction(direction)
    instance = normalize(pairs, direction)
    negated = direction is Direction.MAX  # 0.0 - total is exact and never -0.0
    return (
        RankedChoice(rank, 0.0 - total if negated else total, instance=instance, hat_mask=mask)
        for rank, (total, mask) in enumerate(init(instance), start=1)
    )


def top_k(
    pairs: PairList, k: int, direction: Direction = Direction.MIN
) -> list[RankedChoice]:
    """The k best choice combinations, rank 1 first.

    Sums come out non-decreasing for MIN and non-increasing for MAX. If k
    exceeds 2^N the full enumeration (all 2^N results) is returned.
    """
    k = _positive_count(k, "k")  # before iter_top, so a bad k is reported first
    return list(islice(iter_top(pairs, direction), k))
