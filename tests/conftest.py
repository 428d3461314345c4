import operator

import hypothesis
from hypothesis import strategies as st

from pairsums.core import Combination, LengthMismatch

hypothesis.settings.register_profile(
    "default", max_examples=100, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("default")

finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6
)


def pair_lists(max_n: int = 12, elements=finite):
    return st.lists(st.tuples(elements, elements), min_size=1, max_size=max_n)


def int_pair_lists(max_n: int = 12, min_n: int = 1):
    ints = st.integers(min_value=-100, max_value=100)
    return st.lists(st.tuples(ints, ints), min_size=min_n, max_size=max_n)


def bit_lists(max_n: int = 64):
    return st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=max_n)


# Test-local references: from-scratch definitions the tests check the
# package against. None of them is part of the package.


def from_bits(bits) -> Combination:
    """Combination from a sequence of 0/1 values, position 1 first."""
    mask = 0
    for j, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError("bits must be 0 or 1")
        mask |= operator.index(b) << j
    return Combination(len(bits), mask)


def score(instance, combo: Combination) -> float:
    """Sum of combo from scratch: s1 plus delta over set bits."""
    if combo.n != instance.n:
        raise LengthMismatch(f"combination has {combo.n} bits, instance has {instance.n}")
    total = instance.s1
    m = combo.mask
    while m:
        low = m & -m
        m ^= low
        total += instance.delta[low.bit_length() - 1]
    return float(total)


def bytes_to_bits(data: bytes) -> list[int]:
    """Expand bytes to bits, most significant bit of each byte first."""
    return [(byte >> (7 - t)) & 1 for byte in data for t in range(8)]
