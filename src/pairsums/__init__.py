"""Rank the 2^N choice-sums of N number pairs without enumerating them all."""

from .core import (
    Combination,
    Direction,
    EmptyInput,
    EnumerationState,
    IndexOutOfRange,
    InvalidK,
    LengthMismatch,
    NonFiniteInput,
    PaperFrontier,
    PendingSet,
    ProblemInstance,
    RankedChoice,
    denormalize,
    init,
    iter_top,
    normalize,
    shift,
    successors,
    top_k,
)
from .oracle import TooLarge, brute_force_top_k

__all__ = [
    "Combination",
    "Direction",
    "EmptyInput",
    "EnumerationState",
    "IndexOutOfRange",
    "InvalidK",
    "LengthMismatch",
    "NonFiniteInput",
    "PaperFrontier",
    "PendingSet",
    "ProblemInstance",
    "RankedChoice",
    "TooLarge",
    "brute_force_top_k",
    "denormalize",
    "init",
    "iter_top",
    "normalize",
    "shift",
    "successors",
    "top_k",
]

__version__ = "0.1.0"
