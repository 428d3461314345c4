"""Latency summaries shared by every workload."""

from __future__ import annotations

from typing import Sequence

import numpy as np

# Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.999, 99.99, 99.9, 99.0, 90.0, 50.0)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least 10 of n samples beyond it."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p
    return 50.0


def latency_summary(latencies_s: Sequence[float]) -> dict:
    """p50 and tail latency in milliseconds, with the tail's percentile and count."""
    values = np.asarray(latencies_s, dtype=float)
    tail_p = tail_percentile(len(values))
    return {
        "latency_p50_ms": float(np.percentile(values, 50.0)) * 1e3,
        "latency_tail_ms": float(np.percentile(values, tail_p)) * 1e3,
        "latency_tail_percentile": tail_p,
        "latency_samples": len(values),
    }
