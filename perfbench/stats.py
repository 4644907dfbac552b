"""Summaries of timing samples: median, sample count and the reportable tail."""

from __future__ import annotations

import math
import statistics

TAIL_CANDIDATES = (50.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def samples_beyond(n: int, pct: float) -> int:
    """Samples ranked above the nearest-rank ``pct`` percentile of ``n``."""
    return n - math.ceil(n * pct / 100.0)


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with at least ten samples beyond it."""
    ok = [p for p in TAIL_CANDIDATES if samples_beyond(n, p) >= MIN_BEYOND]
    return max(ok) if ok else None


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(len(ordered) * pct / 100.0), 1) - 1]


def describe(values: list[float]) -> str:
    """``p50=… n=… tail=…`` for a timing, naming the tail it can support."""
    n = len(values)
    tail = tail_percentile(n)
    text = f"p50={statistics.median(values):.4f} n={n}"
    if tail is None or tail == 50.0:
        return text + " tail=none (fewer than 10 samples beyond p90)"
    return text + f" p{tail:g}={percentile(values, tail):.4f}"
