"""Small statistics and reporting helpers shared by the workloads."""

from __future__ import annotations

import math
import resource
import sys


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def pct_or_zero(values, q: float) -> float:
    """:func:`percentile`, reading 0 for an empty sample (per-layer only)."""
    return percentile(values, q) if values else 0.0


def median(values) -> float:
    """The 50th percentile."""
    return percentile(values, 50)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, reading 0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


def table(title: str, rows, out=sys.stdout) -> None:
    """Print ``(name, value, unit)`` rows under a heading."""
    print(title, file=out)
    for name, value, unit in rows:
        shown = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"  {name:36s} {shown:>14s} {unit}", file=out)
