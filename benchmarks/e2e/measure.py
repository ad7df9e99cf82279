"""Small statistics shared by the workloads and the compare tool."""

from __future__ import annotations

import statistics


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1]) of ``values``."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` the way the acceptance rule takes them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3
