"""Order statistics for benchmark samples.

Percentiles use the nearest-rank definition, so a reported percentile is
always one measured sample.  A tail percentile is reported only when at
least :data:`MIN_BEYOND` samples lie beyond it; with fewer samples the
highest percentile that satisfies the rule is reported instead, and the
caller records which one it was.
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND = 10


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), q) - 1]


def _rank(n: int, q: float) -> int:
    # The epsilon keeps q*n/100 from rounding up past an exact integer.
    return min(n, max(1, math.ceil(q * n / 100.0 - 1e-9)))


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the ``q``-th percentile."""
    return n - _rank(n, q)


def tail(samples, target: float) -> tuple[float, float]:
    """``(percentile_used, value)`` for a tail percentile under the rule.

    Uses ``target`` when at least :data:`MIN_BEYOND` samples lie beyond
    it, else the highest whole percentile that has them, and never less
    than the median.
    """
    n = len(samples)
    q = float(target)
    while q > 50.0 and beyond(n, q) < MIN_BEYOND:
        q = float(math.ceil(q) - 1)
    return q, percentile(samples, q)


def median(values) -> float:
    return statistics.median(values)


def iqm(values) -> float:
    """Interquartile mean: the mean of the middle half of ``values``.

    A workload that mixes operation classes of different cost has a
    latency distribution made of separate clusters, and its median sits
    wherever the cumulative share crosses one half, often at the edge
    between two clusters, where it jumps by the whole gap.  The mean of
    the middle half moves smoothly as the clusters move.
    """
    ordered = sorted(values)
    n = len(ordered)
    middle = ordered[n // 4 : n - n // 4]
    return sum(middle) / len(middle)


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
