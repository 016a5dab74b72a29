"""Order statistics shared by the benchmark run and its compare mode."""

from __future__ import annotations

import math
import statistics


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them;
    a single value is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def tail(values, beyond: int = 10) -> dict:
    """The highest whole percentile that has at least ``beyond`` samples above it.

    Percentiles use the nearest-rank rule: the p-th percentile of n sorted
    samples is the one at rank ceil(p * n / 100).  With fewer than
    2 * ``beyond`` samples that percentile would lie at or below the
    median, so the median is reported instead.  The percentile used and
    the number of samples above the value are returned beside it.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of an empty sample")
    pct = (100 * (n - beyond)) // n if n > beyond else 0
    if pct <= 50:
        value = median(xs)
        return {"value": value, "percentile": 50, "samples": n, "beyond": sum(x > value for x in xs)}
    rank = math.ceil(pct * n / 100)
    return {"value": xs[rank - 1], "percentile": pct, "samples": n, "beyond": n - rank}
