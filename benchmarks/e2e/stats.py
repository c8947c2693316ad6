"""Sample statistics the benchmark reports.

Every timed quantity is sampled many times inside one run.  An
end-to-end metric is the *median* of its samples, each already divided
by the machine's speed around it (``harness.Machine``).  The layer
ladder's rungs, timed in raw seconds within one minute, report the
*lower quartile*: interference only ever adds time, yet the quartile
still needs a quarter of the samples to be that fast.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: a percentile is reported only with this many samples beyond it
MIN_SAMPLES_BEYOND = 10


def quartiles(samples: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them.

    One sample is its own quartiles (``quantiles`` needs two).
    """
    if not samples:
        raise ValueError("no samples")
    if len(samples) == 1:
        return (samples[0],) * 3
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def lower_quartile(samples: Sequence[float]) -> float:
    return quartiles(samples)[0]


def summarize(samples: Sequence[float]) -> dict:
    """What the detail JSON keeps about one sampled quantity."""
    q1, q2, q3 = quartiles(samples)
    return {"n": len(samples), "q1": q1, "median": q2, "q3": q3,
            "iqr": q3 - q1, "min": min(samples), "max": max(samples)}


def percentile(samples: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0 < p < 100), nearest-rank.

    Refuses a percentile with fewer than :data:`MIN_SAMPLES_BEYOND`
    samples beyond it: such a tail is a handful of outliers, not a
    percentile.
    """
    if not 0.0 < p < 100.0:
        raise ValueError("percentile must be strictly between 0 and 100")
    n = len(samples)
    rank = math.ceil(n * p / 100.0)          # 1-based nearest rank
    if n - rank < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{p:g} of {n} samples has {n - rank} samples beyond it, "
            f"need >= {MIN_SAMPLES_BEYOND}")
    return sorted(samples)[rank - 1]


def highest_supported_percentile(n: int) -> Optional[float]:
    """The highest of p50/p90/p99/p99.9 that ``n`` samples support."""
    supported = None
    for p in (50.0, 90.0, 99.0, 99.9):
        if n - math.ceil(n * p / 100.0) >= MIN_SAMPLES_BEYOND:
            supported = p
    return supported


def spread(values: Sequence[float]) -> float:
    """IQR as a share of the median: the run-to-run spread of a metric."""
    q1, q2, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / q2 if q2 else math.inf
