"""Order statistics with the benchmark's support rule.

A tail percentile is reported only when at least :data:`MIN_BEYOND`
samples lie beyond it; the median is always reported, with its sample
count.  "Beyond" is counted by rank, so tied values do not change it:
with ``n`` samples, percentile ``q`` sits at (interpolated) index
``q/100 · (n − 1)`` and every sample at a later index lies beyond it.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

import numpy as np

MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """Samples ranked after percentile ``q`` of ``n`` samples."""
    if n <= 0:
        return 0
    return n - 1 - math.floor(q / 100.0 * (n - 1))


def tail_percentile(samples: Sequence[float], q: float) -> float | None:
    """Percentile ``q`` of ``samples``, or ``None`` without enough support."""
    if samples_beyond(len(samples), q) < MIN_BEYOND:
        return None
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def median(samples: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    return float(np.median(np.asarray(samples, dtype=np.float64)))


def spread(values: Sequence[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 − q1) / median)`` as the acceptance check takes them.

    Quartiles come from :func:`statistics.quantiles` with ``n=4`` (its
    default exclusive method); the relative spread is 0 for a zero median.
    """
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    rel = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, rel
