"""Summary statistics for repeated timings, always with their sample count."""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

#: Percentiles considered for a sample's reported tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Middle value (mean of the two middle values for an even count)."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _rank(count: int, q: float) -> int:
    # Rounded first so that e.g. 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(q * count / 100.0, 9)))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile: the smallest value with at least
    ``q`` percent of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    return float(sorted(values)[_rank(len(values), q) - 1])


def beyond(count: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q``-th percentile."""
    return count - _rank(count, q)


def tail_percentile(count: int) -> Optional[float]:
    """Highest ladder percentile with at least :data:`MIN_BEYOND` samples
    beyond it, or ``None`` when the sample is too small for any."""
    for q in TAIL_LADDER:
        if beyond(count, q) >= MIN_BEYOND:
            return q
    return None


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, the highest well-supported tail percentile, and ``n``."""
    q = tail_percentile(len(values))
    return {
        "median": median(values),
        "tail_q": q,
        "tail": percentile(values, q) if q is not None else None,
        "n": len(values),
    }

