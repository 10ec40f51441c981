"""The tail rule for latency percentiles.

The tail of a latency distribution is reported at the highest percentile
of a fixed ladder that still has at least ten samples ranked above it, so
that the figure rests on more than a handful of slow operations and stays
comparable between runs whose sample counts differ a little.
"""

from __future__ import annotations

# Percentiles in tenths of a percent, highest first.
TAIL_LADDER_PERMILLE = (999, 990, 950, 900, 750, 500)
TAIL_MIN_BEYOND = 10


def nearest_rank(sorted_values, permille: int) -> tuple[float, int]:
    """Nearest-rank percentile of ascending values: (value, 1-based rank)."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("no samples")
    rank = max(1, -(-permille * n // 1000))  # ceil without float rounding
    return sorted_values[rank - 1], rank


def tail_percentile(values):
    """Highest ladder percentile with at least ten samples beyond it.

    Returns (percentile, value, samples beyond, sample count), or None
    when even the median has fewer than ten samples above it.
    """
    xs = sorted(values)
    if not xs:
        return None
    for permille in TAIL_LADDER_PERMILLE:
        value, rank = nearest_rank(xs, permille)
        beyond = len(xs) - rank
        if beyond >= TAIL_MIN_BEYOND:
            return permille / 10.0, value, beyond, len(xs)
    return None
