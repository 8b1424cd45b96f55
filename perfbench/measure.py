"""Statistics, row checking and resource readings shared by every
workload."""

from __future__ import annotations

import math
import resource
import statistics

__all__ = [
    "TAIL_BEYOND",
    "geomean",
    "median",
    "peak_rss_mb",
    "rows_match",
    "tail",
]

# The tail percentile is the highest one with at least this many
# samples beyond it.
TAIL_BEYOND = 10


def median(values) -> float:
    return statistics.median(values)


def tail(values) -> tuple[float, float, int]:
    """``(value, percentile, samples)`` of the highest percentile that
    leaves at least :data:`TAIL_BEYOND` samples above it.

    The value is the ``TAIL_BEYOND + 1``-th largest sample, so exactly
    ``TAIL_BEYOND`` samples lie beyond it; the percentile is the share of
    samples at or below that rank. Raises when there are too few samples
    to leave that many out.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples for a tail, got {n}")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def geomean(values) -> float:
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if isinstance(a, (int, float)) and isinstance(b, (int, float)):
            return math.isclose(a, b, rel_tol=1e-6, abs_tol=1e-6)
        return False
    return a == b


def _key(row) -> tuple:
    # Floats are rounded for ordering only, so that two float sums which
    # differ in the last digits still sort to the same position.
    return tuple(
        (0, round(v, 4)) if isinstance(v, float) else (1, str(v)) for v in row
    )


def rows_match(expected, actual) -> bool:
    """Order-insensitive row equality, floats within the 1e-6 relative
    noise that reordered partial sums introduce."""
    if len(expected) != len(actual):
        return False
    for want, got in zip(sorted(expected, key=_key), sorted(actual, key=_key)):
        if len(want) != len(got) or not all(map(_close, want, got)):
            return False
    return True


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports
    ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
