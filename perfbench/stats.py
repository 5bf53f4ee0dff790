"""Summary statistics shared by the runner and the load generator."""

from __future__ import annotations

import math
import statistics

#: Percentiles considered for a timing's tail, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _rank(percentile: float, count: int) -> int:
    """1-based nearest-rank position of ``percentile`` among ``count``."""
    # Rounding first keeps e.g. 90 % of 100 at rank 90, not 91.
    return max(1, math.ceil(round(percentile * count / 100.0, 6)))


def nearest_rank(sorted_values: list[float], percentile: float) -> float:
    """The nearest-rank percentile of already sorted values."""
    if not sorted_values:
        raise ValueError("no samples")
    return sorted_values[min(_rank(percentile, len(sorted_values)), len(sorted_values)) - 1]


def tail_percentile(count: int) -> float:
    """The highest candidate percentile with at least ten samples beyond it.

    With fewer than twenty samples not even the median qualifies; the
    median is returned anyway so a tiny sample still yields a number.
    """
    for percentile in TAIL_CANDIDATES:
        if count - _rank(percentile, count) >= 10:
            return percentile
    return 50.0


def summarize(values: list[float]) -> dict:
    """Median, the supported tail percentile and the sample count."""
    ordered = sorted(values)
    tail = tail_percentile(len(ordered))
    return {
        "n": len(ordered),
        "p50": nearest_rank(ordered, 50.0),
        "tail_percentile": tail,
        "tail": nearest_rank(ordered, tail),
    }


def backlog_growing(in_flight: list[int], cut_short: bool = False) -> bool:
    """Whether a phase's queue kept growing instead of settling.

    ``in_flight`` holds the number of unanswered requests sampled at
    each send, in send order.  A stable system settles at about rate x
    latency requests in flight; an overloaded one accumulates them, so
    the last quarter of the phase carries far more than the first.
    A phase the generator had to cut short is growing by definition.
    """
    if cut_short:
        return True
    if len(in_flight) < 8:
        return False
    quarter = len(in_flight) // 4
    first = statistics.fmean(in_flight[:quarter])
    last = statistics.fmean(in_flight[-quarter:])
    return last > 2.0 * first + 4.0
