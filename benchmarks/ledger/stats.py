"""Percentiles and run-to-run summaries.

Deliberately independent of ``repro``: the three percentile functions
under ``src/`` are on ROADMAP's merge list, and a change that claims a
gain may not have to edit the benchmark that measures it.
"""

from __future__ import annotations

import statistics


def percentile(ordered: list, p: float) -> float:
    """Linear-interpolated percentile of an already sorted list; 0.0
    when there are no samples (a layer that did nothing)."""
    if not ordered:
        return 0.0
    k = (len(ordered) - 1) * p
    low = int(k)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (k - low)


def summary(values: list) -> dict:
    """Median, quartiles and count of one metric over the repeats."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }
