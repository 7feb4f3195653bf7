"""Order statistics every timing in the benchmark is reported with."""

from __future__ import annotations

import statistics


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` exactly as the contract's spread rule takes them."""
    values = [float(v) for v in values]
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(values) -> dict:
    """Median, quartiles, minimum and sample count of ``values``."""
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3,
            "min": float(min(values)), "n": len(values)}
