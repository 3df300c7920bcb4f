"""Order statistics for the benchmark's samples."""

import math
import statistics

# candidate tail percentiles, lowest first
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)
TAIL_MIN_BEYOND = 10


def percentile(ordered, p):
    """Linear interpolation between closest ranks of a sorted list."""
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summary(values):
    """min, quartiles, max and count; quartiles as statistics.quantiles
    gives them (a single sample is its own quartiles)."""
    ordered = sorted(values)
    if len(ordered) > 1:
        q1, q2, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q2 = q3 = ordered[0]
    return {"min": ordered[0], "p25": q1, "median": q2, "p75": q3,
            "max": ordered[-1], "n": len(ordered)}


def tail(values):
    """The highest ladder percentile with at least TAIL_MIN_BEYOND samples
    above it (the median when there are too few samples for any)."""
    ordered = sorted(values)
    n = len(ordered)
    chosen = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        # tolerance for 100 - 99.9 not being exactly 0.1 in binary
        if n * (100.0 - p) >= TAIL_MIN_BEYOND * 100.0 - 1e-6:
            chosen = p
    return {"value": percentile(ordered, chosen), "percentile": chosen,
            "n": n, "beyond": n - math.ceil(n * chosen / 100.0)}


def geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))
