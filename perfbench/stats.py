"""Summaries of repeated measurements."""

import statistics

# candidate upper percentiles, highest first
UPPER_PERCENTILES = (99.9, 99.0, 90.0)


def median(values):
    return statistics.median(values)


def percentile(values, p):
    """Linear-interpolated p-th percentile (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def upper_percentile(values):
    """The highest candidate percentile with at least ten samples beyond
    it, as (p, value); None when there are too few samples for any."""
    n = len(values)
    for p in UPPER_PERCENTILES:
        if n * (100.0 - p) >= 1000.0 - 1e-6:
            return p, percentile(values, p)
    return None


def summary(values):
    """Median, upper percentile and sample count of one timing."""
    out = {"n": len(values), "median": median(values)}
    upper = upper_percentile(values)
    if upper is not None:
        out["p%g" % upper[0]] = upper[1]
    return out
