"""Estimate cells and error estimators shared by all experiment pipelines.

Four estimators cover every result in the package: Wilson intervals for
binomial proportions, batch means for single-chain functionals, the plain
replicate variance for i.i.d. replicates, and order statistics for quantiles
of i.i.d. replicates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

METHODS = ("batch-means", "replicate-variance", "wilson", "order-statistic")


@dataclass(frozen=True)
class EstimateWithError:
    """A Monte Carlo estimate with its standard error and sample size."""

    value: float
    stderr: float
    n: int
    method: str

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError(f"stderr must be >= 0, got {self.stderr}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")


def wilson_interval(successes: int, trials: int, level: float = 0.99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    from scipy import special

    z = float(special.ndtri(0.5 + level / 2.0))
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def summarize_binomial(successes: int, trials: int) -> EstimateWithError:
    p = successes / trials
    se = math.sqrt(p * (1.0 - p) / trials)
    return EstimateWithError(p, se, trials, "wilson")


def lag1_autocorrelation(series) -> float:
    x = np.asarray(series, dtype=float)
    if x.size < 2:
        return 0.0
    x = x - x.mean()
    denom = float(np.dot(x, x))
    if denom == 0.0:
        return 0.0
    return float(np.dot(x[:-1], x[1:]) / denom)


def batch_means(series, batch_count: int) -> tuple[EstimateWithError, float]:
    """Batch-means estimate for a correlated chain functional.

    Returns the estimate and the lag-1 autocorrelation of the batch series;
    a value above 0.5 means the batches are too short to trust the stderr.
    """
    x = np.asarray(series, dtype=float)
    if batch_count < 8:
        raise ValueError("batch_count must be >= 8")
    if x.size < batch_count:
        raise ValueError(f"need at least {batch_count} samples, got {x.size}")
    usable = (x.size // batch_count) * batch_count
    batches = x[:usable].reshape(batch_count, -1).mean(axis=1)
    se = float(batches.std(ddof=1) / math.sqrt(batch_count))
    est = EstimateWithError(float(x[:usable].mean()), se, int(x.size), "batch-means")
    return est, lag1_autocorrelation(batches)


def summarize_replicates(values) -> EstimateWithError:
    """Mean and stderr over independent replicate values."""
    x = np.asarray(values, dtype=float)
    if x.size < 2:
        raise ValueError("replicate variance needs n >= 2")
    se = float(x.std(ddof=1) / math.sqrt(x.size))
    return EstimateWithError(float(x.mean()), se, int(x.size), "replicate-variance")


def binomial_quantile(q: float, n: int, p: float) -> int:
    """Smallest k with P(Binomial(n, p) <= k) >= q, for 0 < q < 1: the value of
    ``scipy.stats.binom.ppf`` from ``scipy.special`` alone, which is imported
    on the first call, so a process that never needs a quantile loads no
    scipy.  At exact ties (q = 0.5, p = 0.5, n odd) their cdf codes may round
    apart by one."""
    from scipy import special

    v = math.ceil(special.bdtrik(q, n, p))
    below = max(v - 1, 0)
    return below if special.bdtr(below, n, p) >= q else v


def order_statistic_estimate(values, p: float) -> EstimateWithError:
    """Empirical ``p``-quantile of i.i.d. values, with a distribution-free error.

    The estimate is the ceil(n p)-th smallest value.  The stderr is half the
    width of the order-statistic interval [X_(r), X_(s)], whose binomial ranks
    cover the true quantile with probability at least 68.27% (one normal
    sigma); it is inf when X_(s) is.
    """
    from scipy import special

    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    tail = float(special.ndtr(-1.0))
    k = min(max(math.ceil(n * p), 1), n) - 1
    lo = max(binomial_quantile(tail, n, p), 1) - 1
    hi = min(binomial_quantile(1.0 - tail, n, p) + 1, n) - 1
    half = 0.5 * float(x[hi] - x[lo]) if np.isfinite(x[hi]) else math.inf
    return EstimateWithError(float(x[k]), half, n, "order-statistic")


def pool_replicates(values, stderrs=None) -> EstimateWithError:
    """Replicate variance over two or more independent replicate values.

    A single replicate keeps its own error: its batch-means ``stderrs[0]``
    when given, otherwise 0 (one draw carries no spread estimate).
    """
    if len(values) >= 2:
        return summarize_replicates(values)
    if stderrs is not None:
        return EstimateWithError(float(values[0]), float(stderrs[0]), 1, "batch-means")
    return EstimateWithError(float(values[0]), 0.0, 1, "replicate-variance")


def pool_independent(estimates: list[EstimateWithError]) -> EstimateWithError:
    """Pool batch-means estimates from independent chains (equal weights).

    The pooled stderr combines the per-chain batch-means errors, so the
    result is labelled "batch-means" whatever the number of chains.
    """
    if not estimates:
        raise ValueError("nothing to pool")
    if len(estimates) == 1:
        return estimates[0]
    values = [e.value for e in estimates]
    r = len(values)
    se = math.sqrt(sum(e.stderr**2 for e in estimates)) / r
    n = sum(e.n for e in estimates)
    return EstimateWithError(float(np.mean(values)), se, n, "batch-means")


def combined_sigma(a: EstimateWithError, b: EstimateWithError) -> float:
    """|a - b| in units of the combined standard error (inf when both exact)."""
    se = math.hypot(a.stderr, b.stderr)
    diff = abs(a.value - b.value)
    if se == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / se


def total_variation(counts_a, counts_b) -> float:
    """TV distance between two empirical count histograms."""
    a = np.asarray(counts_a, dtype=np.int64)
    b = np.asarray(counts_b, dtype=np.int64)
    top = int(max(a.max(initial=0), b.max(initial=0)))
    pa = np.bincount(a, minlength=top + 1) / max(1, a.size)
    pb = np.bincount(b, minlength=top + 1) / max(1, b.size)
    return 0.5 * float(np.abs(pa - pb).sum())
