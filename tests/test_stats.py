import math

import numpy as np
import pytest
from scipy import special, stats as sps

from wrlab.stats import (
    EstimateWithError,
    batch_means,
    binomial_quantile,
    combined_sigma,
    lag1_autocorrelation,
    pool_independent,
    order_statistic_estimate,
    summarize_binomial,
    summarize_replicates,
    total_variation,
    wilson_interval,
)


def test_estimate_with_error_validation():
    with pytest.raises(ValueError):
        EstimateWithError(0.0, -1.0, 1, "wilson")
    with pytest.raises(ValueError):
        EstimateWithError(0.0, 0.0, 0, "wilson")
    with pytest.raises(ValueError):
        EstimateWithError(0.0, 0.0, 1, "magic")


def test_wilson_zero_successes_excludes_half():
    lo, hi = wilson_interval(0, 100, level=0.99)
    assert lo == 0.0
    assert hi < 0.5


def test_wilson_interval_bounds_and_symmetry():
    lo, hi = wilson_interval(50, 100, level=0.99)
    assert lo < 0.5 < hi
    assert abs((0.5 - lo) - (hi - 0.5)) < 1e-12
    with pytest.raises(ValueError):
        wilson_interval(5, 0)


def test_batch_means_constant_series_has_zero_stderr():
    est, lag1 = batch_means([2.5] * 160, 16)
    assert est.value == 2.5
    assert est.stderr == 0.0
    assert lag1 == 0.0


def test_batch_means_iid_normal_matches_root_n():
    rng = np.random.default_rng(1234)
    series = rng.standard_normal(10000)
    est, _ = batch_means(series, 64)
    target = 1.0 / math.sqrt(10000)
    assert abs(est.stderr - target) / target < 0.2


def test_batch_means_requires_enough_batches():
    with pytest.raises(ValueError):
        batch_means([1.0] * 100, 4)
    with pytest.raises(ValueError):
        batch_means([1.0] * 4, 8)


def test_lag1_autocorrelation_detects_trend():
    assert lag1_autocorrelation(np.arange(50.0)) > 0.8
    rng = np.random.default_rng(0)
    assert abs(lag1_autocorrelation(rng.standard_normal(4000))) < 0.1


def test_summarize_dispatch():
    wil = summarize_binomial(3, 10)
    assert wil.method == "wilson" and wil.n == 10 and wil.value == 0.3


def test_order_statistic_estimate_ranks_and_censoring():
    # n = 100, p = 0.5: the 50th value, and the binomial one-sigma ranks 45 and 56
    est = order_statistic_estimate(np.arange(100.0, 0.0, -1.0), 0.5)
    assert est.value == 50.0 and est.stderr == 0.5 * (56.0 - 45.0)
    assert est.method == "order-statistic" and est.n == 100
    censored = order_statistic_estimate([1.0] * 52 + [math.inf] * 48, 0.5)
    assert censored.value == 1.0 and censored.stderr == math.inf


def test_binomial_quantile_matches_scipy_stats_at_the_one_sigma_tails():
    # the ranks of the order-statistic interval, on a grid of n and p
    tail = float(special.ndtr(-1.0))
    assert tail == float(sps.norm.cdf(-1.0))
    ns = np.arange(1, 1001)
    for p in (1e-6, 0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.6, 0.75, 0.9, 0.99, 1 - 1e-6):
        for q in (tail, 1.0 - tail):
            expected = sps.binom.ppf(q, ns, p).astype(int).tolist()
            assert [binomial_quantile(q, int(n), p) for n in ns] == expected, (p, q)
    # exact ties P(X <= 0) = q, where the inverse in k lands just above 0
    ties = [(0.75, 1, 0.25), (0.25, 2, 0.5), (0.25, 1, 0.75)]
    assert [binomial_quantile(q, n, p) for q, n, p in ties] == [0, 0, 0]
    assert [int(sps.binom.ppf(q, n, p)) for q, n, p in ties] == [0, 0, 0]


def test_replicate_variance_matches_formula():
    values = [1.0, 3.0, 5.0, 7.0]
    est = summarize_replicates(values)
    assert est.value == 4.0
    assert abs(est.stderr - np.std(values, ddof=1) / 2.0) < 1e-12
    with pytest.raises(ValueError):
        summarize_replicates([1.0])


def test_pool_independent_mean_of_equal_blocks():
    a = EstimateWithError(1.0, 0.1, 50, "batch-means")
    b = EstimateWithError(3.0, 0.1, 50, "batch-means")
    pooled = pool_independent([a, b])
    assert pooled.value == 2.0
    assert pooled.method == "batch-means"
    assert abs(pooled.stderr - math.hypot(0.1, 0.1) / 2.0) < 1e-12


def test_combined_sigma():
    a = EstimateWithError(1.0, 0.1, 10, "batch-means")
    b = EstimateWithError(1.3, 0.0, 10, "batch-means")
    assert abs(combined_sigma(a, b) - 3.0) < 1e-9
    exact = EstimateWithError(2.0, 0.0, 1, "batch-means")
    assert combined_sigma(exact, exact) == 0.0


def test_total_variation_of_identical_and_disjoint():
    assert total_variation([0, 0, 1, 1], [1, 1, 0, 0]) == 0.0
    assert total_variation([0, 0, 0], [5, 5, 5]) == 1.0
