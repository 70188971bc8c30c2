"""The ESS estimator against AR(1) series, whose integrated autocorrelation
time (1 + phi) / (1 - phi) is known in closed form."""
import numpy as np
import pytest

from ess import effective_sample_size, integrated_autocorrelation_time


def ar1(phi: float, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = noise[0] / np.sqrt(1.0 - phi * phi)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + noise[t]
    return x


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.8, 0.95])
def test_ar1_autocorrelation_time(phi):
    n = 200_000
    expected = (1.0 + phi) / (1.0 - phi)
    tau = integrated_autocorrelation_time(ar1(phi, n, seed=int(100 * phi)))
    # the estimator's relative error is O(sqrt(window / n)); 10% is several SE
    assert tau == pytest.approx(expected, rel=0.10)


def test_ess_is_length_over_tau():
    x = ar1(0.5, 50_000, seed=3)
    assert effective_sample_size(x) == pytest.approx(len(x) / integrated_autocorrelation_time(x))


def test_degenerate_series_carry_no_information():
    assert effective_sample_size([2.0] * 100) == 0.0
    assert effective_sample_size([1.0, 2.0]) == 0.0
