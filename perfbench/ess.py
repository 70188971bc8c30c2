"""Effective sample size of a stationary series.

Geyer's initial positive sequence estimator (Geyer, "Practical Markov chain
Monte Carlo", Statistical Science 7, 1992), with the initial monotone
correction.  It is written here, not taken from ``wrlab.stats``, so that a
change to the program's own diagnostics cannot move the benchmark's yardstick.
"""
from __future__ import annotations

import numpy as np


def autocovariance(series) -> np.ndarray:
    """Biased autocovariance at every lag, by FFT (zero-padded, so not circular)."""
    x = np.asarray(series, dtype=float)
    x = x - x.mean()
    n = len(x)
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(x, size)
    return np.fft.irfft(spectrum * np.conj(spectrum), size)[:n] / n


def integrated_autocorrelation_time(series) -> float:
    """tau = 1 + 2 * sum of autocorrelations, truncated by Geyer's rule.

    The pair sums Gamma_m = rho(2m) + rho(2m+1) are positive and decreasing
    for a reversible chain; the sum stops before the first non-positive pair
    and each pair is capped by the one before it.  Returns ``nan`` for a
    series shorter than four or with zero variance, and for a strongly
    alternating one whose truncated sum is not positive.
    """
    x = np.asarray(series, dtype=float)
    if len(x) < 4:
        return float("nan")
    acov = autocovariance(x)
    if acov[0] <= 0.0:
        return float("nan")
    rho = acov / acov[0]
    pairs = len(rho) // 2
    gamma = rho[0 : 2 * pairs : 2] + rho[1 : 2 * pairs : 2]
    total = 0.0
    previous = np.inf
    for g in gamma:
        if g <= 0.0:
            break
        previous = min(previous, g)
        total += previous
    tau = 2.0 * total - 1.0
    return tau if tau > 0.0 else float("nan")


def effective_sample_size(series) -> float:
    """len(series) / tau; zero where tau is undefined (no usable information)."""
    tau = integrated_autocorrelation_time(series)
    if not np.isfinite(tau):
        return 0.0
    return len(series) / tau
