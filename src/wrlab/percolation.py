"""Finite-size percolation proxies over any environment.

"Percolates" is not decidable in a finite window; the proxies are side-to-side
crossing of the Boolean model and reach from a target box to the boundary,
scanned over window sizes.  Scans use coupled thinning: one Poisson draw at
the top activity per replicate, thinned down to every smaller activity with
shared uniforms, so each replicate's indicators are exactly monotone in z.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    Configuration,
    ConnectivityParams,
    Window,
    build_components,
    has_crossing,
)
from .intensity import IntensityModel, realize_environment, sample_poisson
from .rng import as_generator, spawn
from .stats import EstimateWithError, pool_replicates, summarize_binomial, wilson_interval


def largest_component_fraction(conf: Configuration, a: float, window: Window) -> float:
    """Size of the largest free component over the total point count."""
    n = len(conf)
    if n == 0:
        return 0.0
    labeling = build_components(conf, ConnectivityParams(a), window)
    return float(labeling.component_sizes().max()) / n


def target_percolation_proxy(
    conf: Configuration, a: float, window: Window, delta: Window
) -> bool:
    """True iff one component both meets ``delta`` and reaches the boundary.

    A component meets the box when some member ball does, i.e. some point
    lies within distance a of the box; it reaches the boundary when some
    point lies within 2a of the window boundary.
    """
    if not window.contains_window(delta):
        raise ValueError("delta must lie inside the window")
    if len(conf) == 0:
        return False
    labeling = build_components(conf, ConnectivityParams(a), window)
    meets_delta = delta.distance_to_box(conf.points) <= a
    if not meets_delta.any():
        return False
    near_boundary = window.boundary_distance(conf.points) <= 2.0 * a
    delta_labels = np.unique(labeling.labels[meets_delta])
    boundary_labels = np.unique(labeling.labels[near_boundary])
    return bool(np.intersect1d(delta_labels, boundary_labels, assume_unique=True).size)


@dataclass(frozen=True)
class ScanRow:
    """One (z, L) cell of a percolation scan."""

    z: float
    L: float
    replicates: int
    crossing_successes: int
    crossing: EstimateWithError
    crossing_interval: tuple[float, float]
    largest_fraction: EstimateWithError


def estimate_crossing_probability(
    model: IntensityModel,
    z_grid,
    a: float,
    L: float,
    replicates: int,
    seed=0,
    guard_margin: float | None = None,
    axis: int = 0,
    both_axes: bool = False,
    interval_level: float = 0.99,
    return_indicators: bool = False,
):
    """Crossing probability and largest-component fraction over a z grid.

    Per replicate: one environment draw, one Poisson draw at max(z), thinned
    with shared per-point uniforms to every smaller z.  Returns a list of
    :class:`ScanRow`; with ``return_indicators`` also the (replicate, z)
    indicator matrix so the per-seed monotonicity can be asserted exactly.
    """
    zs = [float(z) for z in z_grid]
    if not zs:
        raise ValueError("z_grid must be nonempty")
    if any(z < 0 for z in zs):
        raise ValueError("z values must be >= 0")
    if any(z2 <= z1 for z1, z2 in zip(zs, zs[1:])):
        raise ValueError("z_grid must be strictly increasing")
    if not L > 4.0 * a:
        raise ValueError("window side L must exceed 4a")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    window = Window.cube(L, dim=2)
    z_max = zs[-1]
    params = ConnectivityParams(a)
    crossings = np.zeros((replicates, len(zs)), dtype=bool)
    fractions = np.zeros((replicates, len(zs)))
    children = spawn(seed, replicates)
    for rep, child in enumerate(children):
        if z_max == 0.0:
            continue
        env_seed, pts_seed, thin_seed = spawn(child, 3)
        rng = as_generator(thin_seed)
        env = realize_environment(model, window, guard_margin, env_seed)
        full = sample_poisson(env, window, z_max, pts_seed)
        u = rng.random(len(full))
        for col, z in enumerate(zs):
            if z == 0.0:
                continue
            conf = Configuration(full.points[u <= z / z_max])
            if len(conf) == 0:
                continue
            labeling = build_components(conf, params, window)
            crossed = has_crossing(labeling, conf, window, axis)
            if both_axes and crossed:
                crossed = has_crossing(labeling, conf, window, 1 - axis)
            crossings[rep, col] = crossed
            fractions[rep, col] = float(labeling.component_sizes().max()) / len(conf)
    rows = []
    for col, z in enumerate(zs):
        successes = int(crossings[:, col].sum())
        rows.append(
            ScanRow(
                z=z,
                L=L,
                replicates=replicates,
                crossing_successes=successes,
                crossing=summarize_binomial(successes, replicates),
                crossing_interval=wilson_interval(successes, replicates, interval_level),
                largest_fraction=pool_replicates(fractions[:, col]),
            )
        )
    if return_indicators:
        return rows, crossings
    return rows


def threshold_from_rows(rows: list[ScanRow], target: float = 0.5) -> float:
    """Activity where the interpolated crossing curve passes ``target``.

    Walks the grid for the first upward crossing of the target and
    interpolates linearly; raises when the curve never brackets it.
    """
    zs = [row.z for row in rows]
    ps = [row.crossing.value for row in rows]
    for i in range(1, len(rows)):
        lo, hi = ps[i - 1], ps[i]
        if lo <= target <= hi and hi > lo:
            t = (target - lo) / (hi - lo)
            return zs[i - 1] + t * (zs[i] - zs[i - 1])
    raise ValueError(
        f"crossing curve (range {min(ps):.3f}..{max(ps):.3f}) never brackets {target}"
    )


def estimate_critical_intensity(
    model: IntensityModel,
    a: float,
    L: float,
    target_prob: float,
    tolerance: float,
    seed=0,
    z_bracket: tuple[float, float] | None = None,
    replicates: int = 150,
    guard_margin: float | None = None,
    max_expansions: int = 16,
    max_iterations: int = 30,
) -> EstimateWithError:
    """Bisection for the activity whose crossing probability hits the target.

    Stops when the Wilson interval at the midpoint brackets ``target_prob``
    or the bracket width falls under ``tolerance``; the reported stderr is
    the half-width of the final bracket (a deliberately conservative proxy
    for the seed-to-seed spread).
    """
    if not 0.0 < target_prob < 1.0:
        raise ValueError("target_prob must be in (0, 1)")
    if tolerance <= 0.0:
        raise ValueError("tolerance must be positive")

    evaluations = 0
    children = iter(spawn(seed, max_expansions + max_iterations + 4))

    def crossing_at(z: float) -> tuple[float, tuple[float, float]]:
        nonlocal evaluations
        evaluations += 1
        rows = estimate_crossing_probability(
            model, [z], a, L, replicates, next(children), guard_margin
        )
        return rows[0].crossing.value, rows[0].crossing_interval

    if z_bracket is not None:
        z_lo, z_hi = float(z_bracket[0]), float(z_bracket[1])
        if not 0.0 <= z_lo < z_hi:
            raise ValueError("need 0 <= z_lo < z_hi")
        if z_lo > 0.0:
            _, (ci_lo, _) = crossing_at(z_lo)
            if ci_lo > target_prob:
                raise ValueError("z_lo already crosses above the target; interval does not bracket")
        _, (_, ci_hi) = crossing_at(z_hi)
        if ci_hi < target_prob:
            raise ValueError("z_hi stays below the target; interval does not bracket")
    else:
        # activities scale like (2a)^-2; expand upward until bracketed
        z_hi = max(1.0 / (2.0 * a) ** 2, tolerance)
        for _ in range(max_expansions):
            _, (_, upper) = crossing_at(z_hi)
            if upper >= target_prob:
                break
            z_hi *= 2.0
        else:
            raise ValueError("failed to bracket the target from above")
        z_lo = 0.0

    estimate = None
    while evaluations < max_expansions + max_iterations:
        if z_hi - z_lo <= tolerance:
            break
        mid = 0.5 * (z_lo + z_hi)
        _, (ci_lo, ci_hi) = crossing_at(mid)
        if ci_lo > target_prob:
            z_hi = mid
        elif ci_hi < target_prob:
            z_lo = mid
        else:
            estimate = mid
            break
    if estimate is None:
        estimate = 0.5 * (z_lo + z_hi)
    half = max(0.5 * (z_hi - z_lo), 0.5 * tolerance)
    return EstimateWithError(estimate, half, evaluations * replicates, "wilson")
