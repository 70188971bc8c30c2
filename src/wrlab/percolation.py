"""Finite-size percolation proxies over any environment.

"Percolates" is not decidable in a finite window; the proxies are side-to-side
crossing of the Boolean model and reach from a target box to the boundary,
scanned over window sizes.  Scans use coupled thinning: one Poisson draw at
the top activity per replicate, thinned down to every smaller activity with
shared uniforms, so each replicate's indicators are exactly monotone in z.
One neighbour graph per replicate gives its crossing level, and so its
indicator at every z (the continuum form of Newman & Ziff, PRE 64, 016706).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ComponentLabeling, Configuration, ConnectivityParams, Window, build_components
from .intensity import IntensityModel, realize_environment, sample_poisson
from .rng import as_generator, spawn
from .stats import (
    EstimateWithError,
    order_statistic_estimate,
    pool_replicates,
    summarize_binomial,
    wilson_interval,
)

_MAX_DOUBLINGS = 16  # of the top activity, before estimate_critical_intensity gives up


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
    return target_reach(build_components(conf, ConnectivityParams(a), window), conf, window, delta)


def target_reach(
    labeling: ComponentLabeling, conf: Configuration, window: Window, delta: Window
) -> bool:
    """:func:`target_percolation_proxy` on a labeling of ``conf`` built already."""
    a = labeling.a
    meets_delta = delta.distance_to_box(conf.points) <= a
    if not meets_delta.any():
        return False
    near_boundary = window.boundary_distance(conf.points) <= 2.0 * a
    delta_labels = np.unique(labeling.labels[meets_delta])
    boundary_labels = np.unique(labeling.labels[near_boundary])
    return bool(np.intersect1d(delta_labels, boundary_labels, assume_unique=True).size)


def crossing_level(
    points: np.ndarray, u: np.ndarray, pairs: np.ndarray, window: Window, a: float, axis: int
) -> float:
    """Smallest t at which the points with ``u <= t`` cross ``window`` along ``axis``.

    Each of the 2a-neighbour ``pairs`` weighs the larger ``u`` of its ends,
    and each point within 2a of the low (high) face joins that face's ghost
    node with weight ``u``; the level is the largest weight on the ghosts'
    path in a minimum spanning forest (inf when they never meet).
    """
    from scipy import sparse
    from scipy.sparse.csgraph import breadth_first_order, minimum_spanning_tree

    n, r, coord = len(u), 2.0 * a, points[:, axis]
    low = np.flatnonzero(coord - window.lower[axis] <= r)
    high = np.flatnonzero(window.upper[axis] - coord <= r)
    # csgraph drops zero weights and u can be 0.0, so a weight is the rank
    # (1..n) in u order of the larger end; the ghosts n and n + 1 rank 0
    rank = np.zeros(n + 2)
    rank[np.argsort(u, kind="stable")] = np.arange(1, n + 1)
    heads = np.concatenate([pairs[:, 0], low, high])
    tails = np.concatenate([pairs[:, 1], np.full(low.size, n), np.full(high.size, n + 1)])
    graph = sparse.coo_matrix((np.maximum(rank[heads], rank[tails]), (heads, tails)), shape=(n + 2,) * 2)
    _, parent = breadth_first_order(minimum_spanning_tree(graph), n, directed=False, return_predecessors=True)
    path, node = [], parent[n + 1]
    while node >= 0 and node != n:
        path.append(node)
        node = parent[node]
    return float(u[path[int(np.argmax(rank[path]))]]) if node == n else math.inf


def largest_fraction(u: np.ndarray, pairs: np.ndarray, t: float) -> float:
    """:func:`largest_component_fraction` of the points with ``u <= t``."""
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components

    kept = u <= t
    if not kept.any():
        return 0.0
    sub = pairs[kept[pairs[:, 0]] & kept[pairs[:, 1]]]
    graph = sparse.coo_matrix((np.ones(len(sub), dtype=np.int8), (sub[:, 0], sub[:, 1])), shape=(len(u),) * 2)
    labels = connected_components(graph, directed=False)[1]
    return float(np.bincount(labels[kept]).max()) / int(kept.sum())


def _check_scan_shape(a: float, L: float, replicates: int) -> None:
    if not L > 4.0 * a:
        raise ValueError("window side L must exceed 4a")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")


def _replicate(model: IntensityModel, window: Window, z_top: float, a: float, guard_margin, seed):
    """Poisson points at ``z_top``, a thinning uniform per point, and the 2a-neighbour pairs."""
    from scipy.spatial import cKDTree

    env_seed, pts_seed, thin_seed = spawn(seed, 3)
    env = realize_environment(model, window, guard_margin, env_seed)
    points = sample_poisson(env, window, z_top, pts_seed).points
    u = as_generator(thin_seed).random(len(points))
    return points, u, cKDTree(points).query_pairs(2.0 * a, output_type="ndarray")


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


def scan_rows(z_grid, L: float, crossings: np.ndarray, fractions: np.ndarray) -> list[ScanRow]:
    """One row per z from (replicate, z) crossing-indicator and largest-fraction
    matrices, with the 99% Wilson interval of the crossing frequency."""
    n = len(crossings)
    rows = []
    for col, z in enumerate(z_grid):
        k = int(crossings[:, col].sum())
        frac = pool_replicates(fractions[:, col])
        rows.append(ScanRow(z, L, n, k, summarize_binomial(k, n), wilson_interval(k, n), frac))
    return rows


def estimate_crossing_probability(
    model: IntensityModel,
    z_grid,
    a: float,
    L: float,
    replicates: int,
    seed=0,
    guard_margin: float | None = None,
    both_axes: bool = False,
    return_indicators: bool = False,
):
    """Crossing probability and largest-component fraction over a z grid.

    Per replicate: one environment draw, one Poisson draw at max(z), thinned
    with shared per-point uniforms u to every smaller z; it crosses at z iff
    its :func:`crossing_level` (along axis 0, and axis 1 too with
    ``both_axes``) is at most z / max(z).  Returns a list of
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
    _check_scan_shape(a, L, replicates)
    window = Window.cube(L, dim=2)
    z_max = zs[-1]
    axes = (0, 1) if both_axes else (0,)
    crossings = np.zeros((replicates, len(zs)), dtype=bool)
    fractions = np.zeros((replicates, len(zs)))
    for rep, child in enumerate(spawn(seed, replicates)):
        if z_max == 0.0:
            continue
        points, u, pairs = _replicate(model, window, z_max, a, guard_margin, child)
        level = max(crossing_level(points, u, pairs, window, a, axis) for axis in axes)
        for col, z in enumerate(zs):
            if z > 0.0:
                crossings[rep, col] = level <= z / z_max
                fractions[rep, col] = largest_fraction(u, pairs, z / z_max)
    rows = scan_rows(zs, L, crossings, fractions)
    return (rows, crossings) if return_indicators else rows


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
    seed=0,
    replicates: int = 150,
    guard_margin: float | None = None,
) -> EstimateWithError:
    """Activity at which the axis-0 crossing probability reaches ``target_prob``.

    A replicate drawn at the top activity z_top crosses from z_top times its
    crossing level on; the estimate is the ``target_prob`` quantile of these
    crossing activities (:func:`stats.order_statistic_estimate`).  z_top starts
    at 1/(2a)^2 and doubles, with fresh replicates, while that quantile's
    interval reaches a replicate that never crosses.
    """
    if not 0.0 < target_prob < 1.0:
        raise ValueError("target_prob must be in (0, 1)")
    _check_scan_shape(a, L, replicates)
    window = Window.cube(L, dim=2)
    z_top = 1.0 / (2.0 * a) ** 2
    for attempt in spawn(seed, _MAX_DOUBLINGS):
        levels = [
            crossing_level(*_replicate(model, window, z_top, a, guard_margin, child), window, a, 0)
            for child in spawn(attempt, replicates)
        ]
        estimate = order_statistic_estimate(z_top * np.array(levels), target_prob)
        if math.isfinite(estimate.stderr):
            return estimate
        z_top *= 2.0
    raise ValueError(
        f"the {target_prob:g} quantile of the crossing activities stays censored up to z = {z_top / 2:g}"
    )
