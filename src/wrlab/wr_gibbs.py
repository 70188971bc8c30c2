"""Finite-volume two-colored hard-exclusion measures in a fixed environment.

A marked configuration is viable when opposite-colored points are more than
2a apart; a wired boundary additionally forbids the opposite color within 2a
of the window boundary.  Two exact-in-law samplers are provided: plain
rejection (small mass only), which is the exact oracle, and an
alternating-colour block Gibbs sampler.  The block sampler feeds the
order-parameter estimate, the colour-dropping route to the weighted model
and the consistency check against the defining conditional-resampling
property.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.spatial import cKDTree

from .geometry import Window, has_duplicate_rows
from .intensity import EnvironmentRealization, poisson_draw, sample_poisson
from .rng import as_generator, spawn
from .stats import EstimateWithError, batch_means, pool_independent

PLUS = 1
MINUS = -1

FREE = "free"
PLUS_WIRED = "plus-wired"
MINUS_WIRED = "minus-wired"
BOUNDARIES = (FREE, PLUS_WIRED, MINUS_WIRED)


def wired_color(boundary: str) -> int | None:
    """The color painted on the boundary, or None for a free boundary."""
    if boundary == PLUS_WIRED:
        return PLUS
    if boundary == MINUS_WIRED:
        return MINUS
    if boundary == FREE:
        return None
    raise ValueError(f"unknown boundary condition {boundary!r}")


@dataclass(frozen=True)
class MarkedConfiguration:
    """Finite colored point set; colors are +1 (plus) and -1 (minus)."""

    positions: np.ndarray
    colors: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.positions, dtype=float)
        cols = np.asarray(self.colors, dtype=np.int8)
        if pts.ndim != 2:
            raise ValueError("positions must be an (n, d) array")
        if cols.shape != (pts.shape[0],):
            raise ValueError("colors must be one per point")
        if not np.isfinite(pts).all():
            raise ValueError("positions must be finite")
        if cols.size and not np.isin(cols, (PLUS, MINUS)).all():
            raise ValueError("colors must be +1 or -1")
        if has_duplicate_rows(pts):
            raise ValueError("duplicate positions are not allowed")
        pts.flags.writeable = False
        cols.flags.writeable = False
        object.__setattr__(self, "positions", pts)
        object.__setattr__(self, "colors", cols)

    @classmethod
    def empty(cls, dim: int) -> "MarkedConfiguration":
        return cls(np.zeros((0, dim)), np.zeros(0, dtype=np.int8))

    def __len__(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @property
    def n_plus(self) -> int:
        return int((self.colors == PLUS).sum())

    @property
    def n_minus(self) -> int:
        return int((self.colors == MINUS).sum())


@dataclass(frozen=True)
class WRParams:
    """Ball radius, activity, frozen environment, and simulation window."""

    a: float
    z: float
    env: EnvironmentRealization
    window: Window

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError("a must be positive")
        if self.z < 0:
            raise ValueError("z must be >= 0")
        if not self.env.guard_window.contains_window(self.window):
            raise ValueError("window must lie inside the environment's valid window")


@dataclass(frozen=True)
class MCMCSettings:
    """Schedule for the chains.

    One value is recorded every ``thinning`` sweeps after ``burn_in``, and
    the records are cut into ``batch_count`` batches.  What a sweep is
    depends on the sampler.  In the block Gibbs sampler
    (:func:`block_gibbs_counts`) a sweep redraws both colours once.  In the
    weighted model's single-site chain
    (:func:`~wrlab.random_cluster.run_rc_chain`), which only the
    boundary-connected side of ``rc-check`` and the identity check run, a
    sweep is ``moves_per_sweep`` birth or death moves, by default one per
    unit of expected mass; the block sampler ignores that setting.
    ``debug_checks`` checks the chain's state at every retained sweep.
    """

    sweeps: int = 2000
    burn_in: int = 500
    thinning: int = 2
    batch_count: int = 16
    moves_per_sweep: int | None = None
    debug_checks: bool = False

    def __post_init__(self):
        if not (self.sweeps > self.burn_in >= 0):
            raise ValueError("need sweeps > burn_in >= 0")
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")
        if self.batch_count < 8:
            raise ValueError("batch_count must be >= 8")

    @property
    def retained(self) -> int:
        return (self.sweeps - self.burn_in + self.thinning - 1) // self.thinning


class ChainDiagnosticsError(RuntimeError):
    """Batch series autocorrelated beyond the trust threshold."""


class RejectionBudgetError(RuntimeError):
    """Rejection sampler exhausted its attempts without a viable draw."""

    def __init__(self, attempts: int, accepted: int = 0):
        self.attempts = attempts
        self.accepted = accepted
        self.acceptance_rate = accepted / attempts if attempts else 0.0
        super().__init__(
            f"no viable draw in {attempts} attempts "
            f"(empirical acceptance {self.acceptance_rate:.2e}); "
            "the viable-fraction normalization is too small for rejection"
        )


def is_viable(
    conf: MarkedConfiguration, a: float, boundary: str, window: Window
) -> bool:
    """No opposite pair within 2a; wired boundaries exclude the opposite color
    within 2a of the window boundary."""
    b = wired_color(boundary)
    n = len(conf)
    if n == 0:
        return True
    r = 2.0 * a
    if b is not None:
        opposite = conf.colors == -b
        if opposite.any():
            if (window.boundary_distance(conf.positions[opposite]) <= r).any():
                return False
    if n >= 2:
        pairs = cKDTree(conf.positions).query_pairs(r, output_type="ndarray")
        if len(pairs) and (conf.colors[pairs[:, 0]] != conf.colors[pairs[:, 1]]).any():
            return False
    return True


def _marked_poisson(env: EnvironmentRealization, window: Window, z: float, rng) -> MarkedConfiguration:
    """Marked Poisson draw at activity ``z`` per color: an unmarked draw at
    ``2z`` plus an independent fair color coin (exact by the marking theorem)."""
    base = sample_poisson(env, window, 2.0 * z, rng)
    colors = rng.integers(0, 2, size=len(base)).astype(np.int8) * 2 - 1
    return MarkedConfiguration(base.points, colors)


def sample_wr_rejection(
    params: WRParams,
    boundary: str,
    seed=0,
    max_attempts: int = 100000,
    return_attempts: bool = False,
):
    """Exact draw by rejection: marked Poisson proposals until viable.

    Raises :class:`RejectionBudgetError` when the budget runs out.
    """
    rng = as_generator(seed)
    for attempt in range(1, max_attempts + 1):
        candidate = _marked_poisson(params.env, params.window, params.z, rng)
        if is_viable(candidate, params.a, boundary, params.window):
            return (candidate, attempt) if return_attempts else candidate
    raise RejectionBudgetError(max_attempts)


def _squared_distances(diff: np.ndarray) -> np.ndarray:
    """Squared length of each difference vector (the last axis), summed axis
    by axis: the rule of :func:`is_viable`'s KD-tree, compared with ``r*r``."""
    d2 = diff[..., 0] * diff[..., 0]
    for k in range(1, diff.shape[-1]):
        d2 += diff[..., k] * diff[..., k]
    return d2


def _clear_of(cand: np.ndarray, other: np.ndarray, r: float) -> np.ndarray:
    """Mask of the candidates more than ``r`` from every point of ``other``.

    The rule is :func:`is_viable`'s: a distance ``<= r`` excludes.  The tree
    only finds each candidate's nearest point; the comparison with ``r`` is
    made here, on squared distances.
    """
    keep = np.ones(len(cand), dtype=bool)
    if len(cand) == 0 or len(other) == 0:
        return keep
    _, idx = cKDTree(other).query(cand, distance_upper_bound=2.0 * r)
    near = np.flatnonzero(idx < len(other))
    keep[near[_squared_distances(cand[near] - other[idx[near]]) <= r * r]] = False
    return keep


def _redraw(params: WRParams, color: int, other: np.ndarray, wired: int | None, draw, rng) -> np.ndarray:
    """One exact conditional draw of a colour's points given the other colour.

    ``draw`` is the chain's :func:`~wrlab.intensity.poisson_draw` at activity
    ``z``.  Its candidates are admitted where, for the colour opposite to a
    wired boundary, they are more than 2a from the boundary, and then, of
    those, where they are more than 2a from every ``other`` point.  The draw
    thins only the admitted candidates, so the environment density is
    evaluated after the exclusion; the points are those of thinning first.

    The exclusion thus sees every candidate, and the density and the
    draw's duplicate check only the admitted ones.  That order is the
    cheaper one where the density evaluations the exclusion saves cost more
    than the exclusion spends on candidates the thinning would have
    dropped: so on a random set, whose thinning keeps most candidates, but
    not on a large shot-noise window, whose thinning keeps about one in ten.
    """
    r = 2.0 * params.a
    window = params.window

    def admit(cand):
        if wired != -color:
            return _clear_of(cand, other, r)
        keep = window.boundary_distance(cand) > r
        inside = np.flatnonzero(keep)
        keep[inside] = _clear_of(cand[inside], other, r)
        return keep

    return draw(rng, admit)


def _marked(plus: np.ndarray, minus: np.ndarray) -> MarkedConfiguration:
    """One block sampler state, plus points first."""
    return MarkedConfiguration(
        np.concatenate([plus, minus]), np.repeat([PLUS, MINUS], [len(plus), len(minus)])
    )


def _block_gibbs_states(params: WRParams, boundary: str, settings: MCMCSettings, seed):
    """Alternating-colour block Gibbs sampler of the two-coloured measure.

    A sweep redraws each colour once from its exact conditional law given
    the other (:func:`_redraw`; Häggström, van Lieshout & Møller, Bernoulli 5
    (1999) 641-658).  Both colours draw from one Poisson proposal, built once
    per chain (:func:`~wrlab.intensity.poisson_draw`).  The chain starts
    empty and redraws the wired colour first, plus under a free boundary.
    Yields the (plus, minus) point arrays at every retained sweep; the
    caller must not modify them.
    """
    rng = as_generator(seed)
    draw = poisson_draw(params.env, params.window, params.z)
    wired = wired_color(boundary)
    first = MINUS if wired == MINUS else PLUS
    points = {PLUS: np.zeros((0, params.window.dim)), MINUS: np.zeros((0, params.window.dim))}
    for sweep in range(settings.sweeps):
        for color in (first, -first):
            points[color] = _redraw(params, color, points[-color], wired, draw, rng)
        if sweep >= settings.burn_in and (sweep - settings.burn_in) % settings.thinning == 0:
            if settings.debug_checks and not is_viable(
                _marked(points[PLUS], points[MINUS]), params.a, boundary, params.window
            ):
                raise AssertionError("block sampler state lost viability")
            yield points[PLUS], points[MINUS]


def block_gibbs_counts(
    params: WRParams, boundary: str, settings: MCMCSettings, seed, delta: Window
) -> np.ndarray:
    """The (plus, minus) counts in ``delta`` at every retained sweep of the
    block Gibbs sampler (:func:`_block_gibbs_states`), one row each."""
    if not params.window.contains_window(delta):
        raise ValueError("delta must lie inside the window")
    counts = [
        (int(delta.contains(plus).sum()), int(delta.contains(minus).sum()))
        for plus, minus in _block_gibbs_states(params, boundary, settings, seed)
    ]
    return np.array(counts, dtype=np.int64).reshape(-1, 2)


def order_parameter_chain(
    params: WRParams, delta: Window, settings: MCMCSettings, seed
) -> tuple[EstimateWithError, float]:
    """One plus-wired block Gibbs chain: batch means of ``n_plus - n_minus``
    in ``delta``.

    Returns the estimate and the lag-1 autocorrelation of its batch series.
    """
    counts = block_gibbs_counts(params, PLUS_WIRED, settings, seed, delta)
    return batch_means(counts[:, 0] - counts[:, 1], settings.batch_count)


def estimate_order_parameter(
    params: WRParams,
    delta: Window,
    settings: MCMCSettings,
    replicates: int = 1,
    seed=0,
    mode: str = "single",
    strict: bool = False,
) -> EstimateWithError:
    """Mean plus-minus count gap in ``delta`` under the plus-wired measure.

    Both modes run the block Gibbs sampler (:func:`block_gibbs_counts`).
    ``single`` runs one plus-wired chain per replicate and averages
    ``n_plus - n_minus``; ``two-chain`` runs plus- and minus-wired chains and
    differences the plus counts (equal in law by color symmetry, exposed as a
    cross-check).  The error is batch means per chain, pooled across
    replicate chains (:func:`pool_independent`); a lag-1 batch
    autocorrelation above 0.5 warns (or raises when ``strict``).
    """
    if mode not in ("single", "two-chain"):
        raise ValueError(f"unknown mode {mode!r}")
    if not params.window.contains_window(delta):
        raise ValueError("delta must lie inside the window")
    if params.z == 0.0:
        return EstimateWithError(0.0, 0.0, 1, "batch-means")
    estimates = []
    flagged = False
    for child in spawn(seed, replicates):
        if mode == "single":
            est, lag1 = order_parameter_chain(params, delta, settings, child)
            lags = [lag1]
        else:
            sides = []
            for boundary, branch in zip((PLUS_WIRED, MINUS_WIRED), spawn(child, 2)):
                counts = block_gibbs_counts(params, boundary, settings, branch, delta)
                sides.append(batch_means(counts[:, 0], settings.batch_count))
            (plus_side, plus_lag1), (minus_side, minus_lag1) = sides
            est = EstimateWithError(
                plus_side.value - minus_side.value,
                math.hypot(plus_side.stderr, minus_side.stderr),
                plus_side.n + minus_side.n,
                "batch-means",
            )
            lags = [plus_lag1, minus_lag1]
        flagged = flagged or max(lags) > 0.5
        estimates.append(est)
    if flagged:
        message = "batch series autocorrelation above 0.5; lengthen the chain"
        if strict:
            raise ChainDiagnosticsError(message)
        warnings.warn(message, RuntimeWarning)
    return pool_independent(estimates)


def _delta_statistics(positions: np.ndarray, colors: np.ndarray, delta: Window, r: float) -> tuple:
    """(plus count, minus count, 2a-pair count) inside a box."""
    if len(positions) == 0:
        return 0.0, 0.0, 0.0
    inside = delta.contains(positions)
    pts = positions[inside]
    n_plus = float((colors[inside] == PLUS).sum())
    n_minus = float((colors[inside] == MINUS).sum())
    edges = 0.0
    if len(pts) >= 2:
        edges = float(len(cKDTree(pts).query_pairs(r)))
    return n_plus, n_minus, edges


def _opposite_within(pts, cols, other_pts, other_cols, r: float) -> bool:
    """Whether a point lies within ``r`` of an opposite-coloured ``other``
    point, by :func:`is_viable`'s rule on squared distances."""
    if len(pts) == 0 or len(other_pts) == 0:
        return False
    d2 = _squared_distances(pts[:, None, :] - other_pts[None, :, :])
    return bool(((d2 <= r * r) & (cols[:, None] != other_cols[None, :])).any())


# the consistency check's test level, and its rejection budget per redraw
_DLR_ALPHA = 0.01
_DLR_RESAMPLE_ATTEMPTS = 5000


def dlr_consistency_check(
    params: WRParams,
    boundary: str,
    delta: Window,
    settings: MCMCSettings,
    seed=0,
) -> dict:
    """Conditional-resampling self-consistency of the block Gibbs sampler.

    For every retained state of the sampler (:func:`_block_gibbs_states`)
    the content of ``delta`` is erased and redrawn from the exact
    conditional law given the outside (rejection with at most
    ``_DLR_RESAMPLE_ATTEMPTS`` attempts, else
    :class:`RejectionBudgetError`).  If the chain is stationary for the
    target measure, the paired differences of inside-``delta`` statistics
    are centered at zero; batch-means z-tests at level ``_DLR_ALPHA``
    (reported as ``"alpha"``), Bonferroni-corrected over the statistics,
    give the verdict.
    """
    if not params.window.contains_window(delta):
        raise ValueError("delta must lie inside the window")
    r = 2.0 * params.a
    chain_seed, resample_root = spawn(seed, 2)
    resample_rng = as_generator(resample_root)
    stat_names = ("plus_count", "minus_count", "pair_count")

    def resample_inside(positions, colors):
        inside = delta.contains(positions) if len(positions) else np.zeros(0, dtype=bool)
        out_pts = positions[~inside]
        out_cols = colors[~inside]
        if len(out_pts):
            near = delta.distance_to_box(out_pts) <= r
            out_pts, out_cols = out_pts[near], out_cols[near]
        for _ in range(_DLR_RESAMPLE_ATTEMPTS):
            new = _marked_poisson(params.env, delta, params.z, resample_rng)
            if not is_viable(new, params.a, boundary, params.window):
                continue
            new_pts, new_cols = new.positions, new.colors
            if _opposite_within(new_pts, new_cols, out_pts, out_cols, r):
                continue
            return new_pts, new_cols
        raise RejectionBudgetError(_DLR_RESAMPLE_ATTEMPTS)

    diffs: list[tuple] = []
    for plus, minus in _block_gibbs_states(params, boundary, settings, chain_seed):
        state = _marked(plus, minus)
        original = _delta_statistics(state.positions, state.colors, delta, r)
        resampled = _delta_statistics(*resample_inside(state.positions, state.colors), delta, r)
        diffs.append(tuple(o - s for o, s in zip(original, resampled)))

    report: dict = {"alpha": _DLR_ALPHA, "retained": len(diffs), "statistics": {}}
    p_values = []
    for i, name in enumerate(stat_names):
        series = [d[i] for d in diffs]
        est, lag1 = batch_means(series, settings.batch_count)
        if est.stderr == 0.0:
            zscore = 0.0 if est.value == 0.0 else math.inf
        else:
            zscore = est.value / est.stderr
        p = 2.0 * (1.0 - special.ndtr(abs(zscore)))
        p_values.append(p)
        report["statistics"][name] = {
            "mean_difference": est.value,
            "stderr": est.stderr,
            "z": zscore,
            "p": p,
            "batch_lag1": lag1,
        }
    # Bonferroni across the statistic battery
    report["rejected"] = bool(min(p_values) < _DLR_ALPHA / len(stat_names))
    return report
