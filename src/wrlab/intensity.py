"""Deterministic and random environments: realization, mass, and sampling.

An environment is a locally finite measure on the plane (or the line) that
drives every Poisson draw in the package.  Six models are provided:

* ``HomogeneousLebesgue`` -- a constant multiple of Lebesgue measure;
* ``DensityField`` -- any user density with a declared sup bound;
* ``ShotNoise`` -- indicator-kernel shot noise over a Poisson germ process;
* ``RandomSetIndicator`` -- two levels inside/outside a Boolean germ-grain set;
* ``VoronoiEdges`` -- length measure on the edges of a Poisson-Voronoi
  tessellation (dimension 2);
* ``ManhattanGrid`` -- length measure on a grid of Poisson axis-parallel
  lines (dimension 2).

``realize_environment`` freezes one random draw of a model into an
:class:`EnvironmentRealization`: either a density handle with a sup bound, or
one :class:`SegmentSet` of segments carrying mass per unit length.
Realizations are immutable and may be shared across threads; all randomness
flows through explicit seeds.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy.spatial import Voronoi, cKDTree

from .geometry import Configuration, GridIndex, Window, has_duplicate_rows
from .rng import as_generator, spawn


@dataclass(frozen=True)
class HomogeneousLebesgue:
    """Constant density ``z0`` per unit volume."""

    z0: float

    def __post_init__(self):
        if self.z0 < 0:
            raise ValueError("z0 must be >= 0")


@dataclass(frozen=True)
class DensityField:
    """User-supplied density with a declared supremum over the window.

    ``density`` must accept an (n, d) array and return (n,) values.  The sup
    bound is spot-checked at every evaluation; an evaluation above it aborts
    the run (the thinning sampler would silently be wrong otherwise).
    """

    density: Callable[[np.ndarray], np.ndarray]
    sup_bound: float

    def __post_init__(self):
        if self.sup_bound < 0:
            raise ValueError("sup_bound must be >= 0")


@dataclass(frozen=True)
class ShotNoise:
    """Sum of indicator kernels around a homogeneous Poisson germ process.

    The kernel is ``kernel_amplitude * 1{|x - germ| <= kernel_radius}``; its
    integral is amplitude times the ball volume, which makes every mean mass
    available in closed form for the validation suite.
    """

    pp_intensity: float
    kernel_radius: float
    kernel_amplitude: float

    def __post_init__(self):
        if self.pp_intensity < 0 or self.kernel_amplitude < 0:
            raise ValueError("rates must be >= 0")
        if not self.kernel_radius > 0:
            raise ValueError("kernel_radius must be positive")


@dataclass(frozen=True)
class RandomSetIndicator:
    """Density ``lambda_inside`` on a Boolean germ-grain set, else ``lambda_outside``."""

    lambda_inside: float
    lambda_outside: float
    germ_intensity: float
    grain_radius: float

    def __post_init__(self):
        if min(self.lambda_inside, self.lambda_outside, self.germ_intensity) < 0:
            raise ValueError("rates must be >= 0")
        if not self.grain_radius > 0:
            raise ValueError("grain_radius must be positive")


@dataclass(frozen=True)
class VoronoiEdges:
    """Unit length measure on Poisson-Voronoi cell boundaries (d = 2)."""

    seed_intensity: float

    def __post_init__(self):
        if not self.seed_intensity > 0:
            raise ValueError("seed_intensity must be positive")


@dataclass(frozen=True)
class ManhattanGrid:
    """Unit length measure on Poisson vertical and horizontal lines (d = 2)."""

    line_intensity: float

    def __post_init__(self):
        if self.line_intensity < 0:
            raise ValueError("line_intensity must be >= 0")


IntensityModel = Union[
    HomogeneousLebesgue,
    DensityField,
    ShotNoise,
    RandomSetIndicator,
    VoronoiEdges,
    ManhattanGrid,
]


def row_norms(d: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, rounded as ``np.linalg.norm`` of that row.

    The one-row norm is ``sqrt(dot(x, x))``; the batched product rounds the
    same, where ``norm(axis=1)`` does not.
    """
    return np.sqrt((d[:, None, :] @ d[:, :, None]).reshape(len(d)))


@dataclass(frozen=True, eq=False)
class SegmentSet:
    """Line segments carrying mass per unit length, one row per segment.

    ``start`` and ``end`` are (n, d) end points and ``linear_density`` is
    (n,).  ``generators`` is (n, 2, d), the pair of germ points whose
    bisector each segment lies on (Voronoi edges only); it exists so tests
    can verify equidistance.  The arrays are copied and made read-only.
    """

    start: np.ndarray
    end: np.ndarray
    linear_density: np.ndarray
    generators: np.ndarray | None = None

    def __post_init__(self):
        arrays = {
            name: np.array(getattr(self, name), dtype=float)
            for name in ("start", "end", "linear_density", "generators")
            if getattr(self, name) is not None
        }
        s, e, w = arrays["start"], arrays["end"], arrays["linear_density"]
        if s.ndim != 2 or e.shape != s.shape or w.shape != (len(s),):
            raise ValueError("start and end must be (n, d) and linear_density (n,)")
        if "generators" in arrays and arrays["generators"].shape != (len(s), 2, s.shape[1]):
            raise ValueError("generators must be (n, 2, d)")
        if not all(np.isfinite(x).all() for x in arrays.values()):
            raise ValueError("segment arrays must be finite")
        if np.isclose(s, e).all(axis=1).any():
            raise ValueError("segment endpoints must be distinct")
        if (w < 0).any():
            raise ValueError("linear_density must be >= 0")
        for name, x in arrays.items():
            x.flags.writeable = False
            object.__setattr__(self, name, x)

    def __len__(self) -> int:
        return len(self.start)

    @property
    def lengths(self) -> np.ndarray:
        return row_norms(self.end - self.start)


class SupBoundViolation(RuntimeError):
    """A density evaluated above its declared supremum."""

    def __init__(self, location, value, bound):
        self.location = np.asarray(location)
        self.value = float(value)
        self.bound = float(bound)
        super().__init__(
            f"density {value:.6g} exceeds declared sup bound {bound:.6g} "
            f"at {self.location}"
        )


class GuardMarginError(ValueError):
    """Guard margin missing, non-positive, or too small for the model."""


@dataclass(frozen=True)
class EnvironmentRealization:
    """One frozen draw of an intensity model, valid on ``guard_window``.

    Exactly one of (``density``, ``segments``) is set.  ``constant_density``
    marks the exact-mass fast path; ``grid_hint`` is the midpoint-rule cell
    side used when a general density has to be integrated numerically.

    ``point_density`` is a scalar probe of one planar point, returning the
    same float as ``density_at([pos])[0]``.  Shot-noise and random-set
    realizations in the plane set it: it counts germs within the kernel or
    grain radius in a :class:`~wrlab.geometry.GridIndex` over the germs,
    with the ``<=`` rule of the KD-tree.
    It does not check the sup bound; the weighted chain's ``thin`` (see
    :func:`dominating_measure`) does.  ``density_at`` keeps the array path.
    """

    model: IntensityModel
    guard_window: Window
    density: Callable[[np.ndarray], np.ndarray] | None = None
    sup_bound: float | None = None
    constant_density: float | None = None
    segments: SegmentSet | None = None
    grid_hint: float = 0.25
    point_density: Callable[[tuple], float] | None = None

    def density_at(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the density, enforcing the declared sup bound."""
        if self.density is None:
            raise ValueError("segment realizations have no density handle")
        pts = np.asarray(points, dtype=float)
        vals = np.asarray(self.density(pts), dtype=float)
        if self.sup_bound is not None and vals.size:
            worst = int(np.argmax(vals))
            if vals[worst] > self.sup_bound * (1.0 + 1e-9) + 1e-12:
                raise SupBoundViolation(pts[worst], vals[worst], self.sup_bound)
        return vals


def default_guard_margin(model: IntensityModel) -> float:
    """Edge-effect margin per model: the influence radius where one exists."""
    if isinstance(model, ShotNoise):
        return model.kernel_radius
    if isinstance(model, RandomSetIndicator):
        return model.grain_radius
    if isinstance(model, VoronoiEdges):
        return 4.0 / math.sqrt(model.seed_intensity)
    # Lebesgue, DensityField and ManhattanGrid have no edge effect.
    return 1.0


def check_guard_margin(model: IntensityModel, guard_margin: float | None) -> float:
    """The guard margin to realize ``model`` with: the model default when None.

    Raises :class:`GuardMarginError` for a margin that is not positive or
    does not cover the model's influence radius.
    """
    if guard_margin is None:
        guard_margin = default_guard_margin(model)
    if not guard_margin > 0:
        raise GuardMarginError(f"guard_margin must be positive, got {guard_margin}")
    # the kernel or grain radius; other models have no edge effect
    germ_model = isinstance(model, (ShotNoise, RandomSetIndicator))
    influence = default_guard_margin(model) if germ_model else 0.0
    if guard_margin < influence - 1e-12:
        raise GuardMarginError(
            f"guard_margin {guard_margin} smaller than influence radius {influence}"
        )
    return guard_margin


def _poisson_points(rng: np.random.Generator, rate: float, window: Window) -> np.ndarray:
    n = rng.poisson(rate * window.volume)
    return rng.uniform(window.lower, window.upper, size=(n, window.dim))


def _germ_counter(germs: np.ndarray, r: float, window: Window) -> Callable[[tuple], int]:
    """Scalar count of planar germs within distance ``r`` (closed) of a point.

    The germs sit in a :class:`~wrlab.geometry.GridIndex` of radius ``r``
    over the draw window, so the 3x3 cells around the point hold every germ
    that counts.  The test ``dx*dx + dy*dy <= r*r`` is the KD-tree's own
    (squared distance against the squared radius).
    """
    coords = germs.tolist()
    grid = GridIndex(window, r)
    for i, g in enumerate(coords):
        grid.add(i, g)
    r2 = r * r

    def count(pos) -> int:
        px, py = pos
        n = 0
        for i in grid.nearby(pos):
            gx, gy = coords[i]
            dx = px - gx
            dy = py - gy
            if dx * dx + dy * dy <= r2:
                n += 1
        return n

    return count


def _clip_segments(p: np.ndarray, q: np.ndarray, window: Window):
    """Liang-Barsky clip of each segment ``p[i] q[i]`` to a box.

    Returns ``(hit, cp, cq)``: whether each segment meets the box, and the
    clipped end points (meaningful where ``hit``).
    """
    d = q - p
    n = len(p)
    t0 = np.zeros(n)
    t1 = np.ones(n)
    hit = np.ones(n, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(window.dim):
            lo, hi = window.lower[k], window.upper[k]
            flat = d[:, k] == 0.0
            hit &= ~(flat & ((p[:, k] < lo) | (p[:, k] > hi)))
            ta = (lo - p[:, k]) / d[:, k]
            tb = (hi - p[:, k]) / d[:, k]
            t0 = np.where(flat, t0, np.maximum(t0, np.minimum(ta, tb)))
            t1 = np.where(flat, t1, np.minimum(t1, np.maximum(ta, tb)))
    hit &= t0 <= t1
    return hit, p + t0[:, None] * d, p + t1[:, None] * d


def _realize_voronoi(
    model: VoronoiEdges, window: Window, margin: float, seed
) -> tuple[SegmentSet, float]:
    """Voronoi edge segments clipped to the window, with a correctness check.

    The tessellation inside the window is trusted only if, at every clipped
    edge endpoint, the distance to the generating germs is smaller than the
    distance to the guard boundary: no germ outside the guard region could
    then alter the edge.  On failure the draw is rejected and retried with a
    doubled margin.
    """
    if window.dim != 2:
        raise ValueError("VoronoiEdges environments require dimension 2")
    max_attempts = 6
    children = spawn(seed, max_attempts)
    for attempt in range(max_attempts):
        rng = as_generator(children[attempt])
        guard = window.expand(margin)
        germs = _poisson_points(rng, model.seed_intensity, guard)
        if len(germs) < 4:
            margin *= 2.0
            continue
        vor = Voronoi(germs)
        tree = cKDTree(germs)
        center = germs.mean(axis=0)
        span = float(np.linalg.norm(guard.sides)) * 4.0
        pairs = vor.ridge_points
        ends = np.asarray(vor.ridge_vertices)
        # rows with a -1 end are overwritten below or dropped by ``used``
        p = vor.vertices[ends[:, 0]]
        q = vor.vertices[ends[:, 1]]
        used = (ends != -1).any(axis=1)
        unbounded = used & (ends == -1).any(axis=1)
        # extend each unbounded ridge from its one vertex far beyond the
        # guard box, on the side of its germs' midpoint away from the centre
        tangent = germs[pairs[:, 1]] - germs[pairs[:, 0]]
        norm = row_norms(tangent)
        used &= ~unbounded | (norm > 0.0)
        ext = np.flatnonzero(unbounded & used)
        normal = np.stack([-tangent[ext, 1], tangent[ext, 0]], axis=1) / norm[ext, None]
        midpoint = (germs[pairs[ext, 0]] + germs[pairs[ext, 1]]) / 2.0
        side = ((midpoint - center)[:, None, :] @ normal[:, :, None]).reshape(len(ext))
        normal = np.where(side[:, None] < 0, -normal, normal)
        known = vor.vertices[ends[ext].max(axis=1)]
        p[ext], q[ext] = known, known + normal * span
        hit, cp, cq = _clip_segments(p, q, window)
        keep = np.flatnonzero(used & hit & ~np.isclose(cp, cq).all(axis=1))
        cp, cq, unbounded = cp[keep], cq[keep], unbounded[keep]
        probes = np.stack([cp, (cp + cq) / 2.0, cq], axis=1)
        bisector_dist = np.linalg.norm(probes - germs[pairs[keep, 0]][:, None, :], axis=2)
        nearest_dist = tree.query(probes.reshape(-1, 2))[0].reshape(-1, 3)
        # a true edge point is exactly at nearest-germ distance from its
        # generators; anything closer to a third germ is not edge at all
        # (an unbounded ridge extended the wrong way), so drop it
        off_edge = (nearest_dist < bisector_dist - 1e-9).any(axis=1)
        # endpoint germ distance must beat the guard-boundary distance,
        # else a germ outside the guard region could alter the edge
        unguarded = (bisector_dist[:, 0] >= guard.boundary_distance(cp)) | (
            bisector_dist[:, 2] >= guard.boundary_distance(cq)
        )
        if not (off_edge & ~unbounded).any() and not (unguarded & ~off_edge).any():
            on = ~off_edge
            segments = SegmentSet(cp[on], cq[on], np.ones(on.sum()), germs[pairs[keep[on]]])
            return segments, margin
        margin *= 2.0
    raise RuntimeError(
        "Voronoi realization rejected by the guard diagnostic "
        f"after {max_attempts} margin doublings"
    )


def _realize_manhattan(
    model: ManhattanGrid, window: Window, margin: float, seed
) -> SegmentSet:
    if window.dim != 2:
        raise ValueError("ManhattanGrid environments require dimension 2")
    rng = as_generator(seed)
    (x0, y0), (x1, y1) = window.lower, window.upper
    # vertical lines from germs on the guarded x-interval, then horizontal
    n_v = rng.poisson(model.line_intensity * ((x1 - x0) + 2 * margin))
    xs = rng.uniform(x0 - margin, x1 + margin, size=n_v)
    n_h = rng.poisson(model.line_intensity * ((y1 - y0) + 2 * margin))
    ys = rng.uniform(y0 - margin, y1 + margin, size=n_h)
    xs = xs[(x0 <= xs) & (xs <= x1)]
    ys = ys[(y0 <= ys) & (ys <= y1)]
    # rows of (start x, start y, end x, end y)
    vertical = np.stack([xs, np.full_like(xs, y0), xs, np.full_like(xs, y1)], axis=1)
    horizontal = np.stack([np.full_like(ys, x0), ys, np.full_like(ys, x1), ys], axis=1)
    rows = np.concatenate([vertical, horizontal])
    return SegmentSet(rows[:, :2], rows[:, 2:], np.ones(len(rows)))


def realize_environment(
    model: IntensityModel,
    window: Window,
    guard_margin: float | None = None,
    seed=0,
) -> EnvironmentRealization:
    """Freeze one draw of ``model`` valid on (at least) ``window``.

    Germ processes are drawn on the window enlarged by ``guard_margin`` so
    that the realization restricted to the window has the correct law; the
    margin must cover the model's influence radius.  Deterministic in
    (model, window, guard_margin, seed).
    """
    guard_margin = check_guard_margin(model, guard_margin)

    if isinstance(model, HomogeneousLebesgue):
        level = model.z0
        return EnvironmentRealization(
            model=model,
            guard_window=window.expand(guard_margin),
            density=lambda pts, _c=level: np.full(len(np.atleast_2d(pts)), _c),
            sup_bound=level,
            constant_density=level,
        )

    if isinstance(model, DensityField):
        return EnvironmentRealization(
            model=model,
            guard_window=window.expand(guard_margin),
            density=model.density,
            sup_bound=model.sup_bound,
            grid_hint=min(1.0, max(window.sides.min() / 16.0, 1e-3)),
        )

    if isinstance(model, ShotNoise):
        rng = as_generator(seed)
        draw_window = window.expand(guard_margin)
        germs = _poisson_points(rng, model.pp_intensity, draw_window)
        valid = window.expand(guard_margin - model.kernel_radius) if guard_margin > model.kernel_radius else window
        r = model.kernel_radius
        amp = model.kernel_amplitude
        point_density = None
        if window.dim == 2:
            count = _germ_counter(germs, r, draw_window)
            point_density = lambda pos, _amp=float(amp): _amp * count(pos)
        if len(germs) == 0:
            dens = lambda pts: np.zeros(len(np.atleast_2d(pts)))
            sup = 0.0
        else:
            tree = cKDTree(germs)
            # sup over x of the germ count within r is bounded by the max,
            # over germs g, of the germ count within 2r of g
            pack = tree.query_ball_point(germs, 2.0 * r, return_length=True)
            sup = amp * float(pack.max())

            def dens(pts, _tree=tree, _r=r, _amp=amp):
                pts = np.atleast_2d(np.asarray(pts, dtype=float))
                return _amp * _tree.query_ball_point(pts, _r, return_length=True).astype(float)

        return EnvironmentRealization(
            model=model,
            guard_window=valid,
            density=dens,
            sup_bound=sup,
            grid_hint=r / 4.0,
            point_density=point_density,
        )

    if isinstance(model, RandomSetIndicator):
        rng = as_generator(seed)
        draw_window = window.expand(guard_margin)
        germs = _poisson_points(rng, model.germ_intensity, draw_window)
        valid = window.expand(guard_margin - model.grain_radius) if guard_margin > model.grain_radius else window
        lo, hi = model.lambda_outside, model.lambda_inside
        point_density = None
        if window.dim == 2:
            covered = _germ_counter(germs, model.grain_radius, draw_window)
            point_density = lambda pos, _lo=float(lo), _hi=float(hi): _hi if covered(pos) else _lo
        if len(germs) == 0:
            dens = lambda pts, _lo=lo: np.full(len(np.atleast_2d(pts)), _lo)
        else:
            tree = cKDTree(germs)

            def dens(pts, _tree=tree, _r=model.grain_radius, _lo=lo, _hi=hi):
                pts = np.atleast_2d(np.asarray(pts, dtype=float))
                covered = _tree.query_ball_point(pts, _r, return_length=True) > 0
                return np.where(covered, _hi, _lo)

        return EnvironmentRealization(
            model=model,
            guard_window=valid,
            density=dens,
            sup_bound=max(lo, hi),
            grid_hint=model.grain_radius / 4.0,
            point_density=point_density,
        )

    if isinstance(model, VoronoiEdges):
        segments, _ = _realize_voronoi(model, window, guard_margin, seed)
        return EnvironmentRealization(
            model=model, guard_window=window, segments=segments
        )

    if isinstance(model, ManhattanGrid):
        segments = _realize_manhattan(model, window, guard_margin, seed)
        return EnvironmentRealization(
            model=model, guard_window=window, segments=segments
        )

    raise TypeError(f"unknown intensity model {type(model).__name__}")


def _check_region(env: EnvironmentRealization, region: Window) -> None:
    if not env.guard_window.contains_window(region):
        raise ValueError(
            f"region {region.lower}..{region.upper} outside the realization's "
            f"valid window {env.guard_window.lower}..{env.guard_window.upper}"
        )


def _clipped_segments(env: EnvironmentRealization, region: Window) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(p, q, mass)``: the pieces of positive length inside ``region``, in segment order."""
    segments = env.segments
    hit, cp, cq = _clip_segments(segments.start, segments.end, region)
    p, q = cp[hit], cq[hit]
    length = row_norms(q - p)
    keep = length > 0.0
    return p[keep], q[keep], length[keep] * segments.linear_density[hit][keep]


def _midpoint_grid(region: Window, cell: float) -> tuple[np.ndarray, float]:
    counts = np.maximum(1, np.ceil(region.sides / cell).astype(int))
    axes = [
        region.lower[k] + (np.arange(counts[k]) + 0.5) * region.sides[k] / counts[k]
        for k in range(region.dim)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    cell_volume = float(np.prod(region.sides / counts))
    return pts, cell_volume


def total_mass(env: EnvironmentRealization, region: Window) -> float:
    """Mass of the environment on a box region.

    Exact for constant densities and segment measures; for general densities
    the midpoint rule on cells of half the realization's ``grid_hint``.
    """
    _check_region(env, region)
    if env.constant_density is not None:
        return env.constant_density * region.volume
    if env.segments is not None:
        # Python's left-to-right sum, not numpy's pairwise one
        return float(sum(_clipped_segments(env, region)[2].tolist()))
    pts, vol = _midpoint_grid(region, env.grid_hint / 2.0)
    return float(env.density_at(pts).sum() * vol)


def poisson_draw(env: EnvironmentRealization, window: Window, z: float):
    """Poisson proposal of intensity ``z *`` environment on ``window``:
    ``draw(rng, admit=None)`` returns the (n, d) points of one draw.

    The region check, the count mean and the clipped segment pieces are
    computed once, here.  Densities draw a dominating homogeneous count at
    ``z * sup_bound``, the positions, then one uniform per candidate, and
    keep a candidate where its uniform is at most density / sup_bound.
    Segment measures draw a count per clipped piece, uniform along it.

    ``admit(points)``, a boolean mask over the candidates, drops candidates
    before the thinning, so ``density_at`` sees only the admitted ones (and
    a constant density is never evaluated).  The generator gives the same
    values either way, and the draw returns the admitted points of
    ``draw(rng)``, in order.  Only with ``admit`` does the draw check the
    admitted candidates for duplicates; without it the caller does, as
    :func:`sample_poisson`'s ``Configuration`` does.
    """
    if z < 0:
        raise ValueError("z must be >= 0")
    _check_region(env, window)
    dim = window.dim
    nothing = np.zeros((0, dim))
    nothing.flags.writeable = False

    def admitted(pts, admit):
        # equal candidates share a position and so an admission verdict:
        # checking the admitted ones covers every point that can be kept
        keep = np.flatnonzero(admit(pts))
        if has_duplicate_rows(pts[keep]):
            raise ValueError("duplicate points are not allowed")
        return keep

    if z == 0.0:
        return lambda rng, admit=None: nothing

    if env.segments is not None:
        p, q, mass = _clipped_segments(env, window)
        means = [z * m for m in mass.tolist()]
        direction = q - p

        def segment_draw(rng, admit=None):
            # a count, then that many positions along the piece, piece by
            # piece (a draw of zero uniforms leaves the generator as it was)
            ts = [rng.random(rng.poisson(m)) for m in means]
            piece = np.repeat(np.arange(len(ts)), [len(t) for t in ts])
            if len(piece) == 0:
                return nothing
            pts = p[piece] + np.concatenate(ts)[:, None] * direction[piece]
            return pts if admit is None else pts[admitted(pts, admit)]

        return segment_draw

    sup = env.sup_bound
    if sup is None:
        raise ValueError("density realization lacks a sup bound")
    if sup == 0.0:
        return lambda rng, admit=None: nothing
    mean = z * sup * window.volume
    # rng.uniform(lower, upper, size) computes lower + (upper - lower) * u;
    # spelled out in place, it gives the same values at a quarter of the cost
    lower, sides = window.lower, window.upper - window.lower
    constant = env.constant_density is not None

    def density_draw(rng, admit=None):
        n = rng.poisson(mean)
        if n == 0:
            return nothing
        pts = rng.random((n, dim))
        pts *= sides
        pts += lower
        u = rng.random(n)
        if admit is not None:
            keep = admitted(pts, admit)
            pts, u = pts[keep], u[keep]
        # a constant density thins by density / sup_bound = 1
        if constant or len(pts) == 0:
            return pts
        return pts[u <= env.density_at(pts) / sup]

    return density_draw


def sample_poisson(
    env: EnvironmentRealization, window: Window, z: float, seed=0
) -> Configuration:
    """Poisson configuration with intensity ``z *`` environment on ``window``:
    one :func:`poisson_draw`, checked once by ``Configuration``."""
    return Configuration(poisson_draw(env, window, z)(as_generator(seed)))


def dominating_measure(env: EnvironmentRealization, window: Window, z: float):
    """Birth-move reference measure for the weighted chain.

    Returns ``(total_mass, draw, thin)`` where ``draw(ub)`` proposes a point
    from the normalized reference and ``thin(pos)`` is the density of the
    environment relative to it (None when identically 1).  For absolutely
    continuous environments the reference is the dominating homogeneous
    measure at the sup bound, so the total mass is exact and the thinning
    factor enters the acceptance ratio; constant and segment environments
    have exact mass directly.

    ``thin`` probes the realization's scalar ``point_density`` where it has
    one (one grid lookup per birth proposal, no array round trip), else
    ``density_at``.  Both raise :class:`SupBoundViolation` on a value above
    the sup bound, by the same comparison.  Planar draws take their two
    uniforms x first, then y, as the generic draw does.
    """
    _check_region(env, window)
    lo = window.lower.tolist()
    sides = window.sides.tolist()
    dim = window.dim

    if dim == 2:

        def uniform_draw(ub, _x0=lo[0], _y0=lo[1], _sx=sides[0], _sy=sides[1]):
            x = _x0 + ub.next() * _sx
            return (x, _y0 + ub.next() * _sy)

    else:

        def uniform_draw(ub, _lo=lo, _sides=sides, _dim=dim):
            return tuple(_lo[k] + ub.next() * _sides[k] for k in range(_dim))

    if env.segments is not None:
        p, q, mass = _clipped_segments(env, window)
        total = z * float(sum(mass.tolist()))
        if total == 0.0:
            return 0.0, uniform_draw, None
        starts, directions = p.tolist(), (q - p).tolist()
        cum = np.cumsum(mass).tolist()

        def seg_draw(ub, _starts=starts, _directions=directions, _cum=cum, _dim=dim):
            u = ub.next() * _cum[-1]
            i = min(bisect.bisect_left(_cum, u), len(_cum) - 1)
            start, direction = _starts[i], _directions[i]
            t = ub.next()
            return tuple(start[k] + t * direction[k] for k in range(_dim))

        return total, seg_draw, None

    if env.constant_density is not None:
        total = z * env.constant_density * window.volume
        return total, uniform_draw, None

    sup = env.sup_bound or 0.0
    total = z * sup * window.volume
    if total == 0.0:
        return 0.0, uniform_draw, None

    if env.point_density is None:

        def thin(pos, _env=env, _sup=sup):
            return float(_env.density_at(np.array([pos]))[0]) / _sup

    else:
        # density_at's sup-bound check, on one value
        limit = sup * (1.0 + 1e-9) + 1e-12

        def thin(pos, _density=env.point_density, _sup=sup, _limit=limit):
            value = _density(pos)
            if value > _limit:
                raise SupBoundViolation(pos, value, _sup)
            return value / _sup

    return total, uniform_draw, thin


def covariance_decay_probe(
    model: IntensityModel,
    box_size: float,
    separations,
    replicates: int,
    seed=0,
    guard_margin: float | None = None,
) -> list[dict]:
    """Empirical covariance of box masses at increasing separations.

    For each replicate one environment is realized over a window that covers
    the base box and all shifted boxes; the probe then estimates
    ``Cov(mass(Q), mass(Q + s*e1))`` per separation, with a standard error
    from the spread of the centered products.
    """
    if replicates < 2:
        raise ValueError("replicates must be >= 2")
    seps = sorted(float(s) for s in separations)
    if seps and seps[0] < 0:
        raise ValueError("separations must be >= 0")
    b = float(box_size)
    base = Window(np.array([0.0, 0.0]), np.array([b, b]))
    cover = Window(np.array([0.0, 0.0]), np.array([b + (seps[-1] if seps else 0.0), b]))
    children = spawn(seed, replicates)
    masses = np.zeros((replicates, 1 + len(seps)))
    for r in range(replicates):
        env = realize_environment(model, cover, guard_margin, children[r])
        masses[r, 0] = total_mass(env, base)
        for k, s in enumerate(seps):
            shifted = Window(np.array([s, 0.0]), np.array([s + b, b]))
            masses[r, k + 1] = total_mass(env, shifted)
    out = []
    m0 = masses[:, 0] - masses[:, 0].mean()
    for k, s in enumerate(seps):
        ms = masses[:, k + 1] - masses[:, k + 1].mean()
        products = m0 * ms
        cov = float(products.sum() / (replicates - 1))
        se = float(products.std(ddof=1) / math.sqrt(replicates))
        out.append(
            {"separation": s, "covariance": cov, "stderr": se, "replicates": replicates}
        )
    return out
