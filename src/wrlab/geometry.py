"""Points, windows, and Boolean-model connectivity (free and wired).

Connectivity convention: closed balls of radius ``a``; two points are adjacent
iff their distance is <= 2a, and a point is adjacent to the window boundary
iff its distance to the boundary of the box is <= 2a.  The boundary acts as a
single ghost component ("wired" counting).  Ties at exactly 2a connect; they
have probability zero under any atomless environment but the rule must be
deterministic for the test oracles.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np


@dataclass(frozen=True)
class Window:
    """Axis-aligned box given by its lower and upper corners."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("lower and upper must be vectors of equal length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("window corners must be finite")
        if not (lo < hi).all():
            raise ValueError(f"need lower < upper on every axis, got {lo} vs {hi}")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @classmethod
    def cube(cls, side: float, dim: int = 2, origin: float = 0.0) -> "Window":
        return cls(np.full(dim, origin), np.full(dim, origin + side))

    def centered_cube(self, side: float) -> "Window":
        """The cube of the given side centred in this window."""
        center = (self.lower + self.upper) / 2.0
        return Window(center - side / 2.0, center + side / 2.0)

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def sides(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def volume(self) -> float:
        return float(np.prod(self.sides))

    def expand(self, margin: float) -> "Window":
        return Window(self.lower - margin, self.upper + margin)

    def contains_window(self, other: "Window", tol: float = 1e-9) -> bool:
        return bool(
            (other.lower >= self.lower - tol).all()
            and (other.upper <= self.upper + tol).all()
        )

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of points inside the closed box."""
        pts = np.asarray(points, dtype=float)
        if pts.size == 0:
            return np.zeros(0, dtype=bool)
        return ((pts >= self.lower) & (pts <= self.upper)).all(axis=1)

    def boundary_distance(self, points: np.ndarray) -> np.ndarray:
        """Distance from interior points to the topological boundary of the box.

        Computed per axis against both faces, never by discretizing the
        boundary.  For a point outside the box the value is negative.
        """
        pts = np.asarray(points, dtype=float)
        if pts.size == 0:
            return np.zeros(0, dtype=float)
        d_low = pts - self.lower
        d_high = self.upper - pts
        return np.minimum(d_low, d_high).min(axis=1)

    def distance_to_box(self, points: np.ndarray) -> np.ndarray:
        """Euclidean distance from points to this box (0 inside)."""
        pts = np.asarray(points, dtype=float)
        gap = np.maximum(np.maximum(self.lower - pts, pts - self.upper), 0.0)
        return np.sqrt((gap**2).sum(axis=1))


def has_duplicate_rows(pts: np.ndarray) -> bool:
    """Whether two rows of an (n, d) array are equal, as ``np.unique(axis=0)``
    finds them (``-0.0 == 0.0``).

    A lexicographic sort puts equal rows next to each other, so one
    comparison of neighbouring rows finds every duplicate.  Equal rows share
    their first coordinate, so that sort runs only when a sort of the first
    column finds a tie, which continuous draws almost never have.  Both are
    ``np.lexsort``, whose code a process already holds: ``np.sort`` would
    map about 0.3 MB more.
    """
    if len(pts) < 2:
        return False
    if pts.shape[1]:
        first = pts[np.lexsort((pts[:, 0],)), 0]
        if not (first[1:] == first[:-1]).any():
            return False
        pts = pts[np.lexsort(pts.T[::-1])]
    return bool((pts[1:] == pts[:-1]).all(axis=1).any())


@dataclass(frozen=True)
class Configuration:
    """A finite unmarked point set, stored as an (n, d) array.

    Exact duplicates are rejected: they cannot occur under an atomless
    environment and they break the labeling invariants.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be an (n, d) array; use Configuration.empty(d)")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        if has_duplicate_rows(pts):
            raise ValueError("duplicate points are not allowed")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @classmethod
    def empty(cls, dim: int) -> "Configuration":
        return cls(np.zeros((0, dim)))

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class ConnectivityParams:
    """Ball radius and whether the boundary joins as a ghost component."""

    a: float
    wired: bool = False

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError(f"ball radius a must be positive, got {self.a}")


@dataclass(frozen=True)
class ComponentLabeling:
    """Union-find output over the Boolean model of a configuration.

    ``labels`` are free-component ids in [0, num_components_free);
    ``touches_boundary[k]`` says whether free component k lies within 2a of
    the window boundary.  ``num_components_wired`` counts components after
    merging all boundary-touching ones with the ghost boundary component; it
    is None when the labeling was built with ``wired=False``.
    """

    labels: np.ndarray
    num_components_free: int
    touches_boundary: np.ndarray
    num_components_wired: int | None
    a: float

    def component_sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_components_free)


def build_components(
    conf: Configuration, params: ConnectivityParams, window: Window
) -> ComponentLabeling:
    """Label the 2a-connectivity components of a configuration in a window.

    Neighbor pairs come from a KD-tree range query; component labels from a
    sparse connected-components pass.  Both are exact for the closed <= 2a
    rule, and the whole thing is checked against the brute-force oracle in
    the test suite.
    """
    pts = conf.points
    n = len(conf)
    if n and not window.contains(pts).all():
        bad = pts[~window.contains(pts)][0]
        raise ValueError(f"point {bad} lies outside the window")
    r = 2.0 * params.a

    if n == 0:
        labels = np.zeros(0, dtype=np.int64)
        touches = np.zeros(0, dtype=bool)
        wired = 1 if params.wired else None
        return ComponentLabeling(labels, 0, touches, wired, params.a)

    from scipy import sparse
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree

    tree = cKDTree(pts)
    pairs = tree.query_pairs(r, output_type="ndarray")
    if len(pairs):
        ones = np.ones(len(pairs), dtype=np.int8)
        graph = sparse.coo_matrix((ones, (pairs[:, 0], pairs[:, 1])), shape=(n, n))
        num_free, labels = connected_components(graph, directed=False)
    else:
        num_free, labels = n, np.arange(n, dtype=np.int64)

    point_touches = window.boundary_distance(pts) <= r
    touches = np.zeros(num_free, dtype=bool)
    np.logical_or.at(touches, labels[point_touches], True)

    wired_count = None
    if params.wired:
        wired_count = int(num_free - touches.sum() + 1)
    return ComponentLabeling(labels, int(num_free), touches, wired_count, params.a)


def brute_force_components(
    conf: Configuration, params: ConnectivityParams, window: Window
) -> ComponentLabeling:
    """O(n^2) pairwise oracle for build_components, kept deliberately naive.

    No spatial index, no scipy graph machinery: plain union-find over all
    pairs.  Only suitable for small n; the fast path must agree with this
    exactly.
    """
    pts = conf.points
    n = len(conf)
    if n and not window.contains(pts).all():
        raise ValueError("point outside window")
    r2 = (2.0 * params.a) ** 2

    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if ((pts[i] - pts[j]) ** 2).sum() <= r2:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj

    roots = [find(i) for i in range(n)]
    order: dict[int, int] = {}
    labels = np.zeros(n, dtype=np.int64)
    for i, root in enumerate(roots):
        if root not in order:
            order[root] = len(order)
        labels[i] = order[root]
    num_free = len(order)

    touches = np.zeros(num_free, dtype=bool)
    for i in range(n):
        dist = min(
            min(pts[i][k] - window.lower[k], window.upper[k] - pts[i][k])
            for k in range(window.dim)
        )
        if dist <= 2.0 * params.a:
            touches[labels[i]] = True

    wired_count = int(num_free - touches.sum() + 1) if params.wired else None
    return ComponentLabeling(labels, num_free, touches, wired_count, params.a)


def boundary_connected_count(
    labeling: ComponentLabeling, conf: Configuration, delta: Window
) -> int:
    """Number of points in ``delta`` wired to the boundary component."""
    if labeling.num_components_wired is None:
        raise ValueError("labeling was built without wiring")
    if len(conf) == 0:
        return 0
    in_delta = delta.contains(conf.points)
    return int((in_delta & labeling.touches_boundary[labeling.labels]).sum())


def has_crossing(
    labeling: ComponentLabeling, conf: Configuration, window: Window, axis: int
) -> bool:
    """True iff one component reaches within 2a of both faces along ``axis``."""
    if not 0 <= axis < window.dim:
        raise ValueError(f"axis {axis} out of range for dimension {window.dim}")
    if len(conf) == 0:
        return False
    r = 2.0 * labeling.a
    coord = conf.points[:, axis]
    near_low = coord - window.lower[axis] <= r
    near_high = window.upper[axis] - coord <= r
    if not (near_low.any() and near_high.any()):
        return False
    low_labels = np.unique(labeling.labels[near_low])
    high_labels = np.unique(labeling.labels[near_high])
    return bool(np.intersect1d(low_labels, high_labels, assume_unique=True).size)


class GridIndex:
    """Uniform-grid neighbor index: the one place that maps points to cells.

    Every point within ``cell`` of a query (``<=``, as in
    :func:`build_components`) lies in the 3^d cells around the query's cell.
    The stored side is ``cell * (1 + 2^-20)``: with the bare side, rounding
    in ``(pos - lower) // side`` can put two points exactly ``cell`` apart
    two cells apart (x = 0.9999999999999994 and 1.9999999999999996 from the
    corner -5 with side 1 get keys 5 and 7); within about 2^30 cells of zero
    the rounding stays far below the padding.  Keys are integer cell tuples,
    values are sets of point ids; updates are O(1).
    """

    __slots__ = ("lower", "cell", "dim", "cells")

    def __init__(self, window: Window, cell: float):
        if not cell > 0:
            raise ValueError("cell side must be positive")
        self.lower = window.lower.tolist()
        self.cell = cell * (1.0 + 2.0**-20)
        self.dim = window.dim
        self.cells: dict[tuple, set] = {}

    def key(self, pos) -> tuple:
        c = self.cell
        lo = self.lower
        if self.dim == 2:
            return (int((pos[0] - lo[0]) // c), int((pos[1] - lo[1]) // c))
        return tuple(int((pos[k] - lo[k]) // c) for k in range(self.dim))

    def add(self, idx: int, pos) -> None:
        self.cells.setdefault(self.key(pos), set()).add(idx)

    def remove(self, idx: int, pos) -> None:
        key = self.key(pos)
        bucket = self.cells[key]
        bucket.discard(idx)
        if not bucket:
            del self.cells[key]

    def nearby(self, pos) -> list:
        """Point ids in the 3^d cells around ``pos`` (caller distance-checks)."""
        cells = self.cells
        if self.dim == 2:
            c = self.cell
            lo = self.lower
            bx = int((pos[0] - lo[0]) // c)
            by = int((pos[1] - lo[1]) // c)
            out: list = []
            for ix in (bx - 1, bx, bx + 1):
                for iy in (by - 1, by, by + 1):
                    bucket = cells.get((ix, iy))
                    if bucket:
                        out.extend(bucket)
            return out
        base = self.key(pos)
        out = []
        # generic dimension
        ranges = [(b - 1, b, b + 1) for b in base]
        for key in product(*ranges):
            bucket = cells.get(key)
            if bucket:
                out.extend(bucket)
        return out
