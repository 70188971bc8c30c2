"""The continuum random-cluster model and its domination machinery.

The model reweights a Poisson configuration by ``2**(C - 1)`` where ``C``
counts the connected components of the Boolean model with the window boundary
wired in as a ghost component.  It is exactly the colour marginal of the
plus-wired two-coloured measure (Chayes, Chayes & Kotecký, CMP 172 (1995)
551-569), so it is sampled by colour dropping from the plus-wired block Gibbs
sampler (:func:`sample_rc_by_color_dropping`); that sampler runs the
domination check.  A direct birth-death chain on the weighted density
(:func:`run_rc_chain`) is the independent oracle: it gives the
boundary-connected side of the two-sampler identity, and the tests hold
colour dropping against it.  Both take the two-colored measure's
:class:`~wrlab.wr_gibbs.WRParams` (ball radius, activity, environment,
window).  The conditional-intensity ratio ``2**dC / tau`` drives the
stochastic domination check: with ``tau <= 2**(-K)`` for a merge bound ``K``
the ratio never drops below 1, so the thinned Poisson process is dominated
in every increasing statistic.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np
from scipy.spatial import cKDTree

from .geometry import (
    Configuration,
    ConnectivityParams,
    GridIndex,
    Window,
    build_components,
)
from .intensity import dominating_measure, poisson_draw, total_mass
from .rng import UniformBlocks, as_generator, spawn
from .stats import EstimateWithError, batch_means, combined_sigma, pool_independent, summarize_replicates
from .wr_gibbs import (
    MCMCSettings,
    PLUS_WIRED,
    WRParams,
    _block_gibbs_states,
    estimate_order_parameter,
)

# the weighted chain's move mix: a uniform below this proposes a birth,
# otherwise a death
_BIRTH_BELOW = 0.5


@dataclass(frozen=True)
class DominationConfig:
    """Thinning factor and the merge bound that justifies it."""

    tau: float
    merge_bound: int

    def __post_init__(self):
        if self.merge_bound < 1:
            raise ValueError("merge_bound must be >= 1")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must be in (0, 1]")
        if self.tau > 2.0 ** (-self.merge_bound) + 1e-15:
            raise ValueError(
                f"tau={self.tau} violates tau <= 2^-{self.merge_bound}; "
                "the domination hypothesis fails"
            )


@dataclass(frozen=True)
class IncreasingStatistic:
    """A named functional required to be monotone under point insertion."""

    name: str
    fn: Callable[[Configuration], float]

    def __call__(self, conf: Configuration) -> float:
        return float(self.fn(conf))


def rc_component_exponent(conf: Configuration, a: float, window: Window) -> int:
    """Wired component count minus one (the weight is 2 to this power)."""
    labeling = build_components(conf, ConnectivityParams(a, wired=True), window)
    return labeling.num_components_wired - 1


def _wired_merge_delta(k_free: int, touching: int, x_touches: bool) -> int:
    """Change of the wired component count when one point is inserted.

    ``k_free`` distinct free components sit within 2a of the new point, of
    which ``touching`` already touch the boundary; ``x_touches`` says whether
    the point itself lands within 2a of the boundary.
    """
    merged_touch = 1 if (touching >= 1 or x_touches) else 0
    return (1 - k_free) - (merged_touch - touching)


class _RcChain:
    """Birth-death chain with an incrementally maintained component count.

    Point ids are stable; the union-find forest keeps tombstones for removed
    points (dead internal nodes are harmless) and is rebuilt from scratch
    when they accumulate.  Deaths that might split a component trigger a
    local regrouping of the affected cluster before the acceptance decision.
    Births and deaths are proposed with probability 1/2 each, so the
    acceptance ratios carry no proposal factor.
    """

    def __init__(
        self,
        params: WRParams,
        settings: MCMCSettings,
        rng: np.random.Generator,
    ):
        self.params = params
        self.settings = settings
        self.r = 2.0 * params.a
        self.r2 = self.r * self.r
        self.dim = params.window.dim
        self.lo = params.window.lower.tolist()
        self.hi = params.window.upper.tolist()
        self.total, self.draw, self.thin = dominating_measure(params.env, params.window, params.z)
        # sweep length tracks the expected point count, not the dominating
        # mass (which can be far larger for peaked densities)
        if self.thin is None:
            self.sweep_mass = self.total
        else:
            self.sweep_mass = params.z * total_mass(params.env, params.window)
        self.grid = GridIndex(params.window, self.r)
        self.ub = UniformBlocks(rng)
        self.pos: dict[int, tuple] = {}
        self.active: list[int] = []
        self.slot: dict[int, int] = {}
        self.parent: dict[int, int] = {}
        self.size: dict[int, int] = {}
        self.touch: dict[int, int] = {}
        self.bnear: dict[int, bool] = {}
        self.tvals: dict[int, float] = {}
        self.free_count = 0
        self.touching_count = 0
        self.next_id = 0
        self.accepted = {"birth": 0, "death": 0}
        self.proposed = {"birth": 0, "death": 0}

    # -- component bookkeeping ---------------------------------------------

    @property
    def n(self) -> int:
        return len(self.active)

    @property
    def wired_components(self) -> int:
        return self.free_count - self.touching_count + 1

    def _boundary_near(self, pos) -> bool:
        lo, hi, r = self.lo, self.hi, self.r
        for k in range(self.dim):
            if pos[k] - lo[k] <= r or hi[k] - pos[k] <= r:
                return True
        return False

    def _dist2(self, p, q) -> float:
        s = 0.0
        for k in range(self.dim):
            diff = p[k] - q[k]
            s += diff * diff
        return s

    def find(self, i: int) -> int:
        parent = self.parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def _neighbors(self, pos, exclude: int = -1) -> list[int]:
        out = []
        pos_map = self.pos
        r2 = self.r2
        if self.dim != 2:
            for j in self.grid.nearby(pos):
                if j != exclude and self._dist2(pos, pos_map[j]) <= r2:
                    out.append(j)
            return out
        # planar case with _dist2 inlined: this runs once for every cluster
        # member that the split search of a death move visits
        x, y = pos
        for j in self.grid.nearby(pos):
            q = pos_map[j]
            dx = x - q[0]
            dy = y - q[1]
            if dx * dx + dy * dy <= r2 and j != exclude:
                out.append(j)
        return out

    def _insert(self, pos, roots: set, x_touches: bool, tval: float) -> None:
        nid = self.next_id
        self.next_id += 1
        self.pos[nid] = pos
        self.slot[nid] = len(self.active)
        self.active.append(nid)
        self.grid.add(nid, pos)
        self.bnear[nid] = x_touches
        self.tvals[nid] = tval
        self.parent[nid] = nid
        self.size[nid] = 1
        self.touch[nid] = 1 if x_touches else 0
        # merge the adjacent components into the new point's component
        k = len(roots)
        touching_before = sum(1 for r in roots if self.touch[r] > 0)
        merged_root = nid
        for r in roots:
            a, b = merged_root, r
            if self.size[a] < self.size[b]:
                a, b = b, a
            self.parent[b] = a
            self.size[a] += self.size[b]
            self.touch[a] += self.touch[b]
            merged_root = a
        merged_touch = 1 if self.touch[merged_root] > 0 else 0
        self.free_count += 1 - k
        self.touching_count += merged_touch - touching_before

    def _remove_point(self, i: int) -> None:
        pos = self.pos.pop(i)
        self.grid.remove(i, pos)
        last = self.active[-1]
        spot = self.slot.pop(i)
        if last != i:
            self.active[spot] = last
            self.slot[last] = spot
        self.active.pop()
        self.bnear.pop(i)
        self.tvals.pop(i)

    def _regroup(self, members_by_part: list[set]) -> int:
        """Re-point clusters: one star per part; returns how many parts
        touch the boundary."""
        touching = 0
        for part in members_by_part:
            rep = next(iter(part))
            tc = 0
            for m in part:
                self.parent[m] = rep
                if self.bnear[m]:
                    tc += 1
            self.size[rep] = len(part)
            self.touch[rep] = tc
            if tc > 0:
                touching += 1
        return touching

    def _split_parts(self, i: int, contacts: list[int]) -> list[set] | None:
        """Connected parts of i's cluster after removing i (grid BFS).

        None when the search from the first contact reaches every other
        contact: the cluster then stays whole, and the search stops there.
        """
        parts: list[set] = []
        assigned: set[int] = set()
        unreached = set(contacts)
        for start in contacts:
            if start in assigned:
                continue
            part = {start}
            stack = [start]
            unreached.discard(start)
            while stack:
                j = stack.pop()
                pj = self.pos[j]
                for k in self._neighbors(pj, exclude=i):
                    if k not in part and k not in assigned:
                        part.add(k)
                        stack.append(k)
                        if k in unreached:
                            unreached.discard(k)
                            if not unreached and not parts:
                                return None
            assigned |= part
            parts.append(part)
        return parts

    def rebuild(self) -> None:
        """Recompute the whole forest from :func:`build_components`'s
        clusters of the live points, clearing tombstones."""
        conf = self.to_configuration()
        labels = build_components(conf, ConnectivityParams(self.params.a), self.params.window).labels
        parts: dict[int, set] = {}
        for i, label in zip(self.active, labels.tolist()):
            parts.setdefault(label, set()).add(i)
        self.parent = {}
        self.size = {}
        self.touch = {}
        self.free_count = len(parts)
        self.touching_count = self._regroup(list(parts.values()))

    # -- moves ---------------------------------------------------------------

    def _birth(self) -> None:
        self.proposed["birth"] += 1
        if self.total == 0.0:
            return
        ub = self.ub
        pos = self.draw(ub)
        neighbors = self._neighbors(pos)
        roots = {self.find(j) for j in neighbors}
        touching = sum(1 for r in roots if self.touch[r] > 0)
        x_touches = self._boundary_near(pos)
        delta_c = _wired_merge_delta(len(roots), touching, x_touches)
        n = self.n
        ratio = self.total / (n + 1) * (2.0**delta_c)
        tval = 1.0
        if self.thin is not None:
            tval = self.thin(pos)
            if tval <= 0.0:
                return
            ratio *= tval
        if ratio < 1.0 and ub.next() >= ratio:
            return
        self._insert(pos, roots, x_touches, tval)
        self.accepted["birth"] += 1

    def _death(self) -> None:
        self.proposed["death"] += 1
        n = self.n
        if n == 0:
            return
        ub = self.ub
        i = self.active[ub.next_index(n)]
        contacts = self._neighbors(self.pos[i], exclude=i)
        root = self.find(i)
        old_flag = 1 if self.touch[root] > 0 else 0
        # None: i is isolated, or its cluster stays whole without it
        parts = self._split_parts(i, contacts) if len(contacts) > 1 else None
        if len(contacts) == 0:
            delta_c = -1 + (1 if self.bnear[i] else 0)
        elif parts is None:
            new_touch = self.touch[root] - (1 if self.bnear[i] else 0)
            delta_c = old_flag - (1 if new_touch > 0 else 0)
        else:
            new_touching = sum(
                1 for part in parts if any(self.bnear[m] for m in part)
            )
            delta_c = (len(parts) - 1) - (new_touching - old_flag)
        ratio = n / self.total * (2.0**delta_c)
        if self.thin is not None:
            ratio /= self.tvals[i]
        if ratio < 1.0 and ub.next() >= ratio:
            return
        # apply the removal to the component bookkeeping
        if len(contacts) == 0:
            self.free_count -= 1
            self.touching_count -= old_flag
        elif parts is None:
            self.touch[root] -= 1 if self.bnear[i] else 0
            new_flag = 1 if self.touch[root] > 0 else 0
            self.touching_count += new_flag - old_flag
        else:
            self._regroup(parts)
            self.free_count += len(parts) - 1
            self.touching_count += new_touching - old_flag
        self._remove_point(i)
        self.accepted["death"] += 1
        if len(self.parent) > 4 * self.n + 64:
            self.rebuild()

    def step(self) -> None:
        if self.ub.next() < _BIRTH_BELOW:
            self._birth()
        else:
            self._death()

    def moves_per_sweep(self) -> int:
        if self.settings.moves_per_sweep is not None:
            return self.settings.moves_per_sweep
        return max(1, int(round(self.sweep_mass)))

    def run(self, record) -> tuple[list, dict]:
        """Sweep per the settings; ``record(chain)`` at every retained sweep.

        Returns the records and the info dict of move counts.
        """
        settings = self.settings
        moves = self.moves_per_sweep()
        step = self.step
        records = []
        for sweep in range(settings.sweeps):
            for _ in range(moves):
                step()
            if sweep >= settings.burn_in and (sweep - settings.burn_in) % settings.thinning == 0:
                if settings.debug_checks:
                    self.check_state()
                if record is not None:
                    records.append(record(self))
        info = {
            "proposed": dict(self.proposed),
            "accepted": dict(self.accepted),
            "moves_per_sweep": moves,
            "final_n": self.n,
        }
        return records, info

    # -- views ---------------------------------------------------------------

    def to_configuration(self) -> Configuration:
        if not self.active:
            return Configuration.empty(self.dim)
        return Configuration(np.array([self.pos[i] for i in self.active]))

    def boundary_connected_in(self, delta_lo, delta_hi) -> int:
        count = 0
        for i in self.active:
            p = self.pos[i]
            inside = True
            for k in range(self.dim):
                if not delta_lo[k] <= p[k] <= delta_hi[k]:
                    inside = False
                    break
            if inside and self.touch[self.find(i)] > 0:
                count += 1
        return count

    def load(self, conf: Configuration) -> None:
        for pos in conf.points:
            p = tuple(float(v) for v in pos)
            tval = self.thin(p) if self.thin is not None else 1.0
            if tval <= 0.0:
                raise ValueError(f"initial point {p} sits where the environment density is zero")
            roots = {self.find(j) for j in self._neighbors(p)}
            self._insert(p, roots, self._boundary_near(p), tval)

    def check_state(self) -> None:
        """Debug: the incremental count must match a from-scratch labeling."""
        conf = self.to_configuration()
        expected = rc_component_exponent(conf, self.params.a, self.params.window) + 1
        if expected != self.wired_components:
            raise AssertionError(
                f"incremental component count {self.wired_components} "
                f"!= recomputed {expected}"
            )


def run_rc_chain(
    params: WRParams,
    settings: MCMCSettings,
    seed=0,
    record=None,
    init: Configuration | None = None,
):
    """Run the direct chain; returns (records, final configuration, info).

    The independent sampler of the weighted model behind
    :func:`boundary_connected_chain`, and the oracle of colour dropping.
    """
    rng = as_generator(seed)
    chain = _RcChain(params, settings, rng)
    if init is not None:
        if len(init) and not params.window.contains(init.points).all():
            raise ValueError("initial state must lie inside the window")
        chain.load(init)
    records, info = chain.run(record)
    return records, chain.to_configuration(), info


def sample_rc_by_color_dropping(
    params: WRParams, settings: MCMCSettings, seed=0
) -> list[Configuration]:
    """Positions of the plus-wired block Gibbs sampler at every retained
    sweep, colors dropped.

    The color marginal of the plus-wired two-colored measure is exactly the
    weighted model.  This is the weighted model's sampler in the domination
    check; the direct chain (:func:`run_rc_chain`) is its oracle.
    """
    return [
        Configuration(np.concatenate([plus, minus]))
        for plus, minus in _block_gibbs_states(params, PLUS_WIRED, settings, seed)
    ]


def papangelou_ratio_batch(
    xs: np.ndarray, conf: Configuration, dom: DominationConfig, a: float, window: Window
) -> np.ndarray:
    """Vectorized conditional-intensity probes sharing one labeling."""
    xs = np.asarray(xs, dtype=float)
    if not window.contains(xs).all():
        raise ValueError("probe points must lie inside the window")
    r = 2.0 * a
    labeling = build_components(conf, ConnectivityParams(a, wired=True), window)
    x_touches = window.boundary_distance(xs) <= r
    out = np.zeros(len(xs))
    if len(conf):
        tree = cKDTree(conf.points)
        neighbor_lists = tree.query_ball_point(xs, r)
    else:
        neighbor_lists = [[] for _ in range(len(xs))]
    for i, neighbors in enumerate(neighbor_lists):
        if neighbors:
            labels = np.unique(labeling.labels[neighbors])
            touching = int(labeling.touches_boundary[labels].sum())
            k_free = len(labels)
        else:
            touching = 0
            k_free = 0
        delta_c = _wired_merge_delta(k_free, touching, bool(x_touches[i]))
        out[i] = (2.0**delta_c) / dom.tau
    return out


def merge_bound_cap(d: int) -> int:
    """Packing ceiling on the components one inserted point can merge.

    In dimension 1 at most two points can sit in a radius-2a interval more
    than 2a apart; in dimension 2 at most five points fit in a closed
    radius-2a disc with pairwise distances above 2a (a hexagon needs ties).
    The wired boundary can contribute one more component.
    """
    if d == 1:
        return 3
    if d == 2:
        return 6
    raise ValueError("merge bound is implemented for dimensions 1 and 2")


def resolve_tau(tau: float | None, merge_bound: int | None, dim: int) -> DominationConfig:
    """A domination check's thinning; K defaults to ``merge_bound_cap(dim)``
    and ``tau`` to ``2^-K``.  ``wrlab validate`` and the runner both call it."""
    k = merge_bound if merge_bound is not None else merge_bound_cap(dim)
    return DominationConfig(tau if tau is not None else 2.0 ** (-k), k)


def estimate_merge_bound(d: int, a: float, probes: int = 100000, seed=0) -> int:
    """Largest observed number of components merged by one inserted point.

    Randomized adversarial search: jittered regular packings at radius just
    under 2a around the insertion point, near-wall and near-corner variants
    (where the boundary component joins in), and uniform-random probes.  The
    result is capped by the analytic packing ceiling; exceeding it would mean
    a geometry bug.
    """
    if d not in (1, 2):
        raise ValueError("merge bound is implemented for dimensions 1 and 2")
    if probes < 100000:
        raise ValueError("need at least 1e5 probes for the adversarial search")
    rng = as_generator(seed)
    cap = merge_bound_cap(d)
    side = 20.0 * a
    r = 2.0 * a
    best = 0

    def count_probe(x, candidates, wall_distance_x):
        """Distinct components merged: packed interior points + the boundary.

        Candidates within 2a of the wall belong to the boundary component
        already; they only count through the single ghost component, and any
        interior candidate within 2a of them is dropped (it would not be a
        distinct component either).
        """
        ghost = wall_distance_x <= r
        kept: list[np.ndarray] = []
        ghost_members: list[np.ndarray] = []
        for c in candidates:
            dist_x = np.linalg.norm(c - x)
            if dist_x > r:
                continue
            wall = min(min(c), side - max(c)) if d == 2 else min(c[0], side - c[0])
            if wall <= r:
                ghost = True
                ghost_members.append(c)
                continue
            kept.append(c)
        interior = []
        for c in kept:
            if all(np.linalg.norm(c - other) > r for other in interior) and all(
                np.linalg.norm(c - g) > r for g in ghost_members
            ):
                interior.append(c)
        return len(interior) + (1 if ghost else 0)

    for probe in range(probes):
        kind = probe % 4
        if d == 1:
            if kind == 0:
                x = np.array([side / 2.0])
            elif kind == 1:
                x = np.array([rng.uniform(0.0, r)])
            elif kind == 2:
                x = np.array([side - rng.uniform(0.0, r)])
            else:
                x = rng.uniform(0.0, side, size=1)
            if probe % 2 == 0:
                shrink = 1.0 - rng.uniform(0.02, 0.4)
                candidates = [x - r * shrink, x + r * shrink]
            else:
                candidates = list(
                    x + rng.uniform(-r, r, size=(4, 1))
                )
        else:
            if kind == 0:
                x = np.array([side / 2.0, side / 2.0])
            elif kind == 1:
                x = np.array([rng.uniform(0.0, r), side / 2.0])
            elif kind == 2:
                x = np.array([rng.uniform(0.0, r), rng.uniform(0.0, r)])
            else:
                x = rng.uniform(0.0, side, size=2)
            if probe % 2 == 0:
                k = int(rng.integers(2, 8))
                radius = r * (1.0 - rng.uniform(0.02, 0.15))
                angles = (
                    2.0 * math.pi * np.arange(k) / k
                    + rng.uniform(0, 2 * math.pi)
                    + rng.uniform(-0.15, 0.15, size=k) / k
                )
                candidates = [
                    x + radius * np.array([math.cos(t), math.sin(t)]) for t in angles
                ]
            else:
                offsets = rng.uniform(-r, r, size=(8, 2))
                candidates = [x + off for off in offsets]
        candidates = [
            c for c in candidates if (c >= 0.0).all() and (c <= side).all()
        ]
        wall_x = min(min(x), side - max(x)) if d == 2 else min(x[0], side - x[0])
        merged = count_probe(x, candidates, wall_x)
        if merged > best:
            best = merged
            if best > cap:
                raise RuntimeError(
                    f"observed merge count {best} exceeds the packing ceiling {cap}"
                )
    return best


def boundary_connected_chain(
    params: WRParams, delta: Window, settings: MCMCSettings, seed
) -> tuple[EstimateWithError, float]:
    """One weighted chain: batch means of the boundary-connected count in
    ``delta``; returns the estimate and its batch lag-1 autocorrelation."""
    dlo = delta.lower.tolist()
    dhi = delta.upper.tolist()
    records, _, _ = run_rc_chain(
        params,
        settings,
        seed,
        record=lambda ch: ch.boundary_connected_in(dlo, dhi),
    )
    return batch_means(records, settings.batch_count)


def _evaluate(stats: list[IncreasingStatistic], confs) -> dict[str, list[float]]:
    """Every statistic on each configuration, one configuration at a time."""
    values = {s.name: [] for s in stats}
    for conf in confs:
        for s in stats:
            values[s.name].append(s(conf))
    return values


def thinned_poisson_values(
    params: WRParams, tau: float, stats: list[IncreasingStatistic], draws: int, seed
) -> dict[str, list[float]]:
    """Each statistic on ``draws`` independent Poisson draws at activity
    ``tau * z`` (one generator for all draws)."""
    rng = as_generator(seed)
    draw = poisson_draw(params.env, params.window, tau * params.z)
    return _evaluate(stats, (Configuration(draw(rng)) for _ in range(draws)))


def statistic_chain(
    params: WRParams, stats: list[IncreasingStatistic], settings: MCMCSettings, seed
) -> dict[str, tuple[EstimateWithError, float]]:
    """One colour-dropping chain of the weighted model
    (:func:`sample_rc_by_color_dropping`): each statistic's batch-means
    estimate over the retained configurations, with the lag-1
    autocorrelation of its batch series."""
    values = _evaluate(stats, sample_rc_by_color_dropping(params, settings, seed))
    return {s.name: batch_means(values[s.name], settings.batch_count) for s in stats}


def identity_verdict(psi: EstimateWithError, nb: EstimateWithError) -> tuple[float, bool]:
    """``|psi - nb|`` in combined standard errors, and whether it is at most 3.

    :func:`check_es_identity` pools independent chains in one environment by
    their batch means; the ``rc-check`` campaign draws one environment per
    replicate and pools by the replicate variance, which also carries the
    spread between environments.
    """
    sigma = combined_sigma(psi, nb)
    return sigma, sigma <= 3.0


def domination_verdict(poisson: EstimateWithError, chain: EstimateWithError) -> tuple[float, bool]:
    """The margin ``chain - poisson`` in combined standard errors (inf when
    both are exact), and whether ``poisson <= chain + 3`` of them.

    :func:`check_domination` pools independent chains in one environment by
    their batch means; the ``domination-check`` campaign draws one
    environment per replicate and pools by the replicate variance, which
    also carries the spread between environments.
    """
    combined = math.hypot(poisson.stderr, chain.stderr)
    margin = (chain.value - poisson.value) / combined if combined > 0 else math.inf
    return margin, poisson.value <= chain.value + 3.0 * combined


def check_es_identity(
    params: WRParams,
    delta: Window,
    settings: MCMCSettings,
    replicates: int = 2,
    seed=0,
) -> dict:
    """Two independent estimates of the same number.

    The order-parameter gap from the plus-wired colored chain must equal the
    mean boundary-connected count in ``delta`` under the weighted unmarked
    model; the two sides come from entirely separate samplers.
    """
    if not params.window.contains_window(delta):
        raise ValueError("delta must lie inside the window")
    wr_seed, rc_seed = spawn(seed, 2)
    psi = estimate_order_parameter(
        params, delta, settings, replicates, wr_seed, mode="single"
    )
    nb = pool_independent(
        [
            boundary_connected_chain(params, delta, settings, child)[0]
            for child in spawn(rc_seed, replicates)
        ]
    )
    sigma_units, ok = identity_verdict(psi, nb)
    return {
        "order_parameter": asdict(psi),
        "boundary_connected": asdict(nb),
        "difference": psi.value - nb.value,
        "combined_stderr": math.hypot(psi.stderr, nb.stderr),
        "sigma_units": sigma_units,
        "pass": bool(ok),
    }


def check_domination(
    params: WRParams,
    dom: DominationConfig,
    stats: list[IncreasingStatistic],
    settings: MCMCSettings,
    replicates: int = 2,
    seed=0,
    poisson_draws: int = 2000,
) -> dict:
    """Thinned-Poisson means must not exceed weighted-model means.

    The left side is sampled exactly (independent Poisson draws at activity
    ``tau * z``); the right side runs ``replicates`` colour-dropping chains
    (:func:`statistic_chain`).  Passing means every increasing statistic
    satisfies ``poisson <= chain + 3 combined stderr``.
    """
    if dom.tau > 2.0 ** (-dom.merge_bound) + 1e-15:
        raise ValueError("tau violates the merge bound; refusing to run")
    if not stats:
        raise ValueError("need at least one increasing statistic")
    poisson_seed, rc_seed = spawn(seed, 2)
    poisson_values = thinned_poisson_values(params, dom.tau, stats, poisson_draws, poisson_seed)
    chain_means = [
        statistic_chain(params, stats, settings, child) for child in spawn(rc_seed, replicates)
    ]
    report = {"tau": dom.tau, "merge_bound": dom.merge_bound, "statistics": {}, "pass": True}
    for s in stats:
        left = summarize_replicates(poisson_values[s.name])
        right = pool_independent([means[s.name][0] for means in chain_means])
        margin, ok = domination_verdict(left, right)
        report["statistics"][s.name] = {
            "poisson": asdict(left),
            "random_cluster": asdict(right),
            "margin_sigma": margin,
            "pass": bool(ok),
        }
        report["pass"] = report["pass"] and bool(ok)
    return report
