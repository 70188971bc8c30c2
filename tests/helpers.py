"""Shared independent oracles for the test suite, and the corrupted chain of
its negative controls.

The oracles are deliberately naive: plain loops, no spatial indexing, no
reuse of the library's fast paths.  Tests compare the library against these.
"""
from __future__ import annotations

import math

import numpy as np

from wrlab import wr_gibbs
from wrlab.geometry import Configuration, Window

# values of geometry._DIRECT_PAIRS under which every distance test takes the
# KD-tree, and under which every one compares all pairs directly
DIRECT_CUTS = (0, 10**12)


def random_window(rng, dim=2, max_side=10.0) -> Window:
    lo = rng.uniform(-5.0, 5.0, size=dim)
    sides = rng.uniform(1.0, max_side, size=dim)
    return Window(lo, lo + sides)


def random_configuration(rng, n, window: Window) -> Configuration:
    pts = rng.uniform(window.lower, window.upper, size=(n, window.dim))
    return Configuration(pts)


def pairwise_adjacency(points: np.ndarray, r: float) -> list[list[int]]:
    n = len(points)
    adj = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if np.linalg.norm(points[i] - points[j]) <= r:
                adj[i].append(j)
                adj[j].append(i)
    return adj


def boundary_reachable_points(points: np.ndarray, window: Window, a: float) -> set[int]:
    """Indices connected to the boundary: breadth-first search from every
    point within 2a of the boundary through the 2a-adjacency graph."""
    r = 2.0 * a
    n = len(points)
    adj = pairwise_adjacency(points, r)
    start = [
        i
        for i in range(n)
        if min(
            min(points[i][k] - window.lower[k], window.upper[k] - points[i][k])
            for k in range(window.dim)
        )
        <= r
    ]
    seen = set(start)
    queue = list(start)
    while queue:
        i = queue.pop()
        for j in adj[i]:
            if j not in seen:
                seen.add(j)
                queue.append(j)
    return seen


def canonical_labels(labels) -> list[int]:
    """Relabel component ids by first occurrence so labelings compare."""
    mapping: dict[int, int] = {}
    out = []
    for lab in labels:
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out.append(mapping[lab])
    return out


# -- finite-sum oracles for the tiny-mass two-colored model -----------------
#
# With the ball radius above the window diameter every pair of points is
# within 2a, so a colored configuration is viable iff it is monochrome; with
# a plus-wired boundary (every point being within 2a of the boundary) it is
# viable iff all points are plus.  Everything is then a function of the
# Poisson counts alone.


def acceptance_all_plus(m: float) -> float:
    """P(viable) under plus-wiring: the minus half must be empty."""
    return math.exp(-m)


def acceptance_monochrome(m: float, terms: int = 60) -> float:
    """P(viable) with a free boundary: all points share one color."""
    total = 1.0  # n = 0
    for n in range(1, terms):
        total += (2.0 * m) ** n / math.factorial(n) * 2.0 ** (1 - n)
    return math.exp(-2.0 * m) * total


def count_law_all_plus(m: float, top: int) -> np.ndarray:
    """Accepted-count law under plus-wiring: exactly Poisson(m)."""
    return np.array([math.exp(-m) * m**n / math.factorial(n) for n in range(top + 1)])


def count_law_monochrome(m: float, top: int) -> np.ndarray:
    norm = 2.0 * math.exp(m) - 1.0
    probs = [1.0 / norm]
    for n in range(1, top + 1):
        probs.append(2.0 * m**n / (math.factorial(n) * norm))
    return np.array(probs)


def scale_block_sampler_activity(monkeypatch, factor: float) -> None:
    """A corrupted block Gibbs sampler: every half-step proposes from a
    Poisson draw at activity ``factor * z``, so the chain targets
    ``factor * z``, while the consistency check's exact resampling of the
    count box, which draws through ``intensity``, stays at ``z``.  The
    consistency check's negative control."""
    honest = wr_gibbs.poisson_draw
    monkeypatch.setattr(wr_gibbs, "poisson_draw", lambda env, window, z: honest(env, window, factor * z))
