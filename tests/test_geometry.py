import numpy as np
import pytest
from hypothesis import example, given, settings as hypothesis_settings, strategies as st

from wrlab.geometry import (
    ComponentLabeling,
    Configuration,
    ConnectivityParams,
    GridIndex,
    Window,
    boundary_connected_count,
    brute_force_components,
    build_components,
    has_crossing,
    has_duplicate_rows,
)

from wrlab.wr_gibbs import MarkedConfiguration

from helpers import (
    boundary_reachable_points,
    canonical_labels,
    random_configuration,
    random_window,
)


def test_window_validation():
    with pytest.raises(ValueError):
        Window(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        Window(np.array([0.0]), np.array([np.inf]))
    win = Window.cube(4.0, 2)
    assert win.volume == 16.0
    assert win.dim == 2


def test_configuration_rejects_duplicates_and_nonfinite():
    with pytest.raises(ValueError):
        Configuration(np.array([[0.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        Configuration(np.array([[np.nan, 0.0]]))
    assert len(Configuration.empty(2)) == 0


# few distinct values, signed zeros among them, so that ties are common
TIE_VALUES = st.sampled_from([0.0, -0.0, 0.5, 1.0])
TIE_ROWS = st.integers(1, 3).flatmap(
    lambda d: st.lists(st.lists(TIE_VALUES, min_size=d, max_size=d), max_size=7).map(
        lambda rows: np.array(rows, dtype=float).reshape(-1, d)
    )
)


@hypothesis_settings(max_examples=400, deadline=None)
@given(pts=TIE_ROWS)
@example(pts=np.zeros((0, 2)))
@example(pts=np.array([[0.5, 1.0]]))
@example(pts=np.array([[0.0, 0.5], [-0.0, 0.5]]))
@example(pts=np.array([[0.5, 0.0], [0.5, 1.0]]))
@example(pts=np.array([[0.0, 1.0], [0.5, 1.0], [1.0, 1.0]]))
@example(pts=np.array([[1.0, 0.5], [0.0, 0.5], [1.0, -0.0], [1.0, 0.5]]))
def test_duplicate_check_matches_unique_rows(pts):
    expected = len(pts) > 1 and len(np.unique(pts, axis=0)) != len(pts)
    assert has_duplicate_rows(pts) == expected
    for build in (Configuration, lambda p: MarkedConfiguration(p, np.ones(len(p), dtype=np.int8))):
        if expected:
            with pytest.raises(ValueError, match="duplicate"):
                build(pts)
        else:
            build(pts)


def test_connectivity_params_require_positive_radius():
    with pytest.raises(ValueError):
        ConnectivityParams(0.0)
    with pytest.raises(ValueError):
        ConnectivityParams(-1.0)


def test_empty_configuration_wired_count_is_one():
    win = Window.cube(5.0, 2)
    lab = build_components(Configuration.empty(2), ConnectivityParams(1.0, wired=True), win)
    assert lab.num_components_free == 0
    assert lab.num_components_wired == 1


def test_two_points_at_distance_one_share_a_component():
    # distance 1 <= 2a with a = 1; both points far from the boundary
    win = Window(np.array([-10.0, -10.0]), np.array([10.0, 10.0]))
    conf = Configuration(np.array([[0.0, 0.0], [1.0, 0.0]]))
    lab = build_components(conf, ConnectivityParams(1.0, wired=True), win)
    assert lab.num_components_free == 1
    assert lab.num_components_wired == 2


def test_point_outside_window_rejected():
    win = Window.cube(1.0, 2)
    conf = Configuration(np.array([[2.0, 0.5]]))
    with pytest.raises(ValueError, match="outside"):
        build_components(conf, ConnectivityParams(0.2), win)


def test_build_components_matches_brute_force_oracle():
    rng = np.random.default_rng(20260808)
    params_pool = [0.3, 0.5, 1.0, 2.0]
    for trial in range(1000):
        win = random_window(rng)
        n = int(rng.integers(0, 13))
        conf = random_configuration(rng, n, win)
        params = ConnectivityParams(params_pool[trial % 4], wired=True)
        fast = build_components(conf, params, win)
        slow = brute_force_components(conf, params, win)
        assert fast.num_components_free == slow.num_components_free
        assert fast.num_components_wired == slow.num_components_wired
        assert canonical_labels(fast.labels) == canonical_labels(slow.labels)
        # per-component boundary flags agree up to the same relabeling
        for i in range(n):
            assert (
                fast.touches_boundary[fast.labels[i]]
                == slow.touches_boundary[slow.labels[i]]
            )


@hypothesis_settings(max_examples=150, deadline=None)
@given(
    sites=st.sets(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=30),
    a=st.sampled_from([0.25, 0.5, 0.75]),
    wired=st.booleans(),
)
def test_build_components_matches_brute_force_on_lattice_ties(sites, a, wired):
    # a 0.5-spaced lattice in [0, 4]^2 puts pairs and boundary distances at
    # exactly 2a for every radius drawn
    win = Window.cube(4.0, 2)
    pts = np.array(sorted((0.5 * i, 0.5 * j) for i, j in sites), dtype=float).reshape(-1, 2)
    conf = Configuration(pts)
    params = ConnectivityParams(a, wired=wired)
    fast = build_components(conf, params, win)
    slow = brute_force_components(conf, params, win)
    assert fast.num_components_free == slow.num_components_free
    assert fast.num_components_wired == slow.num_components_wired
    assert canonical_labels(fast.labels) == canonical_labels(slow.labels)
    for i in range(len(conf)):
        assert fast.touches_boundary[fast.labels[i]] == slow.touches_boundary[slow.labels[i]]


def test_wired_count_monotonicity_under_insertion():
    rng = np.random.default_rng(7)
    win = Window.cube(8.0, 2)
    params = ConnectivityParams(0.6, wired=True)
    for _ in range(300):
        conf = random_configuration(rng, int(rng.integers(0, 20)), win)
        before = build_components(conf, params, win).num_components_wired
        extra = rng.uniform(win.lower, win.upper, size=(1, 2))
        grown = Configuration(np.vstack([conf.points, extra]))
        after = build_components(grown, params, win).num_components_wired
        assert after <= before + 1
        assert after >= 1


def test_translation_covariance():
    rng = np.random.default_rng(11)
    for _ in range(100):
        win = random_window(rng)
        conf = random_configuration(rng, int(rng.integers(0, 15)), win)
        shift = rng.uniform(-20.0, 20.0, size=2)
        params = ConnectivityParams(0.8, wired=True)
        lab = build_components(conf, params, win)
        moved = Configuration(conf.points + shift) if len(conf) else Configuration.empty(2)
        moved_win = Window(win.lower + shift, win.upper + shift)
        lab2 = build_components(moved, params, moved_win)
        assert lab.num_components_free == lab2.num_components_free
        assert lab.num_components_wired == lab2.num_components_wired
        assert canonical_labels(lab.labels) == canonical_labels(lab2.labels)
        if len(conf):
            assert has_crossing(lab, conf, win, 0) == has_crossing(lab2, moved, moved_win, 0)


def test_boundary_connected_count_trivial_cases():
    win = Window.cube(4.0, 2)
    params = ConnectivityParams(1.0, wired=True)
    empty = Configuration.empty(2)
    lab = build_components(empty, params, win)
    assert boundary_connected_count(lab, empty, win) == 0

    # one point 0.5 from the left face: within 2a of the boundary
    conf = Configuration(np.array([[0.5, 2.0]]))
    lab = build_components(conf, params, win)
    assert boundary_connected_count(lab, conf, win) == 1


def test_boundary_connected_count_requires_wiring():
    win = Window.cube(4.0, 2)
    conf = Configuration(np.array([[0.5, 2.0]]))
    lab = build_components(conf, ConnectivityParams(1.0, wired=False), win)
    with pytest.raises(ValueError, match="wir"):
        boundary_connected_count(lab, conf, win)


def test_boundary_connected_count_matches_bfs_oracle():
    rng = np.random.default_rng(23)
    for _ in range(300):
        win = random_window(rng, max_side=6.0)
        n = int(rng.integers(0, 12))
        conf = random_configuration(rng, n, win)
        a = float(rng.uniform(0.2, 1.0))
        lab = build_components(conf, ConnectivityParams(a, wired=True), win)
        lo = win.lower + rng.uniform(0, 0.3 * win.sides, size=2)
        hi = hi_corner = win.upper - rng.uniform(0, 0.3 * win.sides, size=2)
        delta = Window(np.minimum(lo, hi_corner - 1e-3), np.maximum(lo + 1e-3, hi_corner))
        reachable = boundary_reachable_points(conf.points, win, a)
        expected = sum(
            1
            for i in range(n)
            if i in reachable and delta.contains(conf.points[i : i + 1])[0]
        )
        assert boundary_connected_count(lab, conf, delta) == expected


def test_has_crossing_examples():
    win = Window(np.array([0.0, 0.0]), np.array([10.0, 6.0]))
    params = ConnectivityParams(1.0)
    empty = Configuration.empty(2)
    lab = build_components(empty, params, win)
    assert not has_crossing(lab, empty, win, 0)

    chain = np.array([[1.0, 2.0], [3.0, 2.0], [5.0, 2.0], [7.0, 2.0], [9.0, 2.0]])
    conf = Configuration(chain)
    lab = build_components(conf, params, win)
    assert has_crossing(lab, conf, win, 0)
    # the chain sits 4 > 2a away from the high face of axis 1
    assert not has_crossing(lab, conf, win, 1)

    # removing any single point breaks a chain with spacing exactly 2a
    for drop in range(len(chain)):
        short = Configuration(np.delete(chain, drop, axis=0))
        lab_short = build_components(short, params, win)
        assert not has_crossing(lab_short, short, win, 0)


def test_has_crossing_is_monotone_under_insertion():
    rng = np.random.default_rng(5)
    win = Window.cube(6.0, 2)
    params = ConnectivityParams(0.5)
    for _ in range(200):
        conf = random_configuration(rng, int(rng.integers(1, 25)), win)
        lab = build_components(conf, params, win)
        before = has_crossing(lab, conf, win, 0)
        grown = Configuration(
            np.vstack([conf.points, rng.uniform(win.lower, win.upper, size=(1, 2))])
        )
        lab2 = build_components(grown, params, win)
        after = has_crossing(lab2, grown, win, 0)
        assert after or not before


def test_has_crossing_axis_out_of_range():
    win = Window.cube(4.0, 2)
    conf = Configuration(np.array([[1.0, 1.0]]))
    lab = build_components(conf, ConnectivityParams(1.0), win)
    with pytest.raises(ValueError, match="axis"):
        has_crossing(lab, conf, win, 2)


def test_grid_index_add_remove_nearby():
    win = Window.cube(10.0, 2)
    grid = GridIndex(win, 1.0)
    grid.add(0, (1.0, 1.0))
    grid.add(1, (1.4, 1.2))
    grid.add(2, (8.0, 8.0))
    near = set(grid.nearby((1.2, 1.1)))
    assert near == {0, 1}
    grid.remove(1, (1.4, 1.2))
    assert set(grid.nearby((1.2, 1.1))) == {0}


@hypothesis_settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["add", "remove"]),
            st.integers(0, 11),
            st.tuples(st.integers(0, 16), st.integers(0, 16)),
        ),
        max_size=60,
    ),
    probes=st.lists(st.tuples(st.integers(0, 16), st.integers(0, 16)), max_size=6),
)
def test_grid_index_nearby_matches_brute_force(ops, probes):
    # cell 0.5 from the corner (-1, 2); sites every 0.25 put points and probes
    # on cell boundaries; sites (0, 0) and (16, 16) are the window's corners
    lower = np.array([-1.0, 2.0])
    win = Window(lower, lower + 4.0)
    cell = 0.5
    site = lambda i, j: (-1.0 + 0.25 * i, 2.0 + 0.25 * j)
    grid = GridIndex(win, cell)
    live: dict[int, tuple] = {}
    removed: set[int] = set()
    for op, idx, (i, j) in ops:
        if op == "add" and idx not in live:
            live[idx] = site(i, j)
            grid.add(idx, live[idx])
            removed.discard(idx)
        elif op == "remove" and idx in live:
            grid.remove(idx, live.pop(idx))
            removed.add(idx)
    for i, j in [(0, 0), (16, 16), *probes]:
        pos = site(i, j)
        near = grid.nearby(pos)
        assert len(near) == len(set(near))
        assert not set(near) & removed
        assert set(near) <= set(live)
        for idx, q in live.items():
            gap = max(abs(q[0] - pos[0]), abs(q[1] - pos[1]))
            if gap <= cell:
                assert idx in near, (idx, q, pos)
            # the stored side is the nominal cell padded by a hair
            if gap >= 2 * grid.cell:
                assert idx not in near, (idx, q, pos)


# two points whose computed squared gap is exactly (2a)^2 = 1 with a = 0.5;
# with an unpadded unit cell from the corner -5 their keys are 5 and 7
TIE_WINDOW = Window(np.array([-5.0, -5.0]), np.array([5.0, 5.0]))
TIE_PAIR = ((0.9999999999999994, 0.0), (1.9999999999999996, 0.0))


def test_grid_index_finds_a_pair_at_exactly_the_radius():
    p, q = TIE_PAIR
    assert (q[0] - p[0]) ** 2 == 1.0
    conf = Configuration(np.array(TIE_PAIR))
    assert build_components(conf, ConnectivityParams(0.5), TIE_WINDOW).num_components_free == 1
    grid = GridIndex(TIE_WINDOW, 1.0)
    grid.add(0, p)
    assert 0 in grid.nearby(q)


def _farthest_within(p: float, cell: float, step: float) -> float:
    """The float farthest from ``p`` towards ``step`` whose computed
    ``(q - p) ** 2`` is at most ``cell ** 2`` (bisection: the computed
    gap grows monotonically with q)."""
    within, beyond = p, p + 2.0 * step * cell
    while True:
        mid = (within + beyond) / 2.0
        if mid in (within, beyond):
            return within
        if (mid - p) ** 2 <= cell * cell:
            within = mid
        else:
            beyond = mid


@hypothesis_settings(max_examples=300, deadline=None)
@given(
    origin=st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
    cell=st.floats(0.01, 5.0),
    edge=st.integers(-40, 40),
    ulps=st.integers(1, 4),
    step=st.sampled_from([1.0, -1.0]),
)
def test_grid_index_finds_every_pair_within_the_radius_at_cell_edges(origin, cell, edge, ulps, step):
    # p sits a few ulps inside a cell edge (below it when q lies above), q
    # at the farthest float still within the radius: rounding in the keys
    # must not put them two cells apart
    lower = np.array(origin)
    grid = GridIndex(Window(lower, lower + 1.0), cell)
    x = origin[0] + edge * cell
    for _ in range(ulps):
        x = float(np.nextafter(x, -step * np.inf))
    p = (x, origin[1])
    q = (_farthest_within(x, cell, step), origin[1])
    assert (q[0] - p[0]) ** 2 <= cell * cell
    grid.add(0, p)
    assert 0 in grid.nearby(q)


def test_three_dimensional_components():
    win = Window.cube(4.0, 3)
    pts = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.9], [3.0, 3.0, 3.0]])
    conf = Configuration(pts)
    lab = build_components(conf, ConnectivityParams(0.5, wired=True), win)
    slow = brute_force_components(conf, ConnectivityParams(0.5, wired=True), win)
    assert lab.num_components_free == slow.num_components_free == 2
    assert lab.num_components_wired == slow.num_components_wired
