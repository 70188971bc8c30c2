import math

import numpy as np
import pytest
from hypothesis import given, settings as hypothesis_settings, strategies as st
from scipy.spatial import cKDTree

from wrlab import percolation
from wrlab.geometry import Configuration, ConnectivityParams, Window, build_components, has_crossing
from wrlab.intensity import HomogeneousLebesgue, VoronoiEdges
from wrlab.percolation import (
    crossing_level,
    estimate_critical_intensity,
    estimate_crossing_probability,
    largest_component_fraction,
    largest_fraction,
    target_percolation_proxy,
    threshold_from_rows,
)

WIN = Window.cube(8.0, 2)


def conf_of(points):
    return Configuration(np.asarray(points, dtype=float))


def test_largest_component_fraction_trivias():
    assert largest_component_fraction(Configuration.empty(2), 1.0, WIN) == 0.0
    assert largest_component_fraction(conf_of([[4.0, 4.0]]), 1.0, WIN) == 1.0
    two = conf_of([[1.0, 1.0], [7.0, 7.0]])
    assert largest_component_fraction(two, 0.5, WIN) == 0.5


def test_target_proxy_trivials():
    delta = Window(np.array([3.5, 3.5]), np.array([4.5, 4.5]))
    assert not target_percolation_proxy(Configuration.empty(2), 0.5, WIN, delta)
    # chain from the center to the boundary with spacing exactly 2a
    xs = np.arange(4.0, 0.4, -1.0)
    chain = conf_of([[x, 4.0] for x in xs])
    assert target_percolation_proxy(chain, 0.5, WIN, delta)
    # deep interior cluster: meets delta but never reaches the boundary
    interior = conf_of([[4.0, 4.0], [4.8, 4.0]])
    assert not target_percolation_proxy(interior, 0.5, WIN, delta)


def test_target_proxy_requires_delta_inside_window():
    with pytest.raises(ValueError):
        target_percolation_proxy(Configuration.empty(2), 0.5, WIN, Window.cube(20.0, 2))


def test_scan_validation():
    model = HomogeneousLebesgue(1.0)
    with pytest.raises(ValueError):
        estimate_crossing_probability(model, [], 0.5, 8.0, 4)
    with pytest.raises(ValueError):
        estimate_crossing_probability(model, [1.0, 0.5], 0.5, 8.0, 4)
    with pytest.raises(ValueError):
        estimate_crossing_probability(model, [0.5, 1.0], 0.5, 1.0, 4)


def test_scan_zero_activity_row_is_exactly_zero():
    rows = estimate_crossing_probability(HomogeneousLebesgue(1.0), [0.0], 0.5, 8.0, 12, seed=3)
    assert rows[0].crossing_successes == 0
    assert rows[0].crossing.value == 0.0
    assert rows[0].largest_fraction.value == 0.0


def test_scan_per_seed_monotone_in_activity():
    rows, indicators = estimate_crossing_probability(
        HomogeneousLebesgue(1.0),
        [0.4, 0.9, 1.4, 1.9, 2.6],
        0.5,
        10.0,
        40,
        seed=7,
        return_indicators=True,
    )
    # coupled thinning: each replicate's indicator row is non-decreasing
    assert (np.diff(indicators.astype(int), axis=1) >= 0).all()
    probs = [row.crossing.value for row in rows]
    assert probs == sorted(probs)


@hypothesis_settings(max_examples=25, deadline=None)
@given(
    model=st.sampled_from([HomogeneousLebesgue(1.0), VoronoiEdges(1.0)]),
    zs=st.lists(st.floats(0.2, 3.0), min_size=1, max_size=5, unique=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_both_axes_indicators_sit_below_axis_zero_and_rise_with_z(model, zs, seed):
    # on the same seed both scans see the same points and uniforms, and a
    # crossing along both axes is in particular one along axis 0
    z_grid = sorted(zs)
    scan = lambda both: estimate_crossing_probability(
        model, z_grid, 0.5, 6.0, 3, seed=seed, both_axes=both, return_indicators=True
    )[1]
    axis0, both = scan(False), scan(True)
    assert (both <= axis0).all()
    assert (np.diff(both.astype(int), axis=1) >= 0).all()


def test_crossing_monotone_in_radius():
    rng = np.random.default_rng(2)
    win = Window.cube(6.0, 2)
    for _ in range(150):
        conf = Configuration(rng.uniform(0, 6, size=(int(rng.integers(1, 40)), 2)))
        small = build_components(conf, ConnectivityParams(0.4), win)
        large = build_components(conf, ConnectivityParams(0.8), win)
        crossed_small = has_crossing(small, conf, win, 0)
        crossed_large = has_crossing(large, conf, win, 0)
        assert crossed_large or not crossed_small


def test_threshold_interpolation():
    rows = estimate_crossing_probability(
        HomogeneousLebesgue(1.0), [0.6, 1.0, 1.4, 1.8, 2.4], 0.5, 12.0, 60, seed=10
    )
    z_star = threshold_from_rows(rows, 0.5)
    assert 0.6 < z_star < 2.4


def test_threshold_requires_bracketing():
    rows = estimate_crossing_probability(HomogeneousLebesgue(1.0), [0.01], 0.5, 8.0, 10, seed=1)
    with pytest.raises(ValueError, match="bracket"):
        threshold_from_rows(rows, 0.5)


@hypothesis_settings(max_examples=150, deadline=None)
@given(
    sites=st.dictionaries(
        st.tuples(st.integers(0, 8), st.integers(0, 8)),
        st.sampled_from([0.0, 1e-17, 2e-17, 0.25, 0.5, 0.9]),
        max_size=30,
    )
)
def test_crossing_level_and_largest_fraction_match_labeling_each_subset(sites):
    # a = 0.5 on a 0.5-spaced lattice in [0, 4]^2: lattice points two steps
    # apart, or one unit from a face, sit at exactly 2a; u has ties, zeros,
    # and values that 1 + u would not tell apart
    a = 0.5
    win = Window.cube(4.0, 2)
    keys = sorted(sites)
    points = np.array([(0.5 * i, 0.5 * j) for i, j in keys], dtype=float).reshape(-1, 2)
    u = np.array([sites[k] for k in keys], dtype=float)
    pairs = cKDTree(points).query_pairs(2.0 * a, output_type="ndarray")
    levels = [crossing_level(points, u, pairs, win, a, axis) for axis in (0, 1)]
    thresholds = {1.0}
    for t in set(u.tolist()):
        thresholds |= {t, float(np.nextafter(t, -math.inf))}
    for t in sorted(thresholds):
        conf = Configuration(points[u <= t])
        labeling = build_components(conf, ConnectivityParams(a), win)
        for axis in (0, 1):
            assert (levels[axis] <= t) == has_crossing(labeling, conf, win, axis)
        assert largest_fraction(u, pairs, t) == largest_component_fraction(conf, a, win)


def test_critical_intensity_quantile_is_sane():
    est = estimate_critical_intensity(HomogeneousLebesgue(1.0), 0.5, 12.0, 0.5, seed=5, replicates=60)
    # the known continuum threshold for this radius is about 1.44
    assert 0.7 < est.value < 2.5
    assert est.stderr > 0.0
    assert est.method == "order-statistic" and est.n == 60


def test_critical_intensity_rejects_bad_target():
    for target in (0.0, 1.5):
        with pytest.raises(ValueError):
            estimate_critical_intensity(HomogeneousLebesgue(1.0), 0.5, 10.0, target, seed=2)


def test_critical_intensity_doubles_top_activity_while_censored(monkeypatch):
    # density 0.1 puts the threshold near 14.4, far above the first top
    # activity 1/(2a)^2 = 1; every estimate is at most the top activity used
    model = HomogeneousLebesgue(0.1)
    est = estimate_critical_intensity(model, 0.5, 10.0, 0.5, seed=3, replicates=40)
    assert est.value > 4.0 and math.isfinite(est.stderr)
    monkeypatch.setattr(percolation, "_MAX_DOUBLINGS", 2)
    with pytest.raises(ValueError, match="censored"):
        estimate_critical_intensity(model, 0.5, 10.0, 0.5, seed=3, replicates=40)


def test_critical_intensity_decreases_with_radius():
    small = estimate_critical_intensity(HomogeneousLebesgue(1.0), 0.4, 10.0, 0.5, seed=8, replicates=60)
    large = estimate_critical_intensity(HomogeneousLebesgue(1.0), 0.8, 10.0, 0.5, seed=8, replicates=60)
    assert large.value < small.value


def test_critical_intensity_voronoi_environment_finite():
    est = estimate_critical_intensity(VoronoiEdges(1.0), 0.5, 10.0, 0.5, seed=9, replicates=50)
    assert np.isfinite(est.value) and est.value > 0.0
