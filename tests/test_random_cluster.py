import math

import numpy as np
import pytest
from hypothesis import given, settings as hypothesis_settings, strategies as st

from wrlab.geometry import Configuration, ConnectivityParams, Window, build_components
from wrlab.intensity import HomogeneousLebesgue, VoronoiEdges, realize_environment, sample_poisson
from wrlab.random_cluster import (
    _RcChain,
    DominationConfig,
    IncreasingStatistic,
    check_domination,
    check_es_identity,
    estimate_merge_bound,
    merge_bound_cap,
    papangelou_ratio,
    papangelou_ratio_batch,
    rc_component_exponent,
    run_rc_chain,
    sample_rc_by_color_dropping,
)
from wrlab.rng import as_generator, spawn
from wrlab.wr_gibbs import MCMCSettings, WRParams

UNIT = Window.cube(1.0, 2)
BIG = Window.cube(10.0, 2)


def conf_of(points):
    return Configuration(np.asarray(points, dtype=float))


def unit_params(z, a=2.0):
    env = realize_environment(HomogeneousLebesgue(1.0), UNIT, seed=0)
    return WRParams(a=a, z=z, env=env, window=UNIT)


# -- component exponent --------------------------------------------------------


def test_exponent_of_empty_configuration_is_zero():
    assert rc_component_exponent(Configuration.empty(2), 1.0, BIG) == 0


def test_exponent_counts_interior_components():
    conf = conf_of([[4.0, 4.0], [6.5, 6.5]])  # far apart, both > 2a from the boundary
    assert rc_component_exponent(conf, 0.5, BIG) == 2


def test_exponent_boundary_contact_merges_with_ghost():
    conf = conf_of([[0.5, 5.0]])
    assert rc_component_exponent(conf, 0.5, BIG) == 0


def test_exponent_insertion_delta_bounded():
    rng = np.random.default_rng(4)
    k_cap = merge_bound_cap(2)
    for _ in range(300):
        n = int(rng.integers(0, 20))
        conf = Configuration(rng.uniform(0, 10, size=(n, 2)))
        before = rc_component_exponent(conf, 0.5, BIG)
        grown = Configuration(np.vstack([conf.points, rng.uniform(0, 10, size=(1, 2))]))
        after = rc_component_exponent(grown, 0.5, BIG)
        assert -(k_cap - 1) <= after - before <= 1


# -- chains ---------------------------------------------------------------------


def test_chain_counts_match_poisson_when_weight_is_flat():
    # radius above the diameter: one wired component always, so the weight
    # is identically 1 and the chain must sample a plain Poisson count law
    m = 0.4
    params = unit_params(z=m, a=2.0)
    settings = MCMCSettings(sweeps=9200, burn_in=200, thinning=2, moves_per_sweep=8)
    records, _, _ = run_rc_chain(params, settings, seed=5, record=lambda ch: ch.n)
    counts = np.array(records)
    se = counts.std(ddof=1) / math.sqrt(len(counts) / 10.0)  # crude ESS guard
    assert abs(counts.mean() - m) <= 3.0 * max(se, 1e-3)
    law = np.array([math.exp(-m) * m**k / math.factorial(k) for k in range(9)])
    hist = np.bincount(counts, minlength=9)[:9] / len(counts)
    assert 0.5 * np.abs(hist - law / law.sum()).sum() <= 0.05


def test_incremental_component_count_consistent_over_long_runs():
    win = Window.cube(4.0, 2)
    env = realize_environment(HomogeneousLebesgue(1.0), win, seed=0)
    params = WRParams(a=0.5, z=1.2, env=env, window=win)
    settings = MCMCSettings(sweeps=600, burn_in=100, thinning=1, debug_checks=True)
    records, final, info = run_rc_chain(params, settings, seed=6, record=lambda ch: ch.wired_components)
    assert min(records) >= 1
    assert info["accepted"]["birth"] > 0 and info["accepted"]["death"] > 0


def test_incremental_count_consistent_over_segment_environment():
    win = Window.cube(5.0, 2)
    env = realize_environment(VoronoiEdges(1.0), win, seed=3)
    params = WRParams(a=0.4, z=0.8, env=env, window=win)
    settings = MCMCSettings(sweeps=400, burn_in=100, thinning=1, debug_checks=True)
    records, final, _ = run_rc_chain(params, settings, seed=7, record=lambda ch: ch.n)
    if len(final):
        # chain points live on the environment's segments
        dists = _point_segment_distances(final.points, env.segments.start, env.segments.end)
        assert dists.min(axis=1).max() < 1e-9


@hypothesis_settings(max_examples=40, deadline=None)
@given(
    sites=st.sets(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=30),
    z=st.sampled_from([0.3, 1.0, 4.0]),
    seed=st.integers(0, 2**32 - 1),
    moves=st.integers(1, 150),
)
def test_incremental_count_matches_recount_after_every_move(sites, z, seed, moves):
    # a = 0.5 on a 0.5-spaced lattice in [0, 4]^2: lattice points two steps
    # apart, or one unit from the boundary, sit at exactly 2a
    a = 0.5
    win = Window.cube(4.0, 2)
    env = realize_environment(HomogeneousLebesgue(1.0), win, seed=0)
    chain = _RcChain(WRParams(a=a, z=z, env=env, window=win), MCMCSettings(), as_generator(seed))
    uniform_draw = chain.draw

    def lattice_draw(ub):
        # births land on free lattice sites, so ties also arise from moves
        site = (0.5 * ub.next_index(9), 0.5 * ub.next_index(9))
        return uniform_draw(ub) if site in chain.pos.values() else site

    chain.draw = lattice_draw
    chain.load(conf_of(sorted((0.5 * i, 0.5 * j) for i, j in sites)) if sites else Configuration.empty(2))

    def assert_count_matches():
        expected = rc_component_exponent(chain.to_configuration(), a, win) + 1
        assert chain.wired_components == expected

    assert_count_matches()
    for _ in range(moves):
        chain.step()
        assert_count_matches()


@hypothesis_settings(max_examples=30, deadline=None)
@given(z=st.sampled_from([0.5, 1.5, 3.0]), seed=st.integers(0, 2**32 - 1), moves=st.integers(0, 400))
def test_rebuild_preserves_components_partition_and_touch_counts(z, seed, moves):
    win = Window.cube(4.0, 2)
    env = realize_environment(HomogeneousLebesgue(1.0), win, seed=0)
    start_seed, chain_seed = spawn(seed, 2)
    chain = _RcChain(WRParams(a=0.5, z=z, env=env, window=win), MCMCSettings(), as_generator(chain_seed))
    chain.load(sample_poisson(env, win, z, start_seed))
    for _ in range(moves):
        chain.step()  # deaths leave tombstones in the forest

    def snapshot():
        clusters = {}
        for i in chain.active:
            clusters.setdefault(chain.find(i), []).append(i)
        cells = sorted((sorted(members), chain.touch[root]) for root, members in clusters.items())
        return chain.wired_components, chain.free_count, chain.touching_count, cells

    before = snapshot()
    chain.rebuild()
    assert snapshot() == before
    assert sorted(chain.parent) == sorted(chain.active)
    assert chain.wired_components == rc_component_exponent(chain.to_configuration(), 0.5, win) + 1


def _point_segment_distances(points, a, b):
    """(points, segments) distances from each point to each segment a[j] b[j]."""
    ab = b - a
    ap = points[:, None, :] - a[None, :, :]
    t = np.clip((ap * ab).sum(axis=2) / (ab * ab).sum(axis=1), 0.0, 1.0)
    return np.linalg.norm(a + t[:, :, None] * ab - points[:, None, :], axis=2)


def test_step_rc_changes_state_by_at_most_one_point():
    params = unit_params(1.0, a=0.3)
    one_move = MCMCSettings(sweeps=1, burn_in=0, thinning=1, moves_per_sweep=1)
    state = Configuration.empty(2)
    for seed in range(150):
        _, new, _ = run_rc_chain(params, one_move, seed=seed, init=state)
        assert abs(len(new) - len(state)) <= 1
        state = new


def test_color_dropping_agrees_with_direct_chain():
    win = Window.cube(4.0, 2)
    env = realize_environment(HomogeneousLebesgue(1.0), win, seed=0)
    params = WRParams(a=0.5, z=1.0, env=env, window=win)
    settings = MCMCSettings(sweeps=5400, burn_in=400, thinning=2)
    dropped = sample_rc_by_color_dropping(params, settings, seed=8)
    direct_records, _, _ = run_rc_chain(
        params, settings, seed=9, record=lambda ch: ch.to_configuration()
    )

    def bin_counts(confs):
        grid = np.zeros((len(confs), 9))
        for i, conf in enumerate(confs):
            if len(conf) == 0:
                continue
            bx = np.minimum((conf.points[:, 0] / win.sides[0] * 3).astype(int), 2)
            by = np.minimum((conf.points[:, 1] / win.sides[1] * 3).astype(int), 2)
            grid[i] = np.bincount(bx * 3 + by, minlength=9)
        return grid

    ga, gb = bin_counts(dropped), bin_counts(direct_records)
    for cell in range(9):
        mean_a, mean_b = ga[:, cell].mean(), gb[:, cell].mean()
        # conservative: i.i.d. stderr inflated x3 for chain autocorrelation
        se = 3.0 * math.hypot(
            ga[:, cell].std(ddof=1) / math.sqrt(len(ga)),
            gb[:, cell].std(ddof=1) / math.sqrt(len(gb)),
        )
        assert abs(mean_a - mean_b) <= 3.0 * max(se, 1e-3), cell


# -- conditional intensity ---------------------------------------------------------


def test_papangelou_isolated_point():
    dom = DominationConfig(tau=2.0 ** (-5), merge_bound=5)
    ratio = papangelou_ratio(np.array([5.0, 5.0]), Configuration.empty(2), dom, 0.5, BIG)
    assert abs(ratio - 2.0 * 2.0**5) < 1e-12


def test_papangelou_merge_arithmetic():
    dom = DominationConfig(tau=2.0 ** (-5), merge_bound=5)
    a = 0.5
    # two separate components both within 2a of the probe point
    conf = conf_of([[5.0 - 0.95, 5.0], [5.0 + 0.95, 5.0]])
    assert rc_component_exponent(conf, a, BIG) == 2
    ratio = papangelou_ratio(np.array([5.0, 5.0]), conf, dom, a, BIG)
    assert abs(ratio - 2.0 ** (1 - 2) * 2.0**5) < 1e-12


def test_papangelou_batch_matches_single_and_stays_above_one():
    dom = DominationConfig(tau=2.0 ** (-5), merge_bound=5)
    rng = np.random.default_rng(10)
    win = Window.cube(6.0, 2)
    for _ in range(40):
        n = int(rng.integers(0, 18))
        conf = Configuration(rng.uniform(0, 6, size=(n, 2)))
        xs = rng.uniform(0, 6, size=(25, 2))
        batch = papangelou_ratio_batch(xs, conf, dom, 0.5, win)
        assert (batch >= 1.0).all()
        for i in (0, 12, 24):
            single = papangelou_ratio(xs[i], conf, dom, 0.5, win)
            assert abs(single - batch[i]) < 1e-12


# -- merge bound --------------------------------------------------------------------


def test_merge_bound_dimension_one():
    assert estimate_merge_bound(1, 0.5, probes=100000, seed=1) == 2
    assert merge_bound_cap(1) == 3


def test_merge_bound_dimension_two_saturates_below_cap():
    observed = estimate_merge_bound(2, 0.5, probes=100000, seed=2)
    assert observed == 5
    assert merge_bound_cap(2) == 6


def test_merge_bound_validates_inputs():
    with pytest.raises(ValueError):
        estimate_merge_bound(3, 0.5)
    with pytest.raises(ValueError):
        estimate_merge_bound(2, 0.5, probes=1000)


def test_incremental_count_matches_recount_for_a_pair_at_exactly_2a():
    # computed squared gap exactly (2a)^2, keys two unpadded cells apart
    win = Window(np.array([-5.0, -5.0]), np.array([5.0, 5.0]))
    env = realize_environment(HomogeneousLebesgue(1.0), win, seed=0)
    chain = _RcChain(WRParams(a=0.5, z=1.0, env=env, window=win), MCMCSettings(), as_generator(0))
    chain.load(Configuration(np.array([[0.9999999999999994, 0.0], [1.9999999999999996, 0.0]])))
    chain.check_state()
    assert chain.free_count == 1


def test_domination_config_validates_tau():
    with pytest.raises(ValueError):
        DominationConfig(tau=0.5, merge_bound=5)
    with pytest.raises(ValueError):
        DominationConfig(tau=0.0, merge_bound=5)
    DominationConfig(tau=2.0 ** (-5), merge_bound=5)


# -- identity and domination ----------------------------------------------------------


def test_identity_zero_activity():
    report = check_es_identity(unit_params(0.0), UNIT, MCMCSettings(), replicates=2, seed=0)
    assert report["pass"]
    assert report["difference"] == 0.0


def test_identity_forced_single_component_small_mass():
    # radius above the diameter: both sides equal z * mass(delta)
    m = 0.3
    params = unit_params(z=m, a=2.0)
    settings = MCMCSettings(sweeps=4200, burn_in=200, thinning=2, moves_per_sweep=8)
    report = check_es_identity(params, UNIT, settings, replicates=2, seed=21)
    assert report["pass"]
    assert abs(report["order_parameter"]["value"] - m) <= 4.0 * max(report["order_parameter"]["stderr"], 1e-3)
    assert abs(report["boundary_connected"]["value"] - m) <= 4.0 * max(report["boundary_connected"]["stderr"], 1e-3)


def test_identity_desk_scale():
    win = Window.cube(4.0, 2)
    env = realize_environment(HomogeneousLebesgue(1.0), win, seed=0)
    params = WRParams(a=0.5, z=0.5, env=env, window=win)
    delta = Window(np.array([1.5, 1.5]), np.array([2.5, 2.5]))
    settings = MCMCSettings(sweeps=6000, burn_in=1000, thinning=2)
    report = check_es_identity(params, delta, settings, replicates=2, seed=33)
    assert report["pass"], report


def test_domination_zero_activity():
    stats = [IncreasingStatistic("total_count", lambda c: float(len(c)))]
    dom = DominationConfig(tau=2.0 ** (-6), merge_bound=6)
    report = check_domination(
        unit_params(0.0), dom, stats, MCMCSettings(), replicates=1, seed=0, poisson_draws=50
    )
    assert report["pass"]


def test_domination_rejects_bad_tau():
    stats = [IncreasingStatistic("total_count", lambda c: float(len(c)))]
    good = DominationConfig(tau=2.0 ** (-6), merge_bound=6)
    bad = DominationConfig.__new__(DominationConfig)
    object.__setattr__(bad, "tau", 0.5)
    object.__setattr__(bad, "merge_bound", 6)
    with pytest.raises(ValueError, match="refus"):
        check_domination(unit_params(1.0), bad, stats, MCMCSettings(), seed=0)
    assert good.tau <= 2.0 ** (-6)


def test_domination_small_run_all_pass():
    win = Window.cube(4.0, 2)
    env = realize_environment(HomogeneousLebesgue(1.0), win, seed=0)
    params = WRParams(a=0.5, z=1.0, env=env, window=win)
    dom = DominationConfig(tau=2.0 ** (-6), merge_bound=6)
    delta = Window(np.array([1.5, 1.5]), np.array([2.5, 2.5]))
    from wrlab.percolation import target_percolation_proxy

    stats = [
        IncreasingStatistic("total_count", lambda c: float(len(c))),
        IncreasingStatistic(
            "target_reach", lambda c: float(target_percolation_proxy(c, 0.5, win, delta))
        ),
    ]
    settings = MCMCSettings(sweeps=2100, burn_in=500, thinning=2)
    report = check_domination(params, dom, stats, settings, replicates=2, seed=3, poisson_draws=400)
    assert report["pass"], report


def test_increasing_statistics_are_monotone_under_insertion():
    win = Window.cube(4.0, 2)
    delta = Window(np.array([1.5, 1.5]), np.array([2.5, 2.5]))
    from wrlab.percolation import target_percolation_proxy
    from wrlab.geometry import has_crossing as crossing

    def crossing_stat(c):
        if len(c) == 0:
            return 0.0
        lab = build_components(c, ConnectivityParams(0.5), win)
        return float(crossing(lab, c, win, 0))

    stats = [
        IncreasingStatistic("total_count", lambda c: float(len(c))),
        IncreasingStatistic("target_reach", lambda c: float(target_percolation_proxy(c, 0.5, win, delta))),
        IncreasingStatistic("crossing", crossing_stat),
    ]
    rng = np.random.default_rng(9)
    for _ in range(120):
        n = int(rng.integers(0, 30))
        conf = Configuration(rng.uniform(0, 4, size=(n, 2)))
        grown = Configuration(np.vstack([conf.points, rng.uniform(0, 4, size=(1, 2))]))
        for stat in stats:
            assert stat(grown) >= stat(conf), stat.name
