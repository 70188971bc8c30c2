import math

import numpy as np
import pytest
from scipy import stats as sps

from wrlab import wr_gibbs
from wrlab.geometry import Configuration, Window
from wrlab.intensity import (
    DensityField,
    HomogeneousLebesgue,
    RandomSetIndicator,
    ShotNoise,
    SupBoundViolation,
    VoronoiEdges,
    poisson_draw,
    realize_environment,
    sample_poisson,
)
from wrlab.random_cluster import check_es_identity, run_rc_chain
from wrlab.rng import as_generator, spawn
from wrlab.stats import batch_means
from wrlab.wr_gibbs import (
    FREE,
    MINUS,
    MINUS_WIRED,
    PLUS,
    PLUS_WIRED,
    MCMCSettings,
    MarkedConfiguration,
    RejectionBudgetError,
    WRParams,
    block_gibbs_counts,
    dlr_consistency_check,
    estimate_order_parameter,
    is_viable,
    sample_wr_rejection,
    wired_color,
)

from helpers import (
    acceptance_all_plus,
    acceptance_monochrome,
    count_law_monochrome,
    scale_block_sampler_activity,
)

UNIT = Window.cube(1.0, 2)


def unit_params(z, a=2.0):
    env = realize_environment(HomogeneousLebesgue(1.0), UNIT, seed=0)
    return WRParams(a=a, z=z, env=env, window=UNIT)


def marked(points, colors):
    return MarkedConfiguration(np.asarray(points, dtype=float), np.asarray(colors))


# -- viability ----------------------------------------------------------------


def test_empty_configuration_is_viable():
    for boundary in (FREE, PLUS_WIRED, MINUS_WIRED):
        assert is_viable(MarkedConfiguration.empty(2), 1.0, boundary, Window.cube(10.0, 2))


def test_opposite_pair_within_two_radii_not_viable():
    win = Window(np.array([-10.0, -10.0]), np.array([10.0, 10.0]))
    conf = marked([[0.0, 0.0], [1.5, 0.0]], [PLUS, MINUS])
    assert not is_viable(conf, 1.0, FREE, win)
    same = marked([[0.0, 0.0], [1.5, 0.0]], [PLUS, PLUS])
    assert is_viable(same, 1.0, FREE, win)


def test_wired_boundary_excludes_opposite_color_near_boundary():
    win = Window.cube(10.0, 2)
    lone_minus = marked([[1.0, 5.0]], [MINUS])
    assert not is_viable(lone_minus, 1.0, PLUS_WIRED, win)
    assert is_viable(lone_minus, 1.0, MINUS_WIRED, win)
    assert is_viable(lone_minus, 1.0, FREE, win)
    deep_minus = marked([[5.0, 5.0]], [MINUS])
    assert is_viable(deep_minus, 1.0, PLUS_WIRED, win)


def test_color_swap_equivariance():
    rng = np.random.default_rng(3)
    win = Window.cube(6.0, 2)
    for _ in range(200):
        n = int(rng.integers(0, 12))
        conf = marked(
            rng.uniform(0, 6, size=(n, 2)), rng.choice([PLUS, MINUS], size=n)
        )
        swapped = MarkedConfiguration(conf.positions, -conf.colors)
        assert is_viable(conf, 0.7, PLUS_WIRED, win) == is_viable(swapped, 0.7, MINUS_WIRED, win)
        assert is_viable(conf, 0.7, FREE, win) == is_viable(swapped, 0.7, FREE, win)


def test_viability_is_monotone_under_deletion():
    rng = np.random.default_rng(17)
    win = Window.cube(6.0, 2)
    found = 0
    while found < 50:
        n = int(rng.integers(1, 10))
        conf = marked(rng.uniform(0, 6, size=(n, 2)), rng.choice([PLUS, MINUS], size=n))
        if not is_viable(conf, 0.5, PLUS_WIRED, win):
            continue
        found += 1
        keep = rng.random(n) < 0.5
        sub = MarkedConfiguration(conf.positions[keep], conf.colors[keep])
        assert is_viable(sub, 0.5, PLUS_WIRED, win)


def test_wired_color_names():
    assert wired_color(PLUS_WIRED) == PLUS
    assert wired_color(MINUS_WIRED) == MINUS
    assert wired_color(FREE) is None
    with pytest.raises(ValueError):
        wired_color("diagonal")


# -- rejection sampler ----------------------------------------------------------


def test_rejection_zero_activity_returns_empty_first_try():
    conf, attempts = sample_wr_rejection(
        unit_params(0.0), PLUS_WIRED, seed=5, return_attempts=True
    )
    assert len(conf) == 0 and attempts == 1


def test_rejection_acceptance_rate_matches_finite_sum_oracle():
    # ball radius above the window diameter: viability depends on counts only
    m = 0.25
    params = unit_params(z=m, a=2.0)
    attempts_budget = 20000
    rng = as_generator(99)
    for boundary, oracle in (
        (PLUS_WIRED, acceptance_all_plus(m)),
        (FREE, acceptance_monochrome(m)),
    ):
        accepted = 0
        attempts_used = 0
        while attempts_used < attempts_budget:
            _, att = sample_wr_rejection(params, boundary, rng, return_attempts=True)
            attempts_used += att
            accepted += 1
        p_hat = accepted / attempts_used
        se = math.sqrt(oracle * (1.0 - oracle) / attempts_used)
        assert abs(p_hat - oracle) <= 3.0 * se, (boundary, p_hat, oracle)


def test_rejection_accepted_law_is_all_plus_poisson():
    m = 0.25
    params = unit_params(z=m, a=2.0)
    rng = as_generator(7)
    counts = []
    for _ in range(4000):
        conf = sample_wr_rejection(params, PLUS_WIRED, rng)
        assert (conf.colors == PLUS).all()
        counts.append(len(conf))
    counts = np.array(counts)
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(counts.mean() - m) <= 3.0 * se


def test_rejection_budget_error_carries_rate():
    # huge mass, plus-wired, tiny window: acceptance is essentially zero
    params = unit_params(z=40.0, a=2.0)
    with pytest.raises(RejectionBudgetError) as err:
        sample_wr_rejection(params, PLUS_WIRED, seed=1, max_attempts=50)
    assert err.value.attempts == 50
    assert err.value.acceptance_rate == 0.0


def test_free_boundary_law_is_color_flip_invariant():
    m = 0.4
    params = unit_params(z=m, a=2.0)
    rng = as_generator(13)
    n_plus, n_minus = [], []
    for _ in range(3000):
        conf = sample_wr_rejection(params, FREE, rng)
        n_plus.append(conf.n_plus)
        n_minus.append(conf.n_minus)
    diff = np.array(n_plus) - np.array(n_minus)
    se = diff.std(ddof=1) / math.sqrt(len(diff))
    assert abs(diff.mean()) <= 3.0 * se
    _, p = sps.ks_2samp(n_plus, n_minus)
    assert p > 0.01


# -- order parameter ---------------------------------------------------------------


def test_order_parameter_zero_activity_is_exact_zero():
    est = estimate_order_parameter(unit_params(0.0), UNIT, MCMCSettings(), seed=0)
    assert est.value == 0.0 and est.stderr == 0.0


def test_order_parameter_matches_forced_plus_oracle():
    # every point forced plus: the gap equals the mean count z * mass(delta)
    m = 0.25
    params = unit_params(z=m, a=2.0)
    settings = MCMCSettings(sweeps=4200, burn_in=200, thinning=2, moves_per_sweep=8)
    est = estimate_order_parameter(params, UNIT, settings, replicates=2, seed=8)
    assert abs(est.value - m) <= 3.0 * max(est.stderr, 1e-3)


def test_single_and_two_chain_modes_agree():
    win = Window.cube(3.0, 2)
    env = realize_environment(HomogeneousLebesgue(1.0), win, seed=0)
    params = WRParams(a=0.5, z=0.8, env=env, window=win)
    delta = Window(np.array([1.0, 1.0]), np.array([2.0, 2.0]))
    settings = MCMCSettings(sweeps=2600, burn_in=600, thinning=2)
    one = estimate_order_parameter(params, delta, settings, replicates=2, seed=31, mode="single")
    two = estimate_order_parameter(params, delta, settings, replicates=2, seed=77, mode="two-chain")
    combined = math.hypot(one.stderr, two.stderr)
    assert abs(one.value - two.value) <= 3.0 * combined


def test_free_boundary_order_parameter_vanishes():
    win = Window.cube(3.0, 2)
    env = realize_environment(HomogeneousLebesgue(1.0), win, seed=0)
    params = WRParams(a=0.5, z=1.2, env=env, window=win)
    delta = Window(np.array([0.5, 0.5]), np.array([2.5, 2.5]))
    settings = MCMCSettings(sweeps=3100, burn_in=600, thinning=1)
    counts = block_gibbs_counts(params, FREE, settings, 6, delta)
    est, _ = batch_means(counts[:, 0] - counts[:, 1], 16)
    assert abs(est.value) <= 3.0 * max(est.stderr, 1e-4)


# -- block Gibbs sampler ---------------------------------------------------------


def block_count_tv(params, settings, seed):
    """TV distance of the free-boundary total-count law from its closed form
    (radius above the diameter, so viable means monochrome)."""
    counts = block_gibbs_counts(params, FREE, settings, seed, UNIT).sum(axis=1)
    law = count_law_monochrome(params.z, 12)
    empirical = np.bincount(counts, minlength=13)[:13] / len(counts)
    return 0.5 * np.abs(empirical - law / law.sum()).sum()


def test_block_sampler_count_law_matches_closed_form(monkeypatch):
    params = unit_params(z=1.0, a=2.0)
    settings = MCMCSettings(sweeps=10100, burn_in=100, thinning=1)
    assert block_count_tv(params, settings, seed=41) <= 0.05

    # negative control: the minus half-step drawn at activity 1.5 z.  The
    # chain builds its proposal once, at z, so the corrupted half-step swaps
    # in a proposal of its own
    honest = wr_gibbs._redraw
    wrong = poisson_draw(params.env, params.window, 1.5 * params.z)
    corrupted_steps = []

    def corrupted(params, color, other, wired, draw, rng):
        if color == MINUS:
            corrupted_steps.append(color)
            draw = wrong
        return honest(params, color, other, wired, draw, rng)

    monkeypatch.setattr(wr_gibbs, "_redraw", corrupted)
    assert block_count_tv(params, settings, seed=41) > 0.05
    assert len(corrupted_steps) == settings.sweeps


@pytest.mark.parametrize("wired", [PLUS, None])
def test_block_half_step_excludes_at_exactly_two_radii(wired):
    # a = 0.5 in [0, 6]^2: each pair of candidates below sits at exactly 2a
    # from the plus point (3, 3) or from a face, and one float step farther
    a, win = 0.5, Window.cube(6.0, 2)
    env = realize_environment(HomogeneousLebesgue(1.0), win, seed=0)
    params = WRParams(a=a, z=1.0, env=env, window=win)
    up = lambda v: np.nextafter(v, np.inf)
    down = lambda v: np.nextafter(v, -np.inf)
    point_pairs = [
        ((4.0, 3.0), (up(4.0), 3.0)),
        ((3.0, 2.0), (3.0, down(2.0))),
        ((1.0, 4.5), (up(1.0), 4.5)),
        ((5.0, 1.5), (down(5.0), 1.5)),
    ]
    face = [False, False, True, True]
    cand = np.array([p for pair in point_pairs for p in pair])
    # the proposal returns these candidates, less those the half-step's
    # admission rule drops
    fixed_draw = lambda rng, admit: cand[admit(cand)]
    plus = np.array([[3.0, 3.0]])
    kept = wr_gibbs._redraw(params, MINUS, plus, wired, fixed_draw, np.random.default_rng(0))
    expected = [beyond for _, beyond in point_pairs]
    if wired is None:
        # a free boundary excludes nothing near the faces
        expected += [at for (at, _), on_face in zip(point_pairs, face) if on_face]
    assert sorted(map(tuple, kept.tolist())) == sorted(expected)
    # the rule is is_viable's, candidate by candidate
    boundary = FREE if wired is None else PLUS_WIRED
    for x in cand:
        state = marked([plus[0], x], [PLUS, MINUS])
        assert is_viable(state, a, boundary, win) == any((kept == x).all(axis=1))


def thin_then_exclude(params, color, other, wired, rng):
    """The half-step the plain way: a thinned Poisson draw, then every
    candidate within 2a of ``other`` (or, for the colour opposite to a wired
    boundary, of the boundary) dropped by a brute-force distance test."""
    r = 2.0 * params.a
    cand = sample_poisson(params.env, params.window, params.z, rng).points
    d2 = ((cand[:, None, :] - other[None, :, :]) ** 2).sum(axis=2)
    keep = (d2 > r * r).all(axis=1)
    if wired == -color:
        keep &= params.window.boundary_distance(cand) > r
    return cand[keep]


@pytest.mark.parametrize("boundary", [FREE, PLUS_WIRED, MINUS_WIRED])
@pytest.mark.parametrize("model", [RandomSetIndicator(1.2, 0.8, 0.5, 0.5), ShotNoise(0.6, 0.5, 2.0), VoronoiEdges(1.0)])
def test_half_step_thinning_after_exclusion_matches_thinning_first(boundary, model):
    # the half-step admits candidates before it thins them; on the same
    # generator state it keeps the points of thinning first, and leaves the
    # generator where thinning first does
    win = Window.cube(6.0, 2)
    env = realize_environment(model, win, seed=6)
    params = WRParams(a=0.4, z=0.6, env=env, window=win)
    wired = wired_color(boundary)
    draw = poisson_draw(env, win, params.z)
    rng, ref_rng = as_generator(17), as_generator(17)
    points = {PLUS: np.zeros((0, 2)), MINUS: np.zeros((0, 2))}
    kept = {PLUS: 0, MINUS: 0}
    for _ in range(30):
        for color in (PLUS, MINUS):
            other = points[-color]
            expected = thin_then_exclude(params, color, other, wired, ref_rng)
            points[color] = wr_gibbs._redraw(params, color, other, wired, draw, rng)
            assert np.array_equal(points[color], expected)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            kept[color] += len(expected)
    assert kept[PLUS] and kept[MINUS]


def test_block_half_step_detects_an_understated_sup_bound():
    # negative control: the half-step thins after the exclusion, and still
    # evaluates every admitted candidate against the declared sup bound
    win = Window.cube(3.0, 2)
    understated = DensityField(lambda pts: np.where(pts[:, 0] < 1.5, 1.0, 2.0), sup_bound=1.0)
    params = WRParams(a=0.5, z=1.0, env=realize_environment(understated, win, seed=0), window=win)
    with pytest.raises(SupBoundViolation):
        block_gibbs_counts(params, PLUS_WIRED, MCMCSettings(sweeps=40, burn_in=0), 3, win)


@pytest.mark.parametrize("boundary", [FREE, PLUS_WIRED, MINUS_WIRED])
def test_block_sampler_keeps_viability(boundary):
    win = Window.cube(4.0, 2)
    env = realize_environment(RandomSetIndicator(1.2, 0.8, 0.5, 0.5), win, seed=3)
    params = WRParams(a=0.5, z=1.5, env=env, window=win)
    delta = Window(np.array([1.0, 1.0]), np.array([3.0, 3.0]))
    settings = MCMCSettings(sweeps=200, burn_in=20, thinning=3, debug_checks=True)
    counts = block_gibbs_counts(params, boundary, settings, 5, delta)
    assert counts.shape == (settings.retained, 2)
    wired = wired_color(boundary)
    if wired is not None:
        # the wired colour leads in the centre box
        gap = counts[:, 0] - counts[:, 1]
        assert wired * gap.mean() > 0


def test_block_sampler_agrees_with_rc_chain_on_a_random_set():
    # the block psi against the weighted chain's boundary-connected count,
    # an independent sampler, on a density that is not constant
    win = Window.cube(3.0, 2)
    env = realize_environment(RandomSetIndicator(1.2, 0.8, 0.5, 0.5), win, seed=4)
    params = WRParams(a=0.5, z=1.0, env=env, window=win)
    delta = Window(np.array([1.0, 1.0]), np.array([2.0, 2.0]))
    settings = MCMCSettings(sweeps=3200, burn_in=200, thinning=2)
    assert check_es_identity(params, delta, settings, replicates=2, seed=51)["pass"]


# -- conditional-resampling consistency -------------------------------------------


def test_dlr_conflict_rule_is_is_viables_at_exactly_two_radii():
    # pairs at exactly 2a along random directions, and one float step either
    # side: the redraw's conflict test decides each as is_viable does
    a = 0.5
    r = 2.0 * a
    win = Window.cube(10.0, 2)
    rng = np.random.default_rng(4)
    decided, norm_disagrees = 0, 0
    for _ in range(400):
        p = rng.uniform(3.0, 7.0, size=2)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        q = p + r * np.array([np.cos(angle), np.sin(angle)])
        for step in (-np.inf, None, np.inf):
            x = q if step is None else np.array([np.nextafter(q[0], step), q[1]])
            conflict = wr_gibbs._opposite_within(x[None, :], np.array([MINUS]), p[None, :], np.array([PLUS]), r)
            assert conflict == (not is_viable(marked([p, x], [PLUS, MINUS]), a, FREE, win))
            assert not wr_gibbs._opposite_within(x[None, :], np.array([PLUS]), p[None, :], np.array([PLUS]), r)
            decided += conflict
            norm_disagrees += (np.linalg.norm(x - p) <= r) != conflict
    # both outcomes occur, and the rounded norm the check used to compare
    # decides some of these pairs the other way
    assert 0 < decided < 1200 and norm_disagrees > 0


def dlr_setup():
    win = Window.cube(3.0, 2)
    env = realize_environment(HomogeneousLebesgue(1.0), win, seed=0)
    params = WRParams(a=0.5, z=1.0, env=env, window=win)
    delta = Window(np.array([1.0, 1.0]), np.array([2.0, 2.0]))
    settings = MCMCSettings(sweeps=2100, burn_in=500, thinning=2)
    return params, delta, settings


def test_dlr_zero_activity_trivially_consistent():
    params, delta, settings = dlr_setup()
    zero = WRParams(params.a, 0.0, params.env, params.window)
    report = dlr_consistency_check(zero, PLUS_WIRED, delta, settings, seed=1)
    assert not report["rejected"]


def test_dlr_honest_chain_not_rejected():
    params, delta, settings = dlr_setup()
    report = dlr_consistency_check(params, PLUS_WIRED, delta, settings, seed=2)
    assert not report["rejected"]


def test_dlr_corrupted_chain_rejected(monkeypatch):
    params, delta, settings = dlr_setup()
    scale_block_sampler_activity(monkeypatch, 1.5)
    report = dlr_consistency_check(params, PLUS_WIRED, delta, settings, seed=3)
    assert report["rejected"]


# -- validation ---------------------------------------------------------------------


def test_strict_diagnostics_raise_on_sticky_chain(monkeypatch):
    from wrlab.wr_gibbs import ChainDiagnosticsError

    win = Window.cube(3.0, 2)
    env = realize_environment(HomogeneousLebesgue(1.0), win, seed=0)
    params = WRParams(a=0.5, z=2.0, env=env, window=win)
    settings = MCMCSettings(sweeps=900, burn_in=100, thinning=1)
    # a sticky chain's batch series: lag-1 autocorrelation above 0.5
    honest = wr_gibbs.batch_means
    monkeypatch.setattr(wr_gibbs, "batch_means", lambda series, k: (honest(series, k)[0], 0.9))
    for mode in ("single", "two-chain"):
        with pytest.raises(ChainDiagnosticsError):
            estimate_order_parameter(params, win, settings, seed=1, mode=mode, strict=True)
        with pytest.warns(RuntimeWarning, match="autocorrelation"):
            estimate_order_parameter(params, win, settings, seed=1, mode=mode)


def test_marked_configuration_validation():
    with pytest.raises(ValueError):
        marked([[0.0, 0.0]], [2])
    with pytest.raises(ValueError):
        marked([[0.0, 0.0], [0.0, 0.0]], [PLUS, MINUS])


def test_mcmc_settings_validation():
    with pytest.raises(ValueError):
        MCMCSettings(sweeps=10, burn_in=10)
    with pytest.raises(ValueError):
        MCMCSettings(batch_count=4)
    with pytest.raises(ValueError):
        MCMCSettings(thinning=0)


def test_wr_params_validation():
    env = realize_environment(HomogeneousLebesgue(1.0), UNIT, seed=0)
    with pytest.raises(ValueError):
        WRParams(a=-1.0, z=1.0, env=env, window=UNIT)
    with pytest.raises(ValueError):
        WRParams(a=1.0, z=-0.5, env=env, window=UNIT)
    with pytest.raises(ValueError):
        WRParams(a=1.0, z=1.0, env=env, window=Window.cube(50.0, 2))


def test_both_chains_refuse_an_initial_point_of_zero_density():
    # no germs: the random-set density is lambda_outside = 0 everywhere.  The
    # block sampler always starts empty; the weighted chain loads a state
    env = realize_environment(RandomSetIndicator(1.0, 0.0, 0.0, 0.5), UNIT, seed=0)
    params = WRParams(a=0.1, z=1.0, env=env, window=UNIT)
    settings = MCMCSettings(sweeps=10, burn_in=0)
    with pytest.raises(ValueError, match="density is zero"):
        run_rc_chain(params, settings, init=Configuration(np.array([[0.5, 0.5]])))
