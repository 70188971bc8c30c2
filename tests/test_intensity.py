import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings as hypothesis_settings, strategies as st
from scipy import stats as sps

import wrlab.intensity as intensity

from wrlab.geometry import Window
from wrlab.intensity import (
    DensityField,
    EnvironmentRealization,
    GuardMarginError,
    HomogeneousLebesgue,
    ManhattanGrid,
    RandomSetIndicator,
    SegmentSet,
    ShotNoise,
    SupBoundViolation,
    VoronoiEdges,
    covariance_decay_probe,
    dominating_measure,
    realize_environment,
    sample_poisson,
    total_mass,
)
from wrlab.rng import UniformBlocks, as_generator, spawn

UNIT = Window.cube(1.0, 2)


def segment_env(start, end, linear_density, window):
    """Hand-built segment realization (mass-per-length measure)."""
    return EnvironmentRealization(
        model=ManhattanGrid(0.0),
        guard_window=window,
        segments=SegmentSet(start, end, linear_density),
    )


# -- realization ------------------------------------------------------------


def test_homogeneous_realization_is_constant():
    env = realize_environment(HomogeneousLebesgue(3.0), UNIT, seed=99)
    assert env.constant_density == 3.0
    pts = np.random.default_rng(0).uniform(0, 1, size=(50, 2))
    assert np.allclose(env.density_at(pts), 3.0)


def test_shot_noise_zero_intensity_is_zero_density():
    env = realize_environment(ShotNoise(0.0, 0.5, 2.0), UNIT, seed=3)
    pts = np.random.default_rng(1).uniform(0, 1, size=(20, 2))
    assert np.all(env.density_at(pts) == 0.0)
    assert env.sup_bound == 0.0
    assert len(sample_poisson(env, UNIT, 5.0, seed=4)) == 0


def test_realization_determinism():
    win = Window.cube(6.0, 2)
    for model in (
        ShotNoise(0.5, 0.5, 1.5),
        RandomSetIndicator(2.0, 0.1, 0.4, 0.6),
        VoronoiEdges(1.0),
        ManhattanGrid(0.8),
    ):
        a = realize_environment(model, win, seed=77)
        b = realize_environment(model, win, seed=77)
        c = sample_poisson(a, win, 1.3, seed=5)
        d = sample_poisson(b, win, 1.3, seed=5)
        assert np.array_equal(c.points, d.points)
        if a.segments is not None:
            assert len(a.segments) == len(b.segments)
            assert np.array_equal(a.segments.start, b.segments.start)
            assert np.array_equal(a.segments.end, b.segments.end)


def test_realization_is_deterministic_in_a_reused_seed_sequence():
    # a campaign realizes one environment seed on every window of its L_list:
    # spawning must not advance the SeedSequence, or each call would draw
    # another tessellation
    win = Window.cube(8.0, 2)
    seed = np.random.SeedSequence(2024)
    for model in (VoronoiEdges(1.0), ManhattanGrid(0.8), ShotNoise(0.5, 0.5, 1.5)):
        a = realize_environment(model, win, seed=seed)
        b = realize_environment(model, win, seed=seed)
        if a.segments is not None:
            assert np.array_equal(a.segments.start, b.segments.start)
            assert np.array_equal(a.segments.end, b.segments.end)
        assert np.array_equal(sample_poisson(a, win, 1.3, seed=5).points, sample_poisson(b, win, 1.3, seed=5).points)
    fresh = [child.generate_state(2).tolist() for child in np.random.SeedSequence(2024).spawn(3)]
    assert [child.generate_state(2).tolist() for child in spawn(seed, 3)] == fresh


def test_guard_margin_validation():
    with pytest.raises(GuardMarginError):
        realize_environment(HomogeneousLebesgue(1.0), UNIT, guard_margin=0.0)
    with pytest.raises(GuardMarginError):
        realize_environment(ShotNoise(1.0, 0.5, 1.0), UNIT, guard_margin=0.2)


def test_segment_set_validates_its_arrays():
    start, end = np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([[1.0, 0.0], [1.0, 3.0]])
    segments = SegmentSet(start, end, [1.0, 0.5], generators=np.zeros((2, 2, 2)))
    assert len(segments) == 2
    assert segments.lengths.tolist() == [1.0, 2.0]
    # copies, read-only
    for arr in (segments.start, segments.end, segments.linear_density, segments.generators):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 7.0
    start[0, 0] = 5.0
    assert segments.start[0, 0] == 0.0
    assert len(SegmentSet(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0))) == 0

    # endpoints equal within np.allclose's tolerance, in every coordinate
    close = np.array([[1.0, 1.0], [1.0 + 1e-9, 1.0 - 1e-9]])
    with pytest.raises(ValueError, match="distinct"):
        SegmentSet(close[None, 0], close[None, 1], [1.0])
    apart = np.array([[1.0, 1.0], [1.0 + 1e-4, 1.0]])
    assert len(SegmentSet(apart[None, 0], apart[None, 1], [1.0])) == 1
    with pytest.raises(ValueError, match="linear_density"):
        SegmentSet(start, end, [1.0, -0.5])
    for bad_start, bad_end, density in (
        (start, end[:1], [1.0, 1.0]),  # end rows
        (start, end, [1.0]),  # density rows
        (start[:, :1], end, [1.0, 1.0]),  # end columns
        (start.ravel(), end.ravel(), [1.0] * 4),  # not (n, d)
    ):
        with pytest.raises(ValueError, match=r"\(n, d\)"):
            SegmentSet(bad_start, bad_end, density)
    for generators in (np.zeros((2, 2)), np.zeros((1, 2, 2)), np.zeros((2, 3, 2))):
        with pytest.raises(ValueError, match="generators"):
            SegmentSet(start, end, [1.0, 1.0], generators=generators)
    with pytest.raises(ValueError, match="finite"):
        SegmentSet(start, np.array([[1.0, 0.0], [np.inf, 3.0]]), [1.0, 1.0])


def test_row_norms_round_like_the_norm_of_each_row():
    # the per-segment lengths used to be np.linalg.norm of one row at a time
    rng = np.random.default_rng(8)
    d = rng.uniform(-20.0, 20.0, size=(20000, 2)) * rng.choice([1e-6, 1.0, 1e3], size=(20000, 1))
    assert intensity.row_norms(d).tolist() == [float(np.linalg.norm(row)) for row in d]


def test_singular_models_require_dimension_two():
    win3 = Window.cube(4.0, 3)
    with pytest.raises(ValueError, match="dimension 2"):
        realize_environment(VoronoiEdges(1.0), win3, seed=0)
    with pytest.raises(ValueError, match="dimension 2"):
        realize_environment(ManhattanGrid(1.0), win3, seed=0)


# -- mass -------------------------------------------------------------------


def test_total_mass_constant_density():
    env = realize_environment(HomogeneousLebesgue(2.5), UNIT, seed=0)
    assert total_mass(env, UNIT) == 2.5


def test_total_mass_single_segment():
    win = Window.cube(5.0, 2)
    env = segment_env([[1.0, 1.0]], [[4.0, 1.0]], [2.0], win)
    assert abs(total_mass(env, win) - 6.0) < 1e-12
    # clipping: only 2 of the 3 length units inside the region
    region = Window(np.array([2.0, 0.0]), np.array([4.0, 5.0]))
    assert abs(total_mass(env, region) - 4.0) < 1e-12


def test_total_mass_outside_guard_window_rejected():
    env = realize_environment(HomogeneousLebesgue(1.0), UNIT, guard_margin=0.5)
    with pytest.raises(ValueError, match="valid window"):
        total_mass(env, Window.cube(10.0, 2))


def test_shot_noise_mean_mass_matches_closed_form():
    # mean density is germ rate x amplitude x kernel disc area
    model = ShotNoise(0.8, 0.5, 2.0)
    win = Window.cube(3.0, 2)
    expected = 0.8 * 2.0 * math.pi * 0.25 * win.volume
    masses = [
        total_mass(realize_environment(model, win, seed=s), win) for s in range(120)
    ]
    mean = np.mean(masses)
    se = np.std(masses, ddof=1) / math.sqrt(len(masses))
    assert abs(mean - expected) <= 3.0 * se


def test_random_set_covered_fraction_matches_closed_form():
    model = RandomSetIndicator(1.0, 0.0, 0.5, 0.6)
    win = Window.cube(4.0, 2)
    p_covered = 1.0 - math.exp(-0.5 * math.pi * 0.36)
    fractions = []
    for s in range(120):
        env = realize_environment(model, win, seed=s)
        fractions.append(total_mass(env, win) / win.volume)
    mean = np.mean(fractions)
    se = np.std(fractions, ddof=1) / math.sqrt(len(fractions))
    assert abs(mean - p_covered) <= 3.0 * se


# -- sampling ---------------------------------------------------------------


def test_sample_poisson_zero_activity():
    env = realize_environment(HomogeneousLebesgue(5.0), UNIT, seed=1)
    assert len(sample_poisson(env, UNIT, 0.0, seed=2)) == 0


def test_sample_poisson_count_moments():
    # density 2 on the unit square at activity 1: counts are Poisson(2)
    env = realize_environment(HomogeneousLebesgue(2.0), UNIT, seed=1)
    rng = as_generator(10)
    counts = np.array([len(sample_poisson(env, UNIT, 1.0, rng)) for _ in range(10000)])
    n = len(counts)
    mean_se = counts.std(ddof=1) / math.sqrt(n)
    assert abs(counts.mean() - 2.0) <= 3.0 * mean_se
    # variance of the sample variance of Poisson(2): use moment bound
    var = counts.var(ddof=1)
    var_se = math.sqrt((np.mean((counts - counts.mean()) ** 4) - var**2) / n)
    assert abs(var - 2.0) <= 3.0 * var_se


def test_density_field_thinning_respects_support():
    dens = DensityField(lambda pts: np.where(pts[:, 0] < 0.5, 1.0, 0.0), sup_bound=1.0)
    env = realize_environment(dens, UNIT, seed=0)
    rng = as_generator(3)
    counts = []
    for _ in range(3000):
        conf = sample_poisson(env, UNIT, 4.0, rng)
        counts.append(len(conf))
        if len(conf):
            assert (conf.points[:, 0] < 0.5).all()
    counts = np.array(counts)
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(counts.mean() - 2.0) <= 3.0 * se


def plain_poisson(env, window, z, rng):
    """The Poisson law drawn the plain way, all from one call: a count,
    positions and a thinning uniform for every candidate, then the density
    of every candidate; segment measures a count and positions piece by
    piece."""
    dim = window.dim
    if z == 0.0:
        return np.zeros((0, dim))
    if env.segments is not None:
        p, q, mass = intensity._clipped_segments(env, window)
        pts = [
            start + t * (end - start)
            for start, end, m in zip(p, q, mass.tolist())
            for t in rng.random(rng.poisson(z * m))
        ]
        return np.reshape(pts, (-1, dim))
    if env.sup_bound == 0.0:
        return np.zeros((0, dim))
    n = rng.poisson(z * env.sup_bound * window.volume)
    if n == 0:
        return np.zeros((0, dim))
    pts = rng.uniform(window.lower, window.upper, size=(n, dim))
    keep = rng.random(n) <= env.density_at(pts) / env.sup_bound
    return pts[keep]


ALL_MODELS = {
    "lebesgue": HomogeneousLebesgue(1.3),
    "density": DensityField(lambda pts: 1.0 + np.sin(pts[:, 0]) * np.cos(pts[:, 1]), sup_bound=2.0),
    "shot-noise": ShotNoise(0.6, 0.5, 2.0),
    "random-set": RandomSetIndicator(1.5, 0.5, 0.4, 0.5),
    "voronoi": VoronoiEdges(1.0),
    "manhattan": ManhattanGrid(0.7),
}


@hypothesis_settings(max_examples=60, deadline=None)
@given(
    model=st.sampled_from(sorted(ALL_MODELS)),
    env_seed=st.integers(0, 2**16),
    z=st.sampled_from([0.0, 0.3, 1.0, 4.0]),
    sub=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    slope=st.floats(-3.0, 3.0),
    offset=st.floats(0.0, 5.0),
)
def test_poisson_draw_takes_the_plain_draws_values(model, env_seed, z, sub, seed, slope, offset):
    # one proposal, built once, gives the plain draw's points from the same
    # generator state and leaves the generator where the plain draw does;
    # with an admission mask it returns the admitted plain points, in order
    win = Window.cube(5.0, 2)
    env = realize_environment(ALL_MODELS[model], win, seed=env_seed)
    window = Window(np.array([1.0, 0.5]), np.array([4.0, 3.5])) if sub else win
    admit = lambda pts: pts[:, 1] > slope * (pts[:, 0] - 2.5) + offset - 1.0
    draw = intensity.poisson_draw(env, window, z)
    for _ in range(3):
        ref_rng = as_generator(seed)
        ref = plain_poisson(env, window, z, ref_rng)
        for run, expected in (
            (lambda rng: sample_poisson(env, window, z, rng).points, ref),
            (lambda rng: draw(rng), ref),
            (lambda rng: draw(rng, admit), ref[admit(ref)]),
        ):
            rng = as_generator(seed)
            got = run(rng)
            assert got.shape[1] == 2
            assert np.array_equal(got, expected)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        seed = (seed + 1) % 2**32


def test_poisson_draw_thins_admitted_candidates_only():
    win = Window.cube(5.0, 2)
    env = realize_environment(ALL_MODELS["random-set"], win, seed=3)
    honest = EnvironmentRealization.density_at
    probed, admitted = [], []

    def density_at(self, pts):
        probed.append(len(pts))
        return honest(self, pts)

    def left(pts):
        keep = pts[:, 0] < 1.0
        admitted.append(int(keep.sum()))
        return keep

    draw = intensity.poisson_draw(env, win, 2.0)
    rng = as_generator(8)
    with mock.patch.object(EnvironmentRealization, "density_at", density_at):
        kept = [draw(rng, left) for _ in range(20)]
    assert all((k[:, 0] < 1.0).all() for k in kept)
    # one density call per draw that admits a candidate, on those only
    assert sum(admitted) > 0 and probed == [k for k in admitted if k]
    # a constant density is never evaluated
    flat = realize_environment(HomogeneousLebesgue(1.0), win, seed=0)
    with mock.patch.object(EnvironmentRealization, "density_at", side_effect=AssertionError):
        assert len(intensity.poisson_draw(flat, win, 2.0)(as_generator(1), left))


class RepeatingGenerator:
    """Stands in for a generator whose draws repeat a position."""

    def poisson(self, lam):
        return 2

    def random(self, size):
        return np.full(size, 0.25)


@pytest.mark.parametrize("model", ["lebesgue", "random-set", "manhattan"])
def test_poisson_draw_checks_every_candidate_for_duplicates(model):
    win = Window.cube(5.0, 2)
    env = realize_environment(ALL_MODELS[model], win, seed=2)
    draw = intensity.poisson_draw(env, win, 1.0)
    pts = draw(RepeatingGenerator())
    assert len(pts) >= 2 and (pts[0] == pts[1]).all()
    # with an admission rule the draw checks the admitted candidates: equal
    # candidates are admitted together or dropped together
    admit_all = lambda pts: np.ones(len(pts), dtype=bool)
    with pytest.raises(ValueError, match="duplicate"):
        draw(RepeatingGenerator(), admit_all)
    drop_all = lambda pts: np.zeros(len(pts), dtype=bool)
    assert len(draw(RepeatingGenerator(), drop_all)) == 0


def test_sample_poisson_checks_duplicates_once():
    env = realize_environment(ALL_MODELS["random-set"], Window.cube(5.0, 2), seed=1)
    with mock.patch("wrlab.geometry.has_duplicate_rows", wraps=intensity.has_duplicate_rows) as in_geometry, mock.patch(
        "wrlab.intensity.has_duplicate_rows", wraps=intensity.has_duplicate_rows
    ) as in_intensity:
        conf = sample_poisson(env, Window.cube(5.0, 2), 4.0, seed=3)
    assert len(conf) > 10
    assert in_geometry.call_count + in_intensity.call_count == 1


def test_sup_bound_violation_detected():
    dens = DensityField(lambda pts: np.full(len(pts), 2.0), sup_bound=1.0)
    env = realize_environment(dens, UNIT, seed=0)
    with pytest.raises(SupBoundViolation):
        sample_poisson(env, UNIT, 3.0, seed=1)


def birth_locations(env, window, n, seed):
    """``n`` points of the weighted chain's birth proposal: a draw of
    :func:`dominating_measure`, kept with its thinning factor, is
    distributed as the environment mass normalized on the window."""
    _, draw, thin = dominating_measure(env, window, 1.0)
    ub = UniformBlocks(as_generator(seed))
    out = []
    while len(out) < n:
        pos = draw(ub)
        if thin is None or ub.next() <= thin(pos):
            out.append(pos)
    return np.array(out)


def test_sample_location_uniform_chi_square():
    env = realize_environment(HomogeneousLebesgue(1.0), UNIT, seed=0)
    pts = birth_locations(env, UNIT, 4000, seed=42)
    bins_x = np.minimum((pts[:, 0] * 4).astype(int), 3)
    bins_y = np.minimum((pts[:, 1] * 4).astype(int), 3)
    counts = np.bincount(bins_x * 4 + bins_y, minlength=16)
    _, p = sps.chisquare(counts)
    assert p > 0.01


def test_sample_location_on_segment_is_arclength_uniform():
    win = Window.cube(5.0, 2)
    env = segment_env([[1.0, 1.0]], [[4.0, 4.0]], [1.0], win)
    start, end, length = env.segments.start[0], env.segments.end[0], env.segments.lengths[0]
    pts = birth_locations(env, win, 2000, seed=7)
    direction = (end - start) / length
    offsets = pts - start
    along = offsets @ direction
    perp = np.abs(offsets @ np.array([-direction[1], direction[0]]))
    assert perp.max() < 1e-9
    _, p = sps.kstest(along / length, "uniform")
    assert p > 0.01


def test_sample_location_mixed_density_ratio():
    # density 3 on the left half, 1 on the right: 75/25 split
    dens = DensityField(lambda pts: np.where(pts[:, 0] < 0.5, 3.0, 1.0), sup_bound=3.0)
    env = realize_environment(dens, UNIT, seed=0)
    left = (birth_locations(env, UNIT, 4000, seed=15)[:, 0] < 0.5).sum()
    p_hat = left / 4000
    se = math.sqrt(0.75 * 0.25 / 4000)
    assert abs(p_hat - 0.75) <= 3.0 * se


def test_segment_sampler_counts_proportional_to_mass():
    win = Window.cube(10.0, 2)
    env = segment_env(
        [[1.0, 1.0], [1.0, 3.0], [1.0, 5.0]],
        [[3.0, 1.0], [7.0, 3.0], [2.0, 5.0]],
        [1.0, 1.0, 4.0],  # masses 2, 6 and 4
        win,
    )
    rng = as_generator(21)
    counts = np.zeros(3)
    for _ in range(400):
        conf = sample_poisson(env, win, 1.0, rng)
        for p in conf.points:
            counts[np.argmin([abs(p[1] - 1.0), abs(p[1] - 3.0), abs(p[1] - 5.0)])] += 1
    expected = np.array([2.0, 6.0, 4.0]) / 12.0 * counts.sum()
    _, p = sps.chisquare(counts, expected)
    assert p > 0.01


# -- singular environments ----------------------------------------------------


def test_voronoi_segments_lie_on_bisectors():
    env = realize_environment(VoronoiEdges(1.5), Window.cube(6.0, 2), seed=11)
    segments = env.segments
    assert len(segments)
    g0, g1 = segments.generators[:, 0], segments.generators[:, 1]
    for probe in (segments.start, segments.end, (segments.start + segments.end) / 2.0):
        d0 = np.linalg.norm(probe - g0, axis=1)
        d1 = np.linalg.norm(probe - g1, axis=1)
        assert np.abs(d0 - d1).max() < 1e-9


@pytest.mark.parametrize("rho", [1.0, 2.0])
def test_voronoi_edge_length_intensity(rho):
    # mean edge length per unit area of the tessellation is 2 sqrt(rho)
    win = Window.cube(8.0, 2)
    lengths = []
    for s in range(60):
        env = realize_environment(VoronoiEdges(rho), win, seed=1000 + s)
        lengths.append(env.segments.lengths.sum() / win.volume)
    mean = np.mean(lengths)
    se = np.std(lengths, ddof=1) / math.sqrt(len(lengths))
    assert abs(mean - 2.0 * math.sqrt(rho)) <= 3.0 * se


def test_manhattan_line_length_intensity():
    win = Window.cube(10.0, 2)
    lam = 0.7
    lengths = []
    for s in range(150):
        env = realize_environment(ManhattanGrid(lam), win, seed=500 + s)
        lengths.append(env.segments.lengths.sum() / win.volume)
    mean = np.mean(lengths)
    se = np.std(lengths, ddof=1) / math.sqrt(len(lengths))
    assert abs(mean - 2.0 * lam) <= 3.0 * se


# -- covariance probe ----------------------------------------------------------


def test_covariance_probe_lebesgue_is_exactly_zero():
    rows = covariance_decay_probe(HomogeneousLebesgue(2.0), 1.0, [0.5, 2.0], 16, seed=0)
    for row in rows:
        assert row["covariance"] == 0.0


def test_covariance_probe_shot_noise_vanishes_beyond_range():
    model = ShotNoise(1.0, 0.4, 1.0)
    # beyond 2 * kernel radius + box size the germ sets are disjoint
    rows = covariance_decay_probe(model, 1.0, [0.3, 2.5], 300, seed=4)
    near, far = rows
    assert near["covariance"] > 0.0
    assert abs(far["covariance"]) <= 3.0 * far["stderr"]


def test_covariance_probe_voronoi_decays():
    rows = covariance_decay_probe(VoronoiEdges(1.0), 1.0, [0.5, 2.0, 5.0], 200, seed=9)
    for left, right in zip(rows, rows[1:]):
        band = 3.0 * (left["stderr"] + right["stderr"])
        assert right["covariance"] <= left["covariance"] + band


# -- chain reference measure ---------------------------------------------------


def test_dominating_measure_exact_for_constant_and_segments():
    env = realize_environment(HomogeneousLebesgue(2.0), UNIT, seed=0)
    total, draw, thin = dominating_measure(env, UNIT, 1.5)
    assert total == 1.5 * 2.0
    assert thin is None
    win = Window.cube(5.0, 2)
    seg_env = segment_env([[1.0, 1.0]], [[4.0, 1.0]], [2.0], win)
    total, draw, thin = dominating_measure(seg_env, win, 2.0)
    assert abs(total - 12.0) < 1e-12
    assert thin is None


def test_dominating_measure_thinning_factor_matches_density():
    dens = DensityField(lambda pts: np.where(pts[:, 0] < 0.5, 3.0, 1.0), sup_bound=3.0)
    env = realize_environment(dens, UNIT, seed=0)
    total, draw, thin = dominating_measure(env, UNIT, 1.0)
    assert total == 3.0
    assert abs(thin((0.1, 0.5)) - 1.0) < 1e-12
    assert abs(thin((0.9, 0.5)) - 1.0 / 3.0) < 1e-12
    # germ environments: thin is density_at over the sup bound, point by point
    window = Window.cube(3.0, 2)
    pts = np.random.default_rng(5).uniform(0.0, 3.0, size=(300, 2))
    for model in (ShotNoise(1.5, 0.5, 2.0), RandomSetIndicator(1.2, 0.8, 1.0, 0.5)):
        env = realize_environment(model, window, seed=4)
        _, _, thin = dominating_measure(env, window, 1.0)
        values = [thin(tuple(p)) for p in pts.tolist()]
        assert values == (env.density_at(pts) / env.sup_bound).tolist()


# -- the density of germ environments ------------------------------------------


def germ_env(kind, r, germs, window):
    """A shot-noise or random-set realization over the given germ points."""
    model = ShotNoise(1.0, r, 2.5) if kind == "shot-noise" else RandomSetIndicator(1.2, 0.8, 1.0, r)
    germs = np.array(germs, dtype=float).reshape(-1, 2)
    with mock.patch.object(intensity, "_poisson_points", lambda rng, rate, win: germs):
        return realize_environment(model, window, seed=0)


def assert_closed_ball_counts(env, kind, r, germs, probes):
    """``density_at`` against a brute-force count of the germs in the closed
    ball of radius ``r`` around each probe (squared distances, ``<=``)."""
    germs = np.array(germs, dtype=float).reshape(-1, 2)
    for p in probes:
        dx = p[0] - germs[:, 0]
        dy = p[1] - germs[:, 1]
        count = int((dx * dx + dy * dy <= r * r).sum())
        expected = 2.5 * count if kind == "shot-noise" else (1.2 if count else 0.8)
        assert env.density_at(np.array([p]))[0] == expected, p


@hypothesis_settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(["shot-noise", "random-set"]),
    r=st.sampled_from([0.5, 0.3, 1.0 / 3.0, 0.7]),
    germ_sites=st.sets(st.tuples(st.integers(-5, 25), st.integers(-5, 25)), max_size=25),
    probe_sites=st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), min_size=1, max_size=8),
)
def test_density_at_matches_closed_ball_count_on_lattice_ties(kind, r, germ_sites, probe_sites):
    # a lattice of step r/5 on the window [0, 4r]^2 and its guard margin of
    # width r: sites (5, 0) or (3, 4) steps apart sit at exactly r
    h = r / 5.0
    window = Window.cube(4.0 * r, 2)
    germs = [(h * i, h * j) for i, j in germ_sites]
    env = germ_env(kind, r, germs, window)
    cell = r * (1.0 + 2.0**-20)  # a padded neighbour grid of side r from the guard corner -r
    probes = []
    for i, j in probe_sites:
        x, y = h * i, h * j
        for px in (np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)):
            for py in (np.nextafter(y, -np.inf), y, np.nextafter(y, np.inf)):
                probes.append((float(px), float(py)))
        # the grid's cell edges next to the site, off the lattice
        ex = -r + cell * ((x + r) // cell)
        ey = -r + cell * ((y + r) // cell)
        probes.extend([(ex, y), (x, ey), (ex, ey)])
    probes = [p for p in probes if window.contains(np.array([p]))[0]]
    assert_closed_ball_counts(env, kind, r, germs, probes)


def test_density_at_on_empty_germ_set_and_germs_in_the_margin():
    window = Window.cube(2.0, 2)
    corners = [(0.0, 0.0), (2.0, 2.0), (1.0, 0.0), (0.5, 0.5)]
    origin = np.array([[0.0, 0.0]])
    for kind in ("shot-noise", "random-set"):
        empty = germ_env(kind, 0.5, [], window)
        assert_closed_ball_counts(empty, kind, 0.5, [], corners)
        # germs only in the guard margin, exactly r from the window's corners
        germs = [(-0.5, 0.0), (2.0, 2.5), (-0.3, -0.4)]
        margin = germ_env(kind, 0.5, germs, window)
        assert_closed_ball_counts(margin, kind, 0.5, germs, corners)
        assert margin.density_at(origin)[0] > empty.density_at(origin)[0]


def test_thin_checks_the_sup_bound_on_the_scalar_probe():
    # thin reads density_at, so it fails on the same values, with the same
    # value and bound
    model = RandomSetIndicator(1.2, 0.8, 1.0, 0.5)

    def env_with(value):
        return EnvironmentRealization(
            model=model,
            guard_window=UNIT,
            density=lambda pts: np.full(len(pts), value),
            sup_bound=1.0,
        )

    _, _, thin = dominating_measure(env_with(0.75), UNIT, 2.0)
    assert thin((0.5, 0.5)) == 0.75
    # within the tolerance density_at allows, then beyond it
    _, _, thin = dominating_measure(env_with(1.0 + 1e-10), UNIT, 2.0)
    assert thin((0.5, 0.5)) == 1.0 + 1e-10
    for value in (1.0 + 1e-8, 2.0):
        _, _, thin = dominating_measure(env_with(value), UNIT, 2.0)
        with pytest.raises(SupBoundViolation) as scalar:
            thin((0.5, 0.5))
        with pytest.raises(SupBoundViolation) as array:
            env_with(value).density_at(np.array([[0.5, 0.5]]))
        assert (scalar.value.value, scalar.value.bound) == (array.value.value, array.value.bound)

