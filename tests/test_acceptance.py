"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is fixed
here (3 combined standard errors, TV 0.05, alpha 0.01, +-10 percent, power
0.9) and the desk-scale runtime limits are asserted alongside the statistics.
"""
import math
import time

import numpy as np
import pytest

from wrlab.geometry import (
    Configuration,
    ConnectivityParams,
    Window,
    brute_force_components,
    build_components,
)
from wrlab.intensity import (
    HomogeneousLebesgue,
    ManhattanGrid,
    RandomSetIndicator,
    ShotNoise,
    VoronoiEdges,
    covariance_decay_probe,
    realize_environment,
    sample_poisson,
)
from wrlab.percolation import (
    estimate_critical_intensity,
    estimate_crossing_probability,
    threshold_from_rows,
)
from wrlab.random_cluster import (
    DominationConfig,
    IncreasingStatistic,
    check_domination,
    check_es_identity,
    estimate_merge_bound,
    papangelou_ratio_batch,
)
from wrlab.rng import as_generator, spawn
from wrlab.stats import total_variation
from wrlab.wr_gibbs import (
    FREE,
    PLUS,
    PLUS_WIRED,
    MCMCSettings,
    WRParams,
    block_gibbs_counts,
    dlr_consistency_check,
    order_parameter_chain,
    sample_wr_rejection,
)

from helpers import (
    acceptance_all_plus,
    acceptance_monochrome,
    canonical_labels,
    random_configuration,
    random_window,
    scale_block_sampler_activity,
)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


# -----------------------------------------------------------------------------


def test_criterion_1_component_oracle():
    rng = np.random.default_rng(108001)
    radii = [0.3, 0.5, 1.0, 2.0]
    start = time.time()
    for trial in range(1000):
        win = random_window(rng)
        conf = random_configuration(rng, int(rng.integers(0, 13)), win)
        params = ConnectivityParams(radii[trial % 4], wired=True)
        fast = build_components(conf, params, win)
        slow = brute_force_components(conf, params, win)
        assert fast.num_components_free == slow.num_components_free
        assert fast.num_components_wired == slow.num_components_wired
        assert canonical_labels(fast.labels) == canonical_labels(slow.labels)
    elapsed = time.time() - start
    report(
        1,
        "component oracle",
        elapsed < 10.0,
        f"1000 configurations matched exactly in {elapsed:.1f}s (limit 10s)",
    )


def test_criterion_2_sampler_exactness():
    m = 0.25  # z * mass(window) on the unit window
    window = Window.cube(1.0, 2)
    env = realize_environment(HomogeneousLebesgue(1.0), window, seed=0)
    params = WRParams(a=2.0, z=m, env=env, window=window)  # radius above diameter
    details = []
    ok = True

    # rejection acceptance rate vs the finite-sum oracles, 1e5 attempts each
    budget = 100000
    rejection_counts = {}
    for boundary, oracle in (
        (PLUS_WIRED, acceptance_all_plus(m)),
        (FREE, acceptance_monochrome(m)),
    ):
        rng = as_generator(208002)
        accepted_counts = []
        attempts_used = 0
        while attempts_used < budget:
            conf, att = sample_wr_rejection(params, boundary, rng, return_attempts=True)
            attempts_used += att
            accepted_counts.append(len(conf))
        p_hat = len(accepted_counts) / attempts_used
        se = math.sqrt(oracle * (1.0 - oracle) / attempts_used)
        sigma = abs(p_hat - oracle) / se
        ok = ok and sigma <= 3.0
        details.append(f"{boundary}: acceptance {p_hat:.4f} vs {oracle:.4f} ({sigma:.2f} se)")
        rejection_counts[boundary] = accepted_counts

    # block chain count histogram vs the rejection histogram, TV <= 0.05 on
    # 1e4 samples.  Under plus wiring a sweep draws the count afresh; under
    # the free boundary the two colours take turns, which is where the
    # alternation can go wrong
    settings = MCMCSettings(sweeps=20400, burn_in=400, thinning=2, batch_count=16)
    for boundary, seed in ((PLUS_WIRED, 208003), (FREE, 208004)):
        counts = block_gibbs_counts(params, boundary, settings, seed, window).sum(axis=1)
        assert len(counts) >= 10000
        tv = total_variation(counts[:10000], rejection_counts[boundary])
        ok = ok and tv <= 0.05
        details.append(f"{boundary}: chain-vs-rejection TV {tv:.4f} (limit 0.05) on 10000 thinned samples")
    report(2, "sampler exactness", ok, "; ".join(details))


@pytest.mark.parametrize("z", [0.5, 1.5])
def test_criterion_3_identity(z):
    start = time.time()
    window = Window.cube(4.0, 2)
    env = realize_environment(HomogeneousLebesgue(1.0), window, seed=0)
    params = WRParams(a=0.5, z=z, env=env, window=window)
    delta = Window(np.array([1.5, 1.5]), np.array([2.5, 2.5]))
    settings = MCMCSettings(sweeps=16000, burn_in=2000, thinning=2, batch_count=16)
    result = check_es_identity(params, delta, settings, replicates=2, seed=308000 + int(10 * z))
    elapsed = time.time() - start
    ok = result["pass"] and elapsed < 300.0
    report(
        3,
        f"two-sampler identity at z={z}",
        ok,
        f"gap {result['order_parameter']['value']:.3f} vs boundary count "
        f"{result['boundary_connected']['value']:.3f}, discrepancy "
        f"{result['sigma_units']:.2f} combined se (limit 3), {elapsed:.0f}s (limit 300s)",
    )


def test_criterion_4_symmetry_breaking():
    start = time.time()
    a = 0.5
    model = HomogeneousLebesgue(1.0)
    threshold = estimate_critical_intensity(
        model, a, L=16.0, target_prob=0.5, seed=408001, replicates=120
    )
    z_high = 4.0 * threshold.value
    z_low = threshold.value / 10.0
    window = Window.cube(20.0 * (2.0 * a), 2)  # side 20 units of 2a
    center = (window.lower + window.upper) / 2.0
    delta = Window(center - 0.5, center + 0.5)
    env = realize_environment(model, window, seed=408002)

    high_settings = MCMCSettings(sweeps=360, burn_in=110, thinning=1, batch_count=16)
    high, _ = order_parameter_chain(WRParams(a, z_high, env, window), delta, high_settings, 408003)
    z99 = 2.5758293035489004
    high_excludes_zero = high.value - z99 * high.stderr > 0.0

    low_settings = MCMCSettings(sweeps=2600, burn_in=600, thinning=2, batch_count=16)
    low, _ = order_parameter_chain(WRParams(a, z_low, env, window), delta, low_settings, 408004)
    low_contains_zero = abs(low.value) <= z99 * low.stderr
    elapsed = time.time() - start
    ok = high_excludes_zero and low_contains_zero and elapsed < 900.0
    report(
        4,
        "symmetry breaking",
        ok,
        f"threshold {threshold.value:.2f}; high z={z_high:.2f}: gap {high.value:.2f} "
        f"+- {high.stderr:.2f} (99% CI excludes 0: {high_excludes_zero}); "
        f"low z={z_low:.3f}: gap {low.value:.3f} +- {low.stderr:.3f} "
        f"(CI contains 0: {low_contains_zero}); {elapsed:.0f}s (limit 900s)",
    )


def test_criterion_5_domination_suite():
    a = 0.5
    observed = estimate_merge_bound(2, a, probes=100000, seed=508001)
    k = observed + 1  # safety
    dom = DominationConfig(tau=2.0 ** (-k), merge_bound=k)
    window = Window.cube(6.0, 2)
    delta = Window(np.array([2.5, 2.5]), np.array([3.5, 3.5]))

    from wrlab.percolation import target_percolation_proxy
    from wrlab.geometry import has_crossing

    def crossing_stat(c):
        if len(c) == 0:
            return 0.0
        lab = build_components(c, ConnectivityParams(a), window)
        return float(has_crossing(lab, c, window, 0))

    half = (window.lower + window.upper) / 2.0
    quad = Window(window.lower, half)
    battery = [
        IncreasingStatistic("total_count", lambda c: float(len(c))),
        IncreasingStatistic("quadrant_count", lambda c: float(quad.contains(c.points).sum()) if len(c) else 0.0),
        IncreasingStatistic("target_reach", lambda c: float(target_percolation_proxy(c, a, window, delta))),
        IncreasingStatistic("crossing", crossing_stat),
    ]

    environments = {
        "lebesgue": HomogeneousLebesgue(1.0),
        "shot-noise": ShotNoise(0.6, 0.5, 2.0),
    }
    settings = MCMCSettings(sweeps=2600, burn_in=500, thinning=2, batch_count=16)
    details = []
    ok = True
    for name, model in environments.items():
        env = realize_environment(model, window, seed=508002)
        for z in (1.0, 2.0):
            params = WRParams(a, z, env, window)
            result = check_domination(
                params, dom, battery, settings, replicates=2,
                seed=508010 + int(10 * z), poisson_draws=1500,
            )
            ok = ok and result["pass"]
            worst = min(s["margin_sigma"] for s in result["statistics"].values())
            details.append(f"{name} z={z}: pass={result['pass']} worst margin {worst:.1f} se")

    # conditional-intensity ratio >= 1 on 1e6 randomized probes
    dom_probe = DominationConfig(tau=2.0 ** (-observed), merge_bound=observed)
    rng = as_generator(508020)
    probes_done = 0
    violations = 0
    min_ratio = math.inf
    while probes_done < 1000000:
        n = int(rng.integers(0, 25))
        conf = Configuration(rng.uniform(0, 6, size=(n, 2)))
        xs = rng.uniform(0, 6, size=(500, 2))
        ratios = papangelou_ratio_batch(xs, conf, dom_probe, a, window)
        min_ratio = min(min_ratio, float(ratios.min()))
        violations += int((ratios < 1.0).sum())
        probes_done += len(xs)
    ok = ok and violations == 0
    details.append(
        f"merge bound {observed}+1 safety, tau=2^-{k}; conditional intensity: "
        f"{probes_done} probes, min ratio {min_ratio:.3f}, {violations} below 1"
    )
    report(5, "domination suite", ok, "; ".join(details))


def _scan_thresholds(model, z_grid, a, sizes, reps, seed):
    thresholds = {}
    all_monotone = True
    for L, rep in zip(sizes, reps):
        rows, indicators = estimate_crossing_probability(
            model, z_grid, a, L, rep, seed=seed, return_indicators=True
        )
        all_monotone = all_monotone and bool(
            (np.diff(indicators.astype(int), axis=1) >= 0).all()
        )
        thresholds[L] = threshold_from_rows(rows, 0.5)
    return thresholds, all_monotone


def test_criterion_6_percolation_scans():
    a = 0.5
    sizes = [16.0, 32.0, 64.0]  # window sides in units of 2a = 1
    reps = [300, 180, 90]
    details = []
    ok = True

    z_grid_leb = [round(1.436 * f, 4) for f in (0.7, 0.8, 0.88, 0.96, 1.04, 1.12, 1.25, 1.45)]
    thr_leb, mono_leb = _scan_thresholds(
        HomogeneousLebesgue(1.0), z_grid_leb, a, sizes, reps, seed=608001
    )
    drift = abs(thr_leb[32.0] / thr_leb[64.0] - 1.0)
    ok = ok and mono_leb and drift <= 0.10
    details.append(
        f"lebesgue thresholds {thr_leb[16.0]:.3f}/{thr_leb[32.0]:.3f}/{thr_leb[64.0]:.3f}, "
        f"largest-L drift {100 * drift:.1f}% (limit 10%), per-seed monotone {mono_leb}"
    )

    pilot = estimate_critical_intensity(
        VoronoiEdges(1.0), a, L=16.0, target_prob=0.5, seed=608002, replicates=100
    )
    z_grid_vor = [round(pilot.value * f, 4) for f in (0.55, 0.7, 0.82, 0.94, 1.06, 1.2, 1.4, 1.7)]
    thr_vor, mono_vor = _scan_thresholds(
        VoronoiEdges(1.0), z_grid_vor, a, sizes, reps, seed=608003
    )
    drift_v = abs(thr_vor[32.0] / thr_vor[64.0] - 1.0)
    ok = ok and mono_vor and drift_v <= 0.10
    details.append(
        f"voronoi thresholds {thr_vor[16.0]:.3f}/{thr_vor[32.0]:.3f}/{thr_vor[64.0]:.3f}, "
        f"drift {100 * drift_v:.1f}% (limit 10%), per-seed monotone {mono_vor}"
    )
    report(6, "percolation scans", ok, "; ".join(details))


def test_criterion_7_environment_validation():
    window = Window.cube(6.0, 2)
    z = 1.0
    cases = {
        "lebesgue": (HomogeneousLebesgue(1.5), 1.5),
        "shot-noise": (ShotNoise(0.6, 0.5, 2.0), 0.6 * 2.0 * math.pi * 0.25),
        "random-set": (
            RandomSetIndicator(2.0, 0.2, 0.5, 0.6),
            2.0 * (1 - math.exp(-0.5 * math.pi * 0.36))
            + 0.2 * math.exp(-0.5 * math.pi * 0.36),
        ),
        "voronoi": (VoronoiEdges(1.0), 2.0),
        "manhattan": (ManhattanGrid(0.7), 1.4),
    }
    details = []
    ok = True
    for name, (model, mean_density) in cases.items():
        counts = []
        for s, child in enumerate(spawn(708001, 150)):
            env_seed, pts_seed = child.spawn(2)
            env = realize_environment(model, window, seed=env_seed)
            counts.append(len(sample_poisson(env, window, z, pts_seed)))
        counts = np.array(counts, dtype=float)
        expected = z * mean_density * window.volume
        se = counts.std(ddof=1) / math.sqrt(len(counts))
        sigma = abs(counts.mean() - expected) / se
        ok = ok and sigma <= 3.0
        details.append(f"{name}: count {counts.mean():.1f} vs {expected:.1f} ({sigma:.2f} se)")

    # edge-length oracle at two intensities, by direct accumulation
    for rho in (1.0, 2.0):
        lengths = []
        for s in range(60):
            env = realize_environment(VoronoiEdges(rho), window, seed=708100 + s)
            lengths.append(sum(env.segments.lengths.tolist()) / window.volume)
        mean = float(np.mean(lengths))
        se = float(np.std(lengths, ddof=1) / math.sqrt(len(lengths)))
        sigma = abs(mean - 2.0 * math.sqrt(rho)) / se
        ok = ok and sigma <= 3.0
        details.append(f"voronoi edge intensity rho={rho}: {mean:.3f} vs {2 * math.sqrt(rho):.3f} ({sigma:.2f} se)")

    rows = covariance_decay_probe(ShotNoise(1.0, 0.4, 1.0), 1.0, [2.2], 300, seed=708200)
    beyond = rows[0]
    cov_ok = abs(beyond["covariance"]) <= 3.0 * beyond["stderr"]
    ok = ok and cov_ok
    details.append(
        f"shot-noise covariance beyond range {beyond['covariance']:.4f} "
        f"+- {beyond['stderr']:.4f} (consistent with 0: {cov_ok})"
    )
    report(7, "environment validation", ok, "; ".join(details))


def test_criterion_8_dlr_consistency(monkeypatch):
    window = Window.cube(3.0, 2)
    env = realize_environment(HomogeneousLebesgue(1.0), window, seed=0)
    params = WRParams(a=0.5, z=1.0, env=env, window=window)
    delta = Window(np.array([1.0, 1.0]), np.array([2.0, 2.0]))
    settings = MCMCSettings(sweeps=2100, burn_in=500, thinning=2, batch_count=16)

    honest_rejections = 0
    for run, child in enumerate(spawn(808001, 20)):
        outcome = dlr_consistency_check(params, PLUS_WIRED, delta, settings, seed=child)
        honest_rejections += int(outcome["rejected"])

    # negative control: a chain that targets activity 1.5 z
    scale_block_sampler_activity(monkeypatch, 1.5)
    corrupted_rejections = 0
    for run, child in enumerate(spawn(808002, 20)):
        outcome = dlr_consistency_check(params, PLUS_WIRED, delta, settings, seed=child)
        corrupted_rejections += int(outcome["rejected"])
    power = corrupted_rejections / 20.0
    ok = honest_rejections <= 1 and power > 0.9
    report(
        8,
        "conditional-resampling consistency",
        ok,
        f"honest rejections {honest_rejections}/20 (limit 1); "
        f"corrupted-kernel power {power:.2f} (must exceed 0.9)",
    )


def test_criterion_9_reproducibility(tmp_path):
    import hashlib
    import textwrap

    from wrlab.cli import main
    from wrlab.config import load_config
    from wrlab.runner import merge_replicates, run_experiment

    def digest(path):
        return hashlib.sha256(open(path, "rb").read()).hexdigest()

    base = textwrap.dedent(
        """
        [experiment]
        kind = percolation-scan
        seed = 90809

        [environment]
        model = voronoi
        seed_intensity = 1.0

        [geometry]
        dim = 2
        a = 0.5

        [schedule]
        z_grid = 0.5 1.0 1.5
        L_list = 8
        replicates = {reps}
        replicate_offset = {off}
        """
    )
    paths = {}
    for name, reps, off in (("full", 4, 0), ("p1", 2, 0), ("p2", 2, 2)):
        cfg_path = tmp_path / f"{name}.cfg"
        cfg_path.write_text(base.format(reps=reps, off=off))
        paths[name] = str(cfg_path)

    run_experiment(load_config(paths["full"]), str(tmp_path / "run1"))
    run_experiment(load_config(paths["full"]), str(tmp_path / "run2"))
    identical = all(
        digest(f"{tmp_path}/run1/{f}") == digest(f"{tmp_path}/run2/{f}")
        for f in ("results.csv", "replicates.jsonl")
    )

    run_experiment(load_config(paths["p1"]), str(tmp_path / "p1"))
    run_experiment(load_config(paths["p2"]), str(tmp_path / "p2"))
    parts = [str(tmp_path / "p1" / "replicates.jsonl"), str(tmp_path / "p2" / "replicates.jsonl")]
    merge_replicates(parts, load_config(paths["full"]), str(tmp_path / "ab"))
    merge_replicates(list(reversed(parts)), load_config(paths["full"]), str(tmp_path / "ba"))
    merge_ok = (
        digest(f"{tmp_path}/ab/results.csv") == digest(f"{tmp_path}/ba/results.csv")
        and digest(f"{tmp_path}/ab/replicates.jsonl") == digest(f"{tmp_path}/ba/replicates.jsonl")
        and digest(f"{tmp_path}/ab/results.csv") == digest(f"{tmp_path}/run1/results.csv")
    )
    ok = identical and merge_ok
    report(
        9,
        "reproducibility",
        ok,
        f"rerun byte-identical: {identical}; merge order-independent and "
        f"equal to the one-shot run: {merge_ok}",
    )
