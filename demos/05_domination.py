"""Stochastic domination of a thinned Poisson process by the weighted model.

One inserted point can merge only a bounded number of components (a packing
fact of the dimension); thinning the activity by tau = 2^-K keeps the
weighted model's conditional intensity above 1, which forces domination in
every increasing statistic.  The bound K is found by adversarial search and
the domination is then checked statistic by statistic.
"""
import numpy as np

from wrlab import (
    Configuration,
    DominationConfig,
    HomogeneousLebesgue,
    IncreasingStatistic,
    MCMCSettings,
    WRParams,
    Window,
    check_domination,
    estimate_merge_bound,
    merge_bound_cap,
    papangelou_ratio_batch,
    realize_environment,
)
from wrlab.rng import as_generator

a = 0.5
observed = estimate_merge_bound(2, a, probes=100000, seed=1)
print(f"observed max components merged by one point (d=2): {observed}")
print(f"analytic packing ceiling (incl. boundary): {merge_bound_cap(2)}")

k = observed + 1  # one unit of safety
dom = DominationConfig(tau=2.0 ** (-k), merge_bound=k)
print(f"thinning factor tau = 2^-{k} = {dom.tau:.5f}")

window = Window.cube(6.0, 2)
env = realize_environment(HomogeneousLebesgue(1.0), window, seed=0)
params = WRParams(a, 1.5, env, window)
battery = [
    IncreasingStatistic("total_count", lambda c: float(len(c))),
    IncreasingStatistic(
        "left_half_count",
        lambda c: float((c.points[:, 0] < 3.0).sum()) if len(c) else 0.0,
    ),
]
report = check_domination(
    params, dom, battery, MCMCSettings(sweeps=2600, burn_in=500, thinning=2),
    replicates=2, seed=2, poisson_draws=1500,
)
for name, entry in report["statistics"].items():
    print(
        f"  {name}: thinned poisson {entry['poisson']['value']:.3f} "
        f"<= weighted model {entry['random_cluster']['value']:.3f} "
        f"(margin {entry['margin_sigma']:.1f} se)"
    )
print("domination holds:", report["pass"])

# the pointwise mechanism: conditional intensity never below 1 at tau = 2^-K
rng = as_generator(3)
worst = np.inf
for _ in range(200):
    conf = Configuration(rng.uniform(0, 6, size=(int(rng.integers(0, 25)), 2)))
    xs = rng.uniform(0, 6, size=(200, 2))
    dom_tight = DominationConfig(tau=2.0 ** (-observed), merge_bound=observed)
    worst = min(worst, papangelou_ratio_batch(xs, conf, dom_tight, a, window).min())
print(f"minimum conditional-intensity ratio over 40000 probes: {worst:.2f} (>= 1)")
