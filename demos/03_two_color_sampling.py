"""Sampling the two-colored hard-exclusion measure, two ways.

At small mass, plain rejection gives exact draws; the block Gibbs sampler,
which redraws each colour exactly given the other, reproduces the same law
and scales to dense regimes.  With a plus-wired boundary and small window the
accepted law is all-plus with Poisson counts, which makes the comparison
sharp.  The order parameter runs the block Gibbs sampler too.
"""
import numpy as np

from wrlab import (
    HomogeneousLebesgue,
    MCMCSettings,
    PLUS_WIRED,
    Window,
    WRParams,
    block_gibbs_counts,
    estimate_order_parameter,
    realize_environment,
    sample_wr_rejection,
)
from wrlab.rng import as_generator
from wrlab.stats import total_variation

window = Window.cube(1.0, 2)
env = realize_environment(HomogeneousLebesgue(1.0), window, seed=0)
params = WRParams(a=2.0, z=0.25, env=env, window=window)  # radius above diameter

rng = as_generator(99)
rejection_counts = []
attempts = 0
for _ in range(20000):
    conf, att = sample_wr_rejection(params, PLUS_WIRED, rng, return_attempts=True)
    attempts += att
    rejection_counts.append(len(conf))
print(f"rejection: {len(rejection_counts)} draws, acceptance {len(rejection_counts)/attempts:.3f}")
print(f"  count mean {np.mean(rejection_counts):.3f} (all-plus Poisson oracle: 0.25)")

settings = MCMCSettings(sweeps=10400, burn_in=400, thinning=2)
chain_counts = block_gibbs_counts(params, PLUS_WIRED, settings, 5, window).sum(axis=1)
tv = total_variation(chain_counts, rejection_counts)
print(f"chain: {len(chain_counts)} thinned samples, count mean {np.mean(chain_counts):.3f}")
print(f"total variation between the two count histograms: {tv:.4f}")

# the order parameter reads the plus-minus gap in a sub-box under plus wiring;
# a sweep of the block Gibbs sampler redraws both colours once
big = Window.cube(4.0, 2)
env4 = realize_environment(HomogeneousLebesgue(1.0), big, seed=1)
delta = Window(np.array([1.5, 1.5]), np.array([2.5, 2.5]))
psi = estimate_order_parameter(
    WRParams(a=0.5, z=1.0, env=env4, window=big),
    delta,
    MCMCSettings(sweeps=4200, burn_in=600, thinning=2),
    replicates=2,
    seed=17,
)
print(f"\nplus-minus gap in the central box at z=1: {psi.value:.3f} +- {psi.stderr:.3f}")
