"""The component-weighted model and the identity that links it to the colors.

Dropping the colors of the plus-wired two-colored chain gives exactly the
unmarked model weighted by 2^(components - 1); conversely the plus-minus gap
in any sub-box equals the mean number of points there connected to the
boundary under that weighted model.  Both sides are estimated here with
fully independent samplers.
"""
import numpy as np

from wrlab import (
    HomogeneousLebesgue,
    MCMCSettings,
    WRParams,
    Window,
    check_es_identity,
    realize_environment,
    run_rc_chain,
    sample_rc_by_color_dropping,
)

window = Window.cube(4.0, 2)
env = realize_environment(HomogeneousLebesgue(1.0), window, seed=0)
params = WRParams(a=0.5, z=1.0, env=env, window=window)
settings = MCMCSettings(sweeps=4400, burn_in=400, thinning=2)

# two routes to the same unmarked law
dropped = sample_rc_by_color_dropping(params, settings, seed=1)
direct, _, _ = run_rc_chain(params, settings, seed=2, record=lambda ch: ch.to_configuration())
print(f"color-dropped mean count: {np.mean([len(c) for c in dropped]):.2f}")
print(f"direct chain mean count:  {np.mean([len(c) for c in direct]):.2f}")

# the identity, checked at desk scale
delta = Window(np.array([1.5, 1.5]), np.array([2.5, 2.5]))
result = check_es_identity(params, delta, MCMCSettings(sweeps=8000, burn_in=1000, thinning=2), replicates=2, seed=3)
print(
    f"\ncolor gap {result['order_parameter']['value']:.3f} "
    f"vs boundary-connected count {result['boundary_connected']['value']:.3f}"
)
print(
    f"discrepancy {result['sigma_units']:.2f} combined standard errors "
    f"-> {'consistent' if result['pass'] else 'INCONSISTENT'}"
)
