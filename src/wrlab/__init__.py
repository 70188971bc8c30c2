"""wrlab: a desk-scale laboratory for two-colored hard-exclusion point
processes over inhomogeneous and random environments.

The package is organized around six parts:

* :mod:`wrlab.geometry` -- windows, configurations, Boolean-model
  connectivity (free and wired) with a brute-force oracle;
* :mod:`wrlab.intensity` -- deterministic and random environments,
  Poisson sampling, covariance probes;
* :mod:`wrlab.wr_gibbs` -- the two-colored measures: viability, exact
  rejection sampling, the block Gibbs sampler behind the order parameter
  and the conditional-resampling consistency check;
* :mod:`wrlab.random_cluster` -- the component-weighted unmarked model,
  color-dropping coupling, conditional-intensity ratios, merge bounds,
  and the stochastic-domination suite;
* :mod:`wrlab.percolation` -- finite-size crossing scans with coupled
  thinning and critical-intensity search;
* :mod:`wrlab.runner` / :mod:`wrlab.cli` -- seeded campaign
  orchestration behind the ``wrlab`` command.
"""

__version__ = "0.1.0"

from .geometry import (
    ComponentLabeling,
    Configuration,
    ConnectivityParams,
    Window,
    boundary_connected_count,
    build_components,
    brute_force_components,
    has_crossing,
)
from .intensity import (
    DensityField,
    EnvironmentRealization,
    HomogeneousLebesgue,
    IntensityModel,
    ManhattanGrid,
    RandomSetIndicator,
    SegmentSet,
    ShotNoise,
    VoronoiEdges,
    covariance_decay_probe,
    realize_environment,
    sample_poisson,
    total_mass,
)
from .stats import EstimateWithError, wilson_interval
from .wr_gibbs import (
    FREE,
    MINUS,
    MINUS_WIRED,
    PLUS,
    PLUS_WIRED,
    MarkedConfiguration,
    MCMCSettings,
    WRParams,
    block_gibbs_counts,
    dlr_consistency_check,
    estimate_order_parameter,
    is_viable,
    sample_wr_rejection,
)
from .random_cluster import (
    DominationConfig,
    IncreasingStatistic,
    check_domination,
    check_es_identity,
    estimate_merge_bound,
    merge_bound_cap,
    papangelou_ratio_batch,
    rc_component_exponent,
    run_rc_chain,
    sample_rc_by_color_dropping,
)
from .percolation import (
    estimate_critical_intensity,
    estimate_crossing_probability,
    largest_component_fraction,
    target_percolation_proxy,
    threshold_from_rows,
)
