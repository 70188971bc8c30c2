"""The benchmark's workloads: which ``wrlab`` campaigns each runs, and how
each campaign's outputs are checked.

Every campaign runs its replicates in one process (``workers = 1``); the
master seed of every config is the benchmark's ``--seed``.  Sizes are chosen
so that one round of a workload takes about 5 to 12 s on a 2-core machine,
and each workload stresses different layers (see README.md).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from checks import (
    Outputs,
    check_curves_bracket,
    check_domination_order,
    check_lebesgue_threshold,
    check_merge_bound,
    check_monotone_indicators,
    check_poisson_means,
    check_psi_gnz_bound,
    check_psi_nonnegative,
    check_rc_count_bounds,
    check_symmetry_breaking,
)


@dataclass(frozen=True)
class Campaign:
    name: str
    kind: str
    sections: dict
    check: Callable[["Campaign", Outputs], list]

    def config_text(self, seed: int) -> str:
        lines = ["[experiment]", f"kind = {self.kind}", f"seed = {seed}", "workers = 1"]
        for section, values in self.sections.items():
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {value}" for key, value in values.items())
        return "\n".join(lines) + "\n"

    def value(self, section: str, key: str) -> float:
        return float(self.sections[section][key])


def _check_scan(campaign: Campaign, out: Outputs) -> list:
    failures = check_monotone_indicators(out.records) + check_curves_bracket(out.rows)
    if campaign.sections["environment"]["model"] == "lebesgue":
        failures += check_lebesgue_threshold(
            out.rows, campaign.value("geometry", "a"), int(campaign.value("schedule", "replicates"))
        )
    return failures


def _check_order_parameter(campaign: Campaign, out: Outputs) -> list:
    env = campaign.sections["environment"]
    lambda_max = max(float(env["lambda_inside"]), float(env["lambda_outside"]))
    # no delta in the config: the runner centres a box of side min(1, L/5)
    delta_volume = lambda L: min(1.0, L / 5.0) ** 2
    return (
        check_psi_nonnegative(out.rows, out.records)
        + check_psi_gnz_bound(out.rows, lambda_max, delta_volume)
        + check_symmetry_breaking(out.rows)
    )


def _check_domination(campaign: Campaign, out: Outputs) -> list:
    # the environment is Lebesgue with density 1, so mass equals volume
    volume = campaign.value("geometry", "window_size") ** 2
    failures = check_merge_bound(out.summary)
    if failures:
        return failures
    tau = out.summary["tau"]
    return (
        check_poisson_means(out.rows, tau, volume)
        + check_domination_order(out.rows)
        + check_rc_count_bounds(out.rows, tau, volume)
        + [f"program criterion {name} failed" for name, ok in out.criteria.items() if not ok]
    )


A = "0.5"

VORONOI_SCAN = Campaign(
    name="voronoi-scan",
    kind="percolation-scan",
    sections={
        "environment": {"model": "voronoi", "seed_intensity": "1.0"},
        "geometry": {"dim": "2", "a": A},
        "schedule": {
            "z_grid": "0.3 0.5 0.6 0.7 0.8 0.9 1.0 1.2 1.6 2.4",
            "L_list": "8 16 24",
            "replicates": "6",
        },
    },
    check=_check_scan,
)

LEBESGUE_SCAN = Campaign(
    name="lebesgue-scan",
    kind="percolation-scan",
    sections={
        "environment": {"model": "lebesgue"},
        "geometry": {"dim": "2", "a": A},
        "schedule": {
            "z_grid": "1.1 1.3 1.38 1.42 1.46 1.5 1.6 1.8",
            "L_list": "32 64",
            "replicates": "30",
        },
    },
    check=_check_scan,
)

ORDER_PARAMETER = Campaign(
    name="wr-order-parameter",
    kind="wr-order-parameter",
    sections={
        "environment": {
            "model": "random-set",
            "lambda_inside": "1.2",
            "lambda_outside": "0.8",
            "germ_intensity": "0.5",
            "grain_radius": "0.5",
        },
        "geometry": {"dim": "2", "a": A},
        "schedule": {"L_list": "5 8", "z_grid": "0.4 5.0", "replicates": "4"},
        "mcmc": {"sweeps": "120", "burn_in": "40", "thinning": "1", "moves_per_sweep": "400"},
    },
    check=_check_order_parameter,
)

DOMINATION = Campaign(
    name="domination-check",
    kind="domination-check",
    sections={
        "environment": {"model": "lebesgue"},
        "geometry": {"dim": "2", "a": A, "window_size": "6"},
        "schedule": {"z_grid": "0.5 2.0", "replicates": "1"},
        "mcmc": {"sweeps": "80", "burn_in": "16", "thinning": "1"},
    },
    check=_check_domination,
)

WORKLOADS = {
    "scan": (VORONOI_SCAN, LEBESGUE_SCAN),
    "order-parameter": (ORDER_PARAMETER,),
    "domination": (DOMINATION,),
}
