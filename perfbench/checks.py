"""Output checks for the benchmark's campaigns.

Each check reads what a ``wrlab`` campaign wrote (``results.csv`` and
``replicates.jsonl``) and compares it with an oracle that does not come from
the program: a closed form, a literature value, or a property the method
guarantees.  A check returns a list of failure messages; an empty list is a
pass.  The functions take plain parsed data, so the tests can feed them
corrupted copies of real outputs.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

# 2-D continuum percolation threshold of the Boolean model, as the reduced
# density eta_c = lambda_c * pi * r^2 for discs of radius r (Mertens & Moore,
# PRE 86, 061109, 2012).  Discs of radius a overlap when centres lie within
# 2a, which is wrlab's connection rule, so r = a.
ETA_C = 1.12808737

# Two-sided normal quantile for the ten Poisson-mean comparisons of one
# domination run: at 3 SE a correct program would fail about one run in forty;
# at 4.5 SE the family fails with probability below 1e-4, and a 20% error in
# the larger means (about 9 SE) is still caught.
POISSON_MEAN_SE = 4.5

# Standard errors psi may fall below zero (see check_psi_nonnegative).
PSI_NONNEGATIVE_SE = 4.0


@dataclass
class Outputs:
    """What one campaign wrote: CSV rows and the replicate-file records."""

    rows: list[dict]
    records: list[dict]
    summary: dict = field(default_factory=dict)
    criteria: dict = field(default_factory=dict)


def read_outputs(out_dir: str) -> Outputs:
    with open(os.path.join(out_dir, "results.csv")) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.DictReader(lines))
    records, summary, criteria = [], {}, {}
    with open(os.path.join(out_dir, "replicates.jsonl")) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec.get("record") == "replicate":
                records.append(rec)
            elif rec.get("record") == "summary":
                summary = rec.get("summary", {})
                criteria = rec.get("criteria", {})
    return Outputs(rows, records, summary, criteria)


def _num(row: dict, key: str) -> float:
    return float(row[key])


def _curves(rows: list[dict]) -> dict[float, list[tuple[float, float]]]:
    """Crossing curve per window size: sorted (z, crossing estimate) pairs."""
    curves: dict[float, list[tuple[float, float]]] = {}
    for row in rows:
        curves.setdefault(_num(row, "L"), []).append((_num(row, "z"), _num(row, "crossing_est")))
    return {L: sorted(points) for L, points in curves.items()}


# -- percolation scans -------------------------------------------------------


def check_monotone_indicators(records: list[dict]) -> list[str]:
    """Coupled thinning makes each replicate's crossing row monotone in z."""
    failures = []
    for rec in records:
        for row in rec["rows"]:
            crossed = row["crossed"]
            if any(b < a for a, b in zip(crossed, crossed[1:])):
                failures.append(
                    f"replicate {rec['index']} L={row['L']}: crossing row {crossed} not monotone in z"
                )
    return failures


def check_curves_bracket(rows: list[dict], target: float = 0.5) -> list[str]:
    """Every window's crossing curve starts below ``target`` and ends above it."""
    failures = []
    for L, points in _curves(rows).items():
        low, high = points[0][1], points[-1][1]
        if not low < target < high:
            failures.append(
                f"L={L:g}: crossing curve runs {low:.3f}..{high:.3f}, does not bracket {target}"
            )
    return failures


def crossing_activity(points: list[tuple[float, float]], target: float = 0.5):
    """First upward passage of ``target`` by linear interpolation, with its grid index."""
    for k in range(1, len(points)):
        (z0, p0), (z1, p1) = points[k - 1], points[k]
        if p0 < target <= p1:
            return z0 + (target - p0) * (z1 - z0) / (p1 - p0), k
    return None, None


def threshold_tolerance(points: list[tuple[float, float]], k: int, replicates: int) -> float:
    """Four standard errors of the interpolated crossing activity, plus one grid step.

    A crossing frequency near 0.5 has standard error 0.5 / sqrt(n); divided by
    the local slope of the curve (a secant over three grid steps around the
    crossing) it becomes an error in z.  The grid step bounds the
    interpolation error.
    """
    lo, hi = max(k - 2, 0), min(k + 1, len(points) - 1)
    slope = (points[hi][1] - points[lo][1]) / (points[hi][0] - points[lo][0])
    step = points[k][0] - points[k - 1][0]
    if slope <= 0.0:
        return math.inf
    return 4.0 * 0.5 / math.sqrt(replicates) / slope + step


def check_lebesgue_threshold(rows: list[dict], a: float, replicates: int) -> list[str]:
    """The crossing activity at the largest window against lambda_c = eta_c / (pi a^2)."""
    expected = ETA_C / (math.pi * a * a)
    curves = _curves(rows)
    L = max(curves)
    points = curves[L]
    z_star, k = crossing_activity(points)
    if z_star is None:
        return [f"L={L:g}: no upward 0.5 crossing to compare with lambda_c={expected:.4f}"]
    tol = threshold_tolerance(points, k, replicates)
    if abs(z_star - expected) > tol:
        return [
            f"L={L:g}: crossing activity {z_star:.4f} is {abs(z_star - expected):.4f} from "
            f"lambda_c={expected:.4f}, tolerance {tol:.4f}"
        ]
    return []


# -- two-colored order parameter ---------------------------------------------


def within_replicate_se(records: list[dict]) -> list[float]:
    """Per cell, the SE of the replicate mean from each replicate's batch-means SE."""
    cells = [rec["cells"] for rec in records]
    return [
        math.sqrt(sum(c[i]["stderr"] ** 2 for c in cells)) / len(cells) for i in range(len(cells[0]))
    ]


def check_psi_nonnegative(rows: list[dict], records: list[dict]) -> list[str]:
    """Under plus wiring psi is a mean count of boundary-connected points.

    At the subcritical z psi is close to 0, so psi / SE behaves like a
    t statistic.  The CSV's SE comes from the spread of a few replicates
    (3 degrees of freedom for 4), and t_3 falls below -3 in 3% of cells.  The
    SE is therefore floored by the within-replicate batch-means SE (about 60
    degrees of freedom), and the check allows PSI_NONNEGATIVE_SE of them: a
    correct program then fails fewer than 1e-4 runs.
    """
    failures = []
    floors = within_replicate_se(records)
    for row, floor in zip(rows, floors):
        psi, se = _num(row, "psi_est"), max(_num(row, "psi_stderr"), floor)
        if psi < -PSI_NONNEGATIVE_SE * se:
            failures.append(
                f"z={row['z']} L={row['L']}: psi={psi:.4f} below -{PSI_NONNEGATIVE_SE} SE ({se:.4f})"
            )
    return failures


def check_psi_gnz_bound(rows: list[dict], lambda_max: float, delta_volume) -> list[str]:
    """GNZ: the unmarked conditional intensity is at most 2 z rho, so psi <= 2 z lambda_max |delta|.

    ``delta_volume(L)`` is the volume of the count box on the window of side L.
    """
    failures = []
    for row in rows:
        z, psi = _num(row, "z"), _num(row, "psi_est")
        bound = 2.0 * z * lambda_max * delta_volume(_num(row, "L"))
        if psi > bound:
            failures.append(f"z={z:g} L={row['L']}: psi={psi:.4f} above the GNZ bound {bound:.4f}")
    return failures


def check_symmetry_breaking(rows: list[dict]) -> list[str]:
    """At the largest z on the largest window the pooled psi exceeds 3 SE."""
    z_top = max(_num(row, "z") for row in rows)
    L_top = max(_num(row, "L") for row in rows)
    for row in rows:
        if _num(row, "z") == z_top and _num(row, "L") == L_top:
            psi, se = _num(row, "psi_est"), _num(row, "psi_stderr")
            if psi > 3.0 * se:
                return []
            return [f"z={z_top:g} L={L_top:g}: psi={psi:.4f} not above 3 SE ({se:.4f})"]
    return [f"no cell at z={z_top:g} L={L_top:g}"]


# -- stochastic domination ---------------------------------------------------


def _by_statistic(rows: list[dict]) -> dict[tuple[float, str], dict]:
    return {(_num(row, "z"), row["statistic"]): row for row in rows}


def check_poisson_means(rows: list[dict], tau: float, volume: float) -> list[str]:
    """Thinned-Poisson counts: tau z |W| in the window, a quarter of it per quadrant."""
    failures = []
    for (z, name), row in _by_statistic(rows).items():
        if name == "total_count":
            expected = tau * z * volume
        elif name.startswith("quadrant_"):
            expected = tau * z * volume / 4.0
        else:
            continue
        mean, se = _num(row, "poisson_est"), _num(row, "poisson_stderr")
        if abs(mean - expected) > POISSON_MEAN_SE * se:
            failures.append(
                f"z={z:g} {name}: Poisson mean {mean:.4f} vs closed form {expected:.4f} "
                f"(> {POISSON_MEAN_SE} SE, SE={se:.4f})"
            )
    return failures


def check_merge_bound(summary: dict) -> list[str]:
    """A regular pentagon fits within 2a of a point with vertices > 2a apart: K >= 5."""
    failures = []
    k, tau = summary.get("merge_bound"), summary.get("tau")
    if k is None or tau is None:
        return ["summary lacks tau or merge_bound"]
    if k < 5:
        failures.append(f"merge bound K={k} below the pentagon packing value 5")
    if tau > 2.0 ** (-k) * (1.0 + 1e-12):
        failures.append(f"tau={tau} above 2^-K={2.0 ** (-k)}")
    return failures


def check_domination_order(rows: list[dict]) -> list[str]:
    """Every increasing statistic is no larger under the thinned Poisson law than under RC."""
    failures = []
    for (z, name), row in _by_statistic(rows).items():
        p, rc = _num(row, "poisson_est"), _num(row, "rc_est")
        combined = math.hypot(_num(row, "poisson_stderr"), _num(row, "rc_stderr"))
        if p > rc + 3.0 * combined:
            failures.append(f"z={z:g} {name}: Poisson {p:.4f} above RC {rc:.4f} + 3 SE ({combined:.4f})")
    return failures


def check_rc_count_bounds(rows: list[dict], tau: float, volume: float) -> list[str]:
    """Domination from below (tau z |W|) and the GNZ bound from above (2 z |W|)."""
    failures = []
    for (z, name), row in _by_statistic(rows).items():
        if name != "total_count":
            continue
        rc, se = _num(row, "rc_est"), _num(row, "rc_stderr")
        lo, hi = tau * z * volume, 2.0 * z * volume
        if not lo - 3.0 * se <= rc <= hi + 3.0 * se:
            failures.append(f"z={z:g}: RC total count {rc:.4f} outside [{lo:.4f}, {hi:.4f}] +- 3 SE ({se:.4f})")
    return failures
