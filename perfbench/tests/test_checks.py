"""Every output check passes on a real campaign output and fails on a
corrupted copy of it (the negative control).

The fixtures are ``results.csv`` and ``replicates.jsonl`` as written by the
benchmark's campaigns at seed 1; regenerate them with
``python3 perfbench/tests/make_fixtures.py`` when a workload's make-up changes.
"""
import copy
import os
import shutil

import pytest

import checks
from run import Run
from workloads import DOMINATION, LEBESGUE_SCAN, ORDER_PARAMETER, VORONOI_SCAN, WORKLOADS

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
CAMPAIGNS = [campaign for campaigns in WORKLOADS.values() for campaign in campaigns]


def real(campaign) -> checks.Outputs:
    return checks.read_outputs(os.path.join(FIXTURES, campaign.name))


def corrupted(campaign) -> checks.Outputs:
    return copy.deepcopy(real(campaign))


def cell(rows, **match):
    for row in rows:
        if all(float(row[key]) == value for key, value in match.items()):
            return row
    raise KeyError(match)


@pytest.mark.parametrize("campaign", CAMPAIGNS, ids=lambda c: c.name)
def test_real_outputs_pass(campaign):
    assert campaign.check(campaign, real(campaign)) == []


# -- percolation scans -------------------------------------------------------


@pytest.mark.parametrize("campaign", [VORONOI_SCAN, LEBESGUE_SCAN], ids=lambda c: c.name)
def test_non_monotone_indicator_row_fails(campaign):
    out = corrupted(campaign)
    row = out.records[0]["rows"][0]["crossed"]
    row[:] = [1] + [0] * (len(row) - 1)
    assert checks.check_monotone_indicators(out.records)
    assert campaign.check(campaign, out)


def test_curve_that_never_reaches_one_half_fails():
    out = corrupted(VORONOI_SCAN)
    largest = max(float(row["L"]) for row in out.rows)
    for row in out.rows:
        if float(row["L"]) == largest:
            row["crossing_est"] = str(min(float(row["crossing_est"]), 0.4))
    assert checks.check_curves_bracket(out.rows)
    assert VORONOI_SCAN.check(VORONOI_SCAN, out)


def test_lebesgue_threshold_moved_by_20_percent_fails():
    out = corrupted(LEBESGUE_SCAN)
    for row in out.rows:
        row["z"] = repr(1.2 * float(row["z"]))
    replicates = int(LEBESGUE_SCAN.value("schedule", "replicates"))
    assert checks.check_lebesgue_threshold(out.rows, 0.5, replicates)
    assert LEBESGUE_SCAN.check(LEBESGUE_SCAN, out)


def test_lebesgue_threshold_is_the_literature_value():
    assert checks.ETA_C / (3.141592653589793 * 0.25) == pytest.approx(1.4364, abs=1e-4)


# -- two-colored order parameter ---------------------------------------------


def _top_cell(rows):
    z = max(float(row["z"]) for row in rows)
    L = max(float(row["L"]) for row in rows)
    return cell(rows, z=z, L=L)


def test_psi_below_minus_four_se_fails():
    out = corrupted(ORDER_PARAMETER)
    row = out.rows[0]
    se = max(float(row["psi_stderr"]), checks.within_replicate_se(out.records)[0])
    row["psi_est"] = repr(-(checks.PSI_NONNEGATIVE_SE + 1.0) * se)
    assert checks.check_psi_nonnegative(out.rows, out.records)
    assert ORDER_PARAMETER.check(ORDER_PARAMETER, out)


def test_psi_above_the_gnz_bound_fails():
    out = corrupted(ORDER_PARAMETER)
    row = cell(out.rows, L=5.0)  # the count box is the unit square for L >= 5
    lambda_max = float(ORDER_PARAMETER.sections["environment"]["lambda_inside"])
    row["psi_est"] = repr(1.01 * 2.0 * float(row["z"]) * lambda_max)
    assert ORDER_PARAMETER.check(ORDER_PARAMETER, out)


def test_missing_symmetry_breaking_fails():
    out = corrupted(ORDER_PARAMETER)
    row = _top_cell(out.rows)
    row["psi_est"] = repr(2.0 * float(row["psi_stderr"]))
    assert checks.check_symmetry_breaking(out.rows)
    assert ORDER_PARAMETER.check(ORDER_PARAMETER, out)


# -- stochastic domination ---------------------------------------------------


def _stat(rows, z, name):
    for row in rows:
        if float(row["z"]) == z and row["statistic"] == name:
            return row
    raise KeyError((z, name))


def test_poisson_mean_off_by_20_percent_fails():
    out = corrupted(DOMINATION)
    row = _stat(out.rows, 2.0, "total_count")
    row["poisson_est"] = repr(1.2 * float(row["poisson_est"]))
    assert checks.check_poisson_means(out.rows, out.summary["tau"], 36.0)
    assert DOMINATION.check(DOMINATION, out)


def test_merge_bound_four_fails():
    out = corrupted(DOMINATION)
    out.summary["merge_bound"] = 4
    out.summary["tau"] = 2.0**-4
    assert checks.check_merge_bound(out.summary)
    assert DOMINATION.check(DOMINATION, out)


def test_tau_above_two_to_minus_k_fails():
    out = corrupted(DOMINATION)
    out.summary["tau"] = 2.0 ** -(out.summary["merge_bound"] - 1)
    assert checks.check_merge_bound(out.summary)


def test_poisson_above_rc_fails():
    out = corrupted(DOMINATION)
    row = _stat(out.rows, 0.5, "quadrant_0_count")
    row["poisson_est"] = repr(float(row["rc_est"]) + 10.0 * float(row["rc_stderr"]) + 1.0)
    assert checks.check_domination_order(out.rows)
    assert DOMINATION.check(DOMINATION, out)


@pytest.mark.parametrize("side", ["below", "above"])
def test_rc_count_outside_its_bounds_fails(side):
    out = corrupted(DOMINATION)
    tau, z, volume = out.summary["tau"], 2.0, 36.0
    row = _stat(out.rows, z, "total_count")
    se = float(row["rc_stderr"])
    value = tau * z * volume - 4.0 * se if side == "below" else 2.0 * z * volume + 4.0 * se
    row["rc_est"] = repr(value)
    assert checks.check_rc_count_bounds(out.rows, tau, volume)
    assert DOMINATION.check(DOMINATION, out)


# -- reproducibility across rounds -------------------------------------------


def test_a_round_that_writes_other_bytes_fails(tmp_path):
    run = Run(str(tmp_path), "scan", 1)
    campaign = VORONOI_SCAN
    first, second = run.out_dir(0, campaign), run.out_dir(1, campaign)
    shutil.copytree(os.path.join(FIXTURES, campaign.name), first)
    shutil.copytree(os.path.join(FIXTURES, campaign.name), second)
    run.record(campaign, 0, first)
    assert run.failures == []
    with open(os.path.join(second, "results.csv"), "a") as fh:
        fh.write("extra\n")
    run.record(campaign, 0, second)
    assert run.failures and "differs" in run.failures[0]


def test_a_failed_campaign_counts_as_failed_not_incorrect(tmp_path):
    run = Run(str(tmp_path), "scan", 1)
    run.record(VORONOI_SCAN, 3, run.out_dir(0, VORONOI_SCAN))
    assert (run.attempted, run.failed, run.failures) == (1, 1, [])
