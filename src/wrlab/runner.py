"""Seeded campaign orchestration and result persistence.

Every experiment is split into two phases: an embarrassingly parallel
per-replicate phase producing plain JSON records, and a deterministic
summarize phase that turns sorted records into CSV rows and pass/fail
criteria.  ``merge_replicates`` is just the summarize phase applied to
concatenated record files, which makes merging associative and
order-independent byte for byte.

Result files are bit-reproducible from (config, master seed); the manifest
additionally carries wall times and is the only non-reproducible artifact.
"""
from __future__ import annotations

import concurrent.futures
import json
import math
import os
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, default_delta
from .geometry import ConnectivityParams, Window, build_components, has_crossing
from .intensity import (
    ManhattanGrid,
    RandomSetIndicator,
    ShotNoise,
    VoronoiEdges,
    realize_environment,
    row_norms,
    sample_poisson,
    total_mass,
)
from .percolation import estimate_crossing_probability, scan_rows, target_reach, threshold_from_rows
from .random_cluster import (
    IncreasingStatistic,
    boundary_connected_chain,
    domination_verdict,
    identity_verdict,
    resolve_tau,
    statistic_chain,
    thinned_poisson_values,
)
from .rng import seed_sequence
from .stats import EstimateWithError, pool_replicates
from .wr_gibbs import (
    PLUS_WIRED,
    WRParams,
    dlr_consistency_check,
    order_parameter_chain,
)


class RunnerFailure(RuntimeError):
    """A replicate failed mid-run; partial results were flushed."""


@dataclass
class RunManifest:
    config_hash: str
    code_version: str
    kind: str
    master_seed: int
    replicate_seeds: list
    started_at: str
    finished_at: str | None
    criteria: dict = field(default_factory=dict)
    passed: bool | None = None
    incomplete: bool = False
    output_files: list = field(default_factory=list)
    resolved_config: dict = field(default_factory=dict)


def _replicate_entropy(cfg: ExperimentConfig, index: int) -> list:
    """Entropy words for one replicate stream: master seed, config hash,
    experiment kind, replicate index.  No stream reuse across kinds."""
    return [cfg.seed, cfg.hash(), cfg.kind, index]


def _replicate_seed(cfg: ExperimentConfig, index: int):
    return seed_sequence(*_replicate_entropy(cfg, index))


def _env_for(cfg: ExperimentConfig, window: Window, index: int):
    """Replicate ``index``'s environment on ``window``, from its own stream."""
    seed = seed_sequence(cfg.seed, cfg.hash(), "env", index)
    return realize_environment(cfg.model, window, cfg.guard_margin, seed)


# --------------------------------------------------------------------------
# per-kind replicate phase


def _rep_percolation_scan(cfg: ExperimentConfig, index: int) -> dict:
    seed = _replicate_seed(cfg, index)
    out = {"index": index, "rows": []}
    for l_seed, L in zip(seed.spawn(len(cfg.L_list)), cfg.L_list):
        rows, indicators = estimate_crossing_probability(
            cfg.model,
            cfg.z_grid,
            cfg.a,
            L,
            replicates=1,
            seed=l_seed,
            guard_margin=cfg.guard_margin,
            both_axes=cfg.both_axes,
            return_indicators=True,
        )
        out["rows"].append(
            {
                "L": L,
                "crossed": [int(v) for v in indicators[0]],
                "largest": [row.largest_fraction.value for row in rows],
            }
        )
    return out


def _rep_wr_order_parameter(cfg: ExperimentConfig, index: int) -> dict:
    seed = _replicate_seed(cfg, index)
    windows = (
        [Window.cube(L, cfg.dim) for L in cfg.L_list] if cfg.L_list else [cfg.window]
    )
    cells = []
    children = seed.spawn(len(windows) * len(cfg.z_grid))
    k = 0
    for window in windows:
        env = _env_for(cfg, window, index)
        delta = cfg.delta if cfg.delta is not None else default_delta(window)
        for z in cfg.z_grid:
            cell = {"L": float(window.sides[0]), "z": z, "psi": 0.0, "stderr": 0.0, "retained": 1, "lag1": 0.0}
            if z != 0.0:
                params = WRParams(cfg.a, z, env, window)
                est, lag1 = order_parameter_chain(params, delta, cfg.settings, children[k])
                cell.update(psi=est.value, stderr=est.stderr, retained=est.n, lag1=lag1)
            cells.append(cell)
            k += 1
    return {"index": index, "cells": cells}


def _rep_rc_check(cfg: ExperimentConfig, index: int) -> dict:
    seed = _replicate_seed(cfg, index)
    env = _env_for(cfg, cfg.window, index)
    cells = []
    children = seed.spawn(2 * len(cfg.z_grid))
    for i, z in enumerate(cfg.z_grid):
        if z == 0.0:
            cells.append(
                {"z": z, "psi": 0.0, "psi_se": 0.0, "psi_lag1": 0.0, "nb": 0.0, "nb_se": 0.0, "nb_lag1": 0.0}
            )
            continue
        params = WRParams(cfg.a, z, env, cfg.window)
        psi, psi_lag1 = order_parameter_chain(params, cfg.delta, cfg.settings, children[2 * i])
        nb, nb_lag1 = boundary_connected_chain(params, cfg.delta, cfg.settings, children[2 * i + 1])
        cells.append(
            {
                "z": z,
                "psi": psi.value,
                "psi_se": psi.stderr,
                "psi_lag1": psi_lag1,
                "nb": nb.value,
                "nb_se": nb.stderr,
                "nb_lag1": nb_lag1,
            }
        )
    return {"index": index, "cells": cells}


def _domination_battery(cfg: ExperimentConfig):
    window, delta, a = cfg.window, cfg.delta, cfg.a
    half = (window.lower + window.upper) / 2.0
    quadrants = []
    for i in range(2):
        for j in range(2):
            lo = np.array([window.lower[0] if i == 0 else half[0], window.lower[1] if j == 0 else half[1]])
            hi = np.array([half[0] if i == 0 else window.upper[0], half[1] if j == 0 else window.upper[1]])
            quadrants.append(Window(lo, hi))

    # the two connectivity statistics share one labeling per configuration;
    # every caller evaluates the whole battery on one configuration at a time
    last = [None, None]

    def labeling(c):
        if last[0] is not c:
            last[:] = [c, build_components(c, ConnectivityParams(a), window)]
        return last[1]

    stats = [IncreasingStatistic("total_count", lambda c: float(len(c)))]
    for q_index, quad in enumerate(quadrants):
        stats.append(
            IncreasingStatistic(
                f"quadrant_{q_index}_count",
                lambda c, _q=quad: float(_q.contains(c.points).sum()) if len(c) else 0.0,
            )
        )
    stats.append(
        IncreasingStatistic(
            "target_reach",
            lambda c: float(len(c) > 0 and target_reach(labeling(c), c, window, delta)),
        )
    )
    stats.append(
        IncreasingStatistic(
            "crossing",
            lambda c: float(len(c) > 0 and has_crossing(labeling(c), c, window, 0)),
        )
    )
    return stats


def _rep_domination_check(cfg: ExperimentConfig, index: int) -> dict:
    seed = _replicate_seed(cfg, index)
    env = _env_for(cfg, cfg.window, index)
    stats = _domination_battery(cfg)
    dom = resolve_tau(cfg.tau, cfg.merge_bound, cfg.dim)
    draws = max(200, 2000 // max(1, cfg.replicates))
    cells = []
    children = seed.spawn(2 * len(cfg.z_grid))
    for i, z in enumerate(cfg.z_grid):
        params = WRParams(cfg.a, z, env, cfg.window)
        poisson_values = thinned_poisson_values(params, dom.tau, stats, draws, children[2 * i])
        rc_means = statistic_chain(params, stats, cfg.settings, children[2 * i + 1])
        cell = {"z": z, "draws": draws, "stats": {}}
        for s in stats:
            pv = poisson_values[s.name]
            rc, rc_lag1 = rc_means[s.name]
            cell["stats"][s.name] = {
                "poisson_mean": float(np.mean(pv)),
                "poisson_sq": float(np.mean(np.square(pv))),
                "rc_value": rc.value,
                "rc_se": rc.stderr,
                "rc_lag1": rc_lag1,
            }
        cells.append(cell)
    return {"index": index, "tau": dom.tau, "merge_bound": dom.merge_bound, "cells": cells}


def _rep_dlr_check(cfg: ExperimentConfig, index: int) -> dict:
    seed = _replicate_seed(cfg, index)
    env = _env_for(cfg, cfg.window, index)
    params = WRParams(cfg.a, cfg.z_grid[0], env, cfg.window)
    report = dlr_consistency_check(
        params, PLUS_WIRED, cfg.delta, cfg.settings, seed=seed
    )
    return {
        "index": index,
        "rejected": bool(report["rejected"]),
        "p_values": {k: v["p"] for k, v in report["statistics"].items()},
    }


def _closed_form_mean_density(cfg: ExperimentConfig) -> float | None:
    """Expected environment mass per unit volume, where known analytically."""
    model = cfg.model
    if isinstance(model, ShotNoise):
        ball = math.pi * model.kernel_radius**2
        return model.pp_intensity * model.kernel_amplitude * ball
    if isinstance(model, RandomSetIndicator):
        covered = 1.0 - math.exp(-model.germ_intensity * math.pi * model.grain_radius**2)
        return model.lambda_inside * covered + model.lambda_outside * (1.0 - covered)
    if isinstance(model, VoronoiEdges):
        return 2.0 * math.sqrt(model.seed_intensity)
    if isinstance(model, ManhattanGrid):
        return 2.0 * model.line_intensity
    if hasattr(model, "z0"):
        return model.z0
    return None


def _rep_env_validate(cfg: ExperimentConfig, index: int) -> dict:
    seed = _replicate_seed(cfg, index)
    env_seed, poisson_seed = seed.spawn(2)
    env = realize_environment(cfg.model, cfg.window, cfg.guard_margin, env_seed)
    z = cfg.z_grid[0]
    conf = sample_poisson(env, cfg.window, z, poisson_seed)
    record = {
        "index": index,
        "count": len(conf),
        "mass": float(total_mass(env, cfg.window)),
    }
    segments = env.segments
    if segments is not None:
        # Python's left-to-right sum, not numpy's pairwise one
        record["edge_length"] = float(sum((segments.lengths * segments.linear_density).tolist()))
        worst = 0.0
        if segments.generators is not None:
            s, e, g = segments.start, segments.end, segments.generators
            for probe in (s, e, (s + e) / 2.0):
                gap = row_norms(probe - g[:, 0]) - row_norms(probe - g[:, 1])
                worst = max(worst, float(np.abs(gap).max(initial=0.0)))
        record["bisector_max_err"] = worst
    return record


_REPLICATE_PHASE = {
    "percolation-scan": _rep_percolation_scan,
    "wr-order-parameter": _rep_wr_order_parameter,
    "rc-check": _rep_rc_check,
    "domination-check": _rep_domination_check,
    "dlr-check": _rep_dlr_check,
    "env-validate": _rep_env_validate,
}


# --------------------------------------------------------------------------
# per-kind summarize phase (pure function of the sorted records)


def _sum_percolation_scan(cfg: ExperimentConfig, records: list[dict]):
    header = [
        "environment",
        "z",
        "L",
        "replicates",
        "crossing_est",
        "crossing_lo",
        "crossing_hi",
        "largest_frac_est",
        "stderr",
    ]
    rows = []
    thresholds = {}
    for li, L in enumerate(cfg.L_list):
        crossings = np.array([rec["rows"][li]["crossed"] for rec in records], dtype=int)
        largest = np.array([rec["rows"][li]["largest"] for rec in records])
        cells = scan_rows(cfg.z_grid, L, crossings, largest)
        for row in cells:
            frac = row.largest_fraction
            rows.append(
                [cfg.model_name, row.z, L, row.replicates, row.crossing.value, *row.crossing_interval, frac.value, frac.stderr]
            )
        try:
            thresholds[str(L)] = threshold_from_rows(cells)
        except ValueError:
            thresholds[str(L)] = None
    summary = {"thresholds": thresholds}
    return header, rows, {}, summary


def _sum_wr_order_parameter(cfg: ExperimentConfig, records: list[dict]):
    header = ["environment", "z", "L", "replicates", "psi_est", "psi_stderr", "method"]
    rows = []
    cells0 = records[0]["cells"]
    for ci in range(len(cells0)):
        values = [rec["cells"][ci]["psi"] for rec in records]
        ses = [rec["cells"][ci]["stderr"] for rec in records]
        L = cells0[ci]["L"]
        z = cells0[ci]["z"]
        pooled = pool_replicates(values, ses)
        rows.append([cfg.model_name, z, L, len(values), pooled.value, pooled.stderr, pooled.method])
    return header, rows, {}, {}


def _sum_rc_check(cfg: ExperimentConfig, records: list[dict]):
    header = [
        "environment",
        "z",
        "replicates",
        "psi_est",
        "psi_stderr",
        "nb_est",
        "nb_stderr",
        "sigma_units",
        "pass",
    ]
    rows = []
    criteria = {}
    for zi, z in enumerate(cfg.z_grid):
        psis = [rec["cells"][zi]["psi"] for rec in records]
        psi_ses = [rec["cells"][zi]["psi_se"] for rec in records]
        nbs = [rec["cells"][zi]["nb"] for rec in records]
        nb_ses = [rec["cells"][zi]["nb_se"] for rec in records]
        r = len(records)
        psi = pool_replicates(psis, psi_ses)
        nb = pool_replicates(nbs, nb_ses)
        sigma, ok = identity_verdict(psi, nb)
        criteria[f"identity_z_{z:g}"] = bool(ok)
        rows.append(
            [cfg.model_name, z, r, psi.value, psi.stderr, nb.value, nb.stderr, sigma, ok]
        )
    return header, rows, criteria, {}


def _sum_domination_check(cfg: ExperimentConfig, records: list[dict]):
    header = [
        "environment",
        "z",
        "statistic",
        "poisson_est",
        "poisson_stderr",
        "rc_est",
        "rc_stderr",
        "margin_sigma",
        "pass",
    ]
    rows = []
    criteria = {}
    tau = records[0]["tau"]
    merge_bound = records[0]["merge_bound"]
    for zi, z in enumerate(cfg.z_grid):
        stat_names = records[0]["cells"][zi]["stats"].keys()
        for name in stat_names:
            p_means = []
            p_sqs = []
            draws = 0
            rc_vals = []
            rc_ses = []
            for rec in records:
                entry = rec["cells"][zi]["stats"][name]
                p_means.append(entry["poisson_mean"])
                p_sqs.append(entry["poisson_sq"])
                draws += rec["cells"][zi]["draws"]
                rc_vals.append(entry["rc_value"])
                rc_ses.append(entry["rc_se"])
            mean = float(np.mean(p_means))
            second = float(np.mean(p_sqs))
            var = max(0.0, second - mean * mean)
            p_se = math.sqrt(var / draws) if draws > 1 else 0.0
            rc = pool_replicates(rc_vals, rc_ses)
            margin, ok = domination_verdict(EstimateWithError(mean, p_se, draws, "replicate-variance"), rc)
            criteria[f"domination_z_{z:g}_{name}"] = bool(ok)
            rows.append(
                [cfg.model_name, z, name, mean, p_se, rc.value, rc.stderr, margin, ok]
            )
    summary = {"tau": tau, "merge_bound": merge_bound}
    return header, rows, criteria, summary


def _sum_dlr_check(cfg: ExperimentConfig, records: list[dict]):
    header = ["environment", "run", "rejected"]
    rows = [[cfg.model_name, rec["index"], rec["rejected"]] for rec in records]
    rejections = sum(1 for rec in records if rec["rejected"])
    allowed = max(1, math.ceil(0.03 * len(records)))
    criteria = {"dlr_rejections_within_budget": bool(rejections <= allowed)}
    summary = {"rejections": rejections, "allowed": allowed, "runs": len(records)}
    return header, rows, criteria, summary


def _sum_env_validate(cfg: ExperimentConfig, records: list[dict]):
    """A quantity passes within ``t_max`` replicate standard errors of its
    closed form: the two-sided 0.27% Student-t quantile on ``replicates - 1``
    degrees of freedom, the t analogue of 3 normal sigmas (NaN for one
    replicate, which then fails)."""
    from scipy import special

    header = ["environment", "replicates", "quantity", "empirical", "stderr", "expected", "pass"]
    rows = []
    criteria = {}
    t_max = float(special.stdtrit(len(records) - 1, 1.0 - 0.0027 / 2.0))
    z = cfg.z_grid[0]
    counts = [rec["count"] for rec in records]
    expected_density = _closed_form_mean_density(cfg)
    count_est = pool_replicates(counts)
    if expected_density is not None:
        expected = z * expected_density * cfg.window.volume
        se = max(count_est.stderr, 1e-12)
        ok = abs(count_est.value - expected) <= t_max * se
        criteria["poisson_count_mean"] = bool(ok)
        rows.append([cfg.model_name, len(records), "count_mean", count_est.value, count_est.stderr, expected, ok])
    if "edge_length" in records[0]:
        lengths = [rec["edge_length"] / cfg.window.volume for rec in records]
        est = pool_replicates(lengths)
        if expected_density is not None:
            ok = abs(est.value - expected_density) <= t_max * max(est.stderr, 1e-12)
            criteria["edge_length_intensity"] = bool(ok)
            rows.append([cfg.model_name, len(records), "edge_length_per_area", est.value, est.stderr, expected_density, ok])
        worst = max(rec.get("bisector_max_err", 0.0) for rec in records)
        if any("bisector_max_err" in rec for rec in records):
            ok = worst <= 1e-9
            criteria["bisector_equidistance"] = bool(ok)
            rows.append([cfg.model_name, len(records), "bisector_max_err", worst, 0.0, 0.0, ok])
    return header, rows, criteria, {}


_SUMMARIZE_PHASE = {
    "percolation-scan": _sum_percolation_scan,
    "wr-order-parameter": _sum_wr_order_parameter,
    "rc-check": _sum_rc_check,
    "domination-check": _sum_domination_check,
    "dlr-check": _sum_dlr_check,
    "env-validate": _sum_env_validate,
}


# --------------------------------------------------------------------------
# orchestration


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path, header, rows, config_hash: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"# config_hash={config_hash} code_version={__version__}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(v) for v in row) + "\n")


def _write_jsonl(path, cfg: ExperimentConfig, records, criteria, summary) -> None:
    with open(path, "w") as fh:
        head = {
            "record": "header",
            "config_hash": cfg.hash(),
            "kind": cfg.kind,
            "code_version": __version__,
            "master_seed": cfg.seed,
        }
        fh.write(json.dumps(head, sort_keys=True) + "\n")
        for rec in records:
            fh.write(json.dumps({"record": "replicate", **rec}, sort_keys=True) + "\n")
        tail = {"record": "summary", "criteria": criteria, "summary": summary}
        fh.write(json.dumps(tail, sort_keys=True) + "\n")


def replicate_count(cfg: ExperimentConfig) -> int:
    """How many replicates a campaign runs (``runs`` for dlr-check)."""
    return cfg.runs if cfg.kind == "dlr-check" else cfg.replicates


def _worker_task(payload):
    cfg, index = payload
    return _REPLICATE_PHASE[cfg.kind](cfg, index)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_outputs(
    cfg: ExperimentConfig, out: str, indices, records: list[dict], started_at: str, failure: dict | None = None
) -> RunManifest:
    """Summarize sorted records and write the result files and the manifest.

    ``failure`` (the error and the failed replicate indices) writes only the
    finished records, as partials, with no summary, and marks the manifest
    incomplete.
    """
    os.makedirs(out, exist_ok=True)
    manifest = RunManifest(
        config_hash=cfg.hash(),
        code_version=__version__,
        kind=cfg.kind,
        master_seed=cfg.seed,
        replicate_seeds=[_replicate_entropy(cfg, i) for i in indices],
        started_at=started_at,
        finished_at=None,
        resolved_config=cfg.raw,
    )
    jsonl_path = os.path.join(out, "replicates.jsonl")
    if failure is not None:
        manifest.incomplete = True
        _write_jsonl(jsonl_path, cfg, records, {}, failure)
        manifest.output_files = ["replicates.jsonl"]
    else:
        header, rows, criteria, summary = _SUMMARIZE_PHASE[cfg.kind](cfg, records)
        _write_csv(os.path.join(out, "results.csv"), header, rows, cfg.hash())
        _write_jsonl(jsonl_path, cfg, records, criteria, summary)
        manifest.criteria = criteria
        manifest.passed = all(criteria.values()) if criteria else None
        manifest.output_files = ["results.csv", "replicates.jsonl"]
    manifest.finished_at = _now()
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(asdict(manifest), fh, indent=2, sort_keys=True)
    return manifest


def run_experiment(
    cfg: ExperimentConfig, out_dir: str | None = None, progress=None
) -> RunManifest:
    """Execute a configured campaign and write results + manifest.

    Raises :class:`RunnerFailure` after flushing partials when a replicate
    dies; check-style experiments record per-criterion pass flags in the
    manifest (the CLI turns them into the exit status).  ``progress(index,
    outcome)``, when given, is called as each replicate finishes, with its
    record or the exception it raised; it does not touch the outputs.
    """
    started_at = _now()
    n_reps = replicate_count(cfg)
    indices = list(range(cfg.replicate_offset, cfg.replicate_offset + n_reps))
    # every replicate runs; a failed one is recorded, and the finished ones
    # are flushed as partials whatever the worker count
    outcomes: dict = {}
    if cfg.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            futures = {pool.submit(_worker_task, (cfg, i)): i for i in indices}
            for future in concurrent.futures.as_completed(futures):
                i = futures[future]
                error = future.exception()
                outcomes[i] = future.result() if error is None else error
                if progress is not None:
                    progress(i, outcomes[i])
    else:
        for i in indices:
            try:
                outcomes[i] = _REPLICATE_PHASE[cfg.kind](cfg, i)
            except Exception as exc:
                outcomes[i] = exc
            if progress is not None:
                progress(i, outcomes[i])
    records = [rec for rec in outcomes.values() if not isinstance(rec, BaseException)]
    records.sort(key=lambda rec: rec.get("index", 0))
    failed = sorted(i for i, rec in outcomes.items() if isinstance(rec, BaseException))
    out = out_dir or cfg.out_dir
    if not failed:
        return _write_outputs(cfg, out, indices, records, started_at)
    failure = outcomes[failed[0]]
    _write_outputs(cfg, out, indices, records, started_at, {"error": str(failure), "failed_replicates": failed})
    raise RunnerFailure(f"replicate {failed[0]} failed: {failure}") from failure


def _load_jsonl(path) -> tuple[dict, list[dict]]:
    header = None
    records = []
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec.get("record") == "header":
                header = rec
            elif rec.get("record") == "replicate":
                rec.pop("record")
                records.append(rec)
    if header is None:
        raise ConfigError(f"{path} has no header record")
    return header, records


def merge_replicates(paths: list, cfg: ExperimentConfig, out_dir: str) -> RunManifest:
    """Pool replicate files from the same config into one result set.

    Records are concatenated and sorted by replicate index, so the merge is
    associative and order-independent byte for byte.  Config-hash mismatches
    and overlapping replicate indices are rejected.
    """
    if not paths:
        raise ConfigError("nothing to merge")
    all_records: list[dict] = []
    for path in paths:
        header, records = _load_jsonl(path)
        if header["config_hash"] != cfg.hash():
            raise ConfigError(
                f"config hash mismatch: file {header['config_hash']} vs config {cfg.hash()}"
            )
        all_records.extend(records)
    indices = [rec["index"] for rec in all_records]
    if len(set(indices)) != len(indices):
        raise ConfigError("overlapping replicate indices across partials")
    all_records.sort(key=lambda rec: rec["index"])
    return _write_outputs(cfg, out_dir, sorted(indices), all_records, _now())
