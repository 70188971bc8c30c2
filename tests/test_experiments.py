import hashlib
import importlib
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import wrlab
from wrlab.cli import main
from wrlab.config import ConfigError, load_config
from wrlab.runner import RunnerFailure, merge_replicates, run_experiment


def write_config(tmp_path, body, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return str(path)


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


SCAN = """
[experiment]
kind = percolation-scan
seed = 42

[environment]
model = lebesgue
z0 = 1.0

[geometry]
dim = 2
a = 0.5

[schedule]
z_grid = 0.0 0.9 1.6
L_list = 8
replicates = {reps}
replicate_offset = {off}
"""

RC_CHECK = """
[experiment]
kind = rc-check
seed = 7

[environment]
model = lebesgue
z0 = 1.0

[geometry]
dim = 2
a = 0.5
window = 0 0 4 4
delta = 1.5 1.5 2.5 2.5

[schedule]
z_grid = 0.5
replicates = 2

[mcmc]
sweeps = 2200
burn_in = 400
thinning = 2
"""


# -- config parsing -------------------------------------------------------------


def test_config_requires_seed(tmp_path):
    path = write_config(
        tmp_path,
        """
        [experiment]
        kind = percolation-scan

        [environment]
        model = lebesgue

        [geometry]
        a = 0.5

        [schedule]
        L_list = 8
        """,
    )
    with pytest.raises(ConfigError, match="seed"):
        load_config(path)


def test_config_rejects_unknown_kind(tmp_path):
    path = write_config(
        tmp_path,
        """
        [experiment]
        kind = teleportation
        seed = 1

        [environment]
        model = lebesgue

        [geometry]
        a = 0.5
        """,
    )
    with pytest.raises(ConfigError, match="kind"):
        load_config(path)


def test_config_rejects_bad_grid_and_geometry(tmp_path):
    base = """
    [experiment]
    kind = rc-check
    seed = 1

    [environment]
    model = lebesgue

    [geometry]
    a = 0.5
    window = 0 0 4 4
    delta = {delta}

    [schedule]
    z_grid = {grid}
    """
    with pytest.raises(ConfigError, match="increasing"):
        load_config(write_config(tmp_path, base.format(grid="1.0 0.5", delta="1 1 2 2")))
    with pytest.raises(ConfigError, match="delta"):
        load_config(
            write_config(tmp_path, base.format(grid="0.5", delta="1 1 9 9"), name="d.cfg")
        )


def test_config_rejects_missing_model_params(tmp_path):
    path = write_config(
        tmp_path,
        """
        [experiment]
        kind = env-validate
        seed = 2

        [environment]
        model = shot-noise
        pp_intensity = 0.5

        [geometry]
        a = 0.5
        window = 0 0 4 4
        """,
    )
    with pytest.raises(ConfigError, match="shot-noise"):
        load_config(path)


def test_config_hash_ignores_partition_fields(tmp_path):
    a = load_config(write_config(tmp_path, SCAN.format(reps=6, off=0), "a.cfg"))
    b = load_config(write_config(tmp_path, SCAN.format(reps=3, off=3), "b.cfg"))
    assert a.hash() == b.hash()
    c = load_config(write_config(tmp_path, SCAN.format(reps=6, off=0).replace("seed = 42", "seed = 43"), "c.cfg"))
    assert c.hash() != a.hash()


# -- determinism and merging -------------------------------------------------------


def test_rerun_is_byte_identical(tmp_path):
    path = write_config(tmp_path, SCAN.format(reps=4, off=0))
    cfg = load_config(path)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    run_experiment(cfg, out_a)
    run_experiment(load_config(path), out_b)
    assert digest(f"{out_a}/results.csv") == digest(f"{out_b}/results.csv")
    assert digest(f"{out_a}/replicates.jsonl") == digest(f"{out_b}/replicates.jsonl")


def test_zero_grid_scan_has_all_zero_crossing_column(tmp_path):
    path = write_config(
        tmp_path,
        SCAN.format(reps=3, off=0).replace("z_grid = 0.0 0.9 1.6", "z_grid = 0.0"),
    )
    cfg = load_config(path)
    run_experiment(cfg, str(tmp_path / "zero"))
    rows = open(tmp_path / "zero" / "results.csv").read().splitlines()[2:]
    for row in rows:
        cells = row.split(",")
        assert float(cells[4]) == 0.0


WROP_RANDOM_SET = """
[experiment]
kind = wr-order-parameter
seed = 11

[environment]
model = random-set
lambda_inside = 1.5
lambda_outside = 0.5
germ_intensity = 0.4
grain_radius = 0.5

[geometry]
dim = 2
a = 0.5

[schedule]
z_grid = 0 0.4 3
L_list = 4 6
replicates = 2

[mcmc]
sweeps = 300
burn_in = 60
thinning = 1
"""

WROP_SHOT_NOISE = """
[experiment]
kind = wr-order-parameter
seed = 12

[environment]
model = shot-noise
pp_intensity = 0.6
kernel_radius = 0.5
kernel_amplitude = 2.0

[geometry]
dim = 2
a = 0.5
window = 0 0 5 5
delta = 2 2 3 3

[schedule]
z_grid = 0.5 2
replicates = 1

[mcmc]
sweeps = 300
burn_in = 60
thinning = 1
"""


@pytest.mark.parametrize(
    "body, results_sha, replicates_sha",
    [
        (
            WROP_RANDOM_SET,
            "2475244becfd175b934d41cf40e168c38143e445dec5fe5666d63fd94d31f2de",
            "801ca82ea6cc32fa61182bd5f06286653695ef8837e0a2c5255bd013d7e622d4",
        ),
        (
            WROP_SHOT_NOISE,
            "0f5ad8ae4acd7d480eaa302cfc7f599e5a3f0ca7ba549c2dd8968ae81f8215b2",
            "37c559876e34d84cc7f2d63ac59b386f4b1e4e45ff72097e20c16a7c2310f685",
        ),
    ],
    ids=["random-set", "shot-noise"],
)
def test_wr_order_parameter_outputs_are_pinned(tmp_path, body, results_sha, replicates_sha):
    # the block Gibbs sampler's seeded outputs, byte for byte; a change to
    # WR sampling that moves them on purpose updates these digests and says so
    out = str(tmp_path / "out")
    run_experiment(load_config(write_config(tmp_path, body)), out)
    assert digest(f"{out}/results.csv") == results_sha
    assert digest(f"{out}/replicates.jsonl") == replicates_sha
    # every cell carries its chain's batch lag-1 autocorrelation
    records = [json.loads(line) for line in open(f"{out}/replicates.jsonl")]
    cells = [cell for rec in records if rec["record"] == "replicate" for cell in rec["cells"]]
    assert cells and all(-1.0 <= cell["lag1"] <= 1.0 for cell in cells)


DLR_RANDOM_SET = """
[experiment]
kind = dlr-check
seed = 5

[environment]
model = random-set
lambda_inside = 1.2
lambda_outside = 0.8
germ_intensity = 0.5
grain_radius = 0.5

[geometry]
dim = 2
a = 0.5
window = 0 0 3 3
delta = 1 1 2 2

[schedule]
z_grid = 1.0
runs = 3

[mcmc]
sweeps = 1100
burn_in = 200
thinning = 2
"""

RC_SHOT_NOISE = (
    RC_CHECK.replace("model = lebesgue\nz0 = 1.0", "model = shot-noise\npp_intensity = 0.6\nkernel_radius = 0.5\nkernel_amplitude = 2.0")
    .replace("z_grid = 0.5", "z_grid = 1.5")
    .replace("replicates = 2", "replicates = 1")
    .replace("sweeps = 2200\nburn_in = 400", "sweeps = 1200\nburn_in = 200")
)


@pytest.mark.parametrize(
    "body, config_hash, results_sha, replicates_sha",
    [
        (
            DLR_RANDOM_SET,
            "05f69e2cf46b3dc8",
            "93685a5780fe4b9348c02993ed2676f5c2532afeda93cc26d2caa3c77648f5bf",
            "44c853eb4a0db7a4af95d4330f21b5d1a63b2a3f7ef0ebc227f405bf1aa6182f",
        ),
        (
            RC_SHOT_NOISE,
            "55d8b32919492614",
            "bf4a4bb90edf5946c083cbc0854ca0dfe9ea4577b8454659bff091591d132bf6",
            "fd689afb9cfdffd5472574a15cceee36f6114de1e4fb8f28fd2a80cda12497f4",
        ),
    ],
    ids=["dlr-random-set", "rc-check-shot-noise"],
)
def test_single_site_chain_outputs_are_pinned(tmp_path, body, config_hash, results_sha, replicates_sha):
    # the DLR check on the block Gibbs sampler, and the weighted chain
    # (_RcChain, with the germ probe and the neighbour grid) in rc-check, byte
    # for byte; a change that moves them on purpose updates these digests
    # and says so
    cfg = load_config(write_config(tmp_path, body))
    assert cfg.hash() == config_hash
    out = str(tmp_path / "out")
    run_experiment(cfg, out)
    assert digest(f"{out}/results.csv") == results_sha
    assert digest(f"{out}/replicates.jsonl") == replicates_sha


ENV_VALIDATE = """
[experiment]
kind = env-validate
seed = {seed}

[environment]
{model}

[geometry]
dim = 2
a = 0.5
window_size = 6

[schedule]
replicates = {reps}
"""

VORONOI_SCAN = """
[experiment]
kind = percolation-scan
seed = 21

[environment]
model = voronoi
seed_intensity = 1.0

[geometry]
dim = 2
a = 0.5

[schedule]
z_grid = 0 0.4 0.8 1.2
L_list = 6 10
replicates = 3
"""


@pytest.mark.parametrize(
    "body, results_sha, replicates_sha",
    [
        (
            VORONOI_SCAN,
            "e4f717b56c841eed88783409082218e4fddb77e0cfade5639dcc4117e077d733",
            "12959a250d35d13fa2a5d74bbe4f14bee2bf8c837ffd7e3a35c6b6d8af6295dc",
        ),
        (
            ENV_VALIDATE.format(seed=9, model="model = voronoi\nseed_intensity = 1.0", reps=3),
            "df75dfb3a914f6f5f0bf18d2b9db2724911bb552a9a962e74f8bc960132db1a6",
            "ab63dbcf6976b4b3c5bc7c6db9984b0b28c012d2123fd156728634b8183bed28",
        ),
        (
            ENV_VALIDATE.format(seed=13, model="model = manhattan\nline_intensity = 0.7", reps=4),
            "c07dcd0536334d93574013e28b791ae2135c6264514a11100125a44967644235",
            "2d6719b8c3587cae244418d6be187da1f8d5f915ba11df2ab9cb69ea8d50fca7",
        ),
    ],
    ids=["voronoi-scan", "voronoi-env-validate", "manhattan-env-validate"],
)
def test_segment_environment_outputs_are_pinned(tmp_path, body, results_sha, replicates_sha):
    # seeded outputs over segment environments, byte for byte: realization,
    # clipping, masses, the segment Poisson draws and the bisector check.  A
    # change that moves segment sampling on purpose updates these digests
    out = str(tmp_path / "out")
    run_experiment(load_config(write_config(tmp_path, body)), out)
    assert digest(f"{out}/results.csv") == results_sha
    assert digest(f"{out}/replicates.jsonl") == replicates_sha


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes about half a second to import; the CLI needs only
    # scipy.special, which scipy.sparse loads anyway
    code = "import sys, wrlab.cli; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(wrlab.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_merge_equals_full_run_and_commutes(tmp_path):
    full = load_config(write_config(tmp_path, SCAN.format(reps=6, off=0), "full.cfg"))
    p1 = load_config(write_config(tmp_path, SCAN.format(reps=3, off=0), "p1.cfg"))
    p2 = load_config(write_config(tmp_path, SCAN.format(reps=3, off=3), "p2.cfg"))
    run_experiment(full, str(tmp_path / "full"))
    run_experiment(p1, str(tmp_path / "p1"))
    run_experiment(p2, str(tmp_path / "p2"))
    files = [str(tmp_path / "p1" / "replicates.jsonl"), str(tmp_path / "p2" / "replicates.jsonl")]
    merge_replicates(files, full, str(tmp_path / "ab"))
    merge_replicates(list(reversed(files)), full, str(tmp_path / "ba"))
    assert digest(f"{tmp_path}/ab/results.csv") == digest(f"{tmp_path}/ba/results.csv")
    assert digest(f"{tmp_path}/ab/results.csv") == digest(f"{tmp_path}/full/results.csv")
    assert digest(f"{tmp_path}/ab/replicates.jsonl") == digest(f"{tmp_path}/full/replicates.jsonl")


def test_merge_single_file_is_identity(tmp_path):
    cfg = load_config(write_config(tmp_path, SCAN.format(reps=4, off=0)))
    run_experiment(cfg, str(tmp_path / "one"))
    merge_replicates([str(tmp_path / "one" / "replicates.jsonl")], cfg, str(tmp_path / "merged"))
    assert digest(f"{tmp_path}/one/results.csv") == digest(f"{tmp_path}/merged/results.csv")


def test_merge_rejects_mismatched_config_and_overlap(tmp_path):
    cfg = load_config(write_config(tmp_path, SCAN.format(reps=2, off=0), "a.cfg"))
    other = load_config(
        write_config(tmp_path, SCAN.format(reps=2, off=0).replace("seed = 42", "seed = 9"), "b.cfg")
    )
    run_experiment(cfg, str(tmp_path / "a"))
    run_experiment(other, str(tmp_path / "b"))
    with pytest.raises(ConfigError, match="different configs|hash"):
        merge_replicates(
            [str(tmp_path / "a" / "replicates.jsonl"), str(tmp_path / "b" / "replicates.jsonl")],
            cfg,
            str(tmp_path / "bad"),
        )
    with pytest.raises(ConfigError, match="overlap"):
        merge_replicates(
            [str(tmp_path / "a" / "replicates.jsonl"), str(tmp_path / "a" / "replicates.jsonl")],
            cfg,
            str(tmp_path / "bad2"),
        )


def test_pooled_mean_of_equal_partials_is_mean_of_partial_means(tmp_path):
    p1 = load_config(write_config(tmp_path, SCAN.format(reps=3, off=0), "p1.cfg"))
    p2 = load_config(write_config(tmp_path, SCAN.format(reps=3, off=3), "p2.cfg"))
    run_experiment(p1, str(tmp_path / "p1"))
    run_experiment(p2, str(tmp_path / "p2"))

    def largest_means(out):
        rows = open(f"{out}/results.csv").read().splitlines()[2:]
        return np.array([float(r.split(",")[7]) for r in rows])

    merge_replicates(
        [str(tmp_path / "p1" / "replicates.jsonl"), str(tmp_path / "p2" / "replicates.jsonl")],
        p1,
        str(tmp_path / "m"),
    )
    pooled = largest_means(str(tmp_path / "m"))
    partial = 0.5 * (largest_means(str(tmp_path / "p1")) + largest_means(str(tmp_path / "p2")))
    assert np.allclose(pooled, partial, atol=1e-12)


def test_parallel_workers_match_serial_run(tmp_path):
    serial = load_config(write_config(tmp_path, SCAN.format(reps=4, off=0)))
    parallel = load_config(write_config(tmp_path, SCAN.format(reps=4, off=0)))
    parallel.workers = 2
    run_experiment(serial, str(tmp_path / "serial"))
    run_experiment(parallel, str(tmp_path / "parallel"))
    assert digest(f"{tmp_path}/serial/results.csv") == digest(f"{tmp_path}/parallel/results.csv")
    assert digest(f"{tmp_path}/serial/replicates.jsonl") == digest(f"{tmp_path}/parallel/replicates.jsonl")


def test_manifest_records_everything_needed_for_reconstruction(tmp_path):
    cfg = load_config(write_config(tmp_path, SCAN.format(reps=2, off=0)))
    manifest = run_experiment(cfg, str(tmp_path / "out"))
    on_disk = json.load(open(tmp_path / "out" / "manifest.json"))
    assert on_disk["config_hash"] == cfg.hash()
    assert on_disk["master_seed"] == 42
    assert on_disk["resolved_config"]["z_grid"] == [0.0, 0.9, 1.6]
    assert len(on_disk["replicate_seeds"]) == 2
    assert manifest.incomplete is False


# -- the check experiment path ---------------------------------------------------


def test_rc_check_experiment_passes_and_reports(tmp_path):
    cfg = load_config(write_config(tmp_path, RC_CHECK))
    manifest = run_experiment(cfg, str(tmp_path / "rc"))
    assert manifest.passed is True
    assert "identity_z_0.5" in manifest.criteria
    # each cell carries both chains' batch lag-1 autocorrelation
    records = [json.loads(line) for line in open(tmp_path / "rc" / "replicates.jsonl")]
    cells = [cell for rec in records if rec["record"] == "replicate" for cell in rec["cells"]]
    assert len(cells) == 2
    for cell in cells:
        assert -1.0 <= cell["psi_lag1"] <= 1.0 and -1.0 <= cell["nb_lag1"] <= 1.0


# -- CLI ---------------------------------------------------------------------------


def test_cli_validate_and_exit_codes(tmp_path, capsys):
    good = write_config(tmp_path, SCAN.format(reps=2, off=0))
    assert main(["validate", "--config", good]) == 0
    bad = write_config(tmp_path, SCAN.format(reps=2, off=0).replace("seed = 42", ""), "bad.cfg")
    assert main(["validate", "--config", bad]) == 2


def test_cli_kind_mismatch_is_config_error(tmp_path):
    good = write_config(tmp_path, SCAN.format(reps=2, off=0))
    assert main(["rc-check", "--config", good]) == 2


def fail_replicate_one(monkeypatch):
    """Make replicate 1 of every percolation scan raise; forked workers
    inherit the patched table."""
    import wrlab.runner as runner

    original = runner._REPLICATE_PHASE["percolation-scan"]

    def fail_one(cfg, index):
        if index == 1:
            raise RuntimeError("replicate 1 forced to fail")
        return original(cfg, index)

    monkeypatch.setitem(runner._REPLICATE_PHASE, "percolation-scan", fail_one)


def test_cli_runtime_failure_exit_code(tmp_path, monkeypatch):
    path = write_config(tmp_path, SCAN.format(reps=2, off=0))
    fail_replicate_one(monkeypatch)
    assert main(["percolation-scan", "--config", path, "--out", str(tmp_path / "x")]) == 3


SHOT_NOISE = "model = shot-noise\npp_intensity = 0.6\nkernel_radius = 0.5\nkernel_amplitude = 2.0"


@pytest.mark.parametrize(
    "environment, code",
    [
        ("model = lebesgue\nguard_margin = -1", 2),
        ("model = lebesgue\nguard_margin = 0", 2),
        (SHOT_NOISE + "\nguard_margin = 0.4", 2),
        (SHOT_NOISE + "\nguard_margin = 0.5", 0),
    ],
    ids=["negative", "zero", "below-kernel-radius", "at-kernel-radius"],
)
def test_validate_checks_the_guard_margin(tmp_path, capsys, environment, code):
    body = SCAN.format(reps=2, off=0).replace("model = lebesgue\nz0 = 1.0", environment)
    assert main(["validate", "--config", write_config(tmp_path, body)]) == code
    assert ("guard_margin" in capsys.readouterr().err) is (code == 2)


def test_cli_check_failure_exit_code(tmp_path):
    # hand-crafted replicate records with a gross identity violation
    cfg = load_config(write_config(tmp_path, RC_CHECK))
    path = tmp_path / "fake.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"record": "header", "config_hash": cfg.hash(), "kind": "rc-check",
                             "code_version": "0.1.0", "master_seed": 7}) + "\n")
        for i, psi in enumerate((5.0, 5.1)):
            fh.write(json.dumps({
                "record": "replicate", "index": i,
                "cells": [{"z": 0.5, "psi": psi, "psi_se": 0.01, "nb": 0.1, "nb_se": 0.01}],
            }) + "\n")
    rc = main(["merge", "--config", str(tmp_path / "exp.cfg"), "--out", str(tmp_path / "m"), str(path)])
    assert rc == 1


def test_cli_seed_override_changes_results(tmp_path, monkeypatch):
    good = write_config(tmp_path, SCAN.format(reps=2, off=0))
    assert main(["percolation-scan", "--config", good, "--out", str(tmp_path / "s42")]) == 0
    assert main(["percolation-scan", "--config", good, "--seed", "99", "--out", str(tmp_path / "s99")]) == 0
    assert digest(f"{tmp_path}/s42/results.csv") != digest(f"{tmp_path}/s99/results.csv")
    monkeypatch.setenv("WRLAB_SEED", "99")
    assert main(["percolation-scan", "--config", good, "--out", str(tmp_path / "env99")]) == 0
    assert digest(f"{tmp_path}/env99/results.csv") == digest(f"{tmp_path}/s99/results.csv")


def test_cli_merge_uses_sibling_manifest_when_config_absent(tmp_path):
    p1 = load_config(write_config(tmp_path, SCAN.format(reps=3, off=0), "p1.cfg"))
    p2 = load_config(write_config(tmp_path, SCAN.format(reps=3, off=3), "p2.cfg"))
    run_experiment(p1, str(tmp_path / "p1"))
    run_experiment(p2, str(tmp_path / "p2"))
    rc = main(
        ["merge", "--out", str(tmp_path / "m"),
         str(tmp_path / "p1" / "replicates.jsonl"), str(tmp_path / "p2" / "replicates.jsonl")]
    )
    assert rc == 0
    assert (tmp_path / "m" / "results.csv").exists()


def test_config_from_resolved_round_trips_hash(tmp_path):
    from wrlab.config import config_from_resolved

    cfg = load_config(write_config(tmp_path, SCAN.format(reps=2, off=0)))
    rebuilt = config_from_resolved(cfg.raw)
    assert rebuilt.hash() == cfg.hash()
    assert rebuilt.z_grid == cfg.z_grid


def test_runtime_failure_marks_manifest_incomplete(tmp_path, monkeypatch):
    cfg = load_config(write_config(tmp_path, SCAN.format(reps=2, off=0)))
    fail_replicate_one(monkeypatch)
    with pytest.raises(RunnerFailure):
        run_experiment(cfg, str(tmp_path / "x"))
    manifest = json.load(open(tmp_path / "x" / "manifest.json"))
    assert manifest["incomplete"] is True


def test_cli_workers_env_override(tmp_path, monkeypatch):
    good = write_config(tmp_path, SCAN.format(reps=2, off=0))
    monkeypatch.setenv("WRLAB_WORKERS", "2")
    assert main(["percolation-scan", "--config", good, "--out", str(tmp_path / "w2")]) == 0
    monkeypatch.delenv("WRLAB_WORKERS")
    assert main(["percolation-scan", "--config", good, "--out", str(tmp_path / "w1")]) == 0
    assert digest(f"{tmp_path}/w1/results.csv") == digest(f"{tmp_path}/w2/results.csv")


def test_validate_rejects_domination_check_outside_the_plane(tmp_path):
    path = write_config(
        tmp_path,
        """
        [experiment]
        kind = domination-check
        seed = 1

        [environment]
        model = lebesgue

        [geometry]
        dim = 3
        a = 0.5
        window_size = 6
        """,
    )
    assert main(["validate", "--config", path]) == 2


DOMINATION_CHECK = """
[experiment]
kind = domination-check
seed = 1

[environment]
model = lebesgue

[geometry]
dim = 2
a = 0.5
window_size = 5

[schedule]
z_grid = 0.5 1.5
replicates = 1
"""


@pytest.mark.parametrize(
    "schedule, code, out",
    [
        ("", 0, "hash=34206bd73c0140b7"),
        ("tau = 0.015625", 0, "hash=233d1f8f692541d9"),
        ("merge_bound = 3\ntau = 0.125", 0, "hash=1e7ed127b4a7d4ad"),
        ("tau = 0.5", 2, "[schedule] tau=0.5 violates tau <= 2^-6"),
        ("merge_bound = 3\ntau = 0.2", 2, "[schedule] tau=0.2 violates tau <= 2^-3"),
        ("tau = 0", 2, "[schedule] tau must be in (0, 1]"),
        ("merge_bound = 0", 2, "[schedule] merge_bound must be >= 1"),
    ],
    ids=["default", "tau-at-bound", "bound-and-tau", "tau-above-2^-K", "tau-above-given-bound", "tau-zero", "bound-zero"],
)
def test_validate_checks_the_domination_thinning(tmp_path, capsys, schedule, code, out):
    # a tau the runner would refuse in every replicate fails validation;
    # valid ones keep their hashes
    body = DOMINATION_CHECK.replace("replicates = 1", f"replicates = 1\n{schedule}")
    assert main(["validate", "--config", write_config(tmp_path, body)]) == code
    captured = capsys.readouterr()
    assert out in (captured.out if code == 0 else captured.err)


@pytest.mark.parametrize(
    "spelling, code, out",
    [
        ("true", 0, "hash=cd641a23991e76bb"),
        ("YES", 0, "hash=cd641a23991e76bb"),
        ("1", 0, "hash=cd641a23991e76bb"),
        ("False", 0, "hash=e8b63f3cf7612e52"),
        ("no", 0, "hash=e8b63f3cf7612e52"),
        ("0", 0, "hash=e8b63f3cf7612e52"),
        ("ture", 2, "[schedule] both_axes = 'ture'"),
        ("yes please", 2, "[schedule] both_axes = 'yes please'"),
    ],
)
def test_both_axes_is_a_strict_boolean(tmp_path, capsys, spelling, code, out):
    # the false spellings hash like a config without the key
    body = VORONOI_SCAN.replace("replicates = 3", f"replicates = 3\nboth_axes = {spelling}")
    assert main(["validate", "--config", write_config(tmp_path, body)]) == code
    captured = capsys.readouterr()
    assert out in (captured.out if code == 0 else captured.err)


@pytest.mark.parametrize(
    "old, new, section, key",
    [
        ("window = 0 0 4 4", "window_sise = 7", "geometry", "window_sise"),
        ("replicates = 2", "replicate = 9", "schedule", "replicate"),
        ("sweeps = 2200", "sweep = 10", "mcmc", "sweep"),
        ("thinning = 2", "thinning = 2\nmove_mix = 0.5 0.3 0.2", "mcmc", "move_mix"),
        ("thinning = 2", "thinning = 2\nrecolor_cluster_cap = 64", "mcmc", "recolor_cluster_cap"),
        ("z0 = 1.0", "z0 = 1.0\nkernel_radius = 0.5", "environment", "kernel_radius"),
        ("seed = 7", "seed = 7\nsead = 8", "experiment", "sead"),
        ("[mcmc]", "[mcmcs]", "mcmcs", "unknown section"),
    ],
    ids=["geometry", "schedule", "mcmc", "move-mix", "recolor-cap", "other-model", "experiment", "section"],
)
def test_validate_rejects_keys_no_section_reads(tmp_path, capsys, old, new, section, key):
    assert main(["validate", "--config", write_config(tmp_path, RC_CHECK, "good.cfg")]) == 0
    body = RC_CHECK.replace(old, new)
    assert body != RC_CHECK
    assert main(["validate", "--config", write_config(tmp_path, body)]) == 2
    err = capsys.readouterr().err
    assert f"[{section}]" in err and key in err


@pytest.mark.parametrize("kind", ["dlr-check", "env-validate"])
def test_validate_rejects_a_z_grid_the_kind_cannot_use(tmp_path, capsys, kind):
    # these kinds run at z_grid[0] only; further values would be ignored
    body = RC_CHECK.replace("kind = rc-check", f"kind = {kind}")
    if kind == "dlr-check":
        body = body.replace("replicates = 2", "runs = 2")
    else:
        body = body.split("[mcmc]")[0]  # env-validate runs no chain
    assert main(["validate", "--config", write_config(tmp_path, body, "one.cfg")]) == 0
    body = body.replace("z_grid = 0.5", "z_grid = 0.5 1.0")
    assert main(["validate", "--config", write_config(tmp_path, body)]) == 2
    assert "z_grid" in capsys.readouterr().err


@pytest.mark.parametrize("variable", ["WRLAB_SEED", "WRLAB_WORKERS"])
def test_non_integer_environment_override_is_a_config_error(tmp_path, monkeypatch, capsys, variable):
    path = write_config(tmp_path, SCAN.format(reps=1, off=0))
    monkeypatch.setenv(variable, "abc")
    assert main(["percolation-scan", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"invalid config: {variable} must be an integer, got 'abc'\n"
    assert not (tmp_path / "out").exists()


def test_non_integer_config_value_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path, SCAN.format(reps="four", off=0))
    assert main(["validate", "--config", path]) == 2
    assert "[schedule] replicates = 'four'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, named",
    [
        ("seed = 7", "seed = seven", "[experiment] seed = 'seven'"),
        ("seed = 7", "seed = 7\nworkers = two", "[experiment] workers = 'two'"),
        ("z0 = 1.0", "z0 = high", "[environment] z0 = 'high'"),
        ("z0 = 1.0", "z0 = 1.0\nguard_margin = wide", "[environment] guard_margin = 'wide'"),
        ("a = 0.5", "a = half", "[geometry] a = 'half'"),
        ("window = 0 0 4 4", "window = 0 0 4 x", "[geometry] window = '0 0 4 x'"),
        ("z_grid = 0.5", "z_grid = 0.5x", "[schedule] z_grid = '0.5x'"),
        ("burn_in = 400", "burn_in = 400.5", "[mcmc] burn_in = '400.5'"),
    ],
    ids=["seed", "workers", "model-parameter", "guard-margin", "radius", "window", "z-grid", "mcmc"],
)
def test_every_unparsable_value_names_its_section_and_key(tmp_path, capsys, old, new, named):
    assert main(["validate", "--config", write_config(tmp_path, RC_CHECK.replace(old, new))]) == 2
    assert named in capsys.readouterr().err


RC_AS_DLR = RC_CHECK.replace("kind = rc-check", "kind = dlr-check").replace("replicates = 2", "runs = 2")
RC_AS_ENV = RC_CHECK.replace("kind = rc-check", "kind = env-validate").split("[mcmc]")[0]
RC_AS_DOM = RC_CHECK.replace("kind = rc-check", "kind = domination-check")


@pytest.mark.parametrize(
    "body, old, new, kind, named",
    [
        (RC_CHECK, "replicates = 2", "replicates = 2\nruns = 5", "rc-check", "runs"),
        (RC_CHECK, "replicates = 2", "replicates = 2\nboth_axes = true", "rc-check", "both_axes"),
        (RC_CHECK, "replicates = 2", "replicates = 2\nL_list = 4 8", "rc-check", "l_list"),
        (RC_CHECK, "replicates = 2", "replicates = 2\ntau = 0.001", "rc-check", "tau"),
        (RC_AS_DLR, "runs = 2", "runs = 2\nreplicates = 3", "dlr-check", "replicates"),
        (RC_AS_ENV, "replicates = 2", "replicates = 2\n[mcmc]\nsweeps = 900", "env-validate", "[mcmc]"),
        (SCAN.format(reps=2, off=0), "replicates = 2", "replicates = 2\n[mcmc]\nsweeps = 900", "percolation-scan", "[mcmc]"),
        # only rc-check's weighted chain reads moves_per_sweep
        (RC_AS_DOM, "thinning = 2", "thinning = 2\nmoves_per_sweep = 400", "domination-check", "moves_per_sweep"),
        (RC_AS_DLR, "thinning = 2", "thinning = 2\nmoves_per_sweep = 400", "dlr-check", "moves_per_sweep"),
    ],
    ids=[
        "rc-runs", "rc-both-axes", "rc-L-list", "rc-tau", "dlr-replicates", "env-mcmc", "scan-mcmc",
        "dom-moves-per-sweep", "dlr-moves-per-sweep",
    ],
)
def test_validate_rejects_keys_the_kind_does_not_read(tmp_path, capsys, body, old, new, kind, named):
    # such a key changes nothing but the config hash, and so every stream
    assert main(["validate", "--config", write_config(tmp_path, body, "good.cfg")]) == 0
    assert main(["validate", "--config", write_config(tmp_path, body.replace(old, new))]) == 2
    err = capsys.readouterr().err
    assert kind in err and named in err


def test_domination_check_records_the_lag1_of_each_statistic(tmp_path):
    # each statistic's batch lag-1 goes into replicates.jsonl, deterministic
    # in the seed; the results.csv columns stay as they were
    body = RC_AS_DOM.replace("sweeps = 2200\nburn_in = 400\nthinning = 2", "sweeps = 300\nburn_in = 60\nthinning = 1")
    cfg = load_config(write_config(tmp_path, body))
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    run_experiment(cfg, out_a)
    run_experiment(cfg, out_b)
    assert digest(f"{out_a}/replicates.jsonl") == digest(f"{out_b}/replicates.jsonl")
    records = [json.loads(line) for line in open(f"{out_a}/replicates.jsonl")]
    entries = [
        entry
        for rec in records
        if rec["record"] == "replicate"
        for cell in rec["cells"]
        for entry in cell["stats"].values()
    ]
    assert len(entries) == 2 * 7 and all(-1.0 <= entry["rc_lag1"] <= 1.0 for entry in entries)
    header = open(f"{out_a}/results.csv").read().splitlines()[1]
    assert header == "environment,z,statistic,poisson_est,poisson_stderr,rc_est,rc_stderr,margin_sigma,pass"


@pytest.mark.parametrize(
    "campaign, config_hash",
    [
        ("VORONOI_SCAN", "d9f107d9d7c4008c"),
        ("LEBESGUE_SCAN", "a8e4133bbc14e042"),
        ("ORDER_PARAMETER", "9970341ce2ea35ac"),
        ("DOMINATION", "321a110ad7847cac"),
    ],
)
def test_benchmark_configs_validate_with_pinned_hashes(tmp_path, monkeypatch, capsys, campaign, config_hash):
    # the benchmark's campaigns at seed 1: stricter keys must not reject
    # them (the order-parameter one sets moves_per_sweep, which its block
    # sampler ignores), and a change to how [mcmc] or [schedule] is read
    # must not move their hashes
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    workloads = importlib.import_module("workloads")
    text = getattr(workloads, campaign).config_text(1)
    assert main(["validate", "--config", write_config(tmp_path, text)]) == 0
    assert capsys.readouterr().out.strip().endswith(f"hash={config_hash}")


def test_readme_config_hash_is_pinned(tmp_path):
    # the hash seeds every replicate stream: a change to it moves every
    # campaign's outputs, so it changes only on purpose
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")).read()
    cfg = load_config(write_config(tmp_path, readme.split("```ini\n")[1].split("```")[0]))
    assert cfg.kind == "rc-check"
    assert cfg.hash() == "223f9f5cb233b304"


def test_delta_size_is_centred_and_delta_must_fit_every_window(tmp_path):
    base = """
    [experiment]
    kind = {kind}
    seed = 1

    [environment]
    model = lebesgue

    [geometry]
    a = 0.5
    {geometry}

    [schedule]
    {schedule}
    """

    def load(kind, geometry, name):
        # only wr-order-parameter reads an L_list here
        schedule = "L_list = 4 8" if kind == "wr-order-parameter" else "z_grid = 1.0"
        return load_config(write_config(tmp_path, base.format(kind=kind, geometry=geometry, schedule=schedule), name))

    cfg = load("rc-check", "window_size = 8\n    delta_size = 1", "centred.cfg")
    assert cfg.delta.lower.tolist() + cfg.delta.upper.tolist() == [3.5, 3.5, 4.5, 4.5]
    with pytest.raises(ConfigError, match="delta as corners"):
        load("wr-order-parameter", "delta_size = 1", "no_window.cfg")
    with pytest.raises(ConfigError, match="every L_list window"):
        load("wr-order-parameter", "delta = 4.5 4.5 5.5 5.5", "misfit.cfg")


def test_cli_verbose_prints_progress_and_the_full_traceback(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, SCAN.format(reps=3, off=0))
    out = {}
    for verbose in (False, True):
        out[verbose] = str(tmp_path / f"ok{verbose}")
        flag = ["--verbose"] if verbose else []
        assert main(["percolation-scan", "--config", path, "--out", out[verbose], *flag]) == 0
        err = capsys.readouterr().err
        assert ("replicate 2 done (3/3)" in err) is verbose
    for name in ("results.csv", "replicates.jsonl"):
        assert digest(f"{out[False]}/{name}") == digest(f"{out[True]}/{name}")

    fail_replicate_one(monkeypatch)
    for workers in ("1", "2"):
        argv = ["percolation-scan", "--config", path, "--workers", workers]
        assert main([*argv, "--out", str(tmp_path / f"quiet{workers}")]) == 3
        quiet = capsys.readouterr().err
        assert quiet == "runtime failure: replicate 1 failed: replicate 1 forced to fail\n"
        assert main([*argv, "--out", str(tmp_path / f"loud{workers}"), "--verbose"]) == 3
        loud = capsys.readouterr().err
        assert "Traceback (most recent call last)" in loud
        assert "in fail_one" in loud
        assert "replicate 1 failed: RuntimeError: replicate 1 forced to fail" in loud
        assert loud.count(" done (") == 2
        assert loud.endswith(quiet)
        quiet_file = tmp_path / f"quiet{workers}" / "replicates.jsonl"
        assert digest(quiet_file) == digest(tmp_path / f"loud{workers}" / "replicates.jsonl")


def test_failed_replicate_keeps_the_finished_ones_for_any_worker_count(tmp_path, monkeypatch):
    fail_replicate_one(monkeypatch)
    outputs = []
    for workers in (1, 2):
        cfg = load_config(write_config(tmp_path, SCAN.format(reps=4, off=0)))
        cfg.workers = workers
        with pytest.raises(RunnerFailure, match="forced"):
            run_experiment(cfg, str(tmp_path / f"w{workers}"))
        outputs.append(tmp_path / f"w{workers}" / "replicates.jsonl")
    kept = [json.loads(line) for line in outputs[0].read_text().splitlines()]
    assert [rec["index"] for rec in kept if rec["record"] == "replicate"] == [0, 2, 3]
    assert digest(outputs[0]) == digest(outputs[1])
