"""wrlab benchmark: run one workload's campaigns and print its metrics.

Usage, from the root of a wrlab checkout::

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

With ``--trace 0`` each campaign runs as its own ``python -m wrlab.cli <kind>``
process, in whole rounds until ``--seconds`` would be exceeded, and the
end-to-end metrics are printed.  With ``--trace 1`` the same campaigns run
in this process, once untraced and once with every layer wrapped in spans,
and the per-layer metrics are printed.  Every round's outputs are checked
(see checks.py).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Exit status is 0 when the
run completed, 2 when the checkout holds no wrlab source.
"""
from __future__ import annotations

import argparse
import contextlib
import filecmp
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, Campaign  # noqa: E402
from checks import read_outputs  # noqa: E402

RUNS_DIR = ".perfbench_runs"
CAMPAIGN_TIMEOUT_S = 150.0
COMPARED_FILES = ("results.csv", "replicates.jsonl")

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


class Run:
    """State of one benchmark run: paths, tallies and check failures."""

    def __init__(self, root: str, workload: str, seed: int):
        self.src = os.path.join(root, "src")
        self.campaigns: tuple[Campaign, ...] = WORKLOADS[workload]
        self.dir = os.path.join(root, RUNS_DIR, f"{workload}-seed{seed}-pid{os.getpid()}")
        self.trace_path = os.path.join(root, RUNS_DIR, f"trace-{workload}-seed{seed}.npz")
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # failed output checks: the run is not correct
        self.failed_campaigns: list[str] = []  # non-zero exits: counted in ``failed``
        self.first_outputs: dict[str, str] = {}
        os.makedirs(self.dir)
        self.configs = {}
        for campaign in self.campaigns:
            path = os.path.join(self.dir, f"{campaign.name}.cfg")
            with open(path, "w") as fh:
                fh.write(campaign.config_text(seed))
            self.configs[campaign.name] = path

    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [self.src, env.get("PYTHONPATH")]))
        return env

    def out_dir(self, round_index: int, campaign: Campaign) -> str:
        return os.path.join(self.dir, f"round{round_index}", campaign.name)

    def record(self, campaign: Campaign, status: int, out: str) -> None:
        """Tally one campaign and check what it wrote.

        The first round's outputs go through the campaign's oracle checks;
        every later round must write byte-identical result files, because a
        campaign is a pure function of its config and seed.
        """
        self.attempted += 1
        if status != 0:
            self.failed += 1
            self.failed_campaigns.append(f"{campaign.name}: exit status {status}")
            return
        first = self.first_outputs.setdefault(campaign.name, out)
        if first == out:
            try:
                problems = campaign.check(campaign, read_outputs(out))
            except (OSError, KeyError, ValueError) as exc:
                problems = [f"unreadable outputs: {exc!r}"]
            self.failures.extend(f"{campaign.name}: {p}" for p in problems)
            return
        for name in COMPARED_FILES:
            if not filecmp.cmp(os.path.join(first, name), os.path.join(out, name), shallow=False):
                self.failures.append(f"{campaign.name}: {name} differs from the first round")
        shutil.rmtree(out)


def _run_process(argv: list[str], env: dict, log_path: str) -> tuple[int, float, float]:
    """Run a child to its exit: (exit status, wall seconds, peak RSS in MiB)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(CAMPAIGN_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "wrlab.cli", *args]


def run_untraced(run: Run, seconds: float) -> tuple[dict, dict]:
    env = run.env()
    setup = 0.0
    for campaign in run.campaigns:
        log = os.path.join(run.dir, f"{campaign.name}.validate.log")
        status, wall, _ = _run_process(_cli("validate", "--config", run.configs[campaign.name]), env, log)
        setup += wall
        if status != 0:
            run.failures.append(f"{campaign.name}: validate exit status {status}")

    walls, rss = [], []
    started = time.perf_counter()
    while True:
        index = len(walls)
        round_wall, round_rss = 0.0, 0.0
        for campaign in run.campaigns:
            out = run.out_dir(index, campaign)
            os.makedirs(out)
            argv = _cli(campaign.kind, "--config", run.configs[campaign.name], "--out", out)
            status, wall, peak = _run_process(argv, env, os.path.join(run.dir, "campaign.log"))
            round_wall += wall
            round_rss = max(round_rss, peak)
            run.record(campaign, status, out)
        walls.append(round_wall)
        rss.append(round_rss)
        if time.perf_counter() - started + round_wall > seconds:
            break
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": setup,
        "peak_rss_mb": statistics.median(rss),
    }
    rounds = f"median of {len(walls)} rounds"
    samples = {"wall_s": rounds, "setup_s": "one cold set-up", "peak_rss_mb": rounds}
    return metrics, samples


def _in_process_round(run: Run, cli, index: int) -> float:
    wall = 0.0
    for campaign in run.campaigns:
        out = run.out_dir(index, campaign)
        os.makedirs(out)
        argv = [campaign.kind, "--config", run.configs[campaign.name], "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            status = cli.main(argv)
            wall += time.perf_counter() - start
        run.record(campaign, status, out)
    return wall


def _output_bytes(run: Run, index: int) -> int:
    total = 0
    for campaign in run.campaigns:
        out = run.out_dir(index, campaign)
        total += sum(os.path.getsize(os.path.join(out, name)) for name in os.listdir(out))
    return total


def run_traced(run: Run) -> tuple[dict, dict]:
    sys.path.insert(0, run.src)
    start = time.perf_counter()
    import wrlab.cli as cli

    import_s = time.perf_counter() - start
    if not os.path.abspath(cli.__file__).startswith(run.src + os.sep):
        raise SystemExit(f"wrlab was imported from {cli.__file__}, not from {run.src}")
    from tracing import Tracer, per_layer_metrics

    untraced = _in_process_round(run, cli, 0)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _in_process_round(run, cli, 1)
    finally:
        tracer.uninstall()
    output_bytes = _output_bytes(run, 0)
    metrics = per_layer_metrics(tracer, import_s, output_bytes, traced - untraced)
    tracer.save(run.trace_path)
    return metrics, {name: "one traced round" for name in metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "wrlab", "cli.py")):
        print(f"no wrlab source under {root}/src; run from the root of a checkout", file=sys.stderr)
        return 2

    run = Run(root, args.workload, args.seed)
    try:
        if args.trace:
            from tracing import LAYER_METRICS

            units = {name: unit for name, unit, _ in LAYER_METRICS}
            metrics, samples = run_traced(run)
        else:
            units = dict(END_TO_END)
            metrics, samples = run_untraced(run, args.seconds)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}: {run.attempted} campaigns attempted, {run.failed} failed")
    for failure in run.failed_campaigns:
        print(f"CAMPAIGN FAILED  {failure}")
    for failure in run.failures:
        print(f"CHECK FAILED  {failure}")
    for name, value in metrics.items():
        print(f"{name:52s} {value:>16.6g} {units[name]:6s} ({samples[name]})")
    if args.trace:
        print(f"spans written to {os.path.relpath(run.trace_path, root)}")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
