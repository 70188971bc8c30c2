"""Regenerate the check-test fixtures: each campaign's result files at seed 1.

Run from the root of a wrlab checkout:  python3 perfbench/tests/make_fixtures.py
"""
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from workloads import WORKLOADS  # noqa: E402

SEED = 1


def main() -> None:
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    with tempfile.TemporaryDirectory(dir=".") as scratch:
        for campaigns in WORKLOADS.values():
            for campaign in campaigns:
                config = os.path.join(scratch, f"{campaign.name}.cfg")
                with open(config, "w") as fh:
                    fh.write(campaign.config_text(SEED))
                out = os.path.join(scratch, campaign.name)
                argv = [sys.executable, "-m", "wrlab.cli", campaign.kind, "--config", config, "--out", out]
                subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
                target = os.path.join(HERE, "fixtures", campaign.name)
                os.makedirs(target, exist_ok=True)
                for name in ("results.csv", "replicates.jsonl"):
                    shutil.copy(os.path.join(out, name), target)


if __name__ == "__main__":
    main()
