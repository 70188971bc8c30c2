"""Command line front end.

Usage::

    wrlab <experiment-kind> --config FILE [--seed N] [--workers N] [--out DIR] [--verbose]
    wrlab validate --config FILE
    wrlab merge --config FILE --out DIR FILES...

Exit codes: 0 pass (or nothing to check), 1 check failed, 2 invalid config,
3 runtime failure.  ``WRLAB_SEED`` and ``WRLAB_WORKERS`` override the seed
and worker count (and nothing else).  ``--verbose`` prints one progress line
per finished replicate and the full traceback of a runtime failure on
stderr; the output files do not change.
"""
from __future__ import annotations

import argparse
import os
import sys
import traceback

from .config import EXPERIMENT_KINDS, ConfigError, load_config
from .runner import merge_replicates, replicate_count, run_experiment

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID_CONFIG = 2
EXIT_RUNTIME_FAILURE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wrlab",
        description="seeded simulation campaigns for two-colored hard-exclusion point processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--workers", type=int, default=None, help="parallel replicate workers")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument(
            "--verbose",
            action="store_true",
            help="print per-replicate progress and full tracebacks on stderr",
        )
    v = sub.add_parser("validate", help="validate a config file and exit")
    v.add_argument("--config", required=True)
    m = sub.add_parser("merge", help="merge replicate files from the same config")
    m.add_argument("files", nargs="+", help="replicates.jsonl partials")
    m.add_argument(
        "--config",
        default=None,
        help="the shared experiment config; defaults to the manifest next to the first partial",
    )
    m.add_argument("--out", default="merged", help="output directory")
    return parser


def _env_int(name):
    text = os.environ.get(name)
    if text is None:
        return None
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {text!r}") from None


def _apply_overrides(cfg, seed, workers):
    if seed is None:
        seed = _env_int("WRLAB_SEED")
    if workers is None:
        workers = _env_int("WRLAB_WORKERS")
    if seed is not None:
        cfg.seed = int(seed)
        cfg.raw["seed"] = int(seed)
    if workers is not None:
        if workers < 1:
            raise ConfigError("workers must be >= 1")
        cfg.workers = int(workers)
        cfg.raw["workers"] = int(workers)
    return cfg


def _progress_printer(cfg):
    total = replicate_count(cfg)
    finished = []

    def progress(index, outcome):
        finished.append(index)
        if isinstance(outcome, BaseException):
            status = f"failed: {type(outcome).__name__}: {outcome}"
        else:
            status = "done"
        print(f"replicate {index} {status} ({len(finished)}/{total})", file=sys.stderr, flush=True)

    return progress


def _config_for_merge(args):
    if args.config is not None:
        return load_config(args.config)
    # fall back to the manifest written next to the first partial
    import json

    from .config import config_from_resolved

    manifest_path = os.path.join(os.path.dirname(args.files[0]), "manifest.json")
    if not os.path.exists(manifest_path):
        raise ConfigError(
            f"no --config given and no manifest found at {manifest_path}"
        )
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    return config_from_resolved(manifest["resolved_config"])


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_for_merge(args) if args.command == "merge" else load_config(args.config)
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG

    if args.command == "validate":
        print(f"config ok: kind={cfg.kind} hash={cfg.hash()}")
        return EXIT_PASS

    try:
        if args.command == "merge":
            manifest = merge_replicates(args.files, cfg, args.out)
        else:
            if args.command != cfg.kind:
                print(
                    f"invalid config: file declares kind={cfg.kind!r}, "
                    f"command is {args.command!r}",
                    file=sys.stderr,
                )
                return EXIT_INVALID_CONFIG
            cfg = _apply_overrides(cfg, args.seed, args.workers)
            progress = _progress_printer(cfg) if args.verbose else None
            manifest = run_experiment(cfg, args.out, progress=progress)
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    except Exception as exc:  # a failed replicate, or anything unexpected
        if getattr(args, "verbose", False):
            traceback.print_exception(exc, file=sys.stderr)
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_FAILURE

    for name, ok in manifest.criteria.items():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    if manifest.passed is False:
        return EXIT_CHECK_FAILED
    return EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
