"""Experiment configuration: INI-style files with nested sections.

A config fully determines a campaign together with the master seed; there is
no wall-clock seeding anywhere.  Sections mirror the run structure::

    [experiment]        kind, seed, output, workers
    [environment]       model + the model's parameters, optional guard_margin
    [geometry]          dim, a, window or window_size, delta or delta_size
    [schedule]          z_grid, replicate_offset, and the kind's own keys:
                        L_list, replicates, both_axes, runs, tau, merge_bound
    [mcmc]              the fields of MCMCSettings but debug_checks, and
                        in domination-check and dlr-check not moves_per_sweep

A section holds only the keys its kind reads, ``[environment]`` only the
parameters of its model, and a kind that runs no chain takes no
``[mcmc]``; any other section or key is a :class:`ConfigError`, so a
misspelt or unused key cannot silently fall back to its default or move the
config hash.  A value that does not parse names its section and key.  Only
named environment models are expressible in a file; arbitrary density
handles exist at the library level only.
"""
from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import dataclass, field, fields

import numpy as np

from .geometry import Window
from .intensity import (
    GuardMarginError,
    HomogeneousLebesgue,
    IntensityModel,
    ManhattanGrid,
    RandomSetIndicator,
    ShotNoise,
    VoronoiEdges,
    check_guard_margin,
)
from .random_cluster import resolve_tau
from .wr_gibbs import MCMCSettings

# the [schedule] keys each kind reads besides z_grid and replicate_offset
_SCHEDULE_KEYS = {
    "percolation-scan": ("L_list", "replicates", "both_axes"),
    "wr-order-parameter": ("L_list", "replicates"),
    "rc-check": ("replicates",),
    "domination-check": ("replicates", "tau", "merge_bound"),
    "dlr-check": ("runs",),
    "env-validate": ("replicates",),
}
EXPERIMENT_KINDS = tuple(_SCHEDULE_KEYS)
# kinds that run no chain, and so take no [mcmc] section
_CHAINLESS_KINDS = ("percolation-scan", "env-validate")
# kinds whose samplers read no moves_per_sweep: only rc-check's weighted
# chain does.  wr-order-parameter reads none either but still takes the key,
# which the benchmark's order-parameter config sets
_NO_MOVES_PER_SWEEP_KINDS = ("domination-check", "dlr-check")

# each model reads its dataclass fields from [environment]
_MODELS = {
    "lebesgue": HomogeneousLebesgue,
    "shot-noise": ShotNoise,
    "random-set": RandomSetIndicator,
    "voronoi": VoronoiEdges,
    "manhattan": ManhattanGrid,
}
_MODEL_DEFAULTS = {"z0": 1.0}
ENVIRONMENT_MODELS = tuple(_MODELS)

_SECTION_KEYS = {
    "experiment": ("kind", "seed", "output", "workers"),
    "environment": ("model", "guard_margin"),
    "geometry": ("dim", "a", "window", "window_size", "delta", "delta_size"),
    "schedule": ("z_grid", "replicate_offset"),
    "mcmc": tuple(f.name for f in fields(MCMCSettings) if f.name != "debug_checks"),
}

# kinds that run at the first activity of z_grid only
_SINGLE_ACTIVITY_KINDS = ("dlr-check", "env-validate")


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


@dataclass
class ExperimentConfig:
    kind: str
    model: IntensityModel
    model_name: str
    dim: int
    a: float
    window: Window
    delta: Window | None
    z_grid: list[float]
    L_list: list[float]
    replicates: int
    runs: int
    settings: MCMCSettings
    seed: int
    out_dir: str
    workers: int = 1
    guard_margin: float | None = None
    tau: float | None = None
    merge_bound: int | None = None
    replicate_offset: int = 0
    both_axes: bool = False
    raw: dict = field(default_factory=dict)

    def hash(self) -> str:
        """Hash of the resolved config.

        Workers, output path, and the replicate offset are excluded: they
        change no number (the offset only selects which replicate streams a
        partial run covers, so partials with different offsets must share
        the hash to be mergeable).
        """
        payload = {
            k: v
            for k, v in self.raw.items()
            if k not in ("output", "workers", "replicate_offset", "replicates", "runs")
        }
        blob = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _boolean(text: str) -> bool:
    word = text.strip().lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError("not one of 1/0, true/false, yes/no")
    return word in ("1", "true", "yes")


def _read(section, name: str, key: str, convert, default=None):
    """``convert`` of ``[name] key``, or ``default`` when the key is absent."""
    text = section.get(key)
    if text is None:
        return default
    try:
        return convert(text)
    except ValueError as exc:
        raise ConfigError(f"[{name}] {key} = {text!r} does not parse: {exc}") from None


def _check_keys(name: str, section, allowed, reader: str = "it") -> None:
    unknown = sorted(set(section) - {key.lower() for key in allowed})
    if unknown:
        raise ConfigError(
            f"unknown key {', '.join(unknown)} in [{name}]; {reader} reads {', '.join(allowed)}"
        )


def _parse_model(section) -> tuple[IntensityModel, str]:
    name = section.get("model", "").strip().lower()
    if name not in _MODELS:
        raise ConfigError(
            f"environment model must be one of {ENVIRONMENT_MODELS}, got {name!r}"
        )
    keys = [f.name for f in fields(_MODELS[name])]
    _check_keys("environment", section, (*_SECTION_KEYS["environment"], *keys))
    missing = [key for key in keys if key not in section and key not in _MODEL_DEFAULTS]
    if missing:
        raise ConfigError(f"model {name!r} needs {', '.join(missing)}")
    params = {key: _read(section, "environment", key, float, _MODEL_DEFAULTS.get(key)) for key in keys}
    try:
        return _MODELS[name](**params), name
    except ValueError as exc:
        raise ConfigError(f"bad parameters for model {name!r}: {exc}") from exc


def _parse_corners(section, prefix: str, dim: int) -> Window | None:
    vals = _read(section, "geometry", prefix, _floats)
    if vals is None:
        return None
    if len(vals) != 2 * dim:
        raise ConfigError(
            f"{prefix} needs {2 * dim} numbers (lower then upper), got {len(vals)}"
        )
    return Window(np.array(vals[:dim]), np.array(vals[dim:]))


def default_delta(window: Window) -> Window:
    """The default count box: centred, side 1 clipped to a fifth of the window."""
    return window.centered_cube(min(1.0, float(window.sides.min()) / 5.0))


# resolved-config keys that are ExperimentConfig fields of the same name and value
_RESOLVED_AS_IS = ("kind", "seed", "dim", "a", "replicates", "runs", "guard_margin", "tau", "merge_bound")


def config_from_resolved(raw: dict) -> ExperimentConfig:
    """Rebuild a config from a manifest's resolved-config block.

    This is the manifest-completeness contract: every number in a result
    file is reproducible from the manifest alone (plus the code version).
    """
    try:
        model = _MODELS[raw["model"]](**raw["model_params"])
        dim = raw["dim"]

        def window_of(vals):
            if vals is None:
                return None
            return Window(np.array(vals[:dim]), np.array(vals[dim:]))

        settings = MCMCSettings(**{key: raw["mcmc"][key] for key in _SECTION_KEYS["mcmc"]})
        return ExperimentConfig(
            **{key: raw[key] for key in _RESOLVED_AS_IS},
            model=model,
            model_name=raw["model"],
            window=window_of(raw["window"]),
            delta=window_of(raw["delta"]),
            z_grid=list(raw["z_grid"]),
            L_list=list(raw["L_list"]),
            settings=settings,
            out_dir=raw.get("output", "results"),
            workers=raw.get("workers", 1),
            replicate_offset=raw.get("replicate_offset", 0),
            both_axes=raw.get("both_axes", False),
            raw=dict(raw),
        )
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"manifest resolved_config is incomplete: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        return parse_config(parser)
    except ConfigError:
        raise
    except (configparser.Error, KeyError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(parser: configparser.ConfigParser) -> ExperimentConfig:
    for name in parser.sections():
        if name not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{name}]; sections are {', '.join(_SECTION_KEYS)}")
    for name in ("experiment", "environment", "geometry"):
        if name not in parser:
            raise ConfigError(f"missing [{name}] section")
    exp = parser["experiment"]
    _check_keys("experiment", exp, _SECTION_KEYS["experiment"])
    kind = exp.get("kind", "").strip()
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"kind must be one of {EXPERIMENT_KINDS}, got {kind!r}")
    if "mcmc" in parser and kind in _CHAINLESS_KINDS:
        raise ConfigError(f"{kind} runs no chain; it reads no [mcmc] section")
    for name in ("geometry", "schedule", "mcmc"):
        if name in parser:
            allowed = _SECTION_KEYS[name] + (_SCHEDULE_KEYS[kind] if name == "schedule" else ())
            if name == "mcmc" and kind in _NO_MOVES_PER_SWEEP_KINDS:
                allowed = tuple(key for key in allowed if key != "moves_per_sweep")
            _check_keys(name, parser[name], allowed, kind)
    if "seed" not in exp:
        raise ConfigError("a master seed is mandatory (no wall-clock seeding)")
    seed = _read(exp, "experiment", "seed", int)
    out_dir = exp.get("output", "results")
    workers = _read(exp, "experiment", "workers", int, 1)
    if workers < 1:
        raise ConfigError("workers must be >= 1")

    model, model_name = _parse_model(parser["environment"])
    guard_margin = _read(parser["environment"], "environment", "guard_margin", float)
    try:
        check_guard_margin(model, guard_margin)
    except GuardMarginError as exc:
        raise ConfigError(str(exc)) from exc

    geo = parser["geometry"]
    dim = _read(geo, "geometry", "dim", int, 2)
    if dim < 1:
        raise ConfigError("dim must be >= 1")
    if model_name in ("voronoi", "manhattan") and dim != 2:
        raise ConfigError(f"model {model_name!r} requires dim = 2")
    a = _read(geo, "geometry", "a", float)
    if a is None or a <= 0:
        raise ConfigError("geometry needs a positive ball radius a")

    sched = parser["schedule"] if "schedule" in parser else {}

    L_list = _read(sched, "schedule", "L_list", _floats, [])
    if kind == "percolation-scan" and not L_list:
        raise ConfigError("percolation-scan needs L_list in [schedule]")
    if any(l2 <= l1 for l1, l2 in zip(L_list, L_list[1:])):
        raise ConfigError("L_list must be strictly increasing")

    # with an L_list the order parameter runs on the cubes [0, L]^dim
    per_L = kind == "wr-order-parameter" and bool(L_list)
    window = _parse_corners(geo, "window", dim)
    window_size = _read(geo, "geometry", "window_size", float)
    if window is None and window_size is not None:
        window = Window.cube(window_size, dim)
    if window is None and not (per_L or kind == "percolation-scan"):
        raise ConfigError("geometry section must define window or window_size")
    delta = _parse_corners(geo, "delta", dim)
    delta_size = _read(geo, "geometry", "delta_size", float)
    if delta is None and delta_size is not None:
        if window is None:
            raise ConfigError(
                "delta_size is centred in the window, and there is none; "
                "give delta as corners (lower then upper)"
            )
        delta = window.centered_cube(delta_size)
    elif delta is None and window is not None and not per_L and kind in (
        "rc-check", "wr-order-parameter", "dlr-check", "domination-check"
    ):
        delta = default_delta(window)
    if window is not None and delta is not None and not window.contains_window(delta):
        raise ConfigError("delta must lie inside the window")
    if per_L and delta is not None:
        for L in L_list:
            if not Window.cube(L, dim).contains_window(delta):
                raise ConfigError(f"delta must lie inside every L_list window, not only L = {L:g}")
    if kind == "domination-check" and dim != 2:
        raise ConfigError(
            "domination-check needs dim = 2: its statistic battery and merge bound are planar"
        )

    z_grid = _read(sched, "schedule", "z_grid", _floats, [1.0])
    if not z_grid:
        raise ConfigError("z_grid must not be empty")
    if any(z < 0 for z in z_grid):
        raise ConfigError("z values must be >= 0")
    if any(z2 <= z1 for z1, z2 in zip(z_grid, z_grid[1:])):
        raise ConfigError("z_grid must be strictly increasing")
    if kind in _SINGLE_ACTIVITY_KINDS and len(z_grid) > 1:
        raise ConfigError(f"{kind} runs at one activity; z_grid must hold one value, not {len(z_grid)}")
    replicates = _read(sched, "schedule", "replicates", int, 4)
    if replicates < 1:
        raise ConfigError("replicates must be >= 1")
    replicate_offset = _read(sched, "schedule", "replicate_offset", int, 0)
    if replicate_offset < 0:
        raise ConfigError("replicate_offset must be >= 0")
    both_axes = _read(sched, "schedule", "both_axes", _boolean, False)
    runs = _read(sched, "schedule", "runs", int, 20)
    tau = _read(sched, "schedule", "tau", float)
    merge_bound = _read(sched, "schedule", "merge_bound", int)
    if kind == "domination-check":
        try:
            resolve_tau(tau, merge_bound, dim)
        except ValueError as exc:
            raise ConfigError(f"[schedule] {exc}") from None

    mcmc = parser["mcmc"] if "mcmc" in parser else {}
    given = {key: _read(mcmc, "mcmc", key, int) for key in _SECTION_KEYS["mcmc"] if key in mcmc}
    if "moves_per_sweep" in given:
        given["moves_per_sweep"] = given["moves_per_sweep"] or None  # 0 means the default
    try:
        settings = MCMCSettings(**given)
    except ValueError as exc:
        raise ConfigError(f"bad mcmc section: {exc}") from exc

    raw = {
        "kind": kind,
        "seed": seed,
        "output": out_dir,
        "workers": workers,
        "model": model_name,
        "model_params": {
            k: v for k, v in vars(model).items() if not callable(v)
        },
        "guard_margin": guard_margin,
        "dim": dim,
        "a": a,
        "window": None if window is None else window.lower.tolist() + window.upper.tolist(),
        "delta": None if delta is None else delta.lower.tolist() + delta.upper.tolist(),
        "z_grid": z_grid,
        "L_list": L_list,
        "replicates": replicates,
        "replicate_offset": replicate_offset,
        "both_axes": both_axes,
        "runs": runs,
        "tau": tau,
        "merge_bound": merge_bound,
        "mcmc": {key: getattr(settings, key) for key in _SECTION_KEYS["mcmc"]},
    }
    return config_from_resolved(raw)
