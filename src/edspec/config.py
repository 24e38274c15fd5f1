"""Strict INI-style run configuration.

One section per pipeline stage; unknown sections or keys, [model] keys that
the chosen model kind does not read and [evolve] keys that the chosen
initial state does not read are errors rather than warnings, since a
silently ignored typo can corrupt a physics run.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

from .evolution import BLOCK_METRICS
from .fixedpoint import REFINE_TOL, WINDOW_STEPS
from .operators import PROBLEM_KINDS, ConstantMass, Grid, HOQuadratic, MassModel
from .validate import GRID_SIZES


class ConfigError(Exception):
    """Invalid or missing run configuration."""


#: The [model] keys each model kind reads, besides ``kind``.
_MODEL_KEYS = {"constant": ("m",), "hoquadratic": ("A", "E0")}
#: The [evolve] keys each initial state reads, besides the common ones.
_STATE_KEYS = {"gaussian": ("center", "width", "momentum"), "eigenstate": ("index",)}
_EVOLVE_KEYS = ("t_final", "steps", "metric", "state")

_SCHEMA = {
    "model": {"kind", *(key for keys in _MODEL_KEYS.values() for key in keys)},
    "grid": {"x_min", "x_max", "n_points"},
    "problem": {"kind"},
    "spectrum": {"z"},
    "fixedpoint": {"branches", "windows", "steps", "refine_tol"},
    "evolve": {*_EVOLVE_KEYS, *(key for keys in _STATE_KEYS.values() for key in keys)},
    "output": {"dump_matrices"},
    "validate": {"grid_sizes"},
}


@dataclass
class EvolveSpec:
    t_final: float
    steps: int
    metric: str                     # swap | identity
    state: str                      # gaussian | eigenstate
    center: float
    width: float
    momentum: float
    index: int


@dataclass
class RunConfig:
    model: MassModel | None = None
    grid: Grid | None = None
    problem_kind: str = "schrodinger"
    spectrum_z: float | None = None
    branches: list = field(default_factory=list)
    windows: list = field(default_factory=list)
    steps: int = WINDOW_STEPS
    refine_tol: float = REFINE_TOL
    evolve: EvolveSpec | None = None
    dump_matrices: bool = False
    validate_grid_sizes: tuple = GRID_SIZES
    echo: dict = field(default_factory=dict)


def _get(parser, section, key, cast, default=None, required=False):
    if not parser.has_option(section, key):
        if required:
            raise ConfigError(f"missing key '{key}' in section [{section}]")
        return default
    raw = parser.get(section, key)
    try:
        return cast(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for [{section}] {key} = {raw!r}: {exc}") from exc


def _float(raw: str) -> float:
    """Finite float; ``float`` alone would accept nan and inf."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw.strip()!r}")
    return value


def _bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _entries(raw: str) -> list[str]:
    tokens = [tok.strip() for tok in raw.split(",")] if raw.strip() else []
    if not all(tokens):
        raise ValueError("a comma-separated list has an empty entry")
    return tokens


def _int_list(raw: str) -> list[int]:
    return [int(tok) for tok in _entries(raw)]


def _windows(raw: str) -> list[tuple[float, float]]:
    out = []
    for tok in _entries(raw):
        lo, sep, hi = tok.partition(":")
        if not sep:
            raise ValueError(f"window {tok!r} is not of the form lo:hi")
        out.append((_float(lo), _float(hi)))
    return out


def _positive(name: str, value: float) -> float:
    if not value > 0:
        raise ConfigError(f"{name} must be positive, got {value}")
    return value


def _parse_model(parser) -> MassModel:
    kind = _get(parser, "model", "kind", str, required=True).strip().lower()
    if kind not in _MODEL_KEYS:
        raise ConfigError(f"unknown model kind {kind!r} (expected constant | hoquadratic)")
    for key in parser.options("model"):
        if key != "kind" and key not in _MODEL_KEYS[kind]:
            raise ConfigError(f"key '{key}' in section [model] is not read by kind = {kind}")
    if kind == "constant":
        return ConstantMass(m=_get(parser, "model", "m", _float, required=True))
    return HOQuadratic(
        A=_get(parser, "model", "A", _float, required=True),
        E0=_get(parser, "model", "E0", _float, required=True),
    )


def _check_fixedpoint(cfg: RunConfig) -> None:
    if cfg.steps < 2:
        raise ConfigError(f"fixedpoint steps must be >= 2, got {cfg.steps}")
    for n in cfg.branches:
        if n < 0:
            raise ConfigError(f"branch index {n} is negative")
        if cfg.grid is not None and n >= cfg.grid.n_points:
            raise ConfigError(f"branch index {n} outside the spectrum of size "
                              f"{cfg.grid.n_points}")
    if len(set(cfg.branches)) != len(cfg.branches):
        raise ConfigError(f"branches {cfg.branches} list an index twice")
    for lo, hi in cfg.windows:
        if not lo < hi:
            raise ConfigError(f"window {lo}:{hi} needs lo < hi")
    if len(set(cfg.windows)) != len(cfg.windows):
        raise ConfigError(f"windows {cfg.windows} list a window twice")


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.optionxform = str
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")

    cfg = RunConfig()
    cfg.echo = {s: dict(parser.items(s)) for s in parser.sections()}

    if parser.has_section("model"):
        try:
            cfg.model = _parse_model(parser)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if parser.has_section("grid"):
        try:
            cfg.grid = Grid(
                x_min=_get(parser, "grid", "x_min", _float, required=True),
                x_max=_get(parser, "grid", "x_max", _float, required=True),
                n_points=_get(parser, "grid", "n_points", int, required=True),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if parser.has_section("problem"):
        kind = _get(parser, "problem", "kind", str, required=True).strip().lower()
        if kind not in PROBLEM_KINDS:
            raise ConfigError(f"unknown problem kind {kind!r}")
        cfg.problem_kind = kind
    if parser.has_section("spectrum"):
        cfg.spectrum_z = _get(parser, "spectrum", "z", _float, required=True)
    if parser.has_section("fixedpoint"):
        try:
            cfg.branches = _get(parser, "fixedpoint", "branches", _int_list, required=True)
            cfg.windows = _get(parser, "fixedpoint", "windows", _windows, required=True)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        cfg.steps = _get(parser, "fixedpoint", "steps", int, default=cfg.steps)
        cfg.refine_tol = _positive(
            "refine_tol", _get(parser, "fixedpoint", "refine_tol", _float, default=cfg.refine_tol))
        _check_fixedpoint(cfg)
    if parser.has_section("evolve"):
        metric = _get(parser, "evolve", "metric", str, default="swap").strip().lower()
        if metric not in BLOCK_METRICS:
            raise ConfigError(f"unknown evolve metric {metric!r}")
        state = _get(parser, "evolve", "state", str, default="gaussian").strip().lower()
        if state not in _STATE_KEYS:
            raise ConfigError(f"unknown evolve state {state!r}")
        for key in parser.options("evolve"):
            if key not in _EVOLVE_KEYS and key not in _STATE_KEYS[state]:
                raise ConfigError(f"key '{key}' in section [evolve] is not read by "
                                  f"state = {state}")
        steps = _get(parser, "evolve", "steps", int, required=True)
        if steps < 0:
            raise ConfigError(f"evolve steps must be >= 0, got {steps}")
        index = _get(parser, "evolve", "index", int, default=0)
        if index < 0 or (cfg.grid is not None and index >= 2 * cfg.grid.n_points):
            raise ConfigError(f"evolve index {index} must satisfy 0 <= index < 2 * n_points")
        cfg.evolve = EvolveSpec(
            t_final=_get(parser, "evolve", "t_final", _float, required=True),
            steps=steps,
            metric=metric,
            state=state,
            center=_get(parser, "evolve", "center", _float, default=0.0),
            width=_positive("width", _get(parser, "evolve", "width", _float, default=1.0)),
            momentum=_get(parser, "evolve", "momentum", _float, default=0.0),
            index=index,
        )
    if parser.has_section("output"):
        cfg.dump_matrices = _get(parser, "output", "dump_matrices", _bool, default=False)
    if parser.has_section("validate"):
        sizes = _get(parser, "validate", "grid_sizes", _int_list, required=True)
        if len(sizes) < 2 or any(s < 5 for s in sizes):
            raise ConfigError("validate grid_sizes needs at least two sizes >= 5")
        if len(set(sizes)) != len(sizes):
            raise ConfigError(f"validate grid_sizes {sizes} list a size twice")
        cfg.validate_grid_sizes = tuple(sizes)
    return cfg
