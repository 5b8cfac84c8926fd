"""YAML study configuration: defaults, presets, overrides, validation.

Resolution order is file values over preset values over built-in defaults.
Unknown keys are rejected with their full path so typos cannot silently
fall back to a default, and so is every key a CLI command does not read.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, fields, replace
from pathlib import Path

import yaml

from .channel import EnvironmentParams, environment_preset
from .estimation import SearchConfig
from .experiments import ExperimentConfig, SweepSpec
from .geometry import ConstellationSpec
from .localization import SolverConfig


class ConfigError(ValueError):
    """Configuration file cannot be parsed or violates a constraint."""


#: Default sweep grids as (start, stop, step), stop inclusive.
DEFAULT_GRIDS = {
    "altitude": (100.0, 3000.0, 50.0),
    "inter_distance": (100.0, 1000.0, 50.0),
    "anchor_count": (3.0, 30.0, 3.0),
}

#: Per-variable constellation defaults: the altitude study uses the
#: three-anchor, 500 m triangle; the count study grows 100 m triangles in
#: 20 m increments. The spacing study sweeps base_side itself.
_DEFAULT_BASE_SIDE = {"altitude": 500.0, "inter_distance": 500.0, "anchor_count": 100.0}
_DEFAULT_SIDE_INCREMENT = {"altitude": 0.0, "inter_distance": 0.0, "anchor_count": 20.0}

_SECTIONS = {"environment": EnvironmentParams, "constellation": ConstellationSpec,
             "sweep": SweepSpec, "search": SearchConfig, "solver": SolverConfig}

#: Every settable key ("section.key" below the top level) and its annotation,
#: a string as every module postpones them. k_ref and c_offset cancel in every
#: result, so they are library parameters only.
_KEY_TYPES = {
    **{f.name: f.type for f in fields(ExperimentConfig) if f.init and f.name not in _SECTIONS},
    **{f"{name}.{f.name}": f.type for name, cls in _SECTIONS.items() for f in fields(cls)
       if f.name not in ("k_ref", "c_offset")},
    "environment.preset": "str",
    "sweep.start": "float", "sweep.stop": "float", "sweep.step": "float",
}
#: The constants an environment mapping without a preset must give.
_CHANNEL_CONSTANTS = {f.name for f in fields(EnvironmentParams) if f.default is MISSING}

_DISK_NODES = {"node_count", "deployment_radius"}
_RING_NODES = {"eval_distance", "eval_azimuths"}
#: Each command's sweep variable and the keys it rejects, as it does not
#: read them ("section" stands for all its keys). These stay accepted:
#: - sweep.variable: the benchmark sets it, equal to the command's variable;
#: - constellation.side_increment: it changes results from 6 anchors on;
#: - trials under crlb: the benchmark's crlb warm-up config sets it.
_UNREAD = {
    "altitude-sweep": ("altitude", _RING_NODES | {"constellation.altitude"}),
    "distance-sweep": ("inter_distance", _DISK_NODES | {"constellation.base_side"}),
    "count-sweep": ("anchor_count", _DISK_NODES | {"constellation.n_anchors"}),
    "crlb": ("altitude", _DISK_NODES | _RING_NODES | {"constellation", "solver"}),
    "optimize": ("altitude", _RING_NODES | {"constellation.altitude"}),
}
#: The CLI commands: (sweep variable, the keys the command reads) each.
COMMANDS = {command: (variable, frozenset(k for k in _KEY_TYPES if k not in unread
                                          and k.partition(".")[0] not in unread))
            for command, (variable, unread) in _UNREAD.items()}


#: Most points a start/stop/step sweep range may hold. Every point is a
#: full Monte Carlo evaluation; the default grids hold at most 59.
MAX_GRID_POINTS = 100_000


def grid_from_range(start: float, stop: float, step: float) -> tuple[float, ...]:
    """Inclusive arithmetic grid; stop is included when it lands on the step."""
    for name, bound in (("start", start), ("stop", stop), ("step", step)):
        if not math.isfinite(bound):
            raise ConfigError(f"sweep.{name} must be finite")
    if step <= 0.0:
        raise ConfigError("sweep.step must be > 0")
    if stop < start:
        raise ConfigError("sweep.stop must be >= sweep.start")
    span = stop - start
    if not math.isfinite(span):
        raise ConfigError("sweep.stop - sweep.start must be finite")
    # Checked before any point is built; an overflowing quotient is inf.
    if span / step + 1e-9 >= MAX_GRID_POINTS:
        raise ConfigError(f"sweep range holds more than {MAX_GRID_POINTS} points")
    n = int(math.floor(span / step + 1e-9)) + 1
    return tuple(start + k * step for k in range(n))


def _as_int(value, where: str) -> int:
    """Integer setting; anything else is a ConfigError naming the key.

    Only YAML numbers are read: strings, booleans, YAML .inf/.nan and
    non-integral floats are rejected, not converted.
    """
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ConfigError(f"{where} must be finite")
        if value.is_integer():
            return int(value)
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{where} must be an integer, got {value!r}")


def _as_float(value, where: str) -> float:
    """Real-valued setting; anything but a YAML number is a ConfigError naming the key."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ConfigError(f"{where} must be a number, got {value!r}")


def _numbers(section, name: str = "") -> dict:
    """Section `name`'s settings as numbers, integers where the field is an int."""
    prefix = f"{name}." if name else ""
    return {k: (_as_int if _KEY_TYPES[prefix + k] == "int" else _as_float)(v, prefix + k)
            for k, v in _as_mapping(section, name).items()}


def _check_keys(raw: dict, command: str | None) -> None:
    """Reject unknown keys, and keys that `command` does not read, by path."""
    reads = _KEY_TYPES if command is None else COMMANDS[command][1]
    for section, value in raw.items():
        if section not in _SECTIONS:
            section, value = "", {section: value}
        prefix = f"{section}." if section else ""
        # A preset name has no keys; other non-mappings are rejected when read.
        for key in value if isinstance(value, dict) else ():
            if f"{prefix}{key}" not in _KEY_TYPES:
                raise ConfigError(f"unknown config key {prefix}{key!r}")
            if f"{prefix}{key}" not in reads:
                raise ConfigError(f"config key {prefix}{key!r} is not read by the "
                                  f"{command!r} command")


def _as_mapping(value, where: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"config section {where!r} must be a mapping")
    return value


def _resolve_environment(raw, preset: str | None) -> EnvironmentParams:
    if raw is None:
        return environment_preset(preset or "urban")
    if isinstance(raw, str):
        return environment_preset(raw)
    section = dict(_as_mapping(raw, "environment"))
    base = section.pop("preset", None)
    overrides = _numbers(section, "environment")
    if base is not None:
        return replace(environment_preset(str(base)), **overrides)
    missing = _CHANNEL_CONSTANTS - set(overrides)
    if missing:
        raise ConfigError("environment mapping without a preset must give all "
                          f"channel constants; missing {sorted(missing)}")
    return EnvironmentParams(**overrides)


def _resolve_constellation(raw, variable: str) -> ConstellationSpec:
    section = {"n_anchors": 3, "base_side": _DEFAULT_BASE_SIDE[variable],
               "altitude": 1000.0, "side_increment": _DEFAULT_SIDE_INCREMENT[variable],
               **_as_mapping(raw, "constellation")}
    return ConstellationSpec(**_numbers(section, "constellation"))


def _resolve_sweep(raw, variable: str | None) -> SweepSpec:
    section = _as_mapping(raw, "sweep")
    resolved = section.get("variable") or variable or "altitude"
    if variable is not None and resolved != variable:
        raise ConfigError(f"config sweeps {resolved!r} but the command requires {variable!r}")
    if resolved not in DEFAULT_GRIDS:
        raise ConfigError(f"sweep.variable must be one of "
                          f"{sorted(DEFAULT_GRIDS)}, got {resolved!r}")
    bounds = ("start", "stop", "step")
    has_values = section.get("values") is not None
    has_range = any(section.get(k) is not None for k in bounds)
    if has_values and has_range:
        raise ConfigError("sweep accepts either values or start/stop/step, not both")
    if has_values:
        if not isinstance(section["values"], (list, tuple)):
            raise ConfigError("sweep.values must be a list")
        values = tuple(_as_float(v, "sweep.values") for v in section["values"])
    elif has_range:  # a missing bound reads as None, which is no number
        values = grid_from_range(*(_as_float(section.get(k), f"sweep.{k}") for k in bounds))
    else:
        values = grid_from_range(*DEFAULT_GRIDS[resolved])
    return SweepSpec(variable=resolved, values=values)


def load_config(path=None, preset: str | None = None,
                seed_override: int | None = None,
                variable: str | None = None,
                command: str | None = None) -> ExperimentConfig:
    """Fully resolved study config from an optional YAML file.

    `preset` selects the environment when the file does not name one;
    `variable` pins the sweep variable and supplies its default grid and
    constellation geometry. A CLI `command` pins its variable instead and
    rejects every key it does not read. `seed_override` wins over any seed.
    """
    if command is not None:
        variable = COMMANDS[command][0]
    raw = {}
    if path is not None:
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            loaded = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f" (line {mark.line + 1})" if mark is not None else ""
            raise ConfigError(f"cannot parse config {path}{where}: {exc}") from exc
        raw = _as_mapping(loaded, str(path))
    _check_keys(raw, command)

    try:
        sweep = _resolve_sweep(raw.get("sweep"), variable)
        scalars = _numbers({k: v for k, v in raw.items() if k not in _SECTIONS})
        if seed_override is not None:
            scalars["seed"] = seed_override
        return ExperimentConfig(
            environment=_resolve_environment(raw.get("environment"), preset),
            constellation=_resolve_constellation(raw.get("constellation"),
                                                 sweep.variable),
            sweep=sweep,
            search=SearchConfig(**_numbers(raw.get("search"), "search")),
            solver=SolverConfig(**_numbers(raw.get("solver"), "solver")),
            **scalars,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def default_config(variable: str = "altitude",
                   preset: str = "urban", **overrides) -> ExperimentConfig:
    """Built-in defaults for one sweep variable, optionally overridden.

    Overrides replace whole fields of the resolved ExperimentConfig (for
    example sweep=SweepSpec(...), trials=5).
    """
    cfg = load_config(path=None, preset=preset, variable=variable)
    return replace(cfg, **overrides) if overrides else cfg
