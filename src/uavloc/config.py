"""YAML study configuration: defaults, presets, overrides, validation.

Resolution order is file values over preset values over built-in defaults.
Unknown keys are rejected with their full path so typos cannot silently
fall back to a default.
"""

from __future__ import annotations

import math
from dataclasses import fields, replace
from pathlib import Path

import yaml

from .channel import EnvironmentParams, environment_preset
from .estimation import SearchConfig
from .experiments import ExperimentConfig, SweepSpec
from .geometry import ConstellationSpec, NodePosition
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

_ENVIRONMENT_KEYS = {"preset", "a_los", "b_los", "a_nlos", "b_nlos",
                     "a_o", "b_o", "a_1", "b_1", "k_ref", "c_offset"}
_CONSTELLATION_KEYS = {"n_anchors", "base_side", "altitude", "side_increment", "centroid"}
_SWEEP_KEYS = {"variable", "values", "start", "stop", "step"}
_SEARCH_KEYS = {f.name for f in fields(SearchConfig)}
_SOLVER_KEYS = {f.name for f in fields(SolverConfig)}
#: Top-level settings that are plain numbers, and which of them are integers.
_SCALAR_KEYS = {"seed", "trials", "node_count", "deployment_radius",
                "samples_per_anchor", "eval_distance", "eval_azimuths"}
_INT_KEYS = {"seed", "trials", "node_count", "samples_per_anchor", "eval_azimuths"}
_TOP_KEYS = _SCALAR_KEYS | {"environment", "constellation", "sweep", "search", "solver"}


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

    YAML .inf/.nan, non-integral floats and booleans are rejected, not
    converted.
    """
    if isinstance(value, bool):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ConfigError(f"{where} must be finite")
        if not value.is_integer():
            raise ConfigError(f"{where} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where} must be an integer, got {value!r}") from None


def _as_float(value, where: str) -> float:
    """Real-valued setting; a non-number is a ConfigError naming the key."""
    if isinstance(value, bool):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where} must be a number, got {value!r}") from None


def _numbers(section: dict, int_keys: set, prefix: str = "") -> dict:
    """The section's settings as numbers, integers where `int_keys` says."""
    return {k: _as_int(v, prefix + k) if k in int_keys else _as_float(v, prefix + k)
            for k, v in section.items()}


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    for key in section:
        if key not in allowed:
            prefix = f"{where}." if where else ""
            raise ConfigError(f"unknown config key {prefix}{key!r}")


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
    section = _as_mapping(raw, "environment")
    _reject_unknown(section, _ENVIRONMENT_KEYS, "environment")
    base = section.get("preset")
    overrides = {k: _as_float(v, f"environment.{k}")
                 for k, v in section.items() if k != "preset"}
    if base is not None:
        return replace(environment_preset(str(base)), **overrides)
    missing = {"a_los", "b_los", "a_nlos", "b_nlos", "a_o", "b_o", "a_1", "b_1"} \
        - set(overrides)
    if missing:
        raise ConfigError("environment mapping without a preset must give all "
                          f"channel constants; missing {sorted(missing)}")
    return EnvironmentParams(**overrides)


def _resolve_constellation(raw, variable: str) -> ConstellationSpec:
    section = _as_mapping(raw, "constellation")
    _reject_unknown(section, _CONSTELLATION_KEYS, "constellation")
    centroid = section.get("centroid", [0.0, 0.0])
    if not (isinstance(centroid, (list, tuple)) and len(centroid) == 2):
        raise ConfigError("constellation.centroid must be a [x, y] pair")
    return ConstellationSpec(
        n_anchors=_as_int(section.get("n_anchors", 3), "constellation.n_anchors"),
        base_side=_as_float(section.get("base_side", _DEFAULT_BASE_SIDE[variable]),
                            "constellation.base_side"),
        altitude=_as_float(section.get("altitude", 1000.0), "constellation.altitude"),
        side_increment=_as_float(section.get("side_increment",
                                             _DEFAULT_SIDE_INCREMENT[variable]),
                                 "constellation.side_increment"),
        centroid=NodePosition(_as_float(centroid[0], "constellation.centroid"),
                              _as_float(centroid[1], "constellation.centroid")),
    )


def _resolve_sweep(raw, variable: str | None) -> SweepSpec:
    section = _as_mapping(raw, "sweep")
    _reject_unknown(section, _SWEEP_KEYS, "sweep")
    file_variable = section.get("variable")
    if file_variable is not None and variable is not None \
            and file_variable != variable:
        raise ConfigError(f"config sweeps {file_variable!r} but the command "
                          f"requires {variable!r}")
    resolved = file_variable or variable or "altitude"
    if resolved not in DEFAULT_GRIDS:
        raise ConfigError(f"sweep.variable must be one of "
                          f"{sorted(DEFAULT_GRIDS)}, got {resolved!r}")
    has_values = section.get("values") is not None
    has_range = any(section.get(k) is not None for k in ("start", "stop", "step"))
    if has_values and has_range:
        raise ConfigError("sweep accepts either values or start/stop/step, not both")
    if has_values:
        if not isinstance(section["values"], (list, tuple)):
            raise ConfigError("sweep.values must be a list")
        values = tuple(_as_float(v, "sweep.values") for v in section["values"])
    elif has_range:
        try:
            start = _as_float(section["start"], "sweep.start")
            stop = _as_float(section["stop"], "sweep.stop")
            step = _as_float(section["step"], "sweep.step")
        except KeyError as exc:
            raise ConfigError(f"sweep range needs start, stop and step "
                              f"(missing {exc.args[0]!r})") from None
        values = grid_from_range(start, stop, step)
    else:
        values = grid_from_range(*DEFAULT_GRIDS[resolved])
    try:
        return SweepSpec(variable=resolved, values=values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path=None, preset: str | None = None,
                seed_override: int | None = None,
                variable: str | None = None) -> ExperimentConfig:
    """Fully resolved study config from an optional YAML file.

    `preset` selects the environment when the file does not name one;
    `variable` pins the sweep variable (normally from the CLI command) and
    supplies its default grid and constellation geometry. `seed_override`
    wins over any seed in the file.
    """
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
    _reject_unknown(raw, _TOP_KEYS, "")

    search_sec = _as_mapping(raw.get("search"), "search")
    _reject_unknown(search_sec, _SEARCH_KEYS, "search")
    solver_sec = _as_mapping(raw.get("solver"), "solver")
    _reject_unknown(solver_sec, _SOLVER_KEYS, "solver")

    try:
        sweep = _resolve_sweep(raw.get("sweep"), variable)
        scalars = _numbers({k: v for k, v in raw.items() if k in _SCALAR_KEYS}, _INT_KEYS)
        if seed_override is not None:
            scalars["seed"] = seed_override
        return ExperimentConfig(
            environment=_resolve_environment(raw.get("environment"), preset),
            constellation=_resolve_constellation(raw.get("constellation"),
                                                 sweep.variable),
            sweep=sweep,
            search=SearchConfig(**_numbers(search_sec, {"grid_points"}, "search.")),
            solver=SolverConfig(**_numbers(solver_sec, {"max_iter"}, "solver.")),
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
