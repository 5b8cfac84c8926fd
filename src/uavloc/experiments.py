"""Monte Carlo studies: altitude, anchor-spacing and anchor-count sweeps,
bound-versus-estimator comparison, and the altitude optimizer.

Randomness is addressed, not sequential: every (trial) block of node
positions and shadowing draws comes from its own counter-derived stream, so
a sweep point can be computed anywhere, in any order, on any number of
workers, and still produce bitwise-identical results. Sweep points reuse the
per-trial streams, which makes curves over the sweep variable common-random-
number smooth wherever array shapes allow it.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from ._streams import TAG_NODES, TAG_RSS, substream
from .channel import (
    MIN_ALTITUDE_M,
    EnvironmentParams,
    LinkGeometry,
    ENVIRONMENTS,
    environment_preset,
    mean_rss,
    shadowing_sigma,
)
from .estimation import SearchConfig, crlb_sigma, mle_distance_batch
from .geometry import ConstellationSpec, anchors_xy, build_constellation, sample_disk_xy
from .localization import SolverConfig, multilaterate_batch

SWEEP_VARIABLES = ("altitude", "inter_distance", "anchor_count")

#: Exact header of every sweep-result CSV.
CSV_HEADER = "sweep_value,mean_error_m,error_std_m,mean_position_error_m,n_nodes,n_trials,seed"

#: Header of the bound-versus-estimator table CSV.
CRLB_CSV_HEADER = ("r_m,h_m,crlb_sigma_m,mle_sigma_m,mle_mean_m,"
                   "boundary_fraction,repetitions,seed")


@dataclass(frozen=True)
class SweepSpec:
    """Sweep variable and its grid of values (strictly increasing)."""

    variable: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(f"sweep variable must be one of {SWEEP_VARIABLES}, "
                             f"got {self.variable!r}")
        vals = tuple(float(v) for v in self.values)
        if len(vals) == 0:
            raise ValueError("sweep grid must be nonempty")
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("sweep values must be finite")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("sweep grid must be strictly increasing")
        if self.variable == "altitude" and vals[0] < MIN_ALTITUDE_M:
            raise ValueError(f"altitude grid must stay within [h_min, inf) with "
                             f"h_min = {MIN_ALTITUDE_M:g} m; got {vals[0]:g} m")
        if self.variable == "inter_distance" and vals[0] <= 0.0:
            raise ValueError("inter-distance grid values must be > 0")
        if self.variable == "anchor_count":
            for v in vals:
                if v != int(v) or int(v) < 3 or int(v) % 3 != 0:
                    raise ValueError("anchor_count grid values must be "
                                     "positive multiples of 3")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved study definition.

    `environment` may be given as a preset name; it is normalized to the
    parameter set and the name is kept for reporting. Altitude sweeps draw
    `node_count` nodes uniformly in the deployment disk each trial; the
    spacing and count sweeps instead evaluate a ring of `eval_azimuths`
    nodes at `eval_distance` from the constellation centroid.
    """

    environment: EnvironmentParams
    constellation: ConstellationSpec
    sweep: SweepSpec
    node_count: int = 1000
    deployment_radius: float = 1000.0
    samples_per_anchor: int = 5
    trials: int = 1
    seed: int = 0
    eval_distance: float = 650.0
    eval_azimuths: int = 8
    search: SearchConfig = field(default_factory=SearchConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    environment_name: str = field(init=False, default="custom")

    def __post_init__(self) -> None:
        env = self.environment
        if isinstance(env, str):
            name = env.lower()
            object.__setattr__(self, "environment", environment_preset(name))
            object.__setattr__(self, "environment_name", name)
        else:
            for name, preset in ENVIRONMENTS.items():
                if env == preset:
                    object.__setattr__(self, "environment_name", name)
                    break
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not (math.isfinite(self.deployment_radius) and self.deployment_radius > 0.0):
            raise ValueError("deployment_radius must be finite and > 0")
        if self.samples_per_anchor < 1:
            raise ValueError("samples_per_anchor must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not (math.isfinite(self.eval_distance) and self.eval_distance > 0.0):
            raise ValueError("eval_distance must be finite and > 0")
        if self.eval_azimuths < 1:
            raise ValueError("eval_azimuths must be >= 1")


@dataclass(frozen=True)
class ExperimentResult:
    """Per-sweep-point error summaries plus the config that produced them.

    `elapsed_s` is wall-clock bookkeeping and excluded from equality; all
    scientific fields are exactly reproducible for a given (config, seed).
    """

    config: ExperimentConfig
    sweep_variable: str
    sweep_values: tuple[float, ...]
    mean_error: tuple[float, ...]
    error_std: tuple[float, ...]
    median_error: tuple[float, ...]
    mean_position_error: tuple[float, ...]
    n_nonconverged: tuple[int, ...]
    n_boundary: tuple[int, ...]
    n_nodes: int
    n_trials: int
    seed: int
    elapsed_s: tuple[float, ...] = field(compare=False, default=())


@dataclass(frozen=True)
class AltitudeOptimum:
    """Altitude-sweep minimizer; iterates as (h_opt, error_at_opt, theta_opt)."""

    h_opt: float
    error_at_opt: float
    theta_opt: float
    r_bar: float
    result: ExperimentResult

    def __iter__(self):
        return iter((self.h_opt, self.error_at_opt, self.theta_opt))


@dataclass(frozen=True)
class CrlbPoint:
    """One (r, h) cell of the bound-versus-estimator comparison."""

    r: float
    h: float
    crlb_sigma: float
    mle_sigma: float
    mle_mean: float
    boundary_fraction: float
    repetitions: int


def _constellation_at(cfg: ExperimentConfig, value: float) -> ConstellationSpec:
    """Constellation for one sweep point."""
    variable = cfg.sweep.variable
    if variable == "altitude":
        return replace(cfg.constellation, altitude=float(value))
    if variable == "inter_distance":
        return replace(cfg.constellation, base_side=float(value))
    return replace(cfg.constellation, n_anchors=int(value))


def _trial_nodes(cfg: ExperimentConfig, trial: int) -> np.ndarray:
    """(M, 2) node positions for one trial of the configured study."""
    c = cfg.constellation.centroid
    if cfg.sweep.variable == "altitude":
        rng = substream(cfg.seed, TAG_NODES, trial)
        return sample_disk_xy(cfg.node_count, cfg.deployment_radius, (c.x, c.y), rng)
    # Spacing and count studies probe one representative range: a ring of
    # azimuths at eval_distance, the first bearing due east.
    phi = 2.0 * math.pi * np.arange(cfg.eval_azimuths) / cfg.eval_azimuths
    out = np.empty((cfg.eval_azimuths, 2))
    out[:, 0] = c.x + cfg.eval_distance * np.cos(phi)
    out[:, 1] = c.y + cfg.eval_distance * np.sin(phi)
    return out


def point_errors(cfg: ExperimentConfig, value: float, nodes: np.ndarray | None = None):
    """Raw per-node metrics at one sweep point, concatenated over trials.

    Returns (xi, position_error, n_nonconverged, n_boundary) where xi is the
    Euclidean norm of the per-anchor horizontal-range errors of each node.
    `nodes` overrides the per-trial node sets (same array every trial).
    """
    env = cfg.environment
    spec = _constellation_at(cfg, value)
    axy = anchors_xy(build_constellation(spec))
    h = spec.altitude
    n_anchors = axy.shape[0]
    s = cfg.samples_per_anchor

    xi_parts, pts_parts, r_hat_parts = [], [], []
    n_boundary = 0
    for trial in range(cfg.trials):
        pts = _trial_nodes(cfg, trial) if nodes is None else np.asarray(nodes, dtype=float)
        m = pts.shape[0]
        r_true = np.linalg.norm(pts[:, None, :] - axy[None, :, :], axis=2)
        d_true = np.hypot(r_true, h)
        theta = np.arctan2(h, r_true)
        mu = mean_rss(d_true, theta, env)
        sigma = shadowing_sigma(theta, env)
        z = substream(cfg.seed, TAG_RSS, trial).standard_normal((m, n_anchors, s))
        w = np.asarray(mu)[:, :, None] - np.asarray(sigma)[:, :, None] * z

        _, r_hat, _, boundary = mle_distance_batch(
            w.reshape(m * n_anchors, s), h, env, cfg.search)
        r_hat = r_hat.reshape(m, n_anchors)
        n_boundary += int(np.count_nonzero(boundary))

        xi_parts.append(np.linalg.norm(r_hat - r_true, axis=1))
        pts_parts.append(pts)
        r_hat_parts.append(r_hat)

    # Ranging stays per trial: its golden-section iteration count depends on
    # the whole batch. Each position fix depends only on its own row, so all
    # trials share one anchor set and one solver call with identical results.
    pts = np.concatenate(pts_parts)
    p, _, conv = multilaterate_batch(axy, np.concatenate(r_hat_parts), cfg.solver)
    return (np.concatenate(xi_parts), np.linalg.norm(p - pts, axis=1),
            int(np.count_nonzero(~conv)), n_boundary)


@dataclass(frozen=True)
class _PointSummary:
    value: float
    mean: float
    std: float
    median: float
    mean_position: float
    n_nonconverged: int
    n_boundary: int
    elapsed: float


def _point_worker(args) -> _PointSummary:
    cfg, value = args
    t0 = time.perf_counter()
    xi, pos, n_nonconverged, n_boundary = point_errors(cfg, value)
    std = float(np.std(xi, ddof=1)) if xi.size > 1 else 0.0
    return _PointSummary(
        value=float(value),
        mean=float(np.mean(xi)),
        std=std,
        median=float(np.median(xi)),
        mean_position=float(np.mean(pos)),
        n_nonconverged=n_nonconverged,
        n_boundary=n_boundary,
        elapsed=time.perf_counter() - t0,
    )


def _resolve_workers(threads: int) -> int:
    if threads < 0:
        raise ValueError("threads must be >= 0 (0 selects the CPU count)")
    return threads if threads > 0 else (os.cpu_count() or 1)


def _map_points(worker, args_list, threads: int):
    workers = _resolve_workers(threads)
    if workers == 1 or len(args_list) == 1:
        return [worker(a) for a in args_list]
    # Sweep points are the parallel unit; each derives its own substreams,
    # so the schedule cannot change any result.
    ctx = get_context("spawn")
    with ProcessPoolExecutor(max_workers=min(workers, len(args_list)),
                             mp_context=ctx) as pool:
        return list(pool.map(worker, args_list))


def _run_sweep(cfg: ExperimentConfig, threads: int) -> ExperimentResult:
    args = [(cfg, v) for v in cfg.sweep.values]
    summaries = _map_points(_point_worker, args, threads)
    n_nodes = cfg.node_count if cfg.sweep.variable == "altitude" else cfg.eval_azimuths
    return ExperimentResult(
        config=cfg,
        sweep_variable=cfg.sweep.variable,
        sweep_values=tuple(s.value for s in summaries),
        mean_error=tuple(s.mean for s in summaries),
        error_std=tuple(s.std for s in summaries),
        median_error=tuple(s.median for s in summaries),
        mean_position_error=tuple(s.mean_position for s in summaries),
        n_nonconverged=tuple(s.n_nonconverged for s in summaries),
        n_boundary=tuple(s.n_boundary for s in summaries),
        n_nodes=n_nodes,
        n_trials=cfg.trials,
        seed=cfg.seed,
        elapsed_s=tuple(s.elapsed for s in summaries),
    )


def _require_variable(cfg: ExperimentConfig, variable: str) -> None:
    if cfg.sweep.variable != variable:
        raise ValueError(f"config sweeps {cfg.sweep.variable!r}, "
                         f"expected {variable!r}")


def run_altitude_sweep(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Mean localization error of the disk population versus anchor altitude."""
    _require_variable(cfg, "altitude")
    return _run_sweep(cfg, threads)


def run_inter_distance_sweep(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Localization error of the evaluation ring versus triangle side length."""
    _require_variable(cfg, "inter_distance")
    return _run_sweep(cfg, threads)


def run_anchor_count_sweep(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Localization error of the evaluation ring versus number of anchors."""
    _require_variable(cfg, "anchor_count")
    return _run_sweep(cfg, threads)


def optimize_altitude(cfg: ExperimentConfig, threads: int = 1) -> AltitudeOptimum:
    """Altitude-grid argmin of the mean localization error.

    Ties resolve to the smallest altitude. theta_opt = atan(h_opt / r_bar)
    with r_bar the mean horizontal node distance from the centroid over the
    sampled population.
    """
    result = run_altitude_sweep(cfg, threads)
    errs = np.asarray(result.mean_error)
    idx = int(np.argmin(errs))  # first minimum = smallest altitude
    h_opt = result.sweep_values[idx]

    c = cfg.constellation.centroid
    acc = 0.0
    for trial in range(cfg.trials):
        pts = _trial_nodes(cfg, trial)
        acc += float(np.mean(np.hypot(pts[:, 0] - c.x, pts[:, 1] - c.y)))
    r_bar = acc / cfg.trials
    return AltitudeOptimum(h_opt=h_opt, error_at_opt=float(errs[idx]),
                           theta_opt=math.atan2(h_opt, r_bar), r_bar=r_bar,
                           result=result)


# ---------------------------------------------------------------------------
# Bound versus estimator
# ---------------------------------------------------------------------------


def _crlb_worker(args) -> CrlbPoint:
    cfg, r, h, i_r, i_h, repetitions = args
    env = cfg.environment
    geom = LinkGeometry(r=float(r), h=float(h))
    s = cfg.samples_per_anchor
    mu = mean_rss(geom.d, geom.theta, env)
    sigma = shadowing_sigma(geom.theta, env)
    z = substream(cfg.seed, TAG_RSS, i_r, i_h).standard_normal((repetitions, s))
    w = mu - sigma * z
    d_hat, _, _, boundary = mle_distance_batch(w, geom.h, env, cfg.search)
    return CrlbPoint(
        r=float(r),
        h=float(h),
        crlb_sigma=crlb_sigma(geom, env, n_samples=s),
        mle_sigma=float(np.std(d_hat, ddof=1)),
        mle_mean=float(np.mean(d_hat)),
        boundary_fraction=float(np.mean(boundary)),
        repetitions=int(repetitions),
    )


def run_crlb_comparison(cfg: ExperimentConfig, r_values,
                        repetitions: int = 10_000,
                        threads: int = 1) -> list[CrlbPoint]:
    """Closed-form ranging bound against the Monte Carlo estimator spread.

    For every (r, h) pair — h from the config's altitude grid — draws
    `repetitions` independent sample sets for a single anchor-node link and
    compares the standard deviation of the distance estimates against the
    bound at the true geometry.
    """
    _require_variable(cfg, "altitude")
    if repetitions < 2:
        raise ValueError("repetitions must be >= 2")
    rs = [float(r) for r in r_values]
    if not rs or any(r <= 0.0 for r in rs):
        raise ValueError("r_values must be nonempty and positive")
    args = [(cfg, r, h, i_r, i_h, repetitions)
            for i_r, r in enumerate(rs)
            for i_h, h in enumerate(cfg.sweep.values)]
    return _map_points(_crlb_worker, args, threads)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _jsonable(obj):
    """JSON-safe copy: dataclass-free, tuples to lists, non-finite to repr."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _open_for_write(path: Path):
    try:
        return path.open("w", encoding="utf-8", newline="")
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


def write_results(result: ExperimentResult, path) -> None:
    """Write one CSV row per sweep point plus a JSON metadata sidecar.

    The sidecar (<stem>.meta.json next to the CSV) records every resolved
    config parameter, the library version, and per-point diagnostics.
    """
    from . import __version__

    path = Path(path)
    with _open_for_write(path) as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for i, v in enumerate(result.sweep_values):
            writer.writerow([repr(float(v)),
                             repr(float(result.mean_error[i])),
                             repr(float(result.error_std[i])),
                             repr(float(result.mean_position_error[i])),
                             result.n_nodes, result.n_trials, result.seed])

    meta = {
        "library": {"name": "uavloc", "version": __version__},
        "config": _jsonable(asdict(result.config)),
        "sweep_variable": result.sweep_variable,
        "per_point": _jsonable({
            "sweep_values": result.sweep_values,
            "median_error_m": result.median_error,
            "n_nonconverged": result.n_nonconverged,
            "n_boundary_estimates": result.n_boundary,
            "elapsed_s": result.elapsed_s,
        }),
    }
    sidecar = path.with_suffix(".meta.json")
    with _open_for_write(sidecar) as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")


def write_crlb_table(points: list[CrlbPoint], seed: int, path) -> None:
    """Write the bound-versus-estimator table as CSV."""
    path = Path(path)
    with _open_for_write(path) as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(CRLB_CSV_HEADER.split(","))
        for pt in points:
            writer.writerow([repr(pt.r), repr(pt.h), repr(pt.crlb_sigma),
                             repr(pt.mle_sigma), repr(pt.mle_mean),
                             repr(pt.boundary_fraction), pt.repetitions, seed])


def read_results_csv(path) -> dict[str, np.ndarray]:
    """Parse a sweep-result CSV back into column arrays (round-trip helper)."""
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    header = rows[0]
    if ",".join(header) != CSV_HEADER:
        raise ValueError(f"unexpected CSV header in {path}: {rows[0]!r}")
    cols = {name: [] for name in header}
    for row in rows[1:]:
        for name, cell in zip(header, row):
            cols[name].append(float(cell))
    return {name: np.asarray(vals) for name, vals in cols.items()}
