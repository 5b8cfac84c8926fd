"""Monte Carlo studies: altitude, anchor-spacing and anchor-count sweeps
through one runner, `run_sweep`, the bound-versus-estimator comparison, and
the altitude optimizer.

Randomness is addressed, not sequential: every (trial) block of node
positions and shadowing draws comes from its own counter-derived stream, so
a sweep point can be computed anywhere, in any order, on any number of
workers, and still produce bitwise-identical results. Sweep points reuse the
per-trial streams, which makes curves over the sweep variable common-random-
number smooth wherever array shapes allow it. The anchors, the node disk
and the evaluation ring are all centred on the origin.

The parallel unit is a slice of sweep points that share one anchor layout.
`_sweep_slices` alone cuts a sweep into slices: an altitude sweep into one
per worker, or more under a memory bound, any other into one per point.
Slices are submitted largest first. Each (trial, point) pair of a slice is
one ranging batch. Consecutive batches are packed into ranging calls of up
to `_PACK_ROWS` rows, five 3000-link altitudes per call in a 1000-node,
3-anchor altitude sweep; each batch keeps its own golden-section iteration
count, and rows at one altitude share the search points they have in
common. All of the slice's nodes are fixed in one solver call. Each range
depends only on its own batch and each fix only on its own row, so neither
the packing, the slicing, the order of the slices nor the worker count
changes any result bit.

The bound-versus-estimator table's parallel unit is one altitude: its
cells, one per r, are ranged together, one batch each, in calls of up to
`_CRLB_ROWS` rows; a larger cell ranges alone. Each cell draws from its
own (r, h) stream, so the grouping changes no bit either.

Parallel slices run in worker processes forked from a fork server (fresh
interpreters where the platform has none, as on Windows). The first parallel
run starts the server, which imports numpy and uavloc once, and a pool of
workers. Both live as long as the calling process: later parallel runs with
the same `threads` reuse the workers, and a run with another `threads`, or
one that finds a worker dead, replaces the pool. Only a process that makes
several parallel runs gains from this; the `uavloc` command makes one. Each
idle worker keeps its memory until exit: about 41 MB after a 50-trial count
sweep of 3-30 anchors. Workers still import the calling script, which must
therefore start a parallel run under `if __name__ == "__main__":`.
"""

from __future__ import annotations

import csv
import json
import math
import os
import platform
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field, replace
from multiprocessing import get_all_start_methods, get_context
from numbers import Integral
from pathlib import Path

import numpy as np

from ._streams import TAG_NODES, TAG_RSS, substream
from .channel import (
    MIN_ALTITUDE_M,
    EnvironmentParams,
    LinkGeometry,
    ENVIRONMENTS,
    _rss_moments,
    environment_preset,
)
from .estimation import SearchConfig, crlb_sigma, mle_distance_batch
from .geometry import (MAX_ANCHORS, MAX_LENGTH_M, ConstellationSpec, build_constellation,
                       sample_disk_xy)
from .localization import SolverConfig, multilaterate_batch

SWEEP_VARIABLES = ("altitude", "inter_distance", "anchor_count")

#: Per sweep variable, the config keys ("section.key" below the top level)
#: its study does not read: the other node population and the constellation
#: field the sweep sets.
UNREAD_KEYS = {
    "altitude": {"eval_distance", "eval_azimuths", "constellation.altitude"},
    "inter_distance": {"node_count", "deployment_radius", "constellation.base_side"},
    "anchor_count": {"node_count", "deployment_radius", "constellation.n_anchors"},
}
#: The config keys ("section" for all its keys) the crlb table does not
#: read: the node populations, the constellation and the solver.
CRLB_UNREAD_KEYS = {"node_count", "deployment_radius", "eval_distance", "eval_azimuths",
                    "constellation", "solver"}

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
        if self.variable != "anchor_count" and vals[-1] > MAX_LENGTH_M:
            raise ValueError(f"sweep values must be <= {MAX_LENGTH_M:g} m")
        if self.variable == "inter_distance" and vals[0] <= 0.0:
            raise ValueError("inter-distance grid values must be > 0")
        if self.variable == "anchor_count":
            for v in vals:
                if v != int(v) or not 3 <= v <= MAX_ANCHORS or int(v) % 3 != 0:
                    raise ValueError("anchor_count grid values must be positive "
                                     f"multiples of 3 up to {MAX_ANCHORS}")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved study definition.

    `environment` may be given as a preset name; it is normalized to the
    parameter set and the name is kept for reporting. Altitude sweeps draw
    `node_count` nodes uniformly in the deployment disk each trial; the
    spacing and count sweeps instead evaluate a ring of `eval_azimuths`
    nodes at `eval_distance` from the origin. Every anchor altitude lies in
    [h_min, search.d_max).
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
        for name in ("node_count", "trials", "samples_per_anchor", "eval_azimuths"):
            count = getattr(self, name)
            if not (isinstance(count, Integral) and not isinstance(count, bool) and count >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {count!r}")
        if not 0.0 < self.deployment_radius <= MAX_LENGTH_M:
            raise ValueError(f"deployment_radius must be finite, > 0 and <= {MAX_LENGTH_M:g} m")
        if not isinstance(self.seed, Integral) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not 0 <= self.seed < 2**128:
            raise ValueError("seed must be >= 0 and < 2**128")
        if not 0.0 < self.eval_distance <= MAX_LENGTH_M:
            raise ValueError(f"eval_distance must be finite, > 0 and <= {MAX_LENGTH_M:g} m")
        bottom = _constellation_at(self, self.sweep.values[0]).altitude
        if bottom < MIN_ALTITUDE_M:
            raise ValueError(f"anchor altitude {bottom:g} m is below h_min = {MIN_ALTITUDE_M:g} m")
        top = _constellation_at(self, self.sweep.values[-1]).altitude
        if top >= self.search.d_max:
            raise ValueError(f"search.d_max = {self.search.d_max:g} m must exceed the "
                             f"largest anchor altitude, {top:g} m")


@dataclass(frozen=True)
class ExperimentResult:
    """Per-sweep-point error summaries plus the config that produced them.

    `elapsed_s` (each point's equal share of its slice's seconds) and
    `workers` (the worker processes the sweep used, 1 when it ran in the
    calling process) are run bookkeeping and excluded from equality; all
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
    workers: int = field(compare=False, default=1)


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
    if cfg.sweep.variable == "altitude":
        rng = substream(cfg.seed, TAG_NODES, trial)
        return sample_disk_xy(cfg.node_count, cfg.deployment_radius, rng)
    # Spacing and count studies probe one representative range: a ring of
    # azimuths at eval_distance, the first bearing due east.
    phi = 2.0 * math.pi * np.arange(cfg.eval_azimuths) / cfg.eval_azimuths
    out = np.empty((cfg.eval_azimuths, 2))
    out[:, 0] = cfg.eval_distance * np.cos(phi)
    out[:, 1] = cfg.eval_distance * np.sin(phi)
    return out


#: Most links ranged in one call. Consecutive (trial, point) batches of a
#: slice are packed up to this many rows, so the per-call cost of the
#: golden-section steps is paid once per pack, not once per small batch, and
#: each shared search point is evaluated once for more rows; a larger batch
#: is ranged on its own. Replaying the 60 seed-3 altitude-urban batches of
#: 3000 rows on a 2-vCPU Xeon, ranging took, relative to 4096 rows (one batch
#: per call), 0.833 at 8192 rows (2 batches per call), 0.815 at 16384 (5),
#: 0.810 at 24576 (8) and 0.808 at 49152 (16), medians of 16 interleaved
#: rounds. Beyond 16384 the gain is within the spread, while the pack's
#: working arrays keep growing.
_PACK_ROWS = 16384


def _slice_errors(cfg: ExperimentConfig, values):
    """Per-node errors at sweep points that share the first one's anchor layout.

    Returns (xi, position_error, n_nonconverged, n_boundary) per value, xi
    being the norm of each node's per-anchor range errors. Shadowing draws
    depend on the trial only, and so do node positions and true ranges in
    an altitude sweep, so every point of the slice uses the same ones. A
    ring sweep scores the same ring in every trial, so its true ranges and
    each point's channel moments are computed once per slice.
    Each (trial, point) pair is one ranging batch; consecutive batches,
    trial by trial and point by point, are packed into calls of at most
    `_PACK_ROWS` rows, and only one pack's samples are held at a time. Every
    batch keeps its own golden-section iteration count, so its ranges equal
    ranging it alone. All points' fixes go through one solver call; each fix
    depends only on its own row, so the results equal one call per point.
    """
    env = cfg.environment
    axy = build_constellation(_constellation_at(cfg, values[0]))
    heights = [_constellation_at(cfg, v).altitude for v in values]
    n_anchors = axy.shape[0]
    s = cfg.samples_per_anchor
    trial_pts = [_trial_nodes(cfg, trial) for trial in range(cfg.trials)]
    m = trial_pts[0].shape[0]
    pts = np.concatenate(trial_pts)
    rows = m * n_anchors

    r_hat_all = np.empty((len(values), pts.shape[0], n_anchors))
    xi = np.empty((len(values), pts.shape[0]))
    n_boundary = [0] * len(values)
    pack = []  # (point, trial, samples, true ranges) per batch

    def range_pack():
        _, r_hat, _, boundary = mle_distance_batch(
            np.concatenate([w for _, _, w, _ in pack]), [heights[k] for k, _, _, _ in pack],
            env, cfg.search, offsets=np.arange(len(pack) + 1) * rows)
        # Both reductions run per row along the anchor axis, so they equal
        # one call per batch bit for bit.
        r_hat = r_hat.reshape(len(pack), m, n_anchors)
        errors = np.linalg.norm(r_hat - np.stack([r for *_, r in pack]), axis=2)
        pins = np.count_nonzero(boundary.reshape(len(pack), rows), axis=1)
        for i, (k, trial, _, _) in enumerate(pack):
            r_hat_all[k, trial * m:(trial + 1) * m] = r_hat[i]
            xi[k, trial * m:(trial + 1) * m] = errors[i]
            n_boundary[k] += int(pins[i])
        pack.clear()

    def true_ranges(trial):
        return np.linalg.norm(trial_pts[trial][:, None, :] - axy[None, :, :], axis=2)

    def moments(r_true, h):
        """Mean RSS and shadowing spread of each link, as (m, N, 1) arrays."""
        mu, sigma = _rss_moments(np.hypot(r_true, h), np.arctan2(h, r_true), env)
        return mu[:, :, None], sigma[:, :, None]

    ring = cfg.sweep.variable != "altitude"
    if ring:
        r_true = true_ranges(0)
        ring_moments = [moments(r_true, h) for h in heights]
    for trial in range(cfg.trials):
        if not ring:
            r_true = true_ranges(trial)
        z = substream(cfg.seed, TAG_RSS, trial).standard_normal((m, n_anchors, s))
        for k, h in enumerate(heights):
            if pack and (len(pack) + 1) * rows > _PACK_ROWS:
                range_pack()
            mu, sigma = ring_moments[k] if ring else moments(r_true, h)
            pack.append((k, trial, (mu - sigma * z).reshape(rows, s), r_true))
    range_pack()

    p, _, conv = multilaterate_batch(axy, r_hat_all.reshape(-1, n_anchors), cfg.solver)
    p, conv = p.reshape(len(values), -1, 2), conv.reshape(len(values), -1)
    return [(xi[k], np.linalg.norm(p[k] - pts, axis=1), int(np.count_nonzero(~conv[k])),
             n_boundary[k]) for k in range(len(values))]


def _slice_worker(args) -> tuple[list[tuple], float]:
    """One summary row per point of a slice, and the seconds the slice took.

    A row holds the mean, standard deviation and median of xi, the mean
    position error, the non-converged fixes and the boundary-pinned ranges.
    """
    t0 = time.perf_counter()
    summaries = [(float(np.mean(xi)), float(np.std(xi, ddof=1)) if xi.size > 1 else 0.0,
                  float(np.median(xi)), float(np.mean(pos)), n_nonconverged, n_boundary)
                 for xi, pos, n_nonconverged, n_boundary in _slice_errors(*args)]
    return summaries, time.perf_counter() - t0


class WorkerPoolError(RuntimeError):
    """A worker process died before returning its result."""


#: Most worker processes a caller may ask for. A larger `threads` is refused
#: before any pool exists; from 2**31 - 1 on, `ProcessPoolExecutor` itself
#: would raise OverflowError, as its call queue holds one task more than
#: there are workers and is sized by a C int.
MAX_THREADS = 1024


def _resolve_workers(threads: int) -> int:
    if not (isinstance(threads, Integral) and not isinstance(threads, bool)
            and 0 <= threads <= MAX_THREADS):
        raise ValueError(f"threads must be an integer in [0, {MAX_THREADS}] (0 selects the "
                         f"CPU count), got {threads!r}")
    return threads if threads > 0 else (os.cpu_count() or 1)


#: How pool workers start: forked from a fork server where the platform
#: has one, else as fresh interpreters.
_START_METHOD = "forkserver" if "forkserver" in get_all_start_methods() else "spawn"


def _pool_size(threads: int, tasks: int) -> int:
    """Worker processes `_map_points` uses for `tasks` tasks; 1 is in-process."""
    return min(_resolve_workers(threads), tasks)


#: This process's worker pool as (pid, workers, executor), or None. A child
#: forked from this process sees the pool under another pid and starts its own.
_pool = None
_pool_lock = threading.Lock()


def _map_points(worker, args_list, threads: int):
    global _pool
    if _pool_size(threads, len(args_list)) <= 1:
        return [worker(a) for a in args_list]
    # Each task derives its own substreams, so the schedule cannot change
    # any result. The fork server starts on the first parallel run, as a
    # fresh interpreter running no Python threads, and lives as long as the
    # calling process. It preloads this module, and so numpy and uavloc, but
    # not `__main__`: an unguarded script would run inside the server.
    # Python 3.11's server ignores the caller's runtime `sys.path` edits; if
    # uavloc is importable only through one, the preload fails silently and
    # each worker imports uavloc on its first task, which is still correct
    # and cheaper than a fresh interpreter. The pool holds up to `threads`
    # workers, each started when a task finds none idle, so a run with fewer
    # tasks reuses it. It serves every later run with the same `threads` and
    # stays, idle, until exit.
    pid, workers = os.getpid(), _resolve_workers(threads)
    while True:
        submitted = False
        try:
            # `map` submits every task before it returns, so a concurrent
            # run that replaces the pool waits for them in `shutdown`.
            with _pool_lock:
                fresh = _pool is None or _pool[:2] != (pid, workers)
                if fresh:
                    if _pool is not None and _pool[0] == pid:
                        _pool[2].shutdown()
                    ctx = get_context(_START_METHOD)
                    if _START_METHOD == "forkserver":
                        ctx.set_forkserver_preload([__name__])
                    _pool = (pid, workers,
                             ProcessPoolExecutor(max_workers=workers, mp_context=ctx))
                pool = _pool[2]
                results = pool.map(worker, args_list)
            submitted = True
            return list(results)
        except BrokenProcessPool as exc:
            with _pool_lock:
                if _pool is not None and _pool[2] is pool:
                    _pool = None
            pool.shutdown()
            if fresh or submitted:
                raise WorkerPoolError(
                    "a worker process died before returning its result. Workers are "
                    f"started with {_START_METHOD!r} and import the calling script as "
                    "a module, so a script that starts a parallel run must do so under "
                    "`if __name__ == \"__main__\":`") from exc
            # The kept pool refused the tasks at submission: a worker died
            # before this run, say killed while idle. The tasks are pure, so
            # they go once more to fresh workers. A task that kills its own
            # worker does so after submission, so the run raises.


#: Most range estimates (rows x anchors) one slice's shared fix holds, 8 MB.
_SLICE_RANGES = 1 << 20


def _sweep_slices(cfg: ExperimentConfig, workers: int) -> list[tuple[int, ...]]:
    """Indices of the sweep points, one tuple per `_slice_errors` call.

    `build_constellation` never reads the altitude, so only an altitude
    sweep's points share a layout. They are dealt round-robin into one slice
    per worker, or more so that none holds over `_SLICE_RANGES` range
    estimates unless one point does; any other point is a slice of its own.
    The slices come largest first, by range estimates, so that the pool
    does not end on its largest task; ties keep the order of their points.
    """
    values = cfg.sweep.values
    n = len(values)
    if cfg.sweep.variable != "altitude":
        slices = [(i,) for i in range(n)]
    else:
        per_point = cfg.trials * cfg.node_count * cfg.constellation.n_anchors
        step = max(1, _SLICE_RANGES // per_point)
        k = min(n, max(workers, math.ceil(n / step)))
        slices = [tuple(range(j, n, k)) for j in range(k)]
    # Every point of a sweep ranges the same trials and nodes, so a slice's
    # range estimates scale with the anchors summed over its points.
    return sorted(slices, reverse=True,
                  key=lambda idx: sum(_constellation_at(cfg, values[i]).n_anchors for i in idx))


def run_sweep(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Error summaries at every point of the sweep the config names.

    Altitude sweeps score the disk population; spacing and count sweeps
    score the evaluation ring.
    """
    values = cfg.sweep.values
    slices = _sweep_slices(cfg, _resolve_workers(threads))
    parts = _map_points(_slice_worker,
                        [(cfg, tuple(values[i] for i in idx)) for idx in slices], threads)
    # Each point's elapsed time is an equal share of its slice's seconds.
    summaries, elapsed = [None] * len(values), [0.0] * len(values)
    for idx, (part, seconds) in zip(slices, parts):
        for i, summary in zip(idx, part):
            summaries[i], elapsed[i] = summary, seconds / len(idx)
    mean, std, median, mean_position, n_nonconverged, n_boundary = zip(*summaries)
    return ExperimentResult(
        config=cfg,
        sweep_variable=cfg.sweep.variable,
        sweep_values=values,
        mean_error=mean,
        error_std=std,
        median_error=median,
        mean_position_error=mean_position,
        n_nonconverged=n_nonconverged,
        n_boundary=n_boundary,
        n_nodes=cfg.node_count if cfg.sweep.variable == "altitude" else cfg.eval_azimuths,
        n_trials=cfg.trials,
        seed=cfg.seed,
        elapsed_s=tuple(elapsed),
        workers=_pool_size(threads, len(slices)),
    )


def _require_altitude(cfg: ExperimentConfig) -> None:
    if cfg.sweep.variable != "altitude":
        raise ValueError(f"config sweeps {cfg.sweep.variable!r}, expected 'altitude'")


def optimize_altitude(cfg: ExperimentConfig, threads: int = 1) -> AltitudeOptimum:
    """Altitude-grid argmin of the mean localization error.

    Ties resolve to the smallest altitude. theta_opt = atan(h_opt / r_bar)
    with r_bar the mean horizontal node distance from the constellation's
    centre, the origin, over the sampled population.
    """
    _require_altitude(cfg)
    result = run_sweep(cfg, threads)
    errs = np.asarray(result.mean_error)
    idx = int(np.argmin(errs))  # first minimum = smallest altitude
    h_opt = result.sweep_values[idx]

    acc = 0.0
    for trial in range(cfg.trials):
        pts = _trial_nodes(cfg, trial)
        acc += float(np.mean(np.hypot(pts[:, 0], pts[:, 1])))
    r_bar = acc / cfg.trials
    return AltitudeOptimum(h_opt=h_opt, error_at_opt=float(errs[idx]),
                           theta_opt=math.atan2(h_opt, r_bar), r_bar=r_bar,
                           result=result)


# ---------------------------------------------------------------------------
# Bound versus estimator
# ---------------------------------------------------------------------------


#: Most rows in one ranging call of the crlb table: an altitude's cells are
#: packed, in r order, into calls of at most this many rows. Rows at one
#: altitude share golden-section search points, so packing pays on small
#: cells, but a call's working arrays outgrow the caches on large ones. One
#: call of three cells (r = 250, 500 and 1000 m, urban, 5 samples) took,
#: relative to one call per cell on a 2-vCPU Xeon, at h = 100, 500 and
#: 2000 m: 0.937, 0.913 and 0.875 at 10^4 repetitions (crlb-table's
#: 3 x 10^4-row calls); 0.997, 1.020 and 0.987 at 2 x 10^4; and 1.23, 1.34
#: and 1.32 at 10^5 (medians of 5-7 interleaved rounds). This cap is not
#: `_PACK_ROWS`, which would split crlb-table's calls.
_CRLB_ROWS = 32768


def _crlb_worker(args) -> list[CrlbPoint]:
    """The table's cells at altitude `h`, in the order of `rs`, ranged in
    calls of at most `_CRLB_ROWS` rows, one batch per cell; a larger cell
    ranges alone. `-sigma * z + mu` rounds as `mu - sigma * z`."""
    cfg, h, i_h, rs, repetitions = args
    env = cfg.environment
    s = cfg.samples_per_anchor
    per_call = max(1, _CRLB_ROWS // repetitions)
    points = []
    for first in range(0, len(rs), per_call):
        geoms = [LinkGeometry(r=r, h=h) for r in rs[first:first + per_call]]
        mus, sigmas = _rss_moments(np.array([g.d for g in geoms]),
                                   np.array([g.theta for g in geoms]), env)
        w = np.empty((len(geoms), repetitions, s))
        for i_r, (cell, mu, sigma) in enumerate(zip(w, mus, sigmas), start=first):
            substream(cfg.seed, TAG_RSS, i_r, i_h).standard_normal(out=cell)
            cell *= -sigma
            cell += mu
        d_hat, _, _, boundary = mle_distance_batch(
            w.reshape(-1, s), h, env, cfg.search,
            offsets=np.arange(len(geoms) + 1) * repetitions)
        d_hat, boundary = d_hat.reshape(len(geoms), -1), boundary.reshape(len(geoms), -1)
        points += [CrlbPoint(
            r=geom.r,
            h=h,
            crlb_sigma=crlb_sigma(geom, env, n_samples=s),
            mle_sigma=float(np.std(d, ddof=1)),
            mle_mean=float(np.mean(d)),
            boundary_fraction=float(np.mean(pins)),
            repetitions=int(repetitions),
        ) for geom, d, pins in zip(geoms, d_hat, boundary)]
    return points


def run_crlb_comparison(cfg: ExperimentConfig, r_values,
                        repetitions: int = 10_000,
                        threads: int = 1) -> list[CrlbPoint]:
    """Closed-form ranging bound against the Monte Carlo estimator spread.

    For every (r, h) pair — h from the config's altitude grid — draws
    `repetitions` independent sample sets for a single anchor-node link and
    compares the standard deviation of the distance estimates against the
    bound at the true geometry. Points come r-major: every h for the first
    r, then for the next.

    The parallel unit is one altitude: its cells are ranged together, one
    batch each, in calls of at most `_CRLB_ROWS` rows. Each cell owns its
    draws and ranges as it would alone, so neither the grouping nor the
    worker count changes a bit.
    """
    _require_altitude(cfg)
    if not (isinstance(repetitions, Integral) and repetitions >= 2):
        raise ValueError(f"repetitions must be an integer >= 2, got {repetitions!r}")
    rs = [float(r) for r in r_values]
    if not rs or not all(0.0 < r <= MAX_LENGTH_M for r in rs):
        raise ValueError(f"r_values must be nonempty, finite, positive and <= {MAX_LENGTH_M:g} m")
    by_h = _map_points(_crlb_worker, [(cfg, h, i_h, rs, repetitions)
                                      for i_h, h in enumerate(cfg.sweep.values)], threads)
    return [cells[i_r] for i_r in range(len(rs)) for cells in by_h]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _open_for_write(path: Path):
    try:
        return path.open("w", encoding="utf-8", newline="")
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


def _write_csv(path: Path, header: str, rows) -> None:
    """Write rows of numbers under `header`: integers as they are, any other
    value as the repr of a float. A non-finite value raises ValueError before
    the file is opened."""
    cells = [[v if isinstance(v, Integral) else float(v) for v in row] for row in rows]
    if not all(math.isfinite(v) for row in cells for v in row if isinstance(v, float)):
        raise ValueError(f"cannot write a non-finite value to {path}")
    with _open_for_write(path) as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header.split(","))
        writer.writerows(cells)


def _write_with_sidecar(path, header: str, rows, config: ExperimentConfig, unread,
                        workers: int, **blocks) -> None:
    """Write the CSV and its <stem>.meta.json sidecar.

    The sidecar holds the library version, `config`: every resolved config
    parameter but the `unread` keys ("section.key", or "section" for all
    its keys), `runtime`: the Python and numpy versions, the CPU count, the
    worker processes the study used and how they were started (null when
    it ran in the calling process), and `blocks`. A non-finite value raises
    ValueError before either file is written.
    """
    from . import __version__

    resolved = asdict(config)
    for key in unread:
        section, _, name = key.rpartition(".")
        del (resolved[section] if section else resolved)[name]
    meta = {
        "library": {"name": "uavloc", "version": __version__},
        "config": resolved,
        "runtime": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "workers": workers,
            "start_method": _START_METHOD if workers > 1 else None,
        },
        **blocks,
    }
    text = json.dumps(meta, indent=2, sort_keys=True, allow_nan=False)
    path = Path(path)
    _write_csv(path, header, rows)
    with _open_for_write(path.with_suffix(".meta.json")) as f:
        f.write(text + "\n")


def write_results(result: ExperimentResult, path) -> None:
    """Write one CSV row per sweep point plus a JSON metadata sidecar.

    The sidecar (see `_write_with_sidecar`) leaves out the sweep variable's
    `UNREAD_KEYS` and adds the variable and per-point diagnostics.
    `per_point.elapsed_s` has one entry per point, an equal share of the
    seconds its slice's worker task took, so the entries sum to the
    workers' busy time. A non-finite value raises ValueError before either
    file is written.
    """
    _write_with_sidecar(path, CSV_HEADER, [
        (v, mean, std, pos, result.n_nodes, result.n_trials, result.seed)
        for v, mean, std, pos in zip(result.sweep_values, result.mean_error,
                                     result.error_std, result.mean_position_error)],
        result.config, UNREAD_KEYS[result.sweep_variable], result.workers,
        sweep_variable=result.sweep_variable,
        per_point={
            "sweep_values": result.sweep_values,
            "median_error_m": result.median_error,
            "n_nonconverged": result.n_nonconverged,
            "n_boundary_estimates": result.n_boundary,
            "elapsed_s": result.elapsed_s,
        })


def write_crlb_table(points: list[CrlbPoint], cfg: ExperimentConfig, path,
                     threads: int = 1) -> None:
    """Write the bound-versus-estimator table as CSV plus a JSON sidecar.

    The sidecar (see `_write_with_sidecar`) leaves out `CRLB_UNREAD_KEYS`
    and counts workers as `run_crlb_comparison` did at `threads`, with one
    task per altitude. A non-finite value raises ValueError before either
    file is written.
    """
    _write_with_sidecar(path, CRLB_CSV_HEADER, [
        (pt.r, pt.h, pt.crlb_sigma, pt.mle_sigma, pt.mle_mean, pt.boundary_fraction,
         pt.repetitions, cfg.seed) for pt in points],
        cfg, CRLB_UNREAD_KEYS, _pool_size(threads, len({pt.h for pt in points})))


def read_results_csv(path) -> dict[str, np.ndarray]:
    """Parse a sweep-result CSV back into column arrays; counts and seed as ints."""
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    header = rows[0] if rows else []
    if ",".join(header) != CSV_HEADER:
        raise ValueError(f"unexpected CSV header in {path}: {header!r}")
    cols = {name: [] for name in header}
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ValueError(f"{path}, line {line}: {len(row)} fields, expected {len(header)}")
        for name, cell in zip(header, row):
            parse = int if name in ("n_nodes", "n_trials", "seed") else float
            try:
                cols[name].append(parse(cell))
            except ValueError:
                raise ValueError(f"{path}, line {line}, column {name}: "
                                 f"{cell!r} is not a number") from None
    return {name: np.asarray(vals) for name, vals in cols.items()}
