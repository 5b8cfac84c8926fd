"""Position fixes from per-anchor horizontal range estimates.

The objective is the sum of squared differences between candidate-to-anchor
planar distances and the estimated ranges. It is minimized with a damped
Gauss-Newton iteration started at the anchor centroid. A row that leaves
the descent without accepting a step keeps its start point (see
`multilaterate_batch`).

The descent holds its working arrays anchor-major: for N anchors and a
working set of W rows (see `_lm_descend`), offsets are (2, N, W) and
distances and residuals (N, W), so every element-wise step runs along
contiguous rows of W values. The order of each sum over anchors is part of
the results, and is fixed:

- The normal equations add the anchor terms in sequence, anchor 0 first.
  `.sum(axis=0)` of an (N, W) array does so for W >= 2, but numpy sums an
  (N, 1) array pairwise, which changes the order from N = 8 on. So a
  working set of one row carries it as two identical copies.
- The objective is numpy's `.sum(axis=1)` of a C-contiguous (W, N) array of
  squared residuals: sequential below 8 anchors, pairwise from 8 on.

The tests hold the descent bit for bit equal to a reference loop on
row-major (L, N, 2) arrays that sums with `np.einsum`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .geometry import MAX_LENGTH_M, NodePosition, anchors_xy

_DIST_FLOOR = 1e-12  # keeps residual directions defined on top of an anchor
_DAMPING_MIN = 1e-12
_DAMPING_MAX = 1e12
#: Most rows in the descent's working set. It bounds the working arrays
#: however many rows a caller passes, and is refilled at half this size.
#: Measured on a 2-vCPU Xeon, median time of `multilaterate_batch` on the
#: 60,000 rows of a 60-altitude urban study with 3 anchors, per size: 1024:
#: 376, 2048: 305, 4096: 224, 8192: 250 and 16384: 256 ms (444 ms at 4096
#: when each block of rows ran until its slowest row finished).
_DESCENT_ROWS = 4096


class DegenerateGeometryError(ValueError):
    """Anchor projections do not span the plane (collinear or coincident)."""


@dataclass(frozen=True)
class SolverConfig:
    """Damped Gauss-Newton settings for `multilaterate`.

    A row leaves the descent when its damped step is shorter than
    `step_tol` (converged), when its damping passes the cap, or after
    `max_iter` steps; one that never accepts a step keeps its start point.
    """

    max_iter: int = 100
    step_tol: float = 1e-4
    damping0: float = 1e-3

    def __post_init__(self) -> None:
        if not (isinstance(self.max_iter, Integral) and self.max_iter >= 1):
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if not 0.0 < self.step_tol <= MAX_LENGTH_M:
            raise ValueError(f"step_tol must be finite, positive and <= {MAX_LENGTH_M:g} m")
        if not (math.isfinite(self.damping0) and self.damping0 > 0.0):
            raise ValueError("damping0 must be finite and positive")


@dataclass(frozen=True)
class PositionFix:
    """Estimated planar position with the objective value at the optimum."""

    x_hat: float
    y_hat: float
    residual: float
    converged: bool


def position_error(fix: PositionFix, truth: NodePosition) -> float:
    """Planar distance between the estimated and the true node position."""
    return math.hypot(fix.x_hat - truth.x, fix.y_hat - truth.y)


def _no_lone_row(rows: np.ndarray) -> np.ndarray:
    """`rows`, with a single row carried as two copies of itself.

    The copies take the same path, so their write-backs agree; with two or
    more rows `.sum(axis=0)` adds the anchors in sequence.
    """
    return rows if rows.size != 1 else np.repeat(rows, 2)


def _residuals(p: np.ndarray, anchors: np.ndarray, r: np.ndarray):
    """Offsets, distances, residuals and objectives at positions p (2, L).

    anchors is the C-contiguous (2, N, 1) transpose of axy, so that the
    offsets (2, N, L) come out C-contiguous too. Distances and residuals
    against the ranges r are (N, L), objectives (L,).
    """
    d = p[:, None, :] - anchors
    dist = np.sqrt(d[0] * d[0] + d[1] * d[1])
    np.maximum(dist, _DIST_FLOOR, out=dist)
    err = dist - r
    # Summed as rows of a C-contiguous (L, N) array: the objective's order.
    sq = np.empty(err.shape[::-1])
    np.square(err.T, out=sq)
    return d, dist, err, sq.sum(axis=1)


def _lm_descend(axy: np.ndarray, rhat: np.ndarray, p0: np.ndarray,
                solver: SolverConfig):
    """Batched damped Gauss-Newton descent.

    axy is (N, 2); rhat is (L, N) and p0 broadcasts to (L, 2). Returns
    position, objective and convergence flags. Accepted steps strictly
    decrease the objective.

    Every quantity a row's iteration computes (normal equations, step,
    accept test, damping, step count) depends on that row alone. So a row
    that converges, passes the damping cap or has taken its own `max_iter`
    steps is written back once and dropped from the working set, and the
    rows left take bit-for-bit the path they would take alone. Rows join in
    order, the first `_DESCENT_ROWS` at once and the others whenever leaving
    rows bring the set to half that size, so numpy passes stay long until
    the last rows finish. The anchor sums keep the order the module
    docstring fixes; a working set of one row is carried as two identical
    copies. A zero-row batch does no iteration.
    """
    L, N = rhat.shape
    p0 = np.broadcast_to(p0, (L, 2))
    p_out = np.empty((L, 2))
    obj_out = np.empty(L)
    converged = np.zeros(L, dtype=bool)

    anchors = axy.T[:, :, None].copy()
    rows, steps = np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    lam, p, r = np.empty(0), np.empty((2, 0)), np.empty((N, 0))
    d, dist, err, obj = _residuals(p, anchors, r)
    joined = 0
    while True:
        if joined < L and 2 * rows.size <= _DESCENT_ROWS:
            new = np.arange(joined, min(L, joined + _DESCENT_ROWS - rows.size))
            joined = new[-1] + 1
            new = _no_lone_row(new) if rows.size == 0 else new
            p_new, r_new = p0[new].T, rhat[new].T
            fresh = (new, p_new, *_residuals(p_new, anchors, r_new),
                     np.full(new.size, solver.damping0), r_new, np.zeros_like(new))
            rows, p, d, dist, err, obj, lam, r, steps = (
                np.concatenate(pair, axis=-1)
                for pair in zip((rows, p, d, dist, err, obj, lam, r, steps), fresh))
        if rows.size == 0:
            break
        ux, uy = d / dist
        a11 = (ux * ux).sum(axis=0) + lam
        a22 = (uy * uy).sum(axis=0) + lam
        a12 = (ux * uy).sum(axis=0)
        gx = (ux * err).sum(axis=0)
        gy = (uy * err).sum(axis=0)
        det = np.maximum(a11 * a22 - a12 ** 2, 1e-300)
        step = -np.array([a22 * gx - a12 * gy, a11 * gy - a12 * gx]) / det
        step_norm = np.hypot(step[0], step[1])

        p_new = p + step
        d_new, dist_new, err_new, obj_new = _residuals(p_new, anchors, r)

        accept = obj_new < obj
        for a, b in ((p, p_new), (d, d_new), (dist, dist_new), (err, err_new), (obj, obj_new)):
            np.copyto(a, b, where=accept)
        lam = np.where(accept, np.maximum(lam / 3.0, _DAMPING_MIN), lam * 10.0)

        # A vanishing damped step means a stationary point, accepted or not.
        done = step_norm < solver.step_tol
        steps += 1
        leave = done | (lam > _DAMPING_MAX) | (steps == solver.max_iter)
        if leave.any():
            gone = rows[leave]
            p_out[gone] = p[:, leave].T
            obj_out[gone] = obj[leave]
            converged[gone] = done[leave]
            keep = np.flatnonzero(~leave)
            keep = _no_lone_row(keep) if joined == L else keep
            rows, p, d, dist, err, obj, lam, r, steps = (
                a.take(keep, axis=-1) for a in (rows, p, d, dist, err, obj, lam, r, steps))
    return p_out, obj_out, converged


def _check_geometry(axy: np.ndarray) -> None:
    if axy.shape[0] < 3:
        raise ValueError("multilateration needs at least 3 anchors")
    centered = axy - axy.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    scale = max(svals[0], 1.0)
    if svals[-1] <= 1e-9 * scale:
        raise DegenerateGeometryError("anchor projections are collinear")


def multilaterate(anchors, r_hats, solver: SolverConfig | None = None) -> PositionFix:
    """Least-squares position fix from anchors and estimated planar ranges.

    Solves the ranges as a one-row `multilaterate_batch`, which validates them.
    """
    axy = anchors_xy(anchors)
    rhat = np.asarray(r_hats, dtype=float)
    if rhat.ndim != 1:
        raise ValueError("r_hats must be 1-D with one entry per anchor")
    p, obj, conv = multilaterate_batch(axy, rhat[None, :], solver)
    return PositionFix(x_hat=float(p[0, 0]), y_hat=float(p[0, 1]),
                       residual=float(obj[0]), converged=bool(conv[0]))


def multilaterate_batch(axy: np.ndarray, rhat: np.ndarray,
                        solver: SolverConfig | None = None):
    """Position fixes for many range vectors against one shared anchor set.

    Starts the damped Gauss-Newton iteration at the anchor-projection
    centroid. Returns (positions (L, 2), residuals (L,), converged (L,)).
    A row whose steps are all rejected until it leaves returns the centroid,
    its objective there and converged = False. As the damping grows the
    damped step tends to -g/lambda, a descent direction, so that takes a
    `max_iter` too small for the damping to grow, or a gradient so large
    that the damped step is still `step_tol` long at the damping cap. A
    centroid at a stationary point converges at once.
    Ranges must be finite and >= 0, one column per anchor.

    One descent takes every row: at most `_DESCENT_ROWS` rows work at a
    time, refilled from those waiting as others leave. Each row's descent
    depends on that row alone, so the result does not depend on the
    working-set size, nor on which other rows share the call.
    """
    solver = solver or SolverConfig()
    _check_geometry(axy)
    rhat = np.asarray(rhat, dtype=float)
    if rhat.ndim != 2 or rhat.shape[1] != axy.shape[0]:
        raise ValueError("ranges must be (L, N) with one column per anchor")
    if np.any(rhat < 0.0) or not np.all(np.isfinite(rhat)):
        raise ValueError("estimated ranges must be finite and >= 0")
    if rhat.shape[0] == 0:
        return np.empty((0, 2)), np.empty(0), np.empty(0, dtype=bool)
    return _lm_descend(axy, rhat, axy.mean(axis=0), solver)
