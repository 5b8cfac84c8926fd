"""Position fixes from per-anchor horizontal range estimates.

The objective is the sum of squared differences between candidate-to-anchor
planar distances and the estimated ranges. It is minimized with a damped
Gauss-Newton iteration started at the anchor centroid; a coarse grid restart
covers the rare case where damping cannot find a descent direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import NodePosition, anchors_xy

_DIST_FLOOR = 1e-12  # keeps residual directions defined on top of an anchor
_DAMPING_MIN = 1e-12
_DAMPING_MAX = 1e12
#: Rows per damped Gauss-Newton descent. Blocks bound the working arrays
#: however many rows a caller passes; within a block, iterations that only a
#: few slow rows still need are paid once for all of them.
_DESCENT_ROWS = 4096


class DegenerateGeometryError(ValueError):
    """Anchor projections do not span the plane (collinear or coincident)."""


@dataclass(frozen=True)
class SolverConfig:
    """Damped Gauss-Newton settings for `multilaterate`.

    `grid_radius` bounds the fallback search square around the anchor
    centroid; when None it is derived from the anchor spread and the ranges.
    The grid pitch is grid_radius / 50.
    """

    max_iter: int = 100
    step_tol: float = 1e-4
    damping0: float = 1e-3
    grid_radius: float | None = None

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not (math.isfinite(self.step_tol) and self.step_tol > 0.0):
            raise ValueError("step_tol must be finite and positive")
        if not (math.isfinite(self.damping0) and self.damping0 > 0.0):
            raise ValueError("damping0 must be finite and positive")
        if self.grid_radius is not None and not (
                math.isfinite(self.grid_radius) and self.grid_radius > 0.0):
            raise ValueError("grid_radius must be finite and positive")


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


def _objective(p: np.ndarray, axy: np.ndarray, rhat: np.ndarray) -> np.ndarray:
    """Sum of squared range residuals; p is (..., 2)."""
    dist = np.linalg.norm(p[..., None, :] - axy, axis=-1)
    return ((dist - rhat) ** 2).sum(axis=-1)


def _lm_descend(axy: np.ndarray, rhat: np.ndarray, p0: np.ndarray,
                solver: SolverConfig):
    """Batched damped Gauss-Newton descent.

    axy is (N, 2); rhat and p0 are (L, N) and (L, 2). Returns position,
    objective, convergence flags and whether any step was ever accepted.
    Accepted steps strictly decrease the objective.

    Every quantity a row's iteration computes (normal equations, step,
    accept test, damping) depends on that row alone. So a row that
    converges or passes the damping cap is written back once and dropped
    from the working arrays, and the rows left take bit-for-bit the path
    they would take in the full batch; only the work shrinks. A zero-row
    batch does no iteration.
    """
    L = p0.shape[0]
    p_out = np.empty_like(p0)
    obj_out = np.empty(L)
    converged = np.zeros(L, dtype=bool)
    descended = np.zeros(L, dtype=bool)

    rows = np.arange(L)
    p = p0.copy()
    lam = np.full(L, solver.damping0)
    diff = p[:, None, :] - axy[None, :, :]
    dist = np.maximum(np.linalg.norm(diff, axis=2), _DIST_FLOOR)
    err = dist - rhat
    obj = (err ** 2).sum(axis=1)

    for _ in range(solver.max_iter):
        if rows.size == 0:
            break
        u = diff / dist[:, :, None]
        jtj = np.einsum("lni,lnj->lij", u, u)
        g = np.einsum("lni,ln->li", u, err)
        a11 = jtj[:, 0, 0] + lam
        a22 = jtj[:, 1, 1] + lam
        a12 = jtj[:, 0, 1]
        det = np.maximum(a11 * a22 - a12 ** 2, 1e-300)
        dx = -(a22 * g[:, 0] - a12 * g[:, 1]) / det
        dy = -(a11 * g[:, 1] - a12 * g[:, 0]) / det
        step = np.stack([dx, dy], axis=1)
        step_norm = np.hypot(dx, dy)

        p_new = p + step
        diff_new = p_new[:, None, :] - axy[None, :, :]
        dist_new = np.maximum(np.linalg.norm(diff_new, axis=2), _DIST_FLOOR)
        err_new = dist_new - rhat
        obj_new = (err_new ** 2).sum(axis=1)

        accept = obj_new < obj
        np.copyto(p, p_new, where=accept[:, None])
        np.copyto(diff, diff_new, where=accept[:, None, None])
        np.copyto(dist, dist_new, where=accept[:, None])
        np.copyto(err, err_new, where=accept[:, None])
        np.copyto(obj, obj_new, where=accept)
        descended[rows[accept]] = True
        lam = np.where(accept, np.maximum(lam / 3.0, _DAMPING_MIN), lam * 10.0)

        # A vanishing damped step means a stationary point, accepted or not.
        done = step_norm < solver.step_tol
        leave = done | (lam > _DAMPING_MAX)
        if leave.any():
            gone = rows[leave]
            p_out[gone] = p[leave]
            obj_out[gone] = obj[leave]
            converged[gone] = done[leave]
            keep = np.flatnonzero(~leave)
            rows, p, diff, dist, err, obj, lam, rhat = (
                a.take(keep, axis=0) for a in (rows, p, diff, dist, err, obj, lam, rhat))

    p_out[rows] = p
    obj_out[rows] = obj
    return p_out, obj_out, converged, descended


def _grid_minimum(axy: np.ndarray, rhat: np.ndarray, center: np.ndarray,
                  radius: float) -> np.ndarray:
    """Coarse-grid argmin of the objective over a square around `center`."""
    coords = np.linspace(-radius, radius, 101)
    gx, gy = np.meshgrid(center[0] + coords, center[1] + coords)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    vals = _objective(pts, axy, rhat)
    return pts[int(np.argmin(vals))]


def _default_grid_radius(axy: np.ndarray, rhat: np.ndarray, center: np.ndarray) -> float:
    spread = float(np.max(np.linalg.norm(axy - center, axis=1)))
    return max(spread + float(np.max(rhat)), 1.0)


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
    Rows where damping never descends are scanned on a coarse grid and
    retried from its minimum; the retry is kept if it lowers the objective.
    Ranges must be finite and >= 0, one column per anchor.

    Rows descend in blocks of `_DESCENT_ROWS`. Each row's descent depends on
    that row alone, so the result does not depend on the block size, nor on
    which other rows share the call.
    """
    solver = solver or SolverConfig()
    _check_geometry(axy)
    rhat = np.asarray(rhat, dtype=float)
    if rhat.ndim != 2 or rhat.shape[1] != axy.shape[0]:
        raise ValueError("ranges must be (L, N) with one column per anchor")
    if np.any(rhat < 0.0) or not np.all(np.isfinite(rhat)):
        raise ValueError("estimated ranges must be finite and >= 0")
    center = axy.mean(axis=0)
    L = rhat.shape[0]
    p, obj = np.empty((L, 2)), np.empty(L)
    conv, desc = np.empty(L, dtype=bool), np.empty(L, dtype=bool)
    for i in range(0, L, _DESCENT_ROWS):
        j = min(i + _DESCENT_ROWS, L)
        p[i:j], obj[i:j], conv[i:j], desc[i:j] = _lm_descend(
            axy, rhat[i:j], np.tile(center, (j - i, 1)), solver)
    stuck = ~desc & ~conv
    for idx in np.nonzero(stuck)[0]:
        radius = solver.grid_radius or _default_grid_radius(axy, rhat[idx], center)
        start = _grid_minimum(axy, rhat[idx], center, radius)
        p2, obj2, conv2, _ = _lm_descend(axy, rhat[idx:idx + 1], start[None, :], solver)
        if obj2[0] < obj[idx]:
            p[idx], obj[idx], conv[idx] = p2[0], obj2[0], conv2[0]
    return p, obj, conv
