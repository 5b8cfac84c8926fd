"""Position fixes from per-anchor horizontal range estimates.

The anchors are the (N, 2) array of their ground projections, as
`build_constellation` gives them. The objective is the sum of squared
differences between candidate-to-anchor planar distances and the estimated
ranges. It is minimized with a damped Gauss-Newton iteration started at the
anchor centroid. A row that leaves the descent without accepting a step
keeps its start point (see `multilaterate_batch`).

The descent evaluates points in `_residuals`, anchor-major: for N anchors
and a working set of W rows (see `_lm_descend`), offsets are (2, N, W) and
distances and residuals (N, W), so every element-wise step runs along
contiguous rows of W values. Of each evaluation it keeps one (8, W) block:
the position, the objective and the five anchor sums of the normal
equations. Between iterations a row carries only that block, its ranges,
its damping and its step count. The order of each sum over anchors is part
of the results, and is fixed:

- The anchor sums add the anchor terms in sequence, anchor 0 first.
  `.sum(axis=0)` of an (N, W) array does so for W >= 2, but numpy sums an
  (N, 1) array pairwise, which changes the order from N = 8 on. So no
  evaluation takes one row alone: a working set of one row is carried as
  two identical copies, and a lone row that joins others is evaluated as
  two.
- The objective adds a row's squared residuals in numpy's order for a
  contiguous row of N values: in sequence below 8 anchors, pairwise from 8
  on. Below 8 anchors it is `.sum(axis=0)` of the (N, W) squares, which
  adds in sequence too; from 8 on, `.sum(axis=1)` of a C-contiguous (W, N)
  copy.

The tests hold the descent bit for bit equal to a reference loop on
row-major (L, N, 2) arrays that sums with `np.einsum`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .geometry import MAX_LENGTH_M

_DIST_FLOOR = 1e-12  # keeps residual directions defined on top of an anchor
_DAMPING_MIN = 1e-12
_DAMPING_MAX = 1e12
#: Most rows in the descent's working set. It bounds the working arrays
#: however many rows a caller passes, and is refilled at half this size.
#: Measured on a 2-vCPU Xeon, median time of `multilaterate_batch` on the
#: 60,000 rows of a 60-altitude urban study with 3 anchors, per size, over 7
#: alternating rounds: 1024: 272, 2048: 186, 4096: 175, 8192: 174 and
#: 16384: 168 ms. 16384 beat 4096 in 5 of 10 further alternating pairs, so
#: no larger set wins and the smaller one stays.
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
        if not (isinstance(self.max_iter, Integral) and not isinstance(self.max_iter, bool)
                and self.max_iter >= 1):
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


def _no_lone_row(rows: np.ndarray) -> np.ndarray:
    """`rows`, with a single row carried as two copies of itself.

    The copies take the same path, so their write-backs agree; with two or
    more rows `.sum(axis=0)` adds the anchors in sequence.
    """
    return rows if rows.size != 1 else np.repeat(rows, 2)


def _residuals(p: np.ndarray, anchors: np.ndarray, r: np.ndarray) -> np.ndarray:
    """What the descent keeps of positions p (2, W): one (8, W) block.

    Its rows are the position, the objective and the anchor sums Σux²,
    Σuy², Σux·uy, Σux·e and Σuy·e of the unit offsets u and the residuals e
    against the ranges r (N, W), in the order the module docstring fixes,
    which takes W >= 2. anchors is the C-contiguous (2, N, 1) transpose of
    axy, so that the offsets (2, N, W) come out C-contiguous too.
    """
    d = p[:, None, :] - anchors
    dist = np.sqrt(d[0] * d[0] + d[1] * d[1])
    np.maximum(dist, _DIST_FLOOR, out=dist)
    err = dist - r
    ux, uy = np.divide(d, dist, out=d)
    block = np.empty((8, p.shape[1]))
    block[:2] = p
    prod = np.empty_like(err)
    for i, (a, b) in enumerate(((ux, ux), (uy, uy), (ux, uy), (ux, err), (uy, err)), start=3):
        np.multiply(a, b, out=prod).sum(axis=0, out=block[i])
    sq = np.square(err, out=err)
    if r.shape[0] < 8:
        # numpy sums a row of fewer than 8 values in sequence, as axis 0
        # does, so the objective needs no (W, N) copy below 8 anchors.
        sq.sum(axis=0, out=block[2])
    else:
        np.ascontiguousarray(sq.T).sum(axis=1, out=block[2])
    return block


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
    the last rows finish.

    A working-set row carries its `_residuals` block at the current point,
    its ranges, damping and step count. An iteration solves the damped
    normal equations from the carried sums, evaluates the trial point once
    and keeps, per row, the trial's block or the current one. No evaluation
    takes one row alone (see the module docstring). A zero-row batch does
    no iteration.
    """
    L, N = rhat.shape
    p0 = np.broadcast_to(p0, (L, 2))
    p_out = np.empty((L, 2))
    obj_out = np.empty(L)
    converged = np.zeros(L, dtype=bool)

    anchors = axy.T[:, :, None].copy()
    rows, steps = np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    state, lam, r = np.empty((8, 0)), np.empty(0), np.empty((N, 0))
    joined = 0
    while True:
        if joined < L and 2 * rows.size <= _DESCENT_ROWS:
            new = np.arange(joined, min(L, joined + _DESCENT_ROWS - rows.size))
            joined = new[-1] + 1
            # Evaluated as at least two rows; a lone row joins others as one.
            both = _no_lone_row(new)
            k = new.size if rows.size else both.size
            r_new = rhat[both].T
            fresh = _residuals(p0[both].T, anchors, r_new)
            rows, state, lam, r, steps = (
                np.concatenate(pair, axis=-1) for pair in zip(
                    (rows, state, lam, r, steps),
                    (both[:k], fresh[:, :k], np.full(k, solver.damping0), r_new[:, :k],
                     np.zeros(k, dtype=np.intp))))
        if rows.size == 0:
            break
        a11 = state[3] + lam
        a22 = state[4] + lam
        a12, gx, gy = state[5:]
        det = np.maximum(a11 * a22 - a12 ** 2, 1e-300)
        step = -np.array([a22 * gx - a12 * gy, a11 * gy - a12 * gx]) / det
        step_norm = np.hypot(step[0], step[1])

        trial = _residuals(state[:2] + step, anchors, r)
        accept = trial[2] < state[2]
        state = np.where(accept, trial, state)
        lam = np.where(accept, np.maximum(lam / 3.0, _DAMPING_MIN), lam * 10.0)

        # A vanishing damped step means a stationary point, accepted or not.
        done = step_norm < solver.step_tol
        steps += 1
        leave = done | (lam > _DAMPING_MAX) | (steps == solver.max_iter)
        if leave.any():
            at = np.flatnonzero(leave)
            gone, left = rows[at], state[:, at]
            p_out[gone] = left[:2].T
            obj_out[gone] = left[2]
            converged[gone] = done[at]
            keep = np.flatnonzero(~leave)
            keep = _no_lone_row(keep) if joined == L else keep
            rows, state, lam, r, steps = (
                a.take(keep, axis=-1) for a in (rows, state, lam, r, steps))
    return p_out, obj_out, converged


def _check_anchors(axy) -> np.ndarray:
    axy = np.asarray(axy, dtype=float)
    if axy.ndim != 2 or axy.shape[1] != 2:
        raise ValueError(f"anchors must be an (N, 2) array, got shape {axy.shape}")
    if not np.all(np.isfinite(axy)):
        raise ValueError("anchor projections must be finite")
    if axy.shape[0] < 3:
        raise ValueError("multilateration needs at least 3 anchors")
    centered = axy - axy.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    scale = max(svals[0], 1.0)
    if svals[-1] <= 1e-9 * scale:
        raise DegenerateGeometryError("anchor projections are collinear")
    return axy


def multilaterate(axy, r_hats, solver: SolverConfig | None = None) -> PositionFix:
    """Least-squares position fix from an (N, 2) anchor layout and its ranges.

    Solves the ranges as a one-row `multilaterate_batch`, which validates them.
    """
    p, obj, conv = multilaterate_batch(axy, [r_hats], solver)
    return PositionFix(x_hat=float(p[0, 0]), y_hat=float(p[0, 1]),
                       residual=float(obj[0]), converged=bool(conv[0]))


def multilaterate_batch(axy, rhat, solver: SolverConfig | None = None):
    """Position fixes for many range vectors against one shared anchor layout.

    Starts the damped Gauss-Newton iteration at the anchor-projection
    centroid. Returns (positions (L, 2), residuals (L,), converged (L,)).
    A row whose steps are all rejected until it leaves returns the centroid,
    its objective there and converged = False. As the damping grows the
    damped step tends to -g/lambda, a descent direction, so that takes a
    `max_iter` too small for the damping to grow, or a gradient so large
    that the damped step is still `step_tol` long at the damping cap. A
    centroid at a stationary point converges at once.
    axy must be a finite (N, 2) array of at least 3 anchor projections, not
    all on one line, and rhat a finite (L, N) array in [0, MAX_LENGTH_M];
    anything else raises ValueError before any descent.

    One descent takes every row: at most `_DESCENT_ROWS` rows work at a
    time, refilled from those waiting as others leave. Each row's descent
    depends on that row alone, so the result does not depend on the
    working-set size, nor on which other rows share the call.
    """
    solver = solver or SolverConfig()
    axy = _check_anchors(axy)
    rhat = np.asarray(rhat, dtype=float)
    if rhat.ndim != 2 or rhat.shape[1] != axy.shape[0]:
        raise ValueError("ranges must be (L, N) with one column per anchor")
    if not np.all((rhat >= 0.0) & (rhat <= MAX_LENGTH_M)):
        raise ValueError(f"estimated ranges must be finite and >= 0, at most {MAX_LENGTH_M:g} m")
    if rhat.shape[0] == 0:
        return np.empty((0, 2)), np.empty(0), np.empty(0, dtype=bool)
    return _lm_descend(axy, rhat, axy.mean(axis=0), solver)
