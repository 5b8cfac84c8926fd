"""Maximum-likelihood ranging from RSS samples and its closed-form error bound.

The likelihood is maximized over the slant distance d with the elevation
substituted as theta(d) = asin(h / d), since only the anchor altitude h is
known to the estimator. The bound is evaluated at the true link geometry and
treats alpha(theta) and sigma(theta) as constants of the score, matching the
closed form it reproduces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    EnvironmentParams,
    LinkGeometry,
    RssSampleSet,
    path_loss_exponent,
    prob_los,
    shadowing_sigma,
)

LN10 = math.log(10.0)

# Keeps the log-density finite for shadowing-free diagnostic environments;
# never reached by any physical parameter set.
_SIGMA_FLOOR = 1e-12


@dataclass(frozen=True)
class SearchConfig:
    """Grid-plus-golden-section search settings for the range estimator.

    The maximizer is bracketed on `grid_points` log-spaced distances in
    [h, d_max] and refined by golden-section to within `tol` meters.
    """

    d_max: float = 20000.0
    grid_points: int = 256
    tol: float = 0.01

    def __post_init__(self) -> None:
        if not (math.isfinite(self.d_max) and self.d_max > 0.0):
            raise ValueError("d_max must be finite and positive")
        if self.grid_points < 3:
            raise ValueError("grid_points must be >= 3")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError("tol must be finite and positive")


@dataclass(frozen=True)
class RangeEstimate:
    """Result of one maximum-likelihood ranging.

    `crlb_sigma` is the lower bound on the standard deviation of this
    estimate, evaluated at the true geometry carried by the sample set and
    scaled for the number of samples actually used. `boundary` flags a
    maximizer pinned at an end of the search interval.
    """

    d_hat: float
    r_hat: float
    crlb_sigma: float
    log_likelihood: float
    boundary: bool = False


def theta_from_distance(d, h):
    """Elevation angle asin(h / d) implied by slant distance d and altitude h.

    `h` may be a scalar or an array that broadcasts against `d`.
    """
    dd = np.asarray(d, dtype=float)
    hh = np.asarray(h, dtype=float)
    if (hh <= 0.0).any():
        raise ValueError("anchor altitude h must be > 0")
    if (dd < hh).any():
        raise ValueError("slant distance must be >= anchor altitude")
    out = np.arcsin(np.clip(hh / dd, -1.0, 1.0))
    return float(out) if out.ndim == 0 else out


def _model_moments(d, h, env: EnvironmentParams):
    """Mean RSS (dBm) and shadowing sigma (dB) at distance d via theta(d).

    `h` is the anchor altitude, a scalar or one per element of `d`.
    """
    theta = theta_from_distance(d, h)
    alpha = path_loss_exponent(theta, env)
    mu = env.c_offset - env.k_ref - 10.0 * np.asarray(alpha) * np.log10(np.asarray(d, dtype=float))
    sigma = np.maximum(np.asarray(shadowing_sigma(theta, env)), _SIGMA_FLOOR)
    return mu, sigma


def log_likelihood(d, samples: RssSampleSet, h: float, env: EnvironmentParams):
    """Joint log-density of the sample set at candidate slant distance `d`.

    Samples are treated as i.i.d. normal observations around the mean RSS at
    `d`, with variance sigma^2(theta(d)). Accepts a scalar or array `d`.
    """
    dd = np.asarray(d, dtype=float)
    if np.any(dd < h):
        raise ValueError("candidate distance below anchor altitude")
    if np.any(dd < env.d_o):
        raise ValueError("candidate distance below the reference distance d_o")
    w = samples.samples
    mu, sigma = _model_moments(dd, h, env)
    n = w.size
    resid_sq = np.subtract.outer(np.atleast_1d(mu), w) ** 2  # (..., n)
    var = np.atleast_1d(sigma) ** 2
    ll = (-0.5 * n * np.log(2.0 * math.pi * var)
          - resid_sq.sum(axis=-1) / (2.0 * var))
    ll = ll.reshape(np.shape(dd)) if np.ndim(dd) else ll[0]
    return float(ll) if np.ndim(dd) == 0 else ll


def crlb_sigma_values(d, theta, env: EnvironmentParams):
    """Closed-form single-observation ranging bound (m) at (d, theta) arrays."""
    dd = np.asarray(d, dtype=float)
    if np.any(dd < env.d_o):
        raise ValueError("bound invalid below the reference distance d_o")
    alpha = np.asarray(path_loss_exponent(theta, env))
    if np.any(alpha <= 0.0):
        raise ValueError("path loss exponent must be positive")
    sigma = np.asarray(shadowing_sigma(theta, env))
    out = dd * LN10 / 10.0 * sigma / alpha
    return float(out) if out.ndim == 0 else out


def crlb_sigma(geom: LinkGeometry, env: EnvironmentParams, n_samples: int = 1) -> float:
    """Ranging standard-deviation bound (m) at the true geometry.

    The single-observation bound is d * ln(10)/10 * sigma(theta) / alpha(theta);
    with `n_samples` i.i.d. observations it shrinks by 1/sqrt(n_samples).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    return float(crlb_sigma_values(geom.d, geom.theta, env)) / math.sqrt(n_samples)


def score(w, geom: LinkGeometry, env: EnvironmentParams):
    """Sensitivity of the per-sample log-density to d, at received power `w`.

    The bracket reduces to the shadowing realization, so the score vanishes
    when `w` equals the model mean. alpha and sigma are held at the true
    theta, matching the closed-form bound.
    """
    theta = geom.theta
    alpha = path_loss_exponent(theta, env)
    sigma = shadowing_sigma(theta, env)
    if sigma <= 0.0:
        raise ValueError("score undefined for a zero-shadowing environment")
    ww = np.asarray(w, dtype=float)
    bracket = -ww - 10.0 * alpha * np.log10(geom.d) - env.k_ref + env.c_offset
    out = bracket * 10.0 * alpha / (geom.d * LN10 * sigma ** 2)
    return float(out) if out.ndim == 0 else out


def fisher_information_numeric(geom: LinkGeometry, env: EnvironmentParams,
                               mc: int, rng: np.random.Generator) -> float:
    """Monte Carlo estimate of the per-sample Fisher information in d (1/m^2).

    Draws shadowing realizations, evaluates the squared score and averages;
    1/sqrt of the result converges to the closed-form bound.
    """
    if mc < 1:
        raise ValueError("Monte Carlo draw count mc must be >= 1")
    theta = geom.theta
    sigma = shadowing_sigma(theta, env)
    mu = (env.c_offset - env.k_ref
          - 10.0 * path_loss_exponent(theta, env) * math.log10(geom.d))
    w = mu - rng.normal(0.0, sigma, size=mc)
    return float(np.mean(score(w, geom, env) ** 2))


# ---------------------------------------------------------------------------
# Likelihood search
# ---------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0

#: Rows of the (links x grid) log-likelihood built at a time. With the
#: default 256-point grid one block is a 2 MB buffer that stays in a core's
#: L2 cache; the whole array would be 20 MB per 10^4 links.
_BRACKET_ROWS = 1024


def _suffstats(samples_2d: np.ndarray):
    """Per-row sufficient statistics (sum, sum of squares) of the samples."""
    s1 = samples_2d.sum(axis=1)
    s2 = (samples_2d ** 2).sum(axis=1)
    return s1, s2


def _loglik_from_stats(mu, var, s1, s2, n: int):
    """Row-wise joint log-density given per-row stats and model moments."""
    return (-0.5 * n * np.log(2.0 * math.pi * var)
            - (s2 - 2.0 * mu * s1 + n * mu ** 2) / (2.0 * var))


def _grid_terms(h: float, n: int, env: EnvironmentParams, search: SearchConfig):
    """The bracketing grid at altitude `h` and its per-column terms."""
    lo = max(h, env.d_o)
    grid = np.geomspace(lo, search.d_max, search.grid_points)
    grid[0], grid[-1] = lo, search.d_max
    mu_g, sigma_g = _model_moments(grid, h, env)
    var_g = sigma_g ** 2
    return grid, -0.5 * n * np.log(2.0 * math.pi * var_g), 2.0 * mu_g, n * mu_g ** 2, 2.0 * var_g


def mle_distance_batch(samples_2d: np.ndarray, h, env: EnvironmentParams,
                       search: SearchConfig | None = None, *, offsets=None):
    """Vectorized ML ranging for one or more batches of links.

    `samples_2d` holds one link per row. Without `offsets` all rows form one
    batch at anchor altitude `h`. With `offsets`, rows
    offsets[i]:offsets[i + 1] form batch i, ranged at altitude h[i] (a
    scalar `h` is shared by every batch); the offsets rise from 0 to the row
    count and empty batches are allowed. Returns arrays (d_hat, r_hat,
    log_likelihood, boundary) with one entry per row. Ties on the likelihood
    grid resolve toward the smaller distance.

    Each batch's golden-section iteration count comes from the widest
    bracket in that batch, so a row's result depends on the other rows of
    its batch, and ranging batches together gives every row the result of
    its batch ranged alone, byte for byte. That batch dependence is kept on
    purpose: making the count per row is a change of its own, because it
    moves results. All batches step in
    lockstep: rows are ordered by iteration count, largest first, so the
    rows still refining are always a prefix, each step evaluates the
    likelihood once on that prefix, and the order is undone at the end.

    The grid log-likelihood is built `_BRACKET_ROWS` rows at a time in one
    reused buffer, on the grid of each batch's altitude; the grid's model
    moments are computed once per distinct altitude. Blocks split rows,
    never grid columns, so each row's argmax and its first-maximum tie rule
    are those of the whole array; s1 * (2 mu) equals 2 * (s1 * mu) bit for
    bit, because scaling by 2 is exact in IEEE arithmetic, and the other
    operations keep their order. Each golden-section step evaluates the
    likelihood once per row, at the one interior point that is new on that
    row. Every value comes from the same element-wise operations on its own
    row, so the result equals evaluating both points and discarding one.
    """
    search = search or SearchConfig()
    samples_2d = np.asarray(samples_2d, dtype=float)
    if samples_2d.ndim != 2 or samples_2d.shape[1] < 1:
        raise ValueError("samples_2d must be (links, samples) with >= 1 sample")
    links, n = samples_2d.shape
    bounds = np.asarray([0, links] if offsets is None else offsets)
    if not (bounds.ndim == 1 and bounds.size >= 2 and bounds.dtype.kind in "iu"
            and bounds[0] == 0 and bounds[-1] == links and np.all(np.diff(bounds) >= 0)):
        raise ValueError("offsets must be integers rising from 0 to the row count")
    counts = np.diff(bounds)
    hs = np.asarray(h, dtype=float).ravel()
    if hs.size == 1:
        hs = np.repeat(hs, counts.size)
    if hs.size != counts.size:
        raise ValueError(f"got {hs.size} altitudes for {counts.size} batches")
    if not np.all(np.isfinite(hs) & (hs > 0.0)):
        raise ValueError("anchor altitude h must be finite and > 0")
    if not np.all(np.isfinite(samples_2d)):
        raise ValueError("RSS samples must be finite")
    hs = hs.tolist()
    los = [max(hb, env.d_o) for hb in hs]
    hi = search.d_max
    if hi <= max(los):
        raise ValueError(f"search upper bound d_max = {hi} must exceed {max(los)}")

    s1, s2 = _suffstats(samples_2d)

    # Coarse bracketing on each batch's log-spaced grid, over runs of rows
    # that share one altitude.
    a = np.empty(links)
    b = np.empty(links)
    grids = {}
    best = np.empty(links, dtype=np.intp)
    buf = np.empty((min(links, _BRACKET_ROWS), search.grid_points))
    run = 0
    for k, hb in enumerate(hs):
        if k + 1 < len(hs) and hs[k + 1] == hb:
            continue
        start, stop, run = bounds[run], bounds[k + 1], k + 1
        if start == stop:
            continue
        if hb not in grids:
            grids[hb] = _grid_terms(hb, n, env, search)
        grid, c0, two_mu, n_mu2, two_var = grids[hb]
        for i in range(start, stop, _BRACKET_ROWS):
            j = min(i + _BRACKET_ROWS, stop)
            ll = buf[:j - i]
            # (rows, grid) joint log-density via the sufficient statistics.
            np.multiply(s1[i:j, None], two_mu, out=ll)
            np.subtract(s2[i:j, None], ll, out=ll)
            ll += n_mu2
            ll /= two_var
            np.subtract(c0, ll, out=ll)
            np.argmax(ll, axis=1, out=best[i:j])
        a[start:stop] = grid[np.maximum(best[start:stop] - 1, 0)]
        b[start:stop] = grid[np.minimum(best[start:stop] + 1, search.grid_points - 1)]

    # Each batch's iteration count, from its widest bracket.
    span = b - a
    n_iter = [int(math.ceil(math.log(max(span[i:j].max(initial=0.0) / search.tol, 1.0))
                            / -math.log(_INVPHI))) + 1
              for i, j in zip(bounds[:-1], bounds[1:])]
    row_iter = np.repeat(n_iter, counts)
    # Largest count first; batches already in that order are not moved.
    order = slice(None) if n_iter == sorted(n_iter, reverse=True) \
        else np.argsort(-row_iter, kind="stable")
    row_iter = row_iter[order]
    # Rows still refining before step t: the first active[t] rows.
    active = np.searchsorted(-row_iter, -np.arange(row_iter[0] if links else 0), "left")
    s1, s2, a, b, span = s1[order], s2[order], a[order], b[order], span[order]

    def per_row(values):
        # One altitude (the common case) keeps scalars: no per-row arrays.
        return np.repeat(values, counts)[order] if len(set(hs)) > 1 else values[0]

    h_row, lo_row, h2_row = per_row(hs), per_row(los), per_row([hb ** 2 for hb in hs])

    def loglik_at(d_vec, sum1, sum2, h):
        mu, sigma = _model_moments(d_vec, h, env)
        return _loglik_from_stats(mu, sigma ** 2, sum1, sum2, n)

    # Golden-section refinement, run in lockstep across links. Rows whose
    # batch has taken its steps leave the prefix, and their estimates are
    # taken then.
    x1 = a + _INVPHI2 * span
    x2 = a + _INVPHI * span
    f1 = loglik_at(x1, s1, s2, h_row)
    f2 = loglik_at(x2, s1, s2, h_row)
    s1k, s2k, hk = s1, s2, h_row
    tails = []
    for k in active:
        if k < f1.size:
            tails.append(np.where(f1[k:] >= f2[k:], x1[k:], x2[k:]))
            a, b, x1, x2, f1, f2, s1k, s2k = (v[:k] for v in (a, b, x1, x2, f1, f2, s1k, s2k))
            hk = hk[:k] if np.ndim(hk) else hk
        left = f1 >= f2  # ties shrink toward the smaller distance
        b = np.where(left, x2, b)
        a = np.where(left, a, x1)
        span = b - a
        x1n = a + _INVPHI2 * span
        x2n = a + _INVPHI * span
        # The other interior point survives on each side; keep its value.
        f_new = loglik_at(np.where(left, x1n, x2n), s1k, s2k, hk)
        f1, f2 = np.where(left, f_new, f2), np.where(left, f1, f_new)
        x1, x2 = x1n, x2n
    d_hat = np.concatenate([np.where(f1 >= f2, x1, x2)] + tails[::-1])

    # Snap to the hard bounds when the refinement hugged an end of the range.
    d_hat = np.clip(d_hat, lo_row, hi)
    low = d_hat <= lo_row + search.tol
    boundary = low | (d_hat >= hi - search.tol)
    d_hat = np.where(low, lo_row, d_hat)
    r_hat = np.sqrt(np.maximum(d_hat ** 2 - h2_row, 0.0))
    ll_hat = loglik_at(d_hat, s1, s2, h_row)
    undo = order if isinstance(order, slice) else np.argsort(order)
    return d_hat[undo], r_hat[undo], ll_hat[undo], boundary[undo]


def mle_distance(samples: RssSampleSet, h: float, env: EnvironmentParams,
                 search: SearchConfig | None = None) -> RangeEstimate:
    """Maximum-likelihood slant distance from one sample set.

    Searches [h, d_max] by log-grid bracketing plus golden-section refinement
    and derives the horizontal distance r_hat = sqrt(d_hat^2 - h^2). The
    returned bound is evaluated at the sample set's true geometry.
    """
    d_hat, r_hat, ll_hat, boundary = mle_distance_batch(
        samples.samples[None, :], h, env, search)
    bound = crlb_sigma(samples.geometry_truth, env, n_samples=len(samples))
    return RangeEstimate(d_hat=float(d_hat[0]), r_hat=float(r_hat[0]),
                         crlb_sigma=bound, log_likelihood=float(ll_hat[0]),
                         boundary=bool(boundary[0]))
