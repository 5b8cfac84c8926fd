"""Maximum-likelihood ranging from RSS samples and its closed-form error bound.

The likelihood is maximized over the slant distance d with the elevation
substituted as theta(d) = asin(h / d), since only the anchor altitude h is
known to the estimator. The estimator's input is the received-power samples
and h alone; the bound is a separate function of the true link geometry and
treats alpha(theta) and sigma(theta) as constants of the score, matching the
closed form it reproduces. `log_likelihood` and the search share one
formula, written in each link's sufficient statistics.

Inputs are checked where they enter: `theta_from_distance`,
`log_likelihood`, `crlb_sigma_values` and `mle_distance_batch` reject
non-finite or out-of-domain values with a `ValueError` naming the cause.
The likelihood kernel behind `log_likelihood` and the search
(`_loglik_terms`, `_loglik`) checks nothing; its callers guarantee
h > 0 and max(h, d_o) <= d < inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    EnvironmentParams,
    LinkGeometry,
    path_loss_exponent,
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

    `boundary` flags a maximizer pinned at an end of the search interval.
    """

    d_hat: float
    r_hat: float
    log_likelihood: float
    boundary: bool = False


def theta_from_distance(d, h):
    """Elevation angle asin(h / d) implied by slant distance d and altitude h.

    `h` may be a scalar or an array that broadcasts against `d`.
    """
    dd = np.asarray(d, dtype=float)
    hh = np.asarray(h, dtype=float)
    if not np.all(np.isfinite(hh) & (hh > 0.0)):
        raise ValueError("anchor altitude h must be finite and > 0")
    if not np.all(np.isfinite(dd)):
        raise ValueError("slant distance d must be finite")
    if (dd < hh).any():
        raise ValueError("slant distance must be >= anchor altitude")
    # d >= h > 0 makes h / d lie in (0, 1] exactly.
    out = np.arcsin(hh / dd)
    return float(out) if out.ndim == 0 else out


def _sample_row(samples) -> np.ndarray:
    """One link's received-power samples as a (1, n) row."""
    w = np.asarray(samples, dtype=float)
    if w.ndim != 1 or w.size < 1:
        raise ValueError("samples must be a non-empty 1-D array")
    return w[None, :]


def log_likelihood(d, samples, h: float, env: EnvironmentParams):
    """Joint log-density of one link's samples at candidate slant distance `d`.

    Samples are treated as i.i.d. normal observations around the mean RSS at
    `d`, with variance sigma^2(theta(d)); this is the function the range
    search maximizes. Accepts a scalar or array `d`.
    """
    dd = np.asarray(d, dtype=float)
    h = float(h)
    if not np.all(np.isfinite(dd)):
        raise ValueError("candidate distance d must be finite")
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError("anchor altitude h must be finite and > 0")
    if np.any(dd < h):
        raise ValueError("candidate distance below anchor altitude")
    if np.any(dd < env.d_o):
        raise ValueError("candidate distance below the reference distance d_o")
    w = _sample_row(samples)
    if not np.all(np.isfinite(w)):
        raise ValueError("RSS samples must be finite")
    s1, s2 = _suffstats(w)
    if not math.isfinite(s2[0]):
        raise ValueError("sum of squared RSS samples overflows")
    ll = _loglik(np.atleast_1d(dd), h, w.shape[1], env, s1[0], s2[0])
    return float(ll[0]) if dd.ndim == 0 else ll


def crlb_sigma_values(d, theta, env: EnvironmentParams):
    """Closed-form single-observation ranging bound (m) at (d, theta) arrays."""
    dd = np.asarray(d, dtype=float)
    if not np.all(np.isfinite(dd)):
        raise ValueError("slant distance d must be finite")
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

#: Rows of the (links x grid) log-likelihood built at a time; the whole
#: array would be 20 MB per 10^4 links. Measured on a 2-vCPU Xeon (48 KiB
#: L1d and 2 MiB L2 per core), median time of a 10^4-row, 5-sample urban
#: ranging call made almost all bracketing by tol = 10^6 m, per block size:
#: 64: 18.8, 128: 17.6, 256: 17.1, 512: 17.3, 1024: 18.5, 2048: 19.5 and
#: 4096: 21.0 ms. At the default 256-point grid a 256-row block is a
#: 512 KiB buffer, a quarter of that L2.
_BRACKET_ROWS = 256


def _suffstats(samples_2d: np.ndarray):
    """Per-row sufficient statistics (sum, sum of squares) of the samples."""
    with np.errstate(over="ignore"):  # an overflow gives inf; callers reject it
        s1 = samples_2d.sum(axis=1)
        s2 = (samples_2d ** 2).sum(axis=1)
    return s1, s2


def _loglik_terms(d: np.ndarray, h, n: int, env: EnvironmentParams):
    """Per-point terms (c0, 2 mu, n mu^2, 2 var) of the n-sample log-density.

    The joint log-density of samples with sum s1 and sum of squares s2 is
    c0 - ((s2 - 2 mu * s1) + n mu^2) / (2 var), with
    c0 = -n/2 * log(2 pi var), mean RSS mu = (c_offset - k_ref) -
    10 alpha(theta) * log10(d), var = max(sigma(theta), floor)^2 and
    theta = asin(h / d).

    Unchecked kernel: `d` is a float array of one dimension or more with
    max(h, d_o) <= d < inf, and `h` > 0 a scalar or an array of d's shape.
    theta and P_LoS are computed once and shared by alpha and sigma. Every
    operation is the one `theta_from_distance`, `path_loss_exponent` and
    `shadowing_sigma` perform on arrays, applied in the same order, so the
    terms equal that composition bit for bit. (On numpy scalars `x ** 2`
    calls pow, which can differ from the square used here in the last bit,
    hence the one-dimension minimum.)
    """
    th = np.divide(h, d)
    np.arcsin(th, out=th)
    p = np.multiply(th, -env.b_o)
    np.exp(p, out=p)
    p *= env.a_o
    p += 1.0
    np.divide(1.0, p, out=p)
    # var = max(sqrt((P s_los)^2 + ((1 - P) s_nlos)^2), floor)^2
    var = np.multiply(th, -env.b_los)
    np.exp(var, out=var)
    var *= env.a_los
    var *= p
    np.square(var, out=var)
    th *= -env.b_nlos
    np.exp(th, out=th)
    th *= env.a_nlos
    mu = np.subtract(1.0, p)
    th *= mu
    np.square(th, out=th)
    var += th
    np.sqrt(var, out=var)
    np.maximum(var, _SIGMA_FLOOR, out=var)
    np.square(var, out=var)
    # mu = (c_offset - k_ref) - (10 alpha) * log10(d), alpha = a_1 P + b_1
    p *= env.a_1
    p += env.b_1
    p *= 10.0
    np.log10(d, out=mu)
    mu *= p
    np.subtract(env.c_offset - env.k_ref, mu, out=mu)
    # The terms, in place: n mu^2 takes the spent theta buffer.
    np.square(mu, out=th)
    th *= n
    mu *= 2.0
    np.multiply(var, 2.0 * math.pi, out=p)
    np.log(p, out=p)
    p *= -0.5 * n
    var *= 2.0
    return p, mu, th, var


def _loglik(d: np.ndarray, h, n: int, env: EnvironmentParams, s1, s2) -> np.ndarray:
    """Joint log-density at distances `d` of samples with sums s1 and s2.

    `s1` and `s2` are scalars or arrays of d's shape; same contract as
    `_loglik_terms`.
    """
    c0, two_mu, n_mu2, two_var = _loglik_terms(d, h, n, env)
    two_mu *= s1
    np.subtract(s2, two_mu, out=two_mu)
    two_mu += n_mu2
    two_mu /= two_var
    return np.subtract(c0, two_mu, out=c0)


def _grid_terms(h: float, n: int, env: EnvironmentParams, search: SearchConfig):
    """The bracketing grid at altitude `h` and its per-column terms."""
    lo = max(h, env.d_o)
    grid = np.geomspace(lo, search.d_max, search.grid_points)
    grid[0], grid[-1] = lo, search.d_max
    return (grid, *_loglik_terms(grid, h, n, env))


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
    lockstep: when a batch has taken its steps, its rows take their
    estimates and leave the working arrays by one mask compaction, so each
    step evaluates the likelihood once, on the rows still refining.

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
    if not np.all(np.isfinite(s2)):
        raise ValueError("sum of squared RSS samples overflows")

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

    def per_row(values):
        # One altitude (the common case) keeps scalars: no per-row arrays.
        return np.repeat(values, counts) if len(set(hs)) > 1 else values[0]

    h_row, lo_row, h2_row = per_row(hs), per_row(los), per_row([hb ** 2 for hb in hs])

    # Golden-section refinement, run in lockstep across links. Rows whose
    # batch has taken its steps take their estimates then and leave every
    # working array.
    x1 = a + _INVPHI2 * span
    x2 = a + _INVPHI * span
    f1 = _loglik(x1, h_row, n, env, s1, s2)
    f2 = _loglik(x2, h_row, n, env, s1, s2)
    d_hat = np.empty(links)
    rows, s1k, s2k, hk = np.arange(links), s1, s2, h_row
    for t in range(row_iter.max(initial=0)):
        if t in n_iter:
            done = row_iter == t
            d_hat[rows[done]] = np.where(f1[done] >= f2[done], x1[done], x2[done])
            keep = ~done
            rows, row_iter, a, b, x1, x2, f1, f2, s1k, s2k = (
                v[keep] for v in (rows, row_iter, a, b, x1, x2, f1, f2, s1k, s2k))
            hk = hk[keep] if np.ndim(hk) else hk
        left = f1 >= f2  # ties shrink toward the smaller distance
        b = np.where(left, x2, b)
        a = np.where(left, a, x1)
        span = b - a
        x1n = a + _INVPHI2 * span
        x2n = a + _INVPHI * span
        # The other interior point survives on each side; keep its value.
        f_new = _loglik(np.where(left, x1n, x2n), hk, n, env, s1k, s2k)
        f1, f2 = np.where(left, f_new, f2), np.where(left, f1, f_new)
        x1, x2 = x1n, x2n
    d_hat[rows] = np.where(f1 >= f2, x1, x2)

    # Snap to the hard bounds when the refinement hugged an end of the range.
    d_hat = np.clip(d_hat, lo_row, hi)
    low = d_hat <= lo_row + search.tol
    boundary = low | (d_hat >= hi - search.tol)
    d_hat = np.where(low, lo_row, d_hat)
    r_hat = np.sqrt(np.maximum(d_hat ** 2 - h2_row, 0.0))
    ll_hat = _loglik(d_hat, h_row, n, env, s1, s2)
    return d_hat, r_hat, ll_hat, boundary


def mle_distance(samples, h: float, env: EnvironmentParams,
                 search: SearchConfig | None = None) -> RangeEstimate:
    """Maximum-likelihood slant distance from one link's samples.

    Searches [h, d_max] by log-grid bracketing plus golden-section refinement
    and derives the horizontal distance r_hat = sqrt(d_hat^2 - h^2).
    """
    d_hat, r_hat, ll_hat, boundary = mle_distance_batch(
        _sample_row(samples), h, env, search)
    return RangeEstimate(d_hat=float(d_hat[0]), r_hat=float(r_hat[0]),
                         log_likelihood=float(ll_hat[0]), boundary=bool(boundary[0]))
