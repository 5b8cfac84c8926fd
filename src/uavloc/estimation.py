"""Maximum-likelihood ranging from RSS samples and its closed-form error bound.

The likelihood is maximized over the slant distance d with the elevation
substituted as theta(d) = asin(h / d), since only the anchor altitude h is
known to the estimator. The estimator's input is the received-power samples
and h alone; the bound is a separate function of the true link geometry and
treats alpha(theta) and sigma(theta) as constants of the score, matching the
closed form it reproduces. `log_likelihood` and the search share one
formula, written in each link's sufficient statistics. The search brackets
on a log grid in two certified stages: one probe column per row gives a
lower bound on its maximum, and each block of columns whose upper bound
reaches it is evaluated densely. The result is the same bits as a full
grid pass, with no fallback to one.

Inputs are checked where they enter: `log_likelihood`, `score`,
`crlb_sigma_values` and `mle_distance_batch` reject non-finite or
out-of-domain values with a `ValueError` naming the cause. The likelihood
kernel behind `log_likelihood` and the search (`_loglik_terms`, `_loglik`)
checks nothing; its callers guarantee h > 0 and max(h, d_o) <= d < inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .channel import (
    REFERENCE_DISTANCE_M,
    EnvironmentParams,
    LinkGeometry,
    path_loss_exponent,
    shadowing_sigma,
)
from .geometry import MAX_LENGTH_M

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
        if not 0.0 < self.d_max <= MAX_LENGTH_M:
            raise ValueError(f"d_max must be finite, positive and <= {MAX_LENGTH_M:g} m")
        if not (isinstance(self.grid_points, Integral) and self.grid_points >= 3):
            raise ValueError(f"grid_points must be an integer >= 3, got {self.grid_points!r}")
        if not 0.0 < self.tol <= MAX_LENGTH_M:
            raise ValueError(f"tol must be finite, positive and <= {MAX_LENGTH_M:g} m")


@dataclass(frozen=True)
class RangeEstimate:
    """Result of one maximum-likelihood ranging.

    `boundary` flags a maximizer pinned at an end of the search interval.
    """

    d_hat: float
    r_hat: float
    log_likelihood: float
    boundary: bool = False


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
    if np.any(dd < REFERENCE_DISTANCE_M):
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
    if np.any(dd < REFERENCE_DISTANCE_M):
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
    if not (isinstance(n_samples, Integral) and not isinstance(n_samples, bool)
            and n_samples >= 1):
        raise ValueError(f"n_samples must be an integer >= 1, got {n_samples!r}")
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
    if not np.all(np.isfinite(ww)):
        raise ValueError("RSS samples must be finite")
    bracket = -ww - 10.0 * alpha * np.log10(geom.d) - env.k_ref + env.c_offset
    out = bracket * 10.0 * alpha / (geom.d * LN10 * sigma ** 2)
    return float(out) if out.ndim == 0 else out


def fisher_information_numeric(geom: LinkGeometry, env: EnvironmentParams,
                               mc: int, rng: np.random.Generator) -> float:
    """Monte Carlo estimate of the per-sample Fisher information in d (1/m^2).

    Draws shadowing realizations, evaluates the squared score and averages;
    1/sqrt of the result converges to the closed-form bound.
    """
    if not (isinstance(mc, Integral) and not isinstance(mc, bool) and mc >= 1):
        raise ValueError(f"Monte Carlo draw count mc must be an integer >= 1, got {mc!r}")
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

#: Grid columns per block of the bracketing bound, and per dense pass.
#: Replaying the ranging calls of two studies with tol = 10^6 m (so almost
#: all bracketing) on a 2-vCPU Xeon, the time relative to the former
#: bracketing (a 4-block window, full grid where it failed) was, at 8, 16
#: and 32 columns: 0.94, 0.82 and 0.86 for a 1000-node urban altitude
#: sweep, and 1.26, 0.94 and 1.03 for 8-node rings at h = 50 m, where the
#: blocks that reach the maximum span about 58 columns. Narrower blocks
#: bound more tightly but cost more passes.
_BOUND_COLS = 16
#: Rows bounded at a time, and the most a dense pass holds: a 1 MiB
#: (blocks, rows) bound at 256 points and a 1 MiB (16, rows) pass. One
#: 16-column pass over 4096 rows took 500, 357 and 272 us in chunks of 256,
#: 1024 and 4096 rows, so a pass is never chunked. Replaying the seed-3
#: ranging calls of the three benchmark studies on a 2-vCPU Xeon, the time
#: relative to 8192 rows was 1.076 (crlb-table), 1.090 (count-lowalt) and
#: 1.019 (altitude-urban) at 4096 rows, 1.001, 0.983 and 0.996 at 16384,
#: and 0.997 on crlb-table at 32768 (medians of 7-11 interleaved rounds).
#: Beyond 8192 the gain is within the spread, while both arrays keep growing.
_BOUND_ROWS = 8192
#: Golden-section steps evaluate the kernel once per search-tree node while
#: _NODE_SHARE x the next level's nodes are at most the rows still refining,
#: and once per row from the first level with more nodes. Replaying the
#: seed-3 ranging calls of the three benchmark studies on a 2-vCPU Xeon
#: (altitude-urban in packs of five 3000-row batches, every sixth 10^4-row
#: crlb-table cell, count-lowalt in packs of four 4096-row calls), the time
#: relative to per-row steps throughout was, at shares 2, 3, 4 and 6:
#: 0.949, 0.941, 0.950 and 0.952; 0.923, 0.918, 0.919 and 0.917; and 0.972,
#: 0.969, 0.986 and 0.976 (medians of 16 interleaved rounds). Gathering a
#: node's terms costs each row about a third of a per-row step, and about
#: 35 us per call of fixed kernel cost, so on 3000-row calls a shared step
#: only breaks even.
_NODE_SHARE = 3


def _select(mask: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.where(mask, x, y) on float64 bits for an int64 mask of 0 and -1."""
    yi = y.view(np.int64)
    out = np.bitwise_xor(x.view(np.int64), yi)
    out &= mask
    out ^= yi
    return out.view(np.float64)


def _suffstats(samples_2d: np.ndarray):
    """Per-row sufficient statistics (sum, sum of squares) of the samples.

    They are the bits of `sum(axis=1)` of the samples and of their squares.
    numpy adds a row of fewer than 8 values in sequence, starting from 0
    (so a row of -0.0 sums to +0.0), and pairwise from 8 on. Below 8
    samples the columns are added in that sequence, with no squared copy;
    from 8 on, `sum(axis=1)` runs.
    """
    with np.errstate(over="ignore"):  # an overflow gives inf; callers reject it
        if samples_2d.shape[1] >= 8:
            return samples_2d.sum(axis=1), (samples_2d ** 2).sum(axis=1)
        cols = samples_2d.T
        s1, s2 = cols[0] + 0.0, np.square(cols[0])
        sq = np.empty_like(s2)
        for col in cols[1:]:
            s1 += col
            s2 += np.square(col, out=sq)
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
    operation is the one `np.arcsin(h / d)`, `path_loss_exponent` and
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
    terms = _loglik_terms(d, h, n, env)
    return _log_density(terms, s1, s2, out=terms[1])


def _log_density(terms, s1, s2, out: np.ndarray) -> np.ndarray:
    """c0 - ((s2 - 2 mu * s1) + n mu^2) / (2 var) from `_loglik_terms`' terms, in `out`."""
    c0, two_mu, n_mu2, two_var = terms
    np.multiply(two_mu, s1, out=out)
    np.subtract(s2, out, out=out)
    out += n_mu2
    out /= two_var
    return np.subtract(c0, out, out=out)


def _loglik_at(d: np.ndarray, h, node, n: int, env: EnvironmentParams, s1, s2):
    """`_loglik` of each row at `d`, or, when `node` is not None, at
    d[node]: the kernel runs once per entry of `d`, and each row gathers
    its entry's terms."""
    if node is None:
        return _loglik(d, h, n, env, s1, s2)
    terms = [np.take(t, node) for t in _loglik_terms(d, h, n, env)]
    return _log_density(terms, s1, s2, out=terms[1])


def _dense_ids(keys: np.ndarray, size: int):
    """Ids 0, 1, ... of the distinct `keys` (integers in [0, size)) in key
    order, per key, and those keys in that order."""
    mark = np.zeros(size, dtype=bool)
    mark[keys] = True
    ids = np.cumsum(mark, dtype=np.intp)
    ids -= 1
    return ids[keys], np.flatnonzero(mark)


def _grid_terms(h: float, n: int, env: EnvironmentParams, search: SearchConfig):
    """The bracketing grid at altitude `h`, its per-column terms and their
    `_bounds`."""
    lo = max(h, REFERENCE_DISTANCE_M)
    grid = np.geomspace(lo, search.d_max, search.grid_points)
    grid[0], grid[-1] = lo, search.d_max
    terms = _loglik_terms(grid, h, n, env)
    return grid, terms, _bounds(terms, n)


def _bounds(terms, n: int):
    """The bound's terms: per block of `_BOUND_COLS` columns (the last one
    ragged) max c0, mu midpoint and half-width and n / max 2 var, as
    (blocks, 1) columns; the margin's grid maxima; and the probe table.

    The table splits -2 mu between its values at the grid's ends into 4 x
    columns equal bins, and holds the column where `searchsorted` puts
    each bin's lower edge, clipped to the grid; with it come the lower end
    and the bins per unit of -2 mu (0 if -2 mu does not rise end to end).
    """
    c0, two_mu, n_mu2, two_var = terms
    starts = np.arange(0, c0.size, _BOUND_COLS)
    c_b, tm_lo, tm_hi, v2_b = (f.reduceat(t, starts)[:, None] for f, t in (
        (np.maximum, c0), (np.minimum, two_mu), (np.maximum, two_mu), (np.maximum, two_var)))
    bins, lo, hi = 4 * c0.size, -two_mu[0], -two_mu[-1]
    edges = np.linspace(lo, hi, bins, endpoint=False)
    probe = np.minimum(np.searchsorted(-two_mu, edges), c0.size - 1)
    return (c_b, 0.25 * (tm_hi + tm_lo), 0.25 * (tm_hi - tm_lo), n / v2_b,
            (np.abs(c0).max(), np.abs(two_mu).max(), n_mu2.max(), two_var.min()),
            (probe, lo, bins / (hi - lo) if hi > lo else 0.0))


def _dense_argmax(s1, s2, terms, lo: int, hi: int, buf):
    """First argmax over grid columns lo:hi of each row's log-likelihood, and
    its value, built in one C-contiguous (columns, rows) pass through `buf`.
    The max runs down the columns; the first column holding it is the max
    of reversed column ids over the columns equal to it, as ties and
    +-0.0 compare equal there just as they do in `np.argmax`."""
    block = [t[lo:hi, None] for t in terms]
    width = block[0].shape[0]
    ll = _log_density(block, s1, s2, out=buf[:width * s1.size].reshape(width, s1.size))
    top = ll.max(axis=0)
    rev = np.arange(width, 0, -1, dtype=np.min_scalar_type(width))[:, None]
    return lo + width - np.multiply(ll == top, rev).max(axis=0).astype(np.intp), top


def _probe(m, table):
    """Each row's stage-1 column: the entry of `_bounds`' probe table for
    the bin that holds -2 m."""
    cols, lo, per = table
    at = m * -2.0
    at -= lo
    at *= per
    np.clip(at, 0, cols.size - 1, out=at)
    return cols[at.astype(np.intp)]


def _bracket(s1, s2, n: int, terms, blocks, buf):
    """Each row's first argmax over the whole grid, from the blocks its
    bound cannot rule out (see `mle_distance_batch`)."""
    c_b, mu_mid, mu_half, nv_b, (c_abs, tm_abs, nm2_max, tv_min), probe = blocks
    m = s1 / n
    # U = C_b - (S / n + dist(m, mu interval)^2) * n / V2_b, as (blocks, rows).
    ub = m - mu_mid
    np.abs(ub, out=ub)
    ub -= mu_half
    np.maximum(ub, 0.0, out=ub)
    np.square(ub, out=ub)
    ub += np.maximum(s2 - s1 * m, 0.0) / n
    ub *= nv_b
    np.subtract(c_b, ub, out=ub)
    # Stage 1: L1, each row's value at its probe column, about where mu
    # would cross m if mu fell along the grid (any column gives a valid L1).
    at = _probe(m, probe)
    low = _log_density([t[at] for t in terms], s1, s2, out=np.empty_like(s1))
    reach = ub >= low - (n + 8) * 2.0 ** -50 * (
        c_abs + (np.abs(s1) * tm_abs + s2 + nm2_max) / tv_min)
    # Stage 2: one dense pass per block over the rows it reaches, in column
    # order, so a later block takes a row only with a larger value.
    best, top = np.zeros(s1.size, dtype=np.intp), np.full(s1.size, -np.inf)
    for blk in np.flatnonzero(reach.any(axis=1)).tolist():
        i = np.flatnonzero(reach[blk])
        lo = blk * _BOUND_COLS
        arg, val = _dense_argmax(s1[i], s2[i], terms, lo, lo + _BOUND_COLS, buf)
        win = val > top[i]
        i = i[win]
        best[i], top[i] = arg[win], val[win]
    return best


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
    moves results. All batches step in lockstep: when a batch has taken its
    steps, its rows take their estimates and leave the working arrays by one
    mask compaction, so each step makes one kernel call, on at most the rows
    still refining.

    Bracketing takes each row's first argmax on the grid of its batch's
    altitude, whose terms are computed once per distinct altitude, without
    building every column. With m = s1 / n and S = s2 - s1^2 / n >= 0,
    s2 - 2 mu s1 + n mu^2 = S + n (m - mu)^2, so ll = c0 - (S + n (m -
    mu)^2) / (2 var). On a block of `_BOUND_COLS` columns with max c0 C,
    mu in [mu_lo, mu_hi] and max 2 var V, every ll is at most
    U = C - (S + n dist(m, [mu_lo, mu_hi])^2) / V, for any order of mu.
    Two certified stages follow. Stage 1 evaluates each row at one probe
    column, near where mu would cross m on a grid of falling mu: -2 m picks
    one of 4 x grid points equal bins of -2 mu between its end values, and
    a per-altitude table built with the bounds gives the bin's column (the
    `searchsorted` column of its lower edge). Whatever the column, its value
    L1 is a lower bound on the row's maximum L, and L1 only decides which
    blocks stage 2 evaluates, so no result bit depends on the probe. (At
    256 points, tables of 256 and 4096 bins ranged the benchmark's seed-3
    crlb-table calls in 1.023 and 1.005 of the time of 1024.) Stage 2
    makes one column-major (block columns, rows) dense pass per block,
    through one buffer, over the rows whose U is at least L1 - margin (the
    full pass's operations in its order; s1 * (2 mu) equals 2 * (s1 * mu)
    bit for bit, as scaling by 2 is exact). Blocks go in column order, and a later block takes a
    row only with a larger value. Each block left out has U < L1 - margin
    <= L - margin, so every column outside is below L: the first maximum
    of the blocks evaluated is the grid's first argmax, ties included, and
    no row needs the full grid. The probe's block always reaches, since
    its U bounds L1. With u = 2^-53 and the scale A = max|c0| + (s2 + |s1|
    max|2 mu| + max n mu^2) / min 2 var, which bounds every intermediate,
    ll and U each carry at most about 8 u A of rounding; the float sums s1
    and s2 can make S negative by up to 3 n u A (it is clipped at 0), and
    the rounded n mu^2 adds 2 u A. margin = (n + 8) 2^-50 A = (8 n + 64) u A
    covers their sum.

    Each golden-section step evaluates the likelihood once per row, at the
    one interior point that is new on that row. Every value comes from the
    same element-wise operations on its own row, so the result equals
    evaluating both points and discarding one; the selects copy bits by
    masks, as `np.where` does.

    Rows also share those evaluations. A row's points after t steps are a
    function of its root, the bracket (a, b) with its altitude, and of its
    first t comparisons, so the rows of one run of equal altitudes that
    bracket on the same column walk one binary search tree, across batches,
    until a comparison parts them; a batch that has taken its steps only
    leaves the tree. So at first each row holds just the index of its node,
    and a node table holds the points (a, b, x1, x2) and the altitude. A step
    derives each child node from its parent with the per-row operations,
    runs `_loglik_terms` once per child at its new point, and each row
    gathers its child's four terms with `np.take`, which copies bits, and
    forms its own log-density from its s1 and s2. The kernel is element-wise,
    so each term is the one a per-row evaluation of the same bits gives,
    whatever the array it sits in, and the result is the same bytes. Child
    keys (parent, side) get dense ids in key order by a boolean scatter and
    a cumulative sum (`_dense_ids`). When the next level would hold more
    than one node per `_NODE_SHARE` rows still refining, every row takes its
    node's points and steps on its own, as above, to the end.
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
    los = [max(hb, REFERENCE_DISTANCE_M) for hb in hs]
    hi = search.d_max
    if hi <= max(los):
        raise ValueError(f"search upper bound d_max = {hi} must exceed {max(los)}")

    s1, s2 = _suffstats(samples_2d)
    if not np.all(np.isfinite(s2)):
        raise ValueError("sum of squared RSS samples overflows")

    # Coarse bracketing on each batch's log-spaced grid, over runs of rows
    # that share one altitude. A row's search-tree root is its bracket:
    # key = run number * grid points + grid argmax.
    a = np.empty(links)
    b = np.empty(links)
    key = np.empty(links, dtype=np.intp)
    buf = np.empty(min(links, _BOUND_ROWS) * min(_BOUND_COLS, search.grid_points))
    run = runs = 0
    for k, hb in enumerate(hs):
        if k + 1 < len(hs) and hs[k + 1] == hb:
            continue
        start, stop, run = bounds[run], bounds[k + 1], k + 1
        if start == stop:
            continue
        grid, terms, blocks = _grid_terms(hb, n, env, search)
        for i in range(start, stop, _BOUND_ROWS):
            j = min(i + _BOUND_ROWS, stop)
            key[i:j] = _bracket(s1[i:j], s2[i:j], n, terms, blocks, buf)
        best = key[start:stop]
        a[start:stop] = grid[np.maximum(best - 1, 0)]
        b[start:stop] = grid[np.minimum(best + 1, search.grid_points - 1)]
        best += runs * search.grid_points
        runs += 1

    # Each batch's iteration count, from its widest bracket.
    span = b - a
    n_iter = [int(math.ceil(math.log(max(span[i:j].max(initial=0.0) / search.tol, 1.0))
                            / -math.log(_INVPHI))) + 1
              for i, j in zip(bounds[:-1], bounds[1:])]
    row_iter = np.repeat(n_iter, counts)

    h_row, lo_row = np.repeat(hs, counts), np.repeat(los, counts)
    h2_row = np.repeat([hb ** 2 for hb in hs], counts)

    # Golden-section refinement, run in lockstep across links. `tree` holds
    # (a, b, x1, x2, h): per search-tree node while rows share nodes, each
    # row then holding its node's index in `node`; per row after the
    # switch, when `node` is None. Rows whose batch has taken its steps take
    # their estimates then and leave every working array.
    node, roots = _dense_ids(key, runs * search.grid_points)
    rep = np.empty(roots.size, dtype=np.intp)
    rep[node] = np.arange(links)
    a, b, hk = a[rep], b[rep], h_row[rep]
    span = b - a
    x1, x2 = a + _INVPHI2 * span, a + _INVPHI * span
    tree = (a, b, x1, x2, hk)
    f1 = _loglik_at(x1, hk, node, n, env, s1, s2)
    f2 = _loglik_at(x2, hk, node, n, env, s1, s2)
    d_hat = np.empty(links)
    rows, s1k, s2k = np.arange(links), s1, s2
    for t in range(row_iter.max(initial=0)):
        if t in n_iter:
            done = row_iter == t
            x1, x2 = (v[done] if node is None else np.take(v, node[done]) for v in tree[2:4])
            d_hat[rows[done]] = np.where(f1[done] >= f2[done], x1, x2)
            keep = ~done
            rows, row_iter, f1, f2, s1k, s2k = (
                v[keep] for v in (rows, row_iter, f1, f2, s1k, s2k))
            if node is None:
                tree = tuple(v[keep] for v in tree)
            else:
                node = node[keep]
        # All ones where f1 >= f2: ties shrink toward the smaller distance.
        left = np.negative(f1 >= f2, dtype=np.int64)
        step = left
        if node is not None:
            # A child node per (node, side) that some row takes; its key's
            # low bit is the side.
            keys = node << 1
            keys -= left
            child, keys = _dense_ids(keys, 2 * tree[0].size)
            if _NODE_SHARE * keys.size > rows.size:
                tree, node = tuple(np.take(v, node) for v in tree), None
            else:
                step = np.negative(keys & 1)
                keys >>= 1
                tree = tuple(np.take(v, keys) for v in tree)
                node = child
        a, b, x1, x2, hk = tree
        b = _select(step, x2, b)
        a = _select(step, a, x1)
        span = b - a
        x1, x2 = a + _INVPHI2 * span, a + _INVPHI * span
        tree = (a, b, x1, x2, hk)
        # The other interior point survives on each side; keep its value.
        f_new = _loglik_at(_select(step, x1, x2), hk, node, n, env, s1k, s2k)
        f1, f2 = _select(left, f_new, f2), _select(left, f1, f_new)
    x1, x2 = (v if node is None else np.take(v, node) for v in tree[2:4])
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
