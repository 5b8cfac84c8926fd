import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import uavloc as u
from uavloc import estimation as est
from uavloc._streams import TAG_MISC, substream

from conftest import ORACLE

ENV = u.URBAN

# Constant-channel diagnostic environment: P_LoS ~ 1 for every elevation, so
# alpha ~ 2 and sigma ~ 3 dB independently of theta. The ML range then has
# the closed form d = 10^((c - k - mean(w)) / 20).
CONST_ENV = u.EnvironmentParams(a_los=3.0, b_los=1e-12, a_nlos=30.0, b_nlos=1.7,
                                a_o=1e-12, b_o=10.0, a_1=-1.5, b_1=3.5)


def make_samples(geom, env, n, rng):
    mu = u.mean_rss(geom.d, geom.theta, env)
    sigma = u.shadowing_sigma(geom.theta, env)
    return mu - sigma * rng.standard_normal(n)


def reference_moments(d, h, env):
    """Mean RSS and shadowing variance at distances `d` through the public
    functions: the composition the likelihood kernel reproduces."""
    theta = np.arcsin(h / d)
    alpha = u.path_loss_exponent(theta, env)
    mu = env.c_offset - env.k_ref - 10.0 * np.asarray(alpha) * np.log10(d)
    sigma = np.maximum(np.asarray(u.shadowing_sigma(theta, env)), est._SIGMA_FLOOR)
    return mu, sigma ** 2


def reference_loglik(d, h, env, s1, s2, n):
    """Joint log-density of n samples with sums s1, s2 at distances `d`."""
    mu, var = reference_moments(d, h, env)
    return (-0.5 * n * np.log(2.0 * math.pi * var)
            - (s2 - 2.0 * mu * s1 + n * mu ** 2) / (2.0 * var))


def mle_distance_batch_reference(samples_2d, h, env, search=None):
    """The search before row-blocked bracketing and single evaluation.

    Builds the whole (links x grid) log-likelihood at once from the public
    channel functions and evaluates both new golden-section points per
    step, discarding one.
    """
    search = search or u.SearchConfig()
    samples_2d = np.asarray(samples_2d, dtype=float)
    lo = max(h, 1.0)  # the 1 m reference distance
    hi = search.d_max
    n = samples_2d.shape[1]
    s1, s2 = est._suffstats(samples_2d)

    def loglik_at(d_vec, s1v, s2v):
        return reference_loglik(d_vec, h, env, s1v, s2v, n)

    grid = np.geomspace(lo, hi, search.grid_points)
    grid[0], grid[-1] = lo, hi
    mu_g, var_g = reference_moments(grid, h, env)
    ll = (-0.5 * n * np.log(2.0 * math.pi * var_g)[None, :]
          - (s2[:, None] - 2.0 * np.outer(s1, mu_g) + n * mu_g[None, :] ** 2)
          / (2.0 * var_g[None, :]))
    best = np.argmax(ll, axis=1)

    a = grid[np.maximum(best - 1, 0)]
    b = grid[np.minimum(best + 1, search.grid_points - 1)]

    span = b - a
    x1 = a + est._INVPHI2 * span
    x2 = a + est._INVPHI * span
    f1 = loglik_at(x1, s1, s2)
    f2 = loglik_at(x2, s1, s2)
    n_iter = int(math.ceil(math.log(max(span.max() / search.tol, 1.0))
                           / -math.log(est._INVPHI))) + 1
    for _ in range(n_iter):
        left = f1 >= f2
        b = np.where(left, x2, b)
        a = np.where(left, a, x1)
        span = b - a
        x1n = a + est._INVPHI2 * span
        x2n = a + est._INVPHI * span
        f1, f2 = np.where(left, loglik_at(x1n, s1, s2), f2), \
            np.where(left, f1, loglik_at(x2n, s1, s2))
        x1, x2 = x1n, x2n

    d_hat = np.where(f1 >= f2, x1, x2)
    d_hat = np.clip(d_hat, lo, hi)
    boundary = (d_hat <= lo + search.tol) | (d_hat >= hi - search.tol)
    d_hat = np.where(d_hat <= lo + search.tol, lo, d_hat)
    r_hat = np.sqrt(np.maximum(d_hat ** 2 - h ** 2, 0.0))
    ll_hat = loglik_at(d_hat, s1, s2)
    return d_hat, r_hat, ll_hat, boundary


def ranging_batch(env, rows, n, h, seed):
    """Samples for `rows` links at random ranges; with two or more rows the
    first is pinned at d = h and the last at d_max."""
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.0, 3000.0, rows)
    theta = np.arctan2(h, r)
    mu = u.mean_rss(np.hypot(r, h), theta, env)
    sigma = u.shadowing_sigma(theta, env)
    w = mu[:, None] - sigma[:, None] * rng.standard_normal((rows, n))
    if rows > 1:
        # Slightly above the overhead-link mean: implies a distance below h.
        w[0] = u.mean_rss(h, math.pi / 2.0, env) + 0.02
        w[-1] = -400.0
    return w


class TestCrlb:
    def test_oracle_single_sample(self):
        g = u.LinkGeometry(r=500.0, h=500.0)
        assert u.crlb_sigma(g, ENV) == pytest.approx(
            ORACLE["crlb_rr_1"], rel=1e-12)

    def test_oracle_five_samples(self):
        g = u.LinkGeometry(r=500.0, h=500.0)
        assert u.crlb_sigma(g, ENV, n_samples=5) == pytest.approx(
            ORACLE["crlb_rr_5"], rel=1e-12)

    def test_oracle_suburban(self):
        g = u.LinkGeometry(r=200.0, h=800.0)
        assert u.crlb_sigma(g, u.SUBURBAN) == pytest.approx(
            ORACLE["crlb_suburban_200_800"], rel=1e-12)

    def test_sample_count_scaling(self):
        g = u.LinkGeometry(r=300.0, h=700.0)
        base = u.crlb_sigma(g, ENV)
        for n in (2, 5, 16, 100):
            assert u.crlb_sigma(g, ENV, n_samples=n) == pytest.approx(
                base / math.sqrt(n), rel=1e-14)
        with pytest.raises(ValueError):
            u.crlb_sigma(g, ENV, n_samples=0)
        for bad in (math.nan, 2.5, True):
            with pytest.raises(ValueError, match="n_samples must be an integer"):
                u.crlb_sigma(g, ENV, n_samples=bad)

    def test_linear_in_distance_at_fixed_elevation(self):
        theta = 0.6
        d = np.array([10.0, 100.0, 1000.0])
        vals = u.crlb_sigma_values(d, theta, ENV)
        np.testing.assert_allclose(vals / d, vals[0] / d[0], rtol=1e-14)

    def test_closed_form_factors(self):
        d, theta = 900.0, 0.35
        expect = (d * math.log(10.0) / 10.0
                  * u.shadowing_sigma(theta, ENV)
                  / u.path_loss_exponent(theta, ENV))
        assert u.crlb_sigma_values(d, theta, ENV) == pytest.approx(
            expect, rel=1e-14)

    def test_below_reference_distance_rejected(self):
        with pytest.raises(ValueError):
            u.crlb_sigma_values(0.5, 0.3, ENV)

    @pytest.mark.parametrize("d", [math.nan, math.inf, [500.0, math.nan]])
    def test_non_finite_distance_rejected(self, d):
        with pytest.raises(ValueError, match="distance d must be finite"):
            u.crlb_sigma_values(d, 0.5, ENV)

    def test_altitude_shape_near_node(self):
        # r = 10 m: raising the anchor only stretches the link, the bound
        # grows monotonically with altitude.
        hs = np.arange(100.0, 3001.0, 50.0)
        vals = np.array([u.crlb_sigma(u.LinkGeometry(r=10.0, h=h), ENV)
                         for h in hs])
        assert np.all(np.diff(vals) > 0.0)

    def test_altitude_shape_far_node(self):
        # r = 1000 m: climbing first buys elevation (smaller sigma, larger
        # alpha) before the extra distance dominates, so the bound has an
        # interior minimum on the grid.
        hs = np.arange(100.0, 3001.0, 50.0)
        vals = np.array([u.crlb_sigma(u.LinkGeometry(r=1000.0, h=h), ENV)
                         for h in hs])
        k = int(np.argmin(vals))
        assert 0 < k < len(hs) - 1
        assert vals[k] < vals[0] and vals[k] < vals[-1]


class TestScoreAndFisher:
    def test_score_zero_at_model_mean(self):
        rng = np.random.default_rng(5)
        links = [(500.0, 500.0), *zip(rng.uniform(0.0, 5000.0, 200),
                                      rng.uniform(50.0, 3000.0, 200))]
        for env in (u.URBAN, u.SUBURBAN, OFFSET_ENV):
            for r, h in links:
                g = u.LinkGeometry(r=float(r), h=float(h))
                mu = u.mean_rss(g.d, g.theta, env)
                assert u.score(mu, g, env) == 0.0, (env, r, h)
                assert np.all(u.score(np.full(3, mu), g, env) == 0.0)

    def test_score_sign(self):
        # Stronger-than-expected power implies a shorter link: d must shrink,
        # so the log-density slope in d at the truth is negative.
        g = u.LinkGeometry(r=500.0, h=500.0)
        mu = u.mean_rss(g.d, g.theta, ENV)
        assert u.score(mu + 3.0, g, ENV) < 0.0
        assert u.score(mu - 3.0, g, ENV) > 0.0

    def test_score_mean_zero(self):
        g = u.LinkGeometry(r=700.0, h=400.0)
        w = make_samples(g, ENV, 200_000, np.random.default_rng(11))
        s = u.score(w, g, ENV)
        assert abs(s.mean()) < 4.0 * s.std() / math.sqrt(s.size)

    def test_score_rejects_zero_shadowing(self):
        g = u.LinkGeometry(r=500.0, h=500.0)
        with pytest.raises(ValueError):
            u.score(-100.0, g, u.without_shadowing(ENV))

    @pytest.mark.parametrize("w", [math.nan, math.inf, [1.0, math.nan]],
                             ids=["nan", "inf", "list-with-nan"])
    def test_score_rejects_non_finite_power(self, w):
        # The same message as log_likelihood gives for the same samples.
        with pytest.raises(ValueError, match="RSS samples must be finite"):
            u.score(w, u.LinkGeometry(100.0, 100.0), u.URBAN)

    def test_fisher_matches_closed_form(self):
        # 1/sqrt(E[score^2]) converges to the closed-form bound.
        cases = [(500.0, 500.0), (200.0, 800.0), (1500.0, 300.0)]
        for i, (r, h) in enumerate(cases):
            g = u.LinkGeometry(r=r, h=h)
            info = u.fisher_information_numeric(
                g, ENV, 200_000, substream(42, TAG_MISC, i))
            assert 1.0 / math.sqrt(info) == pytest.approx(
                u.crlb_sigma(g, ENV), rel=0.01)

    def test_fisher_rejects_bad_mc(self):
        g = u.LinkGeometry(r=500.0, h=500.0)
        with pytest.raises(ValueError):
            u.fisher_information_numeric(g, ENV, 0, np.random.default_rng(0))
        for bad in (2.5, True):
            with pytest.raises(ValueError, match="mc must be an integer"):
                u.fisher_information_numeric(g, ENV, bad, np.random.default_rng(0))


class TestLogLikelihood:
    def test_peak_density_value(self):
        # Single sample equal to the model mean at the true distance: the
        # log-density is -log(sigma * sqrt(2 pi)).
        g = u.LinkGeometry(r=500.0, h=500.0)
        mu = u.mean_rss(g.d, g.theta, ENV)
        assert u.log_likelihood(g.d, [mu], g.h, ENV) == pytest.approx(
            ORACLE["logpdf_peak_rr"], rel=1e-10)

    def test_scalar_and_array_forms_agree(self):
        g = u.LinkGeometry(r=300.0, h=500.0)
        w = make_samples(g, ENV, 5, np.random.default_rng(2))
        d = np.array([600.0, 700.0, 800.0])
        arr = u.log_likelihood(d, w, g.h, ENV)
        assert arr.shape == (3,)
        for k, dk in enumerate(d):
            scalar = u.log_likelihood(float(dk), w, g.h, ENV)
            assert isinstance(scalar, float)
            assert scalar == arr[k]

    def test_domain_errors(self):
        g = u.LinkGeometry(r=300.0, h=500.0)
        with pytest.raises(ValueError):
            u.log_likelihood(499.0, [-80.0], g.h, ENV)
        for d in (math.nan, math.inf, [600.0, math.nan]):
            with pytest.raises(ValueError, match="distance d must be finite"):
                u.log_likelihood(d, [-80.0], g.h, ENV)
        for h in (math.nan, math.inf, 0.0, -100.0):
            with pytest.raises(ValueError, match="altitude h must be finite and > 0"):
                u.log_likelihood(600.0, [-80.0], h, ENV)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="samples must be finite"):
                u.log_likelihood(600.0, [-80.0, bad], g.h, ENV)
        # Finite samples whose sum of squares overflows.
        with pytest.raises(ValueError, match="sum of squared RSS samples overflows"):
            u.log_likelihood(600.0, [-1e154] * 5, g.h, ENV)

    def test_samples_must_be_non_empty_1d(self):
        for samples in ([], np.zeros((2, 2)), -80.0):
            with pytest.raises(ValueError, match="non-empty 1-D"):
                u.log_likelihood(600.0, samples, 500.0, ENV)
            with pytest.raises(ValueError, match="non-empty 1-D"):
                u.mle_distance(samples, 500.0, ENV)
        # Any sequence of numbers is accepted as one link's samples.
        assert u.log_likelihood(600.0, [-70.0, -71.0], 500.0, ENV) == \
            u.log_likelihood(600.0, np.array([-70.0, -71.0]), 500.0, ENV)

    def test_same_formula_as_the_search(self):
        # The search's log-likelihood at its own estimate, and at the other
        # candidates, is the public function's value bit for bit.
        g = u.LinkGeometry(r=700.0, h=400.0)
        w = make_samples(g, ENV, 5, np.random.default_rng(29))
        d_hat, _, ll_hat, _ = u.mle_distance_batch(w[None, :], g.h, ENV)
        assert u.log_likelihood(d_hat[0], w, g.h, ENV) == ll_hat[0]
        d = np.array([g.h, 900.0, 5000.0])
        (s1,), (s2,) = est._suffstats(w[None, :])
        want = reference_loglik(d, g.h, ENV, s1, s2, w.size)
        assert u.log_likelihood(d, w, g.h, ENV).tobytes() == want.tobytes()

    def test_truth_dominates_on_average(self):
        g = u.LinkGeometry(r=600.0, h=400.0)
        z = np.random.default_rng(3).standard_normal((3000, 5))
        mu = u.mean_rss(g.d, g.theta, ENV)
        sigma = u.shadowing_sigma(g.theta, ENV)
        ll_true = np.empty(3000)
        ll_far = np.empty(3000)
        for i in range(3000):
            s = mu - sigma * z[i]
            ll_true[i] = u.log_likelihood(g.d, s, g.h, ENV)
            ll_far[i] = u.log_likelihood(1.5 * g.d, s, g.h, ENV)
        assert ll_true.mean() > ll_far.mean() + 5.0


# A nonzero c_offset makes (c_offset - k_ref) - x differ from
# (c_offset - x) - k_ref, so the mean's operation order shows.
OFFSET_ENV = replace(u.SUBURBAN, c_offset=17.3, k_ref=41.0)
KERNEL_ENVS = [u.URBAN, u.SUBURBAN, CONST_ENV, u.without_shadowing(u.URBAN), OFFSET_ENV]
KERNEL_ENV_IDS = ["urban", "suburban", "const", "no_shadowing", "offset"]


class TestLikelihoodKernel:
    """The unchecked kernel equals the public composition asin(h / d)
    -> path_loss_exponent / shadowing_sigma -> log-density, byte for byte."""

    @staticmethod
    def links(h, n, seed, rows=300):
        """Distances in [h, d_max], both ends included, and sample sums."""
        rng = np.random.default_rng(seed)
        h = np.broadcast_to(h, rows)
        d = h + rng.uniform(0.0, 1.0, rows) * (20000.0 - h)
        d[0], d[-1] = h[0], 20000.0
        s1, s2 = est._suffstats(rng.normal(-100.0, 10.0, (rows, n)))
        return d, s1, s2

    @pytest.mark.parametrize("env", KERNEL_ENVS, ids=KERNEL_ENV_IDS)
    @pytest.mark.parametrize("n", [1, 5, 30])
    def test_byte_equal(self, env, n):
        h = 400.0
        d, s1, s2 = self.links(h, n, seed=n)
        mu, var = reference_moments(d, h, env)
        want = (-0.5 * n * np.log(2.0 * math.pi * var), 2.0 * mu, n * mu ** 2, 2.0 * var)
        for g, r in zip(est._loglik_terms(d, h, n, env), want):
            assert g.tobytes() == r.tobytes()
        want = reference_loglik(d, h, env, s1, s2, n)
        assert est._loglik(d, h, n, env, s1, s2).tobytes() == want.tobytes()
        # One link's stats shared by every distance, as in log_likelihood.
        want = reference_loglik(d, h, env, s1[0], s2[0], n)
        assert est._loglik(d, h, n, env, s1[0], s2[0]).tobytes() == want.tobytes()

    @pytest.mark.parametrize("env", KERNEL_ENVS, ids=KERNEL_ENV_IDS)
    @pytest.mark.parametrize("n", [1, 5, 30])
    def test_per_row_altitude(self, env, n):
        h = np.random.default_rng(n).uniform(50.0, 3000.0, 300)
        d, s1, s2 = self.links(h, n, seed=n + 1)
        want = reference_loglik(d, h, env, s1, s2, n)
        assert est._loglik(d, h, n, env, s1, s2).tobytes() == want.tobytes()


class TestSufficientStatistics:
    """`_suffstats` gives the bits of numpy's row sums, whatever the path."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_equals_numpy_row_sums(self, n):
        rng = np.random.default_rng(n)
        w = rng.normal(-100.0, 10.0, (500, n)) * rng.choice([1.0, 1e8, 1e-8], (500, n))
        w[0] = -0.0  # sums to +0.0, as numpy starts from 0
        w[1, ::2] = 0.0
        w[1, 1::2] = -0.0
        w[2] = 1e200  # the squares overflow to inf
        w[3, 0], w[3, 1:] = 1e16, 1.0  # differs between orders of addition
        for samples in (w, np.asfortranarray(w), np.repeat(w, 2, axis=1)[:, ::2]):
            s1, s2 = est._suffstats(samples)
            with np.errstate(over="ignore"):
                want1, want2 = samples.sum(axis=1), (samples ** 2).sum(axis=1)
            assert s1.dtype == s2.dtype == np.float64 and s1.shape == s2.shape == (500,)
            assert s1.tobytes() == want1.tobytes() and s2.tobytes() == want2.tobytes()
        assert s2[2] == math.inf and math.copysign(1.0, s1[0]) == 1.0


class TestSearchConfig:
    def test_defaults(self):
        cfg = u.SearchConfig()
        assert cfg.d_max == 20000.0
        assert cfg.grid_points == 256
        assert cfg.tol == 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            u.SearchConfig(d_max=0.0)
        with pytest.raises(ValueError):
            u.SearchConfig(grid_points=2)
        with pytest.raises(ValueError):
            u.SearchConfig(tol=0.0)

    @pytest.mark.parametrize("bad", [256.5, 3.5])
    def test_rejects_non_integral_grid_points(self, bad):
        with pytest.raises(ValueError, match="grid_points must be an integer"):
            u.SearchConfig(grid_points=bad)


class TestMleDistance:
    def test_zero_noise_recovers_distance(self):
        envq = u.without_shadowing(ENV)
        for r, h in [(800.0, 250.0), (100.0, 900.0), (2500.0, 500.0)]:
            g = u.LinkGeometry(r=r, h=h)
            mu = u.mean_rss(g.d, g.theta, envq)
            w = np.full((1, 5), mu)
            d_hat, r_hat, _, boundary = u.mle_distance_batch(w, h, envq)
            assert not boundary[0]
            assert d_hat[0] == pytest.approx(g.d, abs=0.05)
            assert r_hat[0] == pytest.approx(g.r, abs=0.25)

    def test_constant_channel_closed_form(self):
        # With alpha and sigma independent of elevation the ML distance is
        # 10^((c - k - mean(w)) / 20); the search must reproduce it.
        h = 300.0
        rng = np.random.default_rng(5)
        g = u.LinkGeometry(r=900.0, h=h)
        mu = u.mean_rss(g.d, g.theta, CONST_ENV)
        w = mu - 3.0 * rng.standard_normal((6, 5))
        d_hat, _, _, boundary = u.mle_distance_batch(w, h, CONST_ENV)
        closed = 10.0 ** ((CONST_ENV.c_offset - CONST_ENV.k_ref
                           - w.mean(axis=1)) / 20.0)
        assert not boundary.any()
        np.testing.assert_allclose(d_hat, closed, atol=0.02)

    def test_never_worse_than_reference_optimizer(self):
        # The objective is multimodal in d, so locations can differ between
        # optimizers; the found likelihood must never fall below what a
        # bounded scalar minimizer achieves.
        h = 400.0
        rng = np.random.default_rng(17)
        rows = []
        for _ in range(20):
            g = u.LinkGeometry(r=float(rng.uniform(50.0, 2500.0)), h=h)
            rows.append(make_samples(g, ENV, 5, rng))
        _, _, ll_hat, _ = u.mle_distance_batch(np.array(rows), h, ENV)
        for i, s in enumerate(rows):
            res = minimize_scalar(
                lambda d: -u.log_likelihood(float(d), s, h, ENV),
                bounds=(h, 20000.0), method="bounded",
                options={"xatol": 1e-6})
            assert ll_hat[i] >= -float(res.fun) - 1e-6

    def test_local_maximality(self):
        h = 400.0
        rng = np.random.default_rng(23)
        g = u.LinkGeometry(r=700.0, h=h)
        s = make_samples(g, ENV, 5, rng)
        est = u.mle_distance(s, h, ENV)
        assert not est.boundary
        ll0 = u.log_likelihood(est.d_hat, s, h, ENV)
        assert ll0 >= u.log_likelihood(est.d_hat + 0.5, s, h, ENV) - 1e-9
        assert ll0 >= u.log_likelihood(max(est.d_hat - 0.5, h), s, h, ENV) - 1e-9

    def test_offset_shift_leaves_estimate_unchanged(self):
        # c_offset adds the same constant to the samples and to the model
        # mean, so it cancels from the likelihood exactly.
        h = 400.0
        rng = np.random.default_rng(17)
        w = np.array([make_samples(u.LinkGeometry(r=r, h=h), ENV, 5, rng)
                      for r in (150.0, 600.0, 1800.0)])
        d0, r0, _, _ = u.mle_distance_batch(w, h, ENV)
        env25 = replace(ENV, c_offset=25.0)
        d1, r1, _, _ = u.mle_distance_batch(w + 25.0, h, env25)
        np.testing.assert_array_equal(d0, d1)
        np.testing.assert_array_equal(r0, r1)

    def test_boundary_flags(self):
        h = 500.0
        # Power slightly above the overhead-link mean: the implied distance
        # is below h, so the maximizer pins at d = h and r_hat collapses.
        mu0 = u.mean_rss(h, math.pi / 2.0, ENV)
        strong = np.full((1, 5), mu0 + 0.05)
        d_hi, r_hi, _, b_hi = u.mle_distance_batch(strong, h, ENV)
        assert b_hi[0] and d_hi[0] == h and r_hi[0] == 0.0
        # Absurdly weak power: the maximizer runs into d_max.
        weak = np.full((1, 5), -400.0)
        d_lo, _, _, b_lo = u.mle_distance_batch(weak, h, ENV)
        assert b_lo[0] and d_lo[0] >= 20000.0 - 1.0

    def test_bias_small_against_spread(self):
        g = u.LinkGeometry(r=500.0, h=500.0)
        mu = u.mean_rss(g.d, g.theta, ENV)
        sigma = u.shadowing_sigma(g.theta, ENV)
        z = np.random.default_rng(31).standard_normal((4000, 5))
        d_hat, _, _, _ = u.mle_distance_batch(mu - sigma * z, g.h, ENV)
        assert abs(d_hat.mean() - g.d) <= 0.3 * d_hat.std(ddof=1)

    def test_spread_within_sanity_envelope_of_bound(self):
        # Broad envelope only: the estimator exploits the elevation-dependent
        # mean model, so its spread can sit well below the fixed-elevation
        # bound. The tight comparison lives in the acceptance suite.
        g = u.LinkGeometry(r=500.0, h=500.0)
        mu = u.mean_rss(g.d, g.theta, ENV)
        sigma = u.shadowing_sigma(g.theta, ENV)
        z = np.random.default_rng(31).standard_normal((4000, 5))
        d_hat, _, _, _ = u.mle_distance_batch(mu - sigma * z, g.h, ENV)
        ratio = d_hat.std(ddof=1) / u.crlb_sigma(g, ENV, n_samples=5)
        assert 0.1 <= ratio <= 1.2

    def test_single_set_wrapper(self):
        g = u.LinkGeometry(r=500.0, h=500.0)
        w = make_samples(g, ENV, 5, np.random.default_rng(7))
        est = u.mle_distance(w, g.h, ENV)
        d_hat, r_hat, ll_hat, boundary = u.mle_distance_batch(
            w[None, :], g.h, ENV)
        assert est.d_hat == d_hat[0]
        assert est.r_hat == r_hat[0]
        assert est.log_likelihood == ll_hat[0]
        assert est.boundary == bool(boundary[0])
        assert est.r_hat == pytest.approx(
            math.sqrt(est.d_hat ** 2 - g.h ** 2), rel=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            u.mle_distance_batch(np.zeros((2, 0)), 100.0, ENV)
        with pytest.raises(ValueError):
            u.mle_distance_batch(np.zeros(5), 100.0, ENV)
        with pytest.raises(ValueError):
            u.mle_distance_batch(np.zeros((1, 5)), 0.0, ENV)
        with pytest.raises(ValueError):
            u.mle_distance_batch(np.zeros((1, 5)), 100.0, ENV,
                                 u.SearchConfig(d_max=50.0))
        w = np.full((3, 5), -80.0)
        w[1] = -1e154  # finite, but five squares overflow their sum
        with pytest.raises(ValueError, match="sum of squared RSS samples overflows"):
            u.mle_distance_batch(w, 100.0, ENV)

    def test_zero_links_give_empty_results(self):
        out = u.mle_distance_batch(np.zeros((0, 5)), 100.0, ENV)
        assert [a.shape for a in out] == [(0,)] * 4
        assert out[3].dtype == bool

    @pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_altitude(self, h):
        with pytest.raises(ValueError, match="altitude h must be finite"):
            u.mle_distance_batch(np.full((2, 5), -80.0), h, ENV)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_samples(self, bad):
        w = np.full((3, 5), -80.0)
        w[1] = bad  # a whole row, as a dropped link would deliver it
        with pytest.raises(ValueError, match="samples must be finite"):
            u.mle_distance_batch(w, 100.0, ENV)
        w = np.full((3, 5), -80.0)
        w[2, 4] = bad
        with pytest.raises(ValueError, match="samples must be finite"):
            u.mle_distance_batch(w, 100.0, ENV)


def counting(real, sizes):
    """`real`, appending the size of its first argument to `sizes` per call."""
    def spy(d, *args):
        sizes.append(np.size(d))
        return real(d, *args)
    return spy


_B = est._BOUND_ROWS
#: Row counts around powers of two, and at the edges of one bound chunk of
#: B = _BOUND_ROWS rows, the most a dense pass holds.
BLOCK_EDGE_ROWS = sorted({1, 255, 256, 257, 519, 1023, 1024, 1025, 2055, 4095, 4096, 4097,
                          _B - 1, _B, _B + 1})


class TestSearchMatchesReference:
    """Row-blocked bracketing and one evaluation per golden-section step
    reproduce the full-grid, two-evaluation search byte for byte."""

    @pytest.mark.parametrize("env", [u.URBAN, u.SUBURBAN, u.without_shadowing(u.URBAN)],
                             ids=["urban", "suburban", "no_shadowing"])
    @pytest.mark.parametrize("n", [1, 5, 30])
    @pytest.mark.parametrize("rows", BLOCK_EDGE_ROWS)
    def test_byte_equal(self, env, n, rows):
        # B rows fill one bound chunk exactly; B - 1 and B + 1 end on
        # partial chunks.
        h = 400.0
        w = ranging_batch(env, rows, n, h, seed=rows * 31 + n)
        got = u.mle_distance_batch(w, h, env)
        want = mle_distance_batch_reference(w, h, env)
        for g, r in zip(got, want):
            assert g.dtype == r.dtype and g.shape == r.shape
            assert g.tobytes() == r.tobytes()
        if rows > 1:
            d_hat, _, _, boundary = got
            assert boundary[0] and d_hat[0] == h
            assert boundary[-1] and d_hat[-1] >= 20000.0 - 1.0

    @pytest.mark.parametrize("env", [u.URBAN, u.SUBURBAN, u.without_shadowing(u.URBAN)],
                             ids=["urban", "suburban", "no_shadowing"])
    @pytest.mark.parametrize("h", [50.0, 700.0, 3000.0])
    @pytest.mark.parametrize("grid_points", [3, 37, 255, 257])
    def test_byte_equal_any_grid(self, env, h, grid_points):
        # 3 and 37 points are no wider than the dense window; 255 and 257
        # end on a ragged bound block (15 columns and 1).
        search = u.SearchConfig(grid_points=grid_points)
        w = ranging_batch(env, 300, 5, h, seed=grid_points + int(h))
        got = u.mle_distance_batch(w, h, env, search)
        want = mle_distance_batch_reference(w, h, env, search)
        for g, r in zip(got, want):
            assert g.dtype == r.dtype and g.tobytes() == r.tobytes()
        d_hat, _, _, boundary = got
        assert boundary[-1] and d_hat[-1] >= 20000.0 - 1.0
        # Three points bracket the whole range, where golden-section can
        # settle on an interior maximum instead of the pinned end.
        assert grid_points == 3 or (boundary[0] and d_hat[0] == h)

    def test_one_evaluation_per_golden_section_step(self, monkeypatch):
        sizes = []
        # The reference evaluates through reference_moments, the search
        # through the kernel.
        monkeypatch.setitem(globals(), "reference_moments", counting(reference_moments, sizes))
        monkeypatch.setattr(est, "_loglik_terms", counting(est._loglik_terms, sizes))
        rows, h = 50, 400.0
        w = ranging_batch(ENV, rows, 5, h, seed=3)
        mle_distance_batch_reference(w, h, ENV)
        ref_sizes, sizes[:] = sizes[:], []
        u.mle_distance_batch(w, h, ENV)
        # Reference: 1 (grid) + 2 (start) + 2 * n_iter + 1 (final).
        n_iter = (len(ref_sizes) - 4) // 2
        assert n_iter >= 1 and len(ref_sizes) == 4 + 2 * n_iter
        assert len(sizes) == 1 + 2 + n_iter + 1
        assert sizes[0] == u.SearchConfig().grid_points and sizes[-1] == rows
        # Rows on one search-tree node share its evaluation, so neither
        # starting point nor any step evaluates more points than there are
        # rows still refining.
        assert all(1 <= size <= rows for size in sizes[1:-1])

    @pytest.mark.parametrize("distinct", [1, 2])
    def test_duplicated_rows_share_each_step(self, monkeypatch, distinct):
        # Copies of one link take the same path down the search tree, so
        # `distinct` links repeated evaluate at most `distinct` new points
        # per starting point and per step, and give the reference's bytes.
        h = 400.0
        w = np.repeat(ranging_batch(ENV, 12, 5, h, seed=8)[4:4 + distinct], 30, axis=0)
        sizes = []
        monkeypatch.setattr(est, "_loglik_terms", counting(est._loglik_terms, sizes))
        got = u.mle_distance_batch(w, h, ENV)
        assert sizes[-1] == w.shape[0] and len(sizes) > 4
        assert all(1 <= size <= distinct for size in sizes[1:-1])
        assert distinct == 1 or max(sizes[1:-1]) == 2
        for g, r in zip(got, mle_distance_batch_reference(w, h, ENV)):
            assert g.tobytes() == r.tobytes()
        assert np.unique(got[0]).size == distinct

    @pytest.mark.parametrize("short", [0, 1])
    def test_level_on_the_switch_threshold(self, monkeypatch, short):
        # Six links, each copied _NODE_SHARE times (less one row when
        # `short`), in one batch. Once the six have parted, the next level
        # holds six nodes: _NODE_SHARE x 6 equals the rows, so the steps
        # stay shared; one row fewer and that level switches to per-row
        # steps. Both give the reference's bytes.
        share, h = est._NODE_SHARE, 400.0
        links = ranging_batch(ENV, 8, 5, h, seed=21)[1:-1]
        w = np.repeat(links, share, axis=0)[short:]
        levels = []
        dense_ids = est._dense_ids

        def spy(keys, size):
            ids, present = dense_ids(keys, size)
            levels.append((keys.size, present.size))
            return ids, present

        monkeypatch.setattr(est, "_dense_ids", spy)
        got = u.mle_distance_batch(w, h, ENV)
        steps = levels[1:]  # levels[0] is the roots
        on_threshold = [share * nodes == rows for rows, nodes in steps]
        if short:
            assert share * steps[-1][1] > steps[-1][0] == w.shape[0]
            assert not any(on_threshold)
        else:
            assert steps[-1][1] == 6 and on_threshold[-1]
            assert len(steps) == golden_steps(w, h)  # shared to the end
        for g, r in zip(got, mle_distance_batch_reference(w, h, ENV)):
            assert g.tobytes() == r.tobytes()
        for g, r in zip(got, u.mle_distance_batch(w[::-1], h, ENV)):
            assert g.tobytes() == r[::-1].tobytes()


class TestPrunedBracketing:
    """The two certified stages do the work; no pass spans the full grid."""

    @pytest.mark.parametrize("h,one_block", [(100.0, False), (300.0, True)])
    def test_no_full_grid_pass(self, monkeypatch, h, one_block):
        # crlb-table cells at r = 500 m. At h = 100 m the NLoS likelihood
        # is flat and every row is reached by several blocks; at 300 m
        # most rows by one.
        calls = []
        real = est._dense_argmax

        def spy(s1, s2, terms, lo, hi, *args):
            calls.append((s1.copy(), min(hi, terms[0].size) - lo))
            return real(s1, s2, terms, lo, hi, *args)

        monkeypatch.setattr(est, "_dense_argmax", spy)
        geom = u.LinkGeometry(r=500.0, h=h)
        sigma = u.shadowing_sigma(geom.theta, ENV)
        z = np.random.default_rng(0).standard_normal((2000, 5))
        w = u.mean_rss(geom.d, geom.theta, ENV) - sigma * z
        u.mle_distance_batch(w, geom.h, ENV)
        grid = u.SearchConfig().grid_points
        assert max(width for _, width in calls) == est._BOUND_COLS < grid
        assert sum(s1.size * width for s1, width in calls) / 2000 < grid / 3
        # Rows are told apart by their sums; count the blocks each takes.
        s1_all = est._suffstats(w)[0]
        assert np.unique(s1_all).size == 2000
        seen, blocks = np.unique(np.concatenate([s1 for s1, _ in calls]), return_counts=True)
        assert seen.tobytes() == np.sort(s1_all).tobytes()
        assert np.any(blocks > 1)
        assert np.any(blocks == 1) == one_block

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_ties_across_blocks_keep_the_first(self, zero):
        # ll = c0 - s2 on three blocks: the maximum ties between block 0
        # and block 2 (as -0.0 against +0.0 at s2 = 0), and every block
        # reaches, so the later block must not take the row.
        cols, n = 3 * est._BOUND_COLS, 5
        c0 = np.full(cols, -3.0)
        c0[[5, 2 * est._BOUND_COLS + 5]] = zero, -zero
        c0[est._BOUND_COLS + 5] = -1.0
        terms = (c0, np.zeros(cols), np.zeros(cols), np.ones(cols))
        s1 = np.linspace(-1.0, 1.0, 7)
        s2 = s1 ** 2 / n
        s2[0] = s1[0] = 0.0
        got = est._bracket(s1, s2, n, terms, est._bounds(terms, n), np.empty(7 * cols))
        assert got.tolist() == [5] * 7

    def test_column_major_first_max_on_ties(self):
        # ll = c0 - ((s2 - s1 * 0) + 0) / 1 = c0 - s2, so the columns of a
        # row tie wherever c0 does; -0.0 - 0.0 is -0.0 and ties with +0.0.
        rng = np.random.default_rng(11)
        cols, rows = 40, 300
        values = np.array([-1.0, -0.0, 0.0, 1.0, 5e-324, -5e-324])
        c0 = rng.choice(values, size=cols)
        c0[[3, 17]] = c0.max()
        terms = (c0, np.zeros(cols), np.zeros(cols), np.ones(cols))
        s1 = np.zeros(rows)
        s2 = rng.choice([0.0, 1.0, 2.0], size=rows)
        s2[::3] = 0.0
        dense = c0 - ((s2[:, None] - s1[:, None] * terms[1]) + terms[2]) / terms[3]
        for lo, hi in ((0, cols), (3, 19), (4, 17), (10, 11), (30, 50)):
            best, top = est._dense_argmax(s1, s2, terms, lo, hi, np.empty(rows * cols))
            want = lo + np.argmax(dense[:, lo:hi], axis=1)
            assert best.dtype == np.intp and best.tobytes() == want.tobytes()
            assert (top == dense[:, lo:hi].max(axis=1)).all()
        # Only signed zeros: the first one wins, whatever its sign.
        for first in (-0.0, 0.0):
            zeros = np.array([first, -first, first, -first])
            tie = (zeros, np.zeros(4), np.zeros(4), np.ones(4))
            best, _ = est._dense_argmax(np.zeros(2), np.zeros(2), tie, 0, 4, np.empty(8))
            assert best.tolist() == [0, 0]

    @pytest.mark.parametrize("bits", [
        0x0000000000000000, 0x8000000000000000,  # +0.0, -0.0
        0x0000000000000001, 0x800fffffffffffff,  # subnormals
        0x7ff0000000000000, 0xfff0000000000000,  # +inf, -inf
        0x7ff8000000000000, 0xfff8000000000001,  # quiet NaNs with payloads
        0x7ff0000000000001, 0x7ff4dead0000beef,  # signalling NaNs
        0x3ff0000000000000])                     # 1.0
    def test_select_copies_bits_like_where(self, bits):
        rng = np.random.default_rng(bits % 2**32)
        special = np.array([bits], dtype=np.uint64).view(np.float64)
        others = rng.standard_normal(64)
        others[::7] = special[0]
        for x, y in ((np.full(64, special[0]), others), (others, np.full(64, special[0]))):
            cond = rng.random(64) < 0.5
            got = est._select(np.negative(cond, dtype=np.int64), x, y)
            want = np.where(cond, x, y)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
            assert got.tobytes() == np.array([
                (a if c else b) for a, b, c in zip(x.view(np.uint64), y.view(np.uint64), cond)],
                dtype=np.uint64).tobytes()


def golden_steps(w, h, env=ENV):
    """Golden-section steps the search takes on `w` as one batch."""
    sizes = []
    real = est._loglik_terms
    est._loglik_terms = counting(real, sizes)
    try:
        u.mle_distance_batch(w, h, env)
    finally:
        est._loglik_terms = real
    return len(sizes) - 4  # grid, two starting points, final value


def multi_batches(env, n):
    """(samples, h) per batch: unpinned rows, an empty batch, a batch with
    a row pinned at d_max (so a larger iteration count), a second altitude
    and a single row at the altitude floor."""
    return [(ranging_batch(env, 32, n, 400.0, seed=n)[1:-1], 400.0),
            (np.empty((0, n)), 700.0),
            (ranging_batch(env, 20, n, 400.0, seed=n + 1), 400.0),
            (ranging_batch(env, 27, n, 1500.0, seed=n + 2)[1:-1], 1500.0),
            (ranging_batch(env, 1, n, 50.0, seed=n + 3), 50.0)]


def block_crossing_batches(env, n):
    """(samples, h) per batch: one run of 200, 0 and 120 rows at 400 m that
    crosses a 256-row bound chunk, then 30 rows at 1500 m. The run's first
    batch is noise-free and the other two have a row pinned at d_max, so the
    three take different step counts and the run's later batch the most."""
    return [(ranging_batch(u.without_shadowing(env), 202, n, 400.0, seed=n + 4)[1:-1], 400.0),
            (np.empty((0, n)), 400.0),
            (ranging_batch(env, 120, n, 400.0, seed=n + 5), 400.0),
            (ranging_batch(env, 31, n, 1500.0, seed=n + 6)[1:], 1500.0)]


def range_together(batches, env):
    offsets = np.cumsum([0] + [w.shape[0] for w, _ in batches])
    out = u.mle_distance_batch(np.concatenate([w for w, _ in batches]),
                               [h for _, h in batches], env, offsets=offsets)
    return out, offsets


class TestMultiBatchMatchesAlone:
    """Several batches ranged in one call give every row the result of its
    batch ranged alone, each batch keeping its own iteration count."""

    @pytest.mark.parametrize("env", [u.URBAN, u.SUBURBAN], ids=["urban", "suburban"])
    @pytest.mark.parametrize("n", [1, 5, 30])
    def test_byte_equal(self, env, n):
        batches = multi_batches(env, n)
        steps = [golden_steps(w, h, env) for w, h in batches if w.shape[0]]
        assert len(set(steps)) > 1  # the pack mixes iteration counts
        got, offsets = range_together(batches, env)
        for (w, h), i, j in zip(batches, offsets[:-1], offsets[1:]):
            alone = u.mle_distance_batch(w, h, env)
            wants = [alone] if w.shape[0] == 0 else \
                [alone, mle_distance_batch_reference(w, h, env)]
            for want in wants:
                for g, r in zip(got, want):
                    assert g.dtype == r.dtype and g[i:j].shape == r.shape
                    assert g[i:j].tobytes() == r.tobytes()

    @pytest.mark.parametrize("env", [u.URBAN, u.SUBURBAN], ids=["urban", "suburban"])
    @pytest.mark.parametrize("n", [1, 5, 30])
    def test_byte_equal_run_across_a_block(self, env, n, monkeypatch):
        # Rows that finish first sit before rows that refine longer, and rows
        # leave the working arrays at two steps before the last one. The run
        # crosses a bound chunk, here of 256 rows.
        monkeypatch.setattr(est, "_BOUND_ROWS", 256)
        batches = block_crossing_batches(env, n)
        first, _, last, other = [golden_steps(w, h, env) for w, h in batches]
        assert first < other < last and 200 < est._BOUND_ROWS < 320
        got, offsets = range_together(batches, env)
        for (w, h), i, j in zip(batches, offsets[:-1], offsets[1:]):
            wants = [u.mle_distance_batch(w, h, env)]
            if w.shape[0]:
                wants.append(mle_distance_batch_reference(w, h, env))
            for want in wants:
                for g, r in zip(got, want):
                    assert g.dtype == r.dtype and g[i:j].tobytes() == r.tobytes()

    def test_scalar_altitude_shared_by_every_batch(self):
        w = ranging_batch(ENV, 40, 5, 400.0, seed=9)
        got = u.mle_distance_batch(w, 400.0, ENV, offsets=[0, 10, 10, 40])
        want = [np.concatenate(parts) for parts in zip(
            u.mle_distance_batch(w[:10], 400.0, ENV), u.mle_distance_batch(w[10:], 400.0, ENV))]
        for g, r in zip(got, want):
            assert g.tobytes() == r.tobytes()

    def test_one_evaluation_per_step_per_pack(self, monkeypatch):
        batches = multi_batches(ENV, 5)
        steps = [golden_steps(w, h) for w, h in batches]
        rows = [w.shape[0] for w, _ in batches]
        sizes = []
        monkeypatch.setattr(est, "_loglik_terms", counting(est._loglik_terms, sizes))
        range_together(batches, ENV)
        total = sum(rows)
        grid = u.SearchConfig().grid_points
        # One grid per run of equal altitudes that holds rows (400 m twice,
        # as the empty 700 m batch splits its run, then 1500 m and 50 m), the
        # two starting points, one evaluation per step, and the final value.
        # Rows on one search-tree node share its evaluation, so no step
        # evaluates more points than there are rows whose batch still
        # refines.
        active = [sum(r for r, s in zip(rows, steps) if r and s > t)
                  for t in range(max(steps))]
        assert sizes[:4] == [grid] * 4 and sizes[-1] == total
        assert len(sizes) == 4 + 2 + len(active) + 1
        assert all(1 <= size <= total for size in sizes[4:6])
        assert all(1 <= size <= rows_left for size, rows_left in zip(sizes[6:-1], active))
        assert active[0] == total and active[-1] < total

    def test_offsets_validation(self):
        w = np.full((4, 5), -80.0)
        for offsets in ([0, 5], [1, 4], [0, 3, 2, 4], [0], [0.0, 4.0]):
            with pytest.raises(ValueError, match="offsets"):
                u.mle_distance_batch(w, 100.0, ENV, offsets=offsets)
        with pytest.raises(ValueError, match="altitudes for 2 batches"):
            u.mle_distance_batch(w, [100.0, 200.0, 300.0], ENV, offsets=[0, 2, 4])
        with pytest.raises(ValueError, match="altitude h must be finite"):
            u.mle_distance_batch(w, [100.0, math.nan], ENV, offsets=[0, 2, 4])
        with pytest.raises(ValueError, match="d_max"):
            u.mle_distance_batch(w, [100.0, 600.0], ENV, u.SearchConfig(d_max=500.0),
                                 offsets=[0, 2, 4])
