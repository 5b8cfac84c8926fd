import ast
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import uavloc as u
from uavloc import channel as ch
from uavloc._streams import TAG_RSS, substream
from uavloc.channel import DEFAULT_FREQUENCY_HZ, REFERENCE_DISTANCE_M, SPEED_OF_LIGHT

from conftest import ORACLE

HALF_PI = math.pi / 2.0


class TestEnvironmentPresets:
    def test_urban_constants(self):
        env = u.URBAN
        assert env.a_los == 10.0
        assert env.b_los == 2.5
        assert env.a_nlos == 30.0
        assert env.b_nlos == 1.7
        assert env.a_o == 45.0
        assert env.b_o == 10.0
        assert env.a_1 == -1.5
        assert env.b_1 == 3.5

    def test_suburban_constants(self):
        env = u.SUBURBAN
        assert env.a_los == 5.0
        assert env.b_los == 3.5
        assert env.a_nlos == 10.0
        assert env.b_nlos == 2.5
        assert env.a_o == 47.0
        assert env.b_o == 20.0
        assert env.a_1 == -1.0
        assert env.b_1 == 3.0

    def test_preset_lookup_case_insensitive(self):
        assert u.environment_preset("Urban") is u.URBAN
        assert u.environment_preset("SUBURBAN") is u.SUBURBAN

    def test_preset_lookup_unknown(self):
        with pytest.raises(ValueError, match="rural"):
            u.environment_preset("rural")

    def test_invalid_params_rejected(self):
        ok = dict(a_los=10.0, b_los=2.5, a_nlos=30.0, b_nlos=1.7,
                  a_o=45.0, b_o=10.0, a_1=-1.5, b_1=3.5)
        for field, bad in [
            ("a_los", -1.0),
            ("b_los", 0.0),
            ("a_nlos", -0.5),
            ("b_nlos", -2.0),
            ("a_o", 0.0),
            ("b_o", -1.0),
            ("a_1", 0.5),     # must be negative
            ("b_1", 1.0),     # overhead exponent would drop below 2
            ("a_nlos", 1.0e300),  # dB amplitudes and exponents within 1e6
            ("b_1", 1.0e300),
            ("a_1", -1.0e7),
            ("a_los", np.nextafter(1.0e6, 2.0e6)),
            ("k_ref", -2.0e6),
            ("c_offset", 1.0e7),
        ]:
            params = {**ok, field: bad}
            with pytest.raises(ValueError):
                u.EnvironmentParams(**params)

    def test_extreme_accepted_constants_stay_finite(self):
        # At the 1e6 bound, samples 40 sigma out and their sums of squares
        # stay finite at any slant distance a config can set.
        env = u.EnvironmentParams(a_los=1.0e6, b_los=2.5, a_nlos=1.0e6, b_nlos=1.7, a_o=45.0,
                                  b_o=10.0, a_1=2.0 - 1.0e6, b_1=1.0e6, k_ref=-1.0e6,
                                  c_offset=1.0e6)
        theta = np.linspace(0.0, HALF_PI, 9)
        for d in (1.0, math.sqrt(2.0) * 1.0e7):
            mu, sigma = u.mean_rss(d, theta, env), u.shadowing_sigma(theta, env)
            w = np.concatenate([mu - 40.0 * sigma, mu + 40.0 * sigma])
            assert np.all(np.isfinite(w)) and math.isfinite(np.sum(w * w))

    def test_reference_distance_fixed_at_one_metre(self):
        # d_o is a module constant, not a parameter an environment can move.
        assert REFERENCE_DISTANCE_M == 1.0
        with pytest.raises(TypeError):
            u.EnvironmentParams(a_los=10.0, b_los=2.5, a_nlos=30.0, b_nlos=1.7,
                                a_o=45.0, b_o=10.0, a_1=-1.5, b_1=3.5, d_o=2.0)
        with pytest.raises(ValueError, match="d_o = 1.0 m"):
            u.mean_path_loss(np.nextafter(1.0, 0.0), 0.3, u.URBAN)

    def test_without_shadowing(self):
        quiet = u.without_shadowing(u.URBAN)
        assert quiet.a_los == 0.0 and quiet.a_nlos == 0.0
        assert quiet.a_1 == u.URBAN.a_1 and quiet.b_1 == u.URBAN.b_1
        assert u.shadowing_sigma(0.7, quiet) == 0.0


class TestLosProbability:
    def test_oracle_values(self):
        assert u.prob_los(HALF_PI, u.URBAN) == pytest.approx(
            ORACLE["plos_urban_halfpi"], rel=1e-12)
        assert u.prob_los(0.0, u.URBAN) == pytest.approx(
            ORACLE["plos_urban_zero"], rel=1e-12)
        assert u.prob_los(0.5, u.SUBURBAN) == pytest.approx(
            ORACLE["plos_suburban_0p5"], rel=1e-12)

    def test_monotone_increasing_in_theta(self):
        theta = np.linspace(0.0, HALF_PI, 400)
        for env in (u.URBAN, u.SUBURBAN):
            p = u.prob_los(theta, env)
            assert np.all(np.diff(p) > 0.0)
            assert np.all((p > 0.0) & (p < 1.0))

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            u.prob_los(-0.01, u.URBAN)
        with pytest.raises(ValueError):
            u.prob_los(HALF_PI + 0.01, u.URBAN)
        with pytest.raises(ValueError):
            u.prob_los(np.array([0.1, np.nan]), u.URBAN)


class TestShadowing:
    def test_oracle_values(self):
        assert u.shadowing_sigma(0.0, u.URBAN) == pytest.approx(
            ORACLE["sigma_urban_zero"], rel=1e-12)
        assert u.shadowing_sigma(HALF_PI, u.URBAN) == pytest.approx(
            ORACLE["sigma_urban_halfpi"], rel=1e-12)

    def test_squared_mixture_identity(self):
        # sigma^2 = P^2 sigma_los^2 + (1 - P)^2 sigma_nlos^2
        theta = np.linspace(0.0, HALF_PI, 57)
        for env in (u.URBAN, u.SUBURBAN):
            p = u.prob_los(theta, env)
            s_los = env.a_los * np.exp(-env.b_los * theta)
            s_nlos = env.a_nlos * np.exp(-env.b_nlos * theta)
            expect = np.sqrt(p**2 * s_los**2 + (1.0 - p) ** 2 * s_nlos**2)
            np.testing.assert_allclose(u.shadowing_sigma(theta, env), expect,
                                       rtol=1e-13)

    def test_monotone_decreasing_in_theta(self):
        theta = np.linspace(0.0, HALF_PI, 400)
        for env in (u.URBAN, u.SUBURBAN):
            s = u.shadowing_sigma(theta, env)
            assert np.all(np.diff(s) < 0.0)
            assert np.all(s > 0.0)


class TestPathLossExponent:
    def test_oracle_value(self):
        assert u.path_loss_exponent(0.0, u.URBAN) == pytest.approx(
            ORACLE["alpha_urban_zero"], rel=1e-12)

    def test_bounds_urban(self):
        # a_1 P + b_1 with P in (0, 1): always within (b_1 + a_1, b_1)
        theta = np.linspace(0.0, HALF_PI, 500)
        alpha = u.path_loss_exponent(theta, u.URBAN)
        assert np.all(alpha > 2.0)
        assert np.all(alpha < 3.5)
        assert np.all(np.diff(alpha) < 0.0)

    def test_overhead_limit_near_free_space(self):
        # P_LoS(pi/2) ~ 1, so alpha ~ a_1 + b_1 = 2
        assert u.path_loss_exponent(HALF_PI, u.URBAN) == pytest.approx(
            2.0, abs=1e-4)
        assert u.path_loss_exponent(HALF_PI, u.SUBURBAN) == pytest.approx(
            2.0, abs=1e-4)


class TestReferenceLoss:
    def test_free_space_value_at_default_frequency(self):
        assert u.free_space_reference_loss() == pytest.approx(
            ORACLE["k_ref_2ghz_1m"], rel=1e-12)
        assert u.DEFAULT_REFERENCE_LOSS_DB == pytest.approx(
            ORACLE["k_ref_2ghz_1m"], rel=1e-12)

    def test_formula(self):
        # 20 log10(4 pi d f / c)
        f, d = 5e9, 3.0
        expect = 20.0 * math.log10(4.0 * math.pi * d * f / SPEED_OF_LIGHT)
        assert u.free_space_reference_loss(f, d) == pytest.approx(expect,
                                                                  rel=1e-13)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            u.free_space_reference_loss(0.0)
        with pytest.raises(ValueError):
            u.free_space_reference_loss(DEFAULT_FREQUENCY_HZ, -1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="frequency_hz must be finite"):
                u.free_space_reference_loss(bad)
            with pytest.raises(ValueError, match="distance_m must be finite"):
                u.free_space_reference_loss(DEFAULT_FREQUENCY_HZ, bad)


class TestLinkGeometry:
    def test_three_four_five(self):
        g = u.LinkGeometry(r=400.0, h=300.0)
        assert g.d == pytest.approx(500.0, rel=1e-15)
        assert g.theta == pytest.approx(math.atan2(300.0, 400.0), rel=1e-15)

    def test_overhead(self):
        g = u.LinkGeometry(r=0.0, h=500.0)
        assert g.d == 500.0
        assert g.theta == pytest.approx(HALF_PI, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            u.LinkGeometry(r=-1.0, h=100.0)
        with pytest.raises(ValueError):
            u.LinkGeometry(r=10.0, h=0.0)


class TestPathLossAndRss:
    def test_mean_path_loss_log_distance(self):
        env = u.URBAN
        g = u.LinkGeometry(r=500.0, h=500.0)
        alpha = u.path_loss_exponent(g.theta, env)
        expect = u.DEFAULT_REFERENCE_LOSS_DB + 10.0 * alpha * math.log10(g.d)
        assert u.mean_path_loss(g.d, g.theta, env) == pytest.approx(
            expect, rel=1e-14)

    def test_loss_at_reference_distance_is_k_ref(self):
        # at d = d_o = 1 m the distance term vanishes
        env = u.URBAN
        assert u.mean_path_loss(1.0, 0.3, env) == env.k_ref

    def test_below_reference_distance_rejected(self):
        with pytest.raises(ValueError):
            u.mean_path_loss(0.5, 0.3, u.URBAN)
        for bad in (math.nan, math.inf, np.array([100.0, math.nan])):
            with pytest.raises(ValueError, match="distance d must be finite"):
                u.mean_path_loss(bad, 0.5, u.URBAN)
            with pytest.raises(ValueError, match="distance d must be finite"):
                u.mean_rss(bad, 0.5, u.URBAN)

    def test_mean_rss_is_offset_minus_loss(self):
        from dataclasses import replace
        env = replace(u.SUBURBAN, c_offset=10.0)
        g = u.LinkGeometry(r=120.0, h=340.0)
        assert u.mean_rss(g.d, g.theta, env) == pytest.approx(
            10.0 - u.mean_path_loss(g.d, g.theta, env), rel=1e-14)
        assert u.mean_rss(g.d, g.theta, u.SUBURBAN) == pytest.approx(
            -u.mean_path_loss(g.d, g.theta, u.SUBURBAN), rel=1e-14)

    def test_sample_rss_moments(self):
        env = u.URBAN
        g = u.LinkGeometry(r=400.0, h=300.0)
        rng = np.random.default_rng(99)
        s = u.sample_rss(g, env, 200_000, rng)
        mu = u.mean_rss(g.d, g.theta, env)
        sigma = u.shadowing_sigma(g.theta, env)
        assert s.shape == (200_000,)
        assert s.mean() == pytest.approx(mu, abs=5.0 * sigma / 447.0)
        assert s.std(ddof=1) == pytest.approx(sigma, rel=0.02)

    def test_sample_rss_stream_determinism(self):
        env = u.URBAN
        g = u.LinkGeometry(r=250.0, h=800.0)
        a = u.sample_rss(g, env, 64, substream(7, TAG_RSS, 0))
        b = u.sample_rss(g, env, 64, substream(7, TAG_RSS, 0))
        c = u.sample_rss(g, env, 64, substream(7, TAG_RSS, 1))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_sample_rss_requires_positive_count(self):
        g = u.LinkGeometry(r=100.0, h=100.0)
        with pytest.raises(ValueError):
            u.sample_rss(g, u.URBAN, 0, np.random.default_rng(0))
        for bad in (2.5, True):
            with pytest.raises(ValueError, match="n must be an integer"):
                u.sample_rss(g, u.URBAN, bad, np.random.default_rng(0))


class TestOneChannelKernel:
    """The elevation model is written once, in `channel._elevation_model`,
    and a scalar argument gives the bits of its one-element array."""

    #: Links whose shadowing sigma once differed in the last bit between a
    #: scalar elevation and its one-element array (numpy scalars square
    #: through pow): urban, then suburban.
    LAST_BIT_LINKS = [(2765.189764244086, 2167.17455353634),
                      (583.5492839050111, 1367.390240447609)]

    @classmethod
    def links(cls):
        rng = np.random.default_rng(1)
        random = zip(rng.uniform(0.0, 5000.0, 300), rng.uniform(50.0, 3000.0, 300))
        return [u.LinkGeometry(float(r), float(h)) for r, h in [*cls.LAST_BIT_LINKS, *random]]

    @pytest.mark.parametrize("env", [u.URBAN, u.SUBURBAN], ids=["urban", "suburban"])
    def test_scalar_equals_one_element_array(self, env):
        by_theta = (u.prob_los, u.path_loss_exponent, u.shadowing_sigma)
        by_link = (u.mean_path_loss, u.mean_rss, u.crlb_sigma_values)
        for g in self.links():
            th, d = np.array([g.theta]), np.array([g.d])
            got = [f(g.theta, env) for f in by_theta] + [f(g.d, g.theta, env) for f in by_link]
            want = [f(th, env)[0] for f in by_theta] + [f(d, th, env)[0] for f in by_link]
            assert all(type(v) is float for v in got)
            assert got == want, (g, env)
            assert u.crlb_sigma(g, env, n_samples=5) == want[-1] / math.sqrt(5)

    @pytest.mark.parametrize("env", [u.URBAN, replace(u.SUBURBAN, c_offset=17.3, k_ref=41.0)],
                             ids=["urban", "offset"])
    def test_sampling_moments_equal_public_functions(self, env):
        # A nonzero c_offset shows the order c - (k + x) of `mean_rss`.
        links = self.links()
        d, th = np.array([g.d for g in links]), np.array([g.theta for g in links])
        mu, sigma = ch._rss_moments(d, th.copy(), env)
        assert mu.tobytes() == u.mean_rss(d, th, env).tobytes()
        assert sigma.tobytes() == u.shadowing_sigma(th, env).tobytes()

    def test_only_channel_reads_the_elevation_constants(self):
        names = {"a_o", "b_o", "a_los", "b_los", "a_nlos", "b_nlos", "a_1", "b_1"}
        readers = set()
        for path in Path(u.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and node.attr in names:
                    readers.add(path.name)
        assert readers == {"channel.py"}
