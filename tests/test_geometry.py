import itertools
import math

import numpy as np
import pytest

import uavloc as u
from uavloc.geometry import MAX_ANCHORS
from uavloc._streams import TAG_NODES, substream


def side_lengths(axy):
    return [math.dist(p, q) for p, q in itertools.combinations(axy, 2)]


class TestConstellationSpec:
    def test_validation(self):
        ok = dict(n_anchors=3, base_side=500.0, altitude=1000.0)
        with pytest.raises(ValueError):
            u.ConstellationSpec(**{**ok, "n_anchors": 4})
        with pytest.raises(ValueError):
            u.ConstellationSpec(**{**ok, "n_anchors": 0})
        with pytest.raises(ValueError):
            u.ConstellationSpec(**{**ok, "base_side": 0.0})
        with pytest.raises(ValueError):
            u.ConstellationSpec(**{**ok, "altitude": 0.0})
        with pytest.raises(ValueError):
            u.ConstellationSpec(**{**ok, "side_increment": -1.0})

    @pytest.mark.parametrize("bad", [6.0, 4.5])
    def test_rejects_non_integer_anchor_count(self, bad):
        ok = dict(n_anchors=3, base_side=500.0, altitude=1000.0)
        with pytest.raises(ValueError, match="n_anchors must be a positive integer"):
            u.ConstellationSpec(**{**ok, "n_anchors": bad})

    def test_anchor_count_is_bounded(self):
        ok = dict(base_side=500.0, altitude=1000.0)
        assert u.ConstellationSpec(n_anchors=MAX_ANCHORS, **ok).n_anchors == MAX_ANCHORS
        for bad in (MAX_ANCHORS + 3, 3 * 10 ** 20):
            with pytest.raises(ValueError, match=f"multiple of 3 up to {MAX_ANCHORS}"):
                u.ConstellationSpec(n_anchors=bad, **ok)

    def test_defaults(self):
        spec = u.ConstellationSpec(n_anchors=3, base_side=500.0, altitude=1000.0)
        assert spec.side_increment == 0.0
        # The constellation is centred on the origin; there is no centroid to set.
        with pytest.raises(TypeError):
            u.ConstellationSpec(n_anchors=3, base_side=500.0, altitude=1000.0,
                                centroid=(1.0, 2.0))


class TestBuildConstellation:
    def test_single_triangle_side_and_circumradius(self):
        spec = u.ConstellationSpec(n_anchors=3, base_side=600.0, altitude=1000.0)
        axy = u.build_constellation(spec)
        assert axy.shape == (3, 2)
        for s in side_lengths(axy):
            assert s == pytest.approx(600.0, rel=1e-12)
        for x, y in axy:
            assert math.hypot(x, y) == pytest.approx(600.0 / math.sqrt(3.0), rel=1e-12)

    def test_first_vertex_due_north(self):
        spec = u.ConstellationSpec(n_anchors=3, base_side=300.0, altitude=500.0)
        x0, y0 = u.build_constellation(spec)[0]
        assert x0 == pytest.approx(0.0, abs=1e-9)
        assert y0 == pytest.approx(300.0 / math.sqrt(3.0), rel=1e-12)

    def test_concentric_triangles(self):
        spec = u.ConstellationSpec(n_anchors=6, base_side=100.0, altitude=50.0,
                                   side_increment=20.0)
        axy = u.build_constellation(spec)
        assert axy.shape == (6, 2)
        inner, outer = axy[:3], axy[3:]
        for s in side_lengths(inner):
            assert s == pytest.approx(100.0, rel=1e-12)
        for s in side_lengths(outer):
            assert s == pytest.approx(120.0, rel=1e-12)
        # Shared centroid and shared bearings, triangle by triangle.
        for tri in (inner, outer):
            cx = sum(x for x, _ in tri) / 3.0
            cy = sum(y for _, y in tri) / 3.0
            assert cx == pytest.approx(0.0, abs=1e-9)
            assert cy == pytest.approx(0.0, abs=1e-9)
        for (x_in, y_in), (x_out, y_out) in zip(inner, outer):
            assert math.atan2(y_in, x_in) == pytest.approx(math.atan2(y_out, x_out), abs=1e-12)

    @pytest.mark.parametrize("n_anchors,base_side,side_increment", [
        (3, 500.0, 0.0), (9, 100.0, 20.0), (30, 100.0, 20.0), (12, 333.3, 17.7)])
    def test_projection_array_bit_exact(self, n_anchors, base_side, side_increment):
        # A layout is a C-contiguous float64 (N, 2) array whose entries are
        # the per-vertex expressions, triangle by triangle, bit for bit.
        spec = u.ConstellationSpec(n_anchors=n_anchors, base_side=base_side,
                                   altitude=50.0, side_increment=side_increment)
        axy = u.build_constellation(spec)
        assert isinstance(axy, np.ndarray)
        assert axy.dtype == np.float64 and axy.shape == (n_anchors, 2)
        assert axy.flags.c_contiguous
        want = []
        for k in range(n_anchors // 3):
            circumradius = (base_side + k * side_increment) / math.sqrt(3.0)
            for angle in (math.pi / 2.0, math.pi * 7.0 / 6.0, math.pi * 11.0 / 6.0):
                want.append([circumradius * math.cos(angle), circumradius * math.sin(angle)])
        assert axy.tobytes() == np.array(want).tobytes()


class TestNodeSampling:
    def test_disk_bounds_and_moments(self):
        rng = np.random.default_rng(8)
        radius = 1000.0
        xy = u.sample_disk_xy(200_000, radius, rng)
        rr = np.hypot(xy[:, 0], xy[:, 1])
        assert rr.max() <= radius
        # Uniform disk: E[r] = 2R/3 and E[r^2] = R^2/2.
        assert rr.mean() == pytest.approx(2.0 * radius / 3.0, rel=0.005)
        assert (rr ** 2).mean() == pytest.approx(radius ** 2 / 2.0, rel=0.01)
        phi = np.arctan2(xy[:, 1], xy[:, 0])
        assert abs(np.mean(np.exp(1j * phi))) < 0.01

    def test_stream_determinism(self):
        a = u.sample_disk_xy(100, 500.0, substream(5, TAG_NODES, 0))
        b = u.sample_disk_xy(100, 500.0, substream(5, TAG_NODES, 0))
        c = u.sample_disk_xy(100, 500.0, substream(5, TAG_NODES, 1))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            u.sample_disk_xy(0, 100.0, rng)
        for bad in (2.5, True):
            with pytest.raises(ValueError, match="n must be an integer"):
                u.sample_disk_xy(bad, 100.0, rng)
        with pytest.raises(ValueError):
            u.sample_disk_xy(10, 0.0, rng)

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_rejects_non_finite(self, radius):
        with pytest.raises(ValueError, match="radius must be finite"):
            u.sample_disk_xy(2, radius, np.random.default_rng(0))

    def test_takes_no_center(self):
        # The disk is centred on the origin; there is no center to pass.
        with pytest.raises(TypeError):
            u.sample_disk_xy(2, 100.0, (0.0, 0.0), np.random.default_rng(0))

