import itertools
import math

import numpy as np
import pytest

import uavloc as u
from uavloc.geometry import MAX_ANCHORS
from uavloc._streams import TAG_NODES, substream


def side_lengths(anchors):
    pts = [(a.x, a.y) for a in anchors]
    return [math.dist(p, q) for p, q in itertools.combinations(pts, 2)]


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
                                centroid=u.NodePosition(1.0, 2.0))


class TestBuildConstellation:
    def test_single_triangle_side_and_circumradius(self):
        spec = u.ConstellationSpec(n_anchors=3, base_side=600.0, altitude=1000.0)
        anchors = u.build_constellation(spec)
        assert len(anchors) == 3
        for s in side_lengths(anchors):
            assert s == pytest.approx(600.0, rel=1e-12)
        for a in anchors:
            assert math.hypot(a.x, a.y) == pytest.approx(600.0 / math.sqrt(3.0),
                                                         rel=1e-12)
            assert a.h == 1000.0

    def test_first_vertex_due_north(self):
        spec = u.ConstellationSpec(n_anchors=3, base_side=300.0, altitude=500.0)
        a0 = u.build_constellation(spec)[0]
        assert a0.x == pytest.approx(0.0, abs=1e-9)
        assert a0.y == pytest.approx(300.0 / math.sqrt(3.0), rel=1e-12)

    def test_concentric_triangles(self):
        spec = u.ConstellationSpec(n_anchors=6, base_side=100.0, altitude=50.0,
                                   side_increment=20.0)
        anchors = u.build_constellation(spec)
        assert len(anchors) == 6
        inner, outer = anchors[:3], anchors[3:]
        for s in side_lengths(inner):
            assert s == pytest.approx(100.0, rel=1e-12)
        for s in side_lengths(outer):
            assert s == pytest.approx(120.0, rel=1e-12)
        # Shared centroid and shared bearings, triangle by triangle.
        for tri in (inner, outer):
            cx = sum(a.x for a in tri) / 3.0
            cy = sum(a.y for a in tri) / 3.0
            assert cx == pytest.approx(0.0, abs=1e-9)
            assert cy == pytest.approx(0.0, abs=1e-9)
        for a_in, a_out in zip(inner, outer):
            assert math.atan2(a_in.y, a_in.x) == pytest.approx(
                math.atan2(a_out.y, a_out.x), abs=1e-12)

    def test_anchors_xy_layout(self):
        spec = u.ConstellationSpec(n_anchors=6, base_side=100.0, altitude=50.0,
                                   side_increment=20.0)
        anchors = u.build_constellation(spec)
        xy = u.anchors_xy(anchors)
        assert xy.shape == (6, 2)
        np.testing.assert_allclose(xy[0], [anchors[0].x, anchors[0].y])


class TestNodeSampling:
    def test_disk_bounds_and_moments(self):
        rng = np.random.default_rng(8)
        radius = 1000.0
        xy = u.sample_disk_xy(200_000, radius, (50.0, -20.0), rng)
        rr = np.hypot(xy[:, 0] - 50.0, xy[:, 1] + 20.0)
        assert rr.max() <= radius
        # Uniform disk: E[r] = 2R/3 and E[r^2] = R^2/2.
        assert rr.mean() == pytest.approx(2.0 * radius / 3.0, rel=0.005)
        assert (rr ** 2).mean() == pytest.approx(radius ** 2 / 2.0, rel=0.01)
        phi = np.arctan2(xy[:, 1] + 20.0, xy[:, 0] - 50.0)
        assert abs(np.mean(np.exp(1j * phi))) < 0.01

    def test_stream_determinism(self):
        a = u.sample_disk_xy(100, 500.0, (0.0, 0.0), substream(5, TAG_NODES, 0))
        b = u.sample_disk_xy(100, 500.0, (0.0, 0.0), substream(5, TAG_NODES, 0))
        c = u.sample_disk_xy(100, 500.0, (0.0, 0.0), substream(5, TAG_NODES, 1))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            u.sample_disk_xy(0, 100.0, (0.0, 0.0), rng)
        with pytest.raises(ValueError, match="n must be an integer"):
            u.sample_disk_xy(2.5, 100.0, (0.0, 0.0), rng)
        with pytest.raises(ValueError):
            u.sample_disk_xy(10, 0.0, (0.0, 0.0), rng)

    @pytest.mark.parametrize("radius,center,cause", [
        (math.nan, (0.0, 0.0), "radius"),
        (math.inf, (0.0, 0.0), "radius"),
        (100.0, (math.nan, 0.0), "center"),
        (100.0, (0.0, -math.inf), "center"),
    ])
    def test_rejects_non_finite(self, radius, center, cause):
        with pytest.raises(ValueError, match=f"{cause} must be finite"):
            u.sample_disk_xy(2, radius, center, np.random.default_rng(0))


class TestLinks:
    def test_anchor_validation(self):
        with pytest.raises(ValueError):
            u.Anchor(x=0.0, y=0.0, h=0.0)
        with pytest.raises(ValueError):
            u.Anchor(x=math.nan, y=0.0, h=100.0)

    def test_node_validation(self):
        with pytest.raises(ValueError):
            u.NodePosition(math.inf, 0.0)
