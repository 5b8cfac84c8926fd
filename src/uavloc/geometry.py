"""Anchor constellations and node sampling.

Constellations are concentric equilateral triangles centred on the origin
at a common adjustable altitude. A layout is the (N, 2) array of the
anchors' ground projections; its altitude is the spec's. Terrestrial nodes
live in the z = 0 plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

# Vertex bearings (radians) shared by every triangle: first vertex due north.
_VERTEX_ANGLES = (math.pi / 2.0, math.pi * 7.0 / 6.0, math.pi * 11.0 / 6.0)
#: Most anchors a constellation may hold. Anchors are built one by one and
#: every node ranges each of them; the studies use at most 30.
MAX_ANCHORS = 3000
#: Longest length (m) a setting may give: a distance, side, altitude or
#: tolerance. Its square stays far from float overflow; the studies stay
#: within tens of kilometres.
MAX_LENGTH_M = 1.0e7


@dataclass(frozen=True)
class ConstellationSpec:
    """Concentric-triangle constellation layout.

    Triangle k (0-based) has side base_side + k * side_increment; all
    triangles share the origin as centroid, the orientation and the altitude.
    """

    n_anchors: int
    base_side: float
    altitude: float
    side_increment: float = 0.0

    def __post_init__(self) -> None:
        n = self.n_anchors
        if not (isinstance(n, Integral) and 3 <= n <= MAX_ANCHORS and n % 3 == 0):
            raise ValueError("n_anchors must be a positive integer multiple of 3 up to "
                             f"{MAX_ANCHORS}, got {n!r}")
        if not 0.0 < self.base_side <= MAX_LENGTH_M:
            raise ValueError(f"base_side must be finite, > 0 and <= {MAX_LENGTH_M:g} m")
        if not 0.0 <= self.side_increment <= MAX_LENGTH_M:
            raise ValueError(f"side_increment must be finite, >= 0 and <= {MAX_LENGTH_M:g} m")
        if not 0.0 < self.altitude <= MAX_LENGTH_M:
            raise ValueError(f"altitude must be finite, > 0 and <= {MAX_LENGTH_M:g} m")


def build_constellation(spec: ConstellationSpec) -> np.ndarray:
    """(N, 2) anchor ground projections, triangle by triangle, vertex by vertex."""
    xy = np.empty((spec.n_anchors, 2))
    for k in range(spec.n_anchors // 3):
        side = spec.base_side + k * spec.side_increment
        circumradius = side / math.sqrt(3.0)
        for j, angle in enumerate(_VERTEX_ANGLES):
            xy[3 * k + j] = circumradius * math.cos(angle), circumradius * math.sin(angle)
    return xy


def sample_disk_xy(n: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """(n, 2) array of i.i.d. points uniform over the origin-centred disk.

    Raises ValueError unless n is an integer >= 1 and the radius is finite
    and > 0.
    """
    if not (isinstance(n, Integral) and not isinstance(n, bool) and n >= 1):
        raise ValueError(f"node count n must be an integer >= 1, got {n!r}")
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(f"radius must be finite and > 0, got {radius}")
    u = rng.random(n)
    phi = rng.random(n) * 2.0 * math.pi
    rr = radius * np.sqrt(u)
    out = np.empty((n, 2))
    out[:, 0] = rr * np.cos(phi)
    out[:, 1] = rr * np.sin(phi)
    return out
