"""Anchor constellations and node sampling.

Constellations are concentric equilateral triangles sharing a centroid and a
common adjustable altitude; terrestrial nodes live in the z = 0 plane.
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


@dataclass(frozen=True)
class NodePosition:
    """Ground-plane position of a terrestrial node."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("node coordinates must be finite")


@dataclass(frozen=True)
class Anchor:
    """An aerial anchor: ground projection (x, y) and altitude h."""

    x: float
    y: float
    h: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("anchor projection coordinates must be finite")
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise ValueError("anchor altitude h must be finite and > 0")


@dataclass(frozen=True)
class ConstellationSpec:
    """Concentric-triangle constellation layout.

    Triangle k (0-based) has side base_side + k * side_increment; all
    triangles share the centroid, the orientation and the altitude.
    """

    n_anchors: int
    base_side: float
    altitude: float
    side_increment: float = 0.0
    centroid: NodePosition = NodePosition(0.0, 0.0)

    def __post_init__(self) -> None:
        n = self.n_anchors
        if not (isinstance(n, Integral) and 3 <= n <= MAX_ANCHORS and n % 3 == 0):
            raise ValueError("n_anchors must be a positive integer multiple of 3 up to "
                             f"{MAX_ANCHORS}, got {n!r}")
        if not (math.isfinite(self.base_side) and self.base_side > 0.0):
            raise ValueError("base_side must be finite and > 0")
        if not (math.isfinite(self.side_increment) and self.side_increment >= 0.0):
            raise ValueError("side_increment must be finite and >= 0")
        if not (math.isfinite(self.altitude) and self.altitude > 0.0):
            raise ValueError("altitude must be finite and > 0")


def build_constellation(spec: ConstellationSpec) -> list[Anchor]:
    """Anchors of the constellation, triangle by triangle, vertex by vertex."""
    anchors = []
    for k in range(spec.n_anchors // 3):
        side = spec.base_side + k * spec.side_increment
        circumradius = side / math.sqrt(3.0)
        for angle in _VERTEX_ANGLES:
            anchors.append(Anchor(
                x=spec.centroid.x + circumradius * math.cos(angle),
                y=spec.centroid.y + circumradius * math.sin(angle),
                h=spec.altitude,
            ))
    return anchors


def sample_disk_xy(n: int, radius: float, center_xy, rng: np.random.Generator) -> np.ndarray:
    """(n, 2) array of i.i.d. points uniform over a disk.

    Raises ValueError unless n is an integer >= 1, the radius is finite
    and > 0 and the center is finite.
    """
    if not (isinstance(n, Integral) and n >= 1):
        raise ValueError(f"node count n must be an integer >= 1, got {n!r}")
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(f"radius must be finite and > 0, got {radius}")
    if not (math.isfinite(center_xy[0]) and math.isfinite(center_xy[1])):
        raise ValueError(f"disk center must be finite, got ({center_xy[0]}, {center_xy[1]})")
    u = rng.random(n)
    phi = rng.random(n) * 2.0 * math.pi
    rr = radius * np.sqrt(u)
    out = np.empty((n, 2))
    out[:, 0] = center_xy[0] + rr * np.cos(phi)
    out[:, 1] = center_xy[1] + rr * np.sin(phi)
    return out


def anchors_xy(anchors) -> np.ndarray:
    """(N, 2) array of anchor ground projections."""
    return np.array([[a.x, a.y] for a in anchors], dtype=float)
