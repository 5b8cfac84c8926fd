"""Elevation-dependent air-to-ground channel model with log-normal shadowing.

All closed forms take the elevation angle in radians and return dB quantities.
Functions accept scalars or numpy arrays and are pure, so they are safe to call
from any thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from numbers import Integral

import numpy as np

SPEED_OF_LIGHT = 3.0e8  # m/s
DEFAULT_FREQUENCY_HZ = 2.0e9
HALF_PI = math.pi / 2.0
REFERENCE_DISTANCE_M = 1.0  # d_o (m), where the mean path loss is k_ref

#: Minimum anchor altitude (m) for which the sigmoid LoS-probability
#: approximation is valid when the ground node sits near street level.
MIN_ALTITUDE_M = 50.0


def free_space_reference_loss(frequency_hz: float = DEFAULT_FREQUENCY_HZ,
                              distance_m: float = 1.0) -> float:
    """Free-space path loss in dB at `distance_m` for the given carrier."""
    for name, value in (("frequency_hz", frequency_hz), ("distance_m", distance_m)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return 20.0 * math.log10(4.0 * math.pi * distance_m * frequency_hz / SPEED_OF_LIGHT)


#: Reference loss at d = 1 m for the default 2 GHz carrier (~38.46 dB).
DEFAULT_REFERENCE_LOSS_DB = free_space_reference_loss()


@dataclass(frozen=True)
class EnvironmentParams:
    """Channel constants for one environment type.

    a_los/b_los and a_nlos/b_nlos set the exponential decay of the LoS and
    NLoS shadowing deviations with elevation (dB amplitude, 1/rad rate);
    a_o/b_o shape the LoS-probability sigmoid; a_1 (negative span) and b_1
    (zero-elevation value) define the path loss exponent. k_ref is the loss
    in dB at the reference distance `REFERENCE_DISTANCE_M` and c_offset the
    RSS transduction offset in dBm; both cancel inside the estimators, so
    they set only the absolute dB values the channel functions return.
    """

    a_los: float
    b_los: float
    a_nlos: float
    b_nlos: float
    a_o: float
    b_o: float
    a_1: float
    b_1: float
    k_ref: float = DEFAULT_REFERENCE_LOSS_DB
    c_offset: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        # a_los/a_nlos may be zero to model a shadowing-free diagnostic
        # environment; negative amplitudes are meaningless.
        if self.a_los < 0.0 or self.a_nlos < 0.0:
            raise ValueError("shadowing amplitudes a_los, a_nlos must be >= 0")
        if self.b_los <= 0.0 or self.b_nlos <= 0.0:
            raise ValueError("shadowing decay rates b_los, b_nlos must be > 0")
        if self.a_o <= 0.0 or self.b_o <= 0.0:
            raise ValueError("LoS probability constants a_o, b_o must be > 0")
        if self.a_1 >= 0.0:
            raise ValueError("path-loss-exponent span a_1 must be negative")
        if self.b_1 + self.a_1 < 2.0:
            raise ValueError("free-space floor violated: b_1 + a_1 must be >= 2")


#: Urban channel constants (2 GHz).
URBAN = EnvironmentParams(a_los=10.0, b_los=2.5, a_nlos=30.0, b_nlos=1.7,
                          a_o=45.0, b_o=10.0, a_1=-1.5, b_1=3.5)

#: Suburban channel constants (2 GHz).
SUBURBAN = EnvironmentParams(a_los=5.0, b_los=3.5, a_nlos=10.0, b_nlos=2.5,
                             a_o=47.0, b_o=20.0, a_1=-1.0, b_1=3.0)

ENVIRONMENTS = {"urban": URBAN, "suburban": SUBURBAN}


def environment_preset(name: str) -> EnvironmentParams:
    """Look up a named environment preset ("urban" or "suburban")."""
    try:
        return ENVIRONMENTS[name.lower()]
    except KeyError:
        known = ", ".join(sorted(ENVIRONMENTS))
        raise ValueError(f"unknown environment preset {name!r} (known: {known})") from None


def without_shadowing(env: EnvironmentParams) -> EnvironmentParams:
    """Copy of `env` with both shadowing amplitudes zeroed (diagnostic use)."""
    return replace(env, a_los=0.0, a_nlos=0.0)


@dataclass(frozen=True)
class LinkGeometry:
    """One anchor-to-node link: horizontal distance r and anchor altitude h."""

    r: float
    h: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r) and self.r >= 0.0):
            raise ValueError("horizontal distance r must be finite and >= 0")
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise ValueError("anchor altitude h must be finite and > 0")

    @property
    def d(self) -> float:
        """Direct (slant) distance in meters."""
        return math.hypot(self.r, self.h)

    @property
    def theta(self) -> float:
        """Elevation angle in radians, in (0, pi/2]."""
        return math.atan2(self.h, self.r)


def _elevation_model(th: np.ndarray, env: EnvironmentParams):
    """The elevation model, unchecked: (P_LoS, alpha, sigma) at angles `th`,
    a float array of one dimension or more in [0, pi/2], spent as scratch
    space. (On numpy scalars `x ** 2` calls pow, which can differ from
    `np.square` in the last bit, hence the one-dimension minimum.)"""
    p = np.multiply(th, -env.b_o)
    np.exp(p, out=p)
    p *= env.a_o
    p += 1.0
    np.divide(1.0, p, out=p)
    sigma = np.multiply(th, -env.b_los)
    np.exp(sigma, out=sigma)
    sigma *= env.a_los
    sigma *= p
    np.square(sigma, out=sigma)
    th *= -env.b_nlos
    np.exp(th, out=th)
    th *= env.a_nlos
    q = np.subtract(1.0, p)
    th *= q
    np.square(th, out=th)
    sigma += th
    np.sqrt(sigma, out=sigma)
    alpha = np.multiply(p, env.a_1, out=q)
    alpha += env.b_1
    return p, alpha, sigma


def _rss_moments(d: np.ndarray, th: np.ndarray, env: EnvironmentParams):
    """Unchecked `mean_rss` and `shadowing_sigma`, bit for bit, at distances
    `d` and angles `th` of one shape, from one kernel call that spends `th`.
    Both must be contiguous: numpy's log10 can round otherwise."""
    _, mu, sigma = _elevation_model(th, env)
    mu *= 10.0
    mu *= np.log10(d, out=th)
    mu += env.k_ref
    np.subtract(env.c_offset, mu, out=mu)
    return mu, sigma


def _checked_model(theta, env: EnvironmentParams):
    """(P_LoS, alpha, sigma) at checked `theta`: floats for a scalar, with
    the bits of a one-element array."""
    th = np.asarray(theta, dtype=float)
    # The negated comparison also catches NaN.
    if not np.all((th >= 0.0) & (th <= HALF_PI)):
        raise ValueError("elevation angle must lie in [0, pi/2] radians")
    out = _elevation_model(np.array(th, ndmin=1), env)
    return tuple(float(v[0]) for v in out) if th.ndim == 0 else out


def prob_los(theta, env: EnvironmentParams):
    """Line-of-sight probability 1 / (1 + a_o exp(-b_o theta)), in (0, 1)."""
    return _checked_model(theta, env)[0]


def shadowing_sigma(theta, env: EnvironmentParams):
    """Total shadowing standard deviation (dB) at elevation `theta`.

    Mixes the LoS and NLoS deviations with squared probability weights:
    sqrt(P^2 sigma_LoS^2 + (1-P)^2 sigma_NLoS^2).
    """
    return _checked_model(theta, env)[2]


def path_loss_exponent(theta, env: EnvironmentParams):
    """Elevation-dependent path loss exponent a_1 * P_LoS(theta) + b_1."""
    return _checked_model(theta, env)[1]


def mean_path_loss(d, theta, env: EnvironmentParams):
    """Mean path loss in dB at slant distance `d` and elevation `theta`.

    Shadowing-free value: k_ref + 10 * alpha(theta) * log10(d / d_o).
    """
    dd = np.asarray(d, dtype=float)
    if not np.all((dd >= REFERENCE_DISTANCE_M) & np.isfinite(dd)):
        raise ValueError("slant distance d must be finite and >= the reference "
                         f"distance d_o = {REFERENCE_DISTANCE_M} m")
    alpha = path_loss_exponent(theta, env)
    out = env.k_ref + 10.0 * np.asarray(alpha) * np.log10(dd)
    return float(out) if out.ndim == 0 else out


def mean_rss(d, theta, env: EnvironmentParams):
    """Mean time-averaged received power in dBm: c_offset - mean path loss."""
    out = env.c_offset - np.asarray(mean_path_loss(d, theta, env))
    return float(out) if out.ndim == 0 else out


def sample_rss(geom: LinkGeometry, env: EnvironmentParams, n: int,
               rng: np.random.Generator) -> np.ndarray:
    """Draw `n` independent received-power samples (dBm) for one link.

    Each sample is the mean RSS minus a zero-mean normal shadowing term with
    the elevation-dependent deviation. Deterministic for a given `rng` state.
    """
    if not (isinstance(n, Integral) and not isinstance(n, bool) and n >= 1):
        raise ValueError(f"sample count n must be an integer >= 1, got {n!r}")
    mu = mean_rss(geom.d, geom.theta, env)
    sigma = shadowing_sigma(geom.theta, env)
    psi = rng.normal(0.0, sigma, size=n)
    return mu - psi
