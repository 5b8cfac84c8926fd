"""Shared fixtures and frozen oracle values.

Oracle constants were computed independently with 30-digit arithmetic from
the model definitions; tests compare the library against them instead of
against its own output.
"""

from __future__ import annotations

import numpy as np
import pytest

import uavloc as u

# Independently computed reference values (30-digit arithmetic, rounded).
ORACLE = {
    "plos_urban_halfpi": 0.99999321846825,
    "plos_urban_zero": 0.0217391304347826,     # = 1 / 46
    "plos_suburban_0p5": 0.997870746694837,
    "sigma_urban_zero": 29.3486312288913,
    "sigma_urban_halfpi": 0.197027394212971,
    "alpha_urban_zero": 3.46739130434783,
    "k_ref_2ghz_1m": 38.4623720993283,
    # urban link with r = h = 500 m
    "theta_rr": 0.785398163397448,
    "sigma_rr": 1.38620990903588,
    "alpha_rr": 2.02575381908634,
    "crlb_rr_1": 111.414835530539,             # one sample
    "crlb_rr_5": 49.8262291896488,             # five samples
    "logpdf_peak_rr": -1.2455118720259,        # -log(sigma_rr * sqrt(2 pi))
    # suburban link with r = 200 m, h = 800 m, one sample
    "crlb_suburban_200_800": 4.58275478913131,
}


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def tiny_altitude_config(**overrides) -> u.ExperimentConfig:
    """Small, fast altitude-sweep config for plumbing tests."""
    base = dict(
        variable="altitude",
        trials=1,
        node_count=40,
        seed=3,
        sweep=u.SweepSpec("altitude", (300.0, 900.0, 2000.0)),
    )
    variable = base.pop("variable")
    base.update(overrides)
    return u.default_config(variable=variable, **base)
