"""Acceptance gate: one test per published target, each printing a PASS or
FAIL line with the measured numbers.

Targets 2, 5 and 8 are analytic or self-referential properties. Targets 1,
3, 4, 6 and 7 compare against reference values from the original study;
where the faithful implementation cannot reach them the test is left to
fail honestly rather than being weakened (see the repository notes outside
the package for the quantitative analysis).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import uavloc as u
from uavloc._streams import TAG_FISHER, substream

SEED = 0
FULL_ALT_GRID = u.grid_from_range(50.0, 3000.0, 50.0)


def report(num: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def urban_optimum():
    cfg = u.default_config(variable="altitude", trials=5, node_count=1000,
                           seed=SEED,
                           sweep=u.SweepSpec("altitude", FULL_ALT_GRID))
    return u.optimize_altitude(cfg)


@pytest.fixture(scope="module")
def suburban_optimum():
    cfg = u.default_config(variable="altitude", preset="suburban", trials=5,
                           node_count=1000, seed=SEED,
                           sweep=u.SweepSpec("altitude", FULL_ALT_GRID))
    return u.optimize_altitude(cfg)


def test_criterion_1_bound_tightness():
    # Urban, r = 500 m, h in {200, 500, 1000, 2000}, 5 samples, 10^4 reps:
    # estimator spread within 15% of the closed-form bound.
    cfg = u.default_config(
        variable="altitude", seed=SEED,
        sweep=u.SweepSpec("altitude", (200.0, 500.0, 1000.0, 2000.0)))
    points = u.run_crlb_comparison(cfg, (500.0,), repetitions=10_000)
    ratios = {pt.h: pt.mle_sigma / pt.crlb_sigma for pt in points}
    ok = all(abs(q - 1.0) <= 0.15 for q in ratios.values())
    detail = ("sigma_MLE/sigma_CRLB at r=500: "
              + ", ".join(f"h={h:g}: {q:.3f}" for h, q in ratios.items())
              + " (target within [0.85, 1.15])")
    report(1, ok, detail)


def test_criterion_2_bound_vs_fisher_oracle():
    # Closed form against an independent Monte Carlo Fisher information at
    # five random links, 10^6 draws each: gap at most 1%.
    rng = np.random.default_rng(2024)
    gaps = []
    for i in range(5):
        env = (u.URBAN, u.SUBURBAN)[i % 2]
        geom = u.LinkGeometry(r=float(rng.uniform(100.0, 2000.0)),
                              h=float(rng.uniform(100.0, 2000.0)))
        info = u.fisher_information_numeric(geom, env, 1_000_000,
                                            substream(SEED, TAG_FISHER, i))
        mc = 1.0 / math.sqrt(info)
        cf = u.crlb_sigma(geom, env)
        gaps.append(abs(mc - cf) / cf)
    ok = max(gaps) <= 0.01
    report(2, ok, f"max |1/sqrt(I_mc) - bound|/bound = {max(gaps):.4%} "
                  f"over 5 random links (target <= 1%)")


def test_criterion_3_urban_optimal_altitude(urban_optimum):
    opt = urban_optimum
    res = opt.result
    errs = np.asarray(res.mean_error)
    baseline = errs[res.sweep_values.index(50.0)]
    in_band = 600.0 <= opt.h_opt <= 900.0
    min_ok = 56.0 <= opt.error_at_opt <= 104.0
    base_ok = baseline > 250.0
    ok = in_band and min_ok and base_ok
    report(3, ok,
           f"h_opt = {opt.h_opt:g} m (target [600, 900]), "
           f"min mean error = {opt.error_at_opt:.1f} m (target [56, 104]), "
           f"error at h=50 = {baseline:.1f} m (target > 250)")


def test_criterion_4_urban_optimal_elevation(urban_optimum):
    theta_deg = math.degrees(urban_optimum.theta_opt)
    ok = 43.0 <= theta_deg <= 57.0
    report(4, ok, f"theta_opt = {theta_deg:.1f} deg at h_opt = "
                  f"{urban_optimum.h_opt:g} m, mean node distance "
                  f"{urban_optimum.r_bar:.0f} m (target [43, 57] deg)")


def test_criterion_5_suburban_improvement(suburban_optimum):
    opt = suburban_optimum
    res = opt.result
    baseline = res.mean_error[res.sweep_values.index(50.0)]
    gain = baseline - opt.error_at_opt
    ok = gain > 100.0
    report(5, ok, f"suburban error 50 m -> h_opt {opt.h_opt:g} m: "
                  f"{baseline:.1f} -> {opt.error_at_opt:.1f} m, "
                  f"improvement {gain:.1f} m (target > 100)")


def test_criterion_6_spacing_sweep():
    # Urban, h = 1000 m, evaluation ring 650 m from the centroid.
    cfg = u.default_config(variable="inter_distance", trials=50, seed=SEED)
    res = u.run_sweep(cfg)
    vals = np.asarray(res.sweep_values)
    errs = np.asarray(res.mean_error)
    e100 = errs[int(np.where(vals == 100.0)[0][0])]
    k = int(np.argmin(errs))
    start_ok = 140.0 <= e100 <= 260.0
    min_ok = (450.0 <= vals[k] <= 750.0) and (42.0 <= errs[k] <= 78.0)
    rises_ok = 0 < k < len(vals) - 1 and errs[-1] > errs[k] * 1.02
    ok = start_ok and min_ok and rises_ok
    report(6, ok,
           f"error(l=100) = {e100:.1f} m (target [140, 260]), "
           f"min {errs[k]:.1f} m at l = {vals[k]:g} m "
           f"(target [42, 78] near 600), "
           f"rises at large l: {rises_ok} (end {errs[-1]:.1f} m)")


def test_criterion_7_anchor_count_equivalence():
    # Reference: three anchors at 1000 m altitude. Candidates: growing
    # constellations of 50 m anchors; smallest count matching the reference
    # mean error should land in [12, 18].
    ref_cfg = u.default_config(variable="anchor_count", trials=50, seed=SEED,
                               sweep=u.SweepSpec("anchor_count", (3.0,)))
    ref = u.run_sweep(ref_cfg).mean_error[0]

    low_cfg = u.default_config(variable="anchor_count", trials=50, seed=SEED)
    low_cfg = replace(low_cfg,
                      constellation=replace(low_cfg.constellation,
                                            altitude=50.0))
    res = u.run_sweep(low_cfg)
    errs = np.asarray(res.mean_error)
    reached = np.nonzero(errs <= ref)[0]
    n_star = res.sweep_values[int(reached[0])] if reached.size else None
    ok = n_star is not None and 12.0 <= n_star <= 18.0
    curve = ", ".join(f"N={int(n)}: {e:.0f}"
                      for n, e in zip(res.sweep_values[:4], errs[:4]))
    report(7, ok,
           f"reference error (N=3, h=1000) = {ref:.1f} m; smallest N at "
           f"h=50 reaching it = {n_star} (target [12, 18]); "
           f"low-altitude curve starts {curve} m and grows with N")


def test_criterion_8_property_suite():
    checks = []

    # Zero-noise ranging and multilateration recover the truth.
    envq = u.without_shadowing(u.URBAN)
    g = u.LinkGeometry(r=800.0, h=250.0)
    w = np.full((1, 5), u.mean_rss(g.d, g.theta, envq))
    d_hat, _, _, _ = u.mle_distance_batch(w, g.h, envq)
    checks.append(("zero-noise ranging", abs(d_hat[0] - g.d) <= 0.05))
    spec = u.ConstellationSpec(n_anchors=3, base_side=500.0, altitude=1000.0)
    axy = u.build_constellation(spec)
    node = (321.0, -120.0)
    r_true = np.array([math.hypot(node[0] - x, node[1] - y) for x, y in axy])
    fix = u.multilaterate(axy, r_true)
    checks.append(("zero-noise multilateration",
                   math.hypot(fix.x_hat - node[0], fix.y_hat - node[1]) <= 1e-3))

    # Channel monotonicity and exponent bounds.
    theta = np.linspace(0.0, math.pi / 2.0, 300)
    p = u.prob_los(theta, u.URBAN)
    s = u.shadowing_sigma(theta, u.URBAN)
    a = u.path_loss_exponent(theta, u.URBAN)
    checks.append(("P_LoS increasing", bool(np.all(np.diff(p) > 0.0))))
    checks.append(("sigma decreasing", bool(np.all(np.diff(s) < 0.0))))
    checks.append(("alpha decreasing within [2, 3.5]",
                   bool(np.all(np.diff(a) < 0.0)
                        and np.all((a > 2.0) & (a < 3.5)))))

    # Bound linear in d at fixed elevation.
    d = np.array([10.0, 100.0, 1000.0])
    b = u.crlb_sigma_values(d, 0.7, u.URBAN)
    checks.append(("bound linear in d",
                   bool(np.allclose(b / d, b[0] / d[0], rtol=1e-12))))

    # Fixed seed, different worker counts: identical sweep results.
    cfg = u.default_config(variable="altitude", trials=1, node_count=40,
                           seed=3,
                           sweep=u.SweepSpec("altitude", (300.0, 900.0)))
    checks.append(("thread-count determinism",
                   u.run_sweep(cfg, threads=1)
                   == u.run_sweep(cfg, threads=2)))

    # Offset shift cancels from the estimator exactly.
    rng = np.random.default_rng(17)
    g2 = u.LinkGeometry(r=600.0, h=400.0)
    mu = u.mean_rss(g2.d, g2.theta, u.URBAN)
    sg = u.shadowing_sigma(g2.theta, u.URBAN)
    w2 = mu - sg * rng.standard_normal((50, 5))
    d0, _, _, _ = u.mle_distance_batch(w2, g2.h, u.URBAN)
    d1, _, _, _ = u.mle_distance_batch(
        w2 + 25.0, g2.h, replace(u.URBAN, c_offset=25.0))
    checks.append(("offset-shift invariance", bool(np.array_equal(d0, d1))))

    failed = [name for name, ok in checks if not ok]
    report(8, not failed,
           f"{len(checks)} properties checked"
           + (f"; failed: {failed}" if failed else "; all hold"))
