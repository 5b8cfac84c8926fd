import json
import math
import multiprocessing
import os
import platform
import threading
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest

import uavloc as u
from uavloc import experiments as ex
from uavloc import localization as loc
from uavloc._streams import TAG_RSS, substream
from uavloc.experiments import CRLB_CSV_HEADER, _trial_nodes

from conftest import tiny_altitude_config


def _parent_pid(_):
    """Pool task: the pid of the process that started this worker."""
    return os.getppid()


class TestSweepSpec:
    def test_valid(self):
        spec = u.SweepSpec("altitude", (100, 200, 300))
        assert spec.values == (100.0, 200.0, 300.0)

    def test_unknown_variable(self):
        with pytest.raises(ValueError):
            u.SweepSpec("azimuth", (1.0, 2.0))

    def test_empty_or_unsorted(self):
        with pytest.raises(ValueError):
            u.SweepSpec("altitude", ())
        with pytest.raises(ValueError):
            u.SweepSpec("altitude", (200.0, 100.0))
        with pytest.raises(ValueError):
            u.SweepSpec("altitude", (100.0, 100.0))

    def test_anchor_count_grid(self):
        assert u.SweepSpec("anchor_count", (3, 6, 9)).values == (3.0, 6.0, 9.0)
        with pytest.raises(ValueError):
            u.SweepSpec("anchor_count", (3.0, 7.0))
        with pytest.raises(ValueError):
            u.SweepSpec("anchor_count", (0.0, 3.0))
        with pytest.raises(ValueError):
            u.SweepSpec("anchor_count", (3.5, 6.0))

    def test_inter_distance_positive(self):
        with pytest.raises(ValueError):
            u.SweepSpec("inter_distance", (0.0, 100.0))


class TestExperimentConfig:
    def test_environment_normalization(self):
        cfg = tiny_altitude_config()
        assert cfg.environment is u.URBAN
        assert cfg.environment_name == "urban"

    def test_environment_from_string(self):
        base = tiny_altitude_config()
        cfg = u.ExperimentConfig(environment="SubUrban",
                                 constellation=base.constellation,
                                 sweep=base.sweep)
        assert cfg.environment is u.SUBURBAN
        assert cfg.environment_name == "suburban"

    def test_custom_environment_named_custom(self):
        base = tiny_altitude_config()
        cfg = replace(base, environment=u.without_shadowing(u.URBAN))
        assert cfg.environment_name == "custom"

    def test_validation(self):
        base = tiny_altitude_config()
        for field, bad in [("node_count", 0), ("trials", 0), ("seed", -1),
                           ("seed", 2**128),
                           ("deployment_radius", 0.0),
                           ("samples_per_anchor", 0),
                           ("eval_distance", 0.0), ("eval_azimuths", 0)]:
            with pytest.raises(ValueError):
                replace(base, **{field: bad})

    @pytest.mark.parametrize("field", ["node_count", "trials", "samples_per_anchor",
                                       "eval_azimuths", "seed"])
    @pytest.mark.parametrize("bad", [2.5, 5.5])
    def test_rejects_non_integral_counts(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            replace(tiny_altitude_config(), **{field: bad})

    def test_altitude_floor_named_in_message(self):
        # The lowest anchor altitude, from the sweep or the constellation.
        base = tiny_altitude_config()
        with pytest.raises(ValueError, match="anchor altitude 40 m is below h_min = 50 m"):
            replace(base, sweep=u.SweepSpec("altitude", (40.0, 100.0)))
        for variable, values in (("inter_distance", (300.0,)), ("anchor_count", (3.0,))):
            with pytest.raises(ValueError, match="anchor altitude 10 m is below h_min = 50 m"):
                replace(base, sweep=u.SweepSpec(variable, values),
                        constellation=replace(base.constellation, altitude=10.0))
        # 50 m itself is legal, and a sweep grid alone is not checked.
        assert replace(base, sweep=u.SweepSpec("altitude", (50.0,))).sweep.values == (50.0,)
        assert u.SweepSpec("altitude", (40.0,)).values == (40.0,)

    def test_integral_types_accepted(self):
        cfg = replace(tiny_altitude_config(), node_count=np.int64(7), seed=np.uint64(3))
        assert cfg.node_count == 7 and cfg.seed == 3


class TestTrialNodes:
    def test_altitude_variable_draws_disk(self):
        cfg = tiny_altitude_config(node_count=500)
        pts = _trial_nodes(cfg, 0)
        assert pts.shape == (500, 2)
        assert np.hypot(pts[:, 0], pts[:, 1]).max() <= cfg.deployment_radius
        np.testing.assert_array_equal(pts, _trial_nodes(cfg, 0))
        assert not np.array_equal(pts, _trial_nodes(cfg, 1))

    def test_ring_variables_fixed_azimuths(self):
        cfg = u.default_config(variable="inter_distance")
        pts = _trial_nodes(cfg, 0)
        assert pts.shape == (cfg.eval_azimuths, 2)
        radii = np.hypot(pts[:, 0], pts[:, 1])
        np.testing.assert_allclose(radii, cfg.eval_distance, rtol=1e-12)
        # First bearing due east, then counterclockwise in equal steps.
        np.testing.assert_allclose(pts[0], [cfg.eval_distance, 0.0], atol=1e-9)
        phi = np.arctan2(pts[:, 1], pts[:, 0])
        step = 2.0 * math.pi / cfg.eval_azimuths
        np.testing.assert_allclose(np.diff(phi[:4]), step, rtol=1e-9)
        # Ring does not depend on the trial index.
        np.testing.assert_array_equal(pts, _trial_nodes(cfg, 3))


def _point_errors_reference(cfg, value):
    """One sweep point on its own, ranged per trial and fixed in one solver
    call: the results a slice's shared fix must reproduce."""
    env = cfg.environment
    spec = ex._constellation_at(cfg, value)
    axy = u.build_constellation(spec)
    h = spec.altitude
    n_anchors = axy.shape[0]
    xi_parts, pts_parts, r_hat_parts = [], [], []
    n_boundary = 0
    for trial in range(cfg.trials):
        pts = _trial_nodes(cfg, trial)
        m = pts.shape[0]
        r_true = np.linalg.norm(pts[:, None, :] - axy[None, :, :], axis=2)
        d_true = np.hypot(r_true, h)
        theta = np.arctan2(h, r_true)
        mu = u.mean_rss(d_true, theta, env)
        sigma = u.shadowing_sigma(theta, env)
        z = substream(cfg.seed, TAG_RSS, trial).standard_normal(
            (m, n_anchors, cfg.samples_per_anchor))
        w = np.asarray(mu)[:, :, None] - np.asarray(sigma)[:, :, None] * z
        _, r_hat, _, boundary = u.mle_distance_batch(
            w.reshape(m * n_anchors, cfg.samples_per_anchor), h, env, cfg.search)
        r_hat = r_hat.reshape(m, n_anchors)
        n_boundary += int(np.count_nonzero(boundary))
        xi_parts.append(np.linalg.norm(r_hat - r_true, axis=1))
        pts_parts.append(pts)
        r_hat_parts.append(r_hat)
    p, _, conv = u.multilaterate_batch(axy, np.concatenate(r_hat_parts), cfg.solver)
    return (np.concatenate(xi_parts), np.linalg.norm(p - np.concatenate(pts_parts), axis=1),
            int(np.count_nonzero(~conv)), n_boundary)


def _assert_same_errors(got, want):
    (xi, pos, n_nc, n_bd), (xi_w, pos_w, n_nc_w, n_bd_w) = got, want
    assert xi.dtype == xi_w.dtype and xi.shape == xi_w.shape
    assert xi.tobytes() == xi_w.tobytes()
    assert pos.dtype == pos_w.dtype and pos.shape == pos_w.shape
    assert pos.tobytes() == pos_w.tobytes()
    assert (n_nc, n_bd) == (n_nc_w, n_bd_w)


class TestPointErrors:
    def test_summary_columns_recomputable(self):
        cfg = tiny_altitude_config(trials=2)
        res = u.run_sweep(cfg)
        for k, value in enumerate(res.sweep_values):
            xi, pos, n_nc, n_bd = ex._slice_errors(cfg, (value,))[0]
            assert xi.shape == (cfg.trials * cfg.node_count,)
            assert res.mean_error[k] == float(np.mean(xi))
            assert res.error_std[k] == float(np.std(xi, ddof=1))
            assert res.median_error[k] == float(np.median(xi))
            assert res.mean_position_error[k] == float(np.mean(pos))
            assert res.n_nonconverged[k] == n_nc
            assert res.n_boundary[k] == n_bd

    def test_std_against_streaming_recomputation(self):
        # Independent one-pass (Welford) accumulation of the same samples.
        cfg = tiny_altitude_config(trials=2)
        xi, _, _, _ = ex._slice_errors(cfg, cfg.sweep.values[:1])[0]
        count, mean, m2 = 0, 0.0, 0.0
        for x in xi:
            count += 1
            delta = x - mean
            mean += delta / count
            m2 += delta * (x - mean)
        res = u.run_sweep(cfg)
        assert res.mean_error[0] == pytest.approx(mean, rel=1e-12)
        assert res.error_std[0] == pytest.approx(
            math.sqrt(m2 / (count - 1)), rel=1e-10)

    @pytest.mark.parametrize("variable,values,trials", [
        ("altitude", (50.0, 300.0, 900.0, 2000.0), 2),
        ("anchor_count", (3.0, 30.0), 5),
    ])
    def test_shared_fix_equals_points_alone(self, variable, values, trials):
        # Low altitudes and many anchors add non-converged and boundary-
        # pinned rows to the shared fix.
        cfg = u.default_config(variable=variable, trials=trials, node_count=40, seed=3,
                               sweep=u.SweepSpec(variable, values))
        cfg = replace(cfg, constellation=replace(cfg.constellation, altitude=50.0))
        for idx in ex._sweep_slices(cfg, 1):
            slice_values = [values[i] for i in idx]
            errors = ex._slice_errors(cfg, slice_values)
            for v, got in zip(slice_values, errors):
                want = _point_errors_reference(cfg, v)
                _assert_same_errors(got, want)
                _assert_same_errors(ex._slice_errors(cfg, (v,))[0], want)
        assert sum(ex._slice_errors(cfg, (v,))[0][2] for v in values) > 0

    @pytest.mark.parametrize("variable,values,trials,pack_rows,packs", [
        # 8-node ring: 24 rows per trial at 3 anchors, 48 at 6; packs of
        # whole trials cross trial boundaries.
        ("anchor_count", (3.0, 6.0), 5, 50, [[48, 48, 24], [48] * 5]),
        # 40 nodes x 3 anchors = 120 rows per (trial, point), points inner:
        # packs cross point and trial boundaries.
        ("altitude", (50.0, 300.0, 900.0, 2000.0), 2, 360, [[360, 360, 240]]),
    ])
    def test_packed_ranging_equals_points_alone(self, monkeypatch, variable, values,
                                                trials, pack_rows, packs):
        cfg = u.default_config(variable=variable, trials=trials, node_count=40, seed=3,
                               sweep=u.SweepSpec(variable, values))
        cfg = replace(cfg, constellation=replace(cfg.constellation, altitude=50.0))
        calls = []
        mle_distance_batch = ex.mle_distance_batch

        def spy(samples_2d, h, env, search, offsets):
            calls[-1].append(samples_2d.shape[0])
            return mle_distance_batch(samples_2d, h, env, search, offsets=offsets)

        monkeypatch.setattr(ex, "mle_distance_batch", spy)
        monkeypatch.setattr(ex, "_PACK_ROWS", pack_rows)
        for idx in ex._sweep_slices(cfg, 1):
            calls.append([])
            slice_values = [values[i] for i in idx]
            errors = ex._slice_errors(cfg, slice_values)
            for v, got in zip(slice_values, errors):
                _assert_same_errors(got, _point_errors_reference(cfg, v))
        assert calls == packs

    def test_one_descent_per_call_not_per_point(self, monkeypatch):
        cfg = tiny_altitude_config(trials=2)  # 3 points x 2 trials x 40 nodes
        sizes, working = [], []
        lm_descend, residuals = loc._lm_descend, loc._residuals

        def spy(axy, rhat, p0, solver):
            sizes.append(rhat.shape[0])
            return lm_descend(axy, rhat, p0, solver)

        def spy_residuals(p, *args):
            working.append(p.shape[1])
            return residuals(p, *args)

        monkeypatch.setattr(loc, "_lm_descend", spy)
        monkeypatch.setattr(loc, "_residuals", spy_residuals)
        monkeypatch.setattr(loc, "_DESCENT_ROWS", 100)
        u.run_sweep(cfg)
        # 240 rows in one descent whose working set never holds more than
        # 100: it was refilled.
        assert sizes == [240] and max(working) == 100

    def test_large_slices_fix_in_chunks_of_whole_points(self, monkeypatch):
        cfg = tiny_altitude_config(trials=2)  # 240 range estimates per point
        whole = u.run_sweep(cfg)
        rows = []
        multilaterate_batch = ex.multilaterate_batch

        def spy(axy, rhat, solver):
            rows.append(rhat.shape[0])
            return multilaterate_batch(axy, rhat, solver)

        monkeypatch.setattr(ex, "multilaterate_batch", spy)
        monkeypatch.setattr(ex, "_SLICE_RANGES", 2 * 240 + 239)
        assert u.run_sweep(cfg) == whole
        assert rows == [160, 80]

    def test_xi_is_norm_of_per_anchor_range_errors(self):
        # Zero shadowing: every per-anchor range error is below the search
        # tolerance, so xi stays under sqrt(N) * tol and positions match.
        cfg = tiny_altitude_config(trials=1, node_count=25)
        cfg = replace(cfg, environment=u.without_shadowing(u.URBAN))
        xi, pos, n_nc, _ = ex._slice_errors(cfg, (1000.0,))[0]
        n_anchors = cfg.constellation.n_anchors
        assert xi.max() <= math.sqrt(n_anchors) * 5.0 * cfg.search.tol
        assert pos.max() < 1.0
        assert n_nc == 0


class TestSweepRunners:
    def test_result_metadata(self):
        cfg = tiny_altitude_config(trials=2)
        res = u.run_sweep(cfg)
        assert res.sweep_variable == "altitude"
        assert res.sweep_values == cfg.sweep.values
        assert res.n_nodes == cfg.node_count
        assert res.n_trials == 2
        assert res.seed == cfg.seed
        assert len(res.elapsed_s) == len(cfg.sweep.values)

    @pytest.mark.parametrize("variable,values", [
        ("altitude", (300.0, 900.0, 2000.0)),   # one slice of three points
        ("anchor_count", (3.0, 6.0)),           # one slice per point
    ])
    def test_elapsed_is_an_equal_share_of_each_slice(self, monkeypatch, variable, values):
        # A clock whose steps all differ, so a point timed on its own would
        # get an entry of its own.
        readings = []

        def clock():
            readings.append(float(len(readings) ** 2))
            return readings[-1]

        seconds = []
        slice_worker = ex._slice_worker

        def spy(args):
            first = len(readings)
            summaries, took = slice_worker(args)
            assert took == readings[-1] - readings[first]
            seconds.append(took)
            return summaries, took

        monkeypatch.setattr(ex, "time", SimpleNamespace(perf_counter=clock))
        monkeypatch.setattr(ex, "_slice_worker", spy)
        cfg = u.default_config(variable=variable, node_count=20,
                               sweep=u.SweepSpec(variable, values))
        res = u.run_sweep(cfg)
        slices = ex._sweep_slices(cfg, 1)
        assert len(seconds) == len(slices)
        for idx, took in zip(slices, seconds):
            entries = [res.elapsed_s[i] for i in idx]
            assert entries == [took / len(idx)] * len(idx)
            assert sum(entries) == pytest.approx(took, rel=1e-12)

    def test_ring_sweeps_report_ring_size(self):
        cfg = u.default_config(variable="anchor_count", trials=2,
                               sweep=u.SweepSpec("anchor_count", (3.0, 6.0)))
        res = u.run_sweep(cfg)
        assert res.n_nodes == cfg.eval_azimuths

    def test_thread_count_invariance(self):
        cfg = tiny_altitude_config(node_count=30)
        serial = u.run_sweep(cfg, threads=1)
        # Three points on two workers split unevenly; elapsed_s is excluded
        # from equality, all science fields must match.
        for threads in (2, 3):
            assert u.run_sweep(cfg, threads=threads) == serial

    def test_result_counts_the_workers_used(self):
        cfg = tiny_altitude_config(node_count=10)
        assert u.run_sweep(cfg, threads=1).workers == 1
        # Three points, so at most three workers however many are asked for.
        assert u.run_sweep(cfg, threads=2).workers == 2
        assert u.run_sweep(cfg, threads=8).workers == 3
        one = tiny_altitude_config(node_count=10, sweep=u.SweepSpec("altitude", (500.0,)))
        assert u.run_sweep(one, threads=2).workers == 1

    @pytest.mark.skipif("forkserver" not in multiprocessing.get_all_start_methods(),
                        reason="platform has no fork server")
    def test_parallel_runs_fork_workers_from_one_server(self):
        parents = []

        def two_runs():
            for _ in range(2):
                parents.extend(ex._map_points(_parent_pid, range(6), 2))

        # A daemon thread bounds the wait: a hung pool fails the test
        # instead of stalling the suite.
        runner = threading.Thread(target=two_runs, daemon=True)
        runner.start()
        runner.join(timeout=120)
        assert not runner.is_alive()
        assert len(parents) == 12
        assert len(set(parents)) == 1
        assert parents[0] != os.getpid()

    def test_slices_group_points_by_anchor_layout(self):
        alt = tiny_altitude_config(sweep=u.SweepSpec("altitude", (100, 200, 300, 400, 500)))
        assert ex._sweep_slices(alt, 1) == [(0, 1, 2, 3, 4)]
        assert ex._sweep_slices(alt, 2) == [(0, 2, 4), (1, 3)]
        assert ex._sweep_slices(alt, 8) == [(0,), (1,), (2,), (3,), (4,)]
        count = u.default_config(variable="anchor_count",
                                 sweep=u.SweepSpec("anchor_count", (3.0, 6.0, 9.0)))
        assert ex._sweep_slices(count, 1) == ex._sweep_slices(count, 2) == [(0,), (1,), (2,)]

    def test_zero_noise_collapse(self):
        cfg = tiny_altitude_config(trials=1, node_count=25,
                                   sweep=u.SweepSpec("altitude",
                                                     (300.0, 1000.0)))
        cfg = replace(cfg, environment=u.without_shadowing(u.URBAN))
        res = u.run_sweep(cfg)
        assert max(res.mean_error) < 1.0
        assert max(res.mean_position_error) < 1.0

    def test_altitude_tradeoff_has_interior_dip(self):
        cfg = u.default_config(variable="altitude", trials=1, node_count=300,
                               seed=2,
                               sweep=u.SweepSpec("altitude",
                                                 (150.0, 500.0, 2500.0)))
        res = u.run_sweep(cfg)
        low, mid, high = res.mean_error
        assert mid < low and mid < high

    def test_position_error_improves_with_more_anchors(self):
        cfg = u.default_config(variable="anchor_count", trials=30, seed=11,
                               sweep=u.SweepSpec("anchor_count",
                                                 (3.0, 12.0, 24.0)))
        res = u.run_sweep(cfg)
        pos = res.mean_position_error
        assert pos[0] > pos[1] > pos[2]
        # The range-error norm is taken over one term per anchor, so it
        # grows with the anchor count even as the position fix improves.
        assert res.mean_error[2] > res.mean_error[0]


class TestOptimizeAltitude:
    def test_argmin_consistency(self):
        cfg = tiny_altitude_config(node_count=60)
        opt = u.optimize_altitude(cfg)
        errs = np.asarray(opt.result.mean_error)
        assert opt.error_at_opt == errs.min()
        assert opt.h_opt == opt.result.sweep_values[int(np.argmin(errs))]
        assert opt.h_opt in cfg.sweep.values

    def test_theta_from_population_mean_distance(self):
        cfg = tiny_altitude_config(node_count=4000)
        opt = u.optimize_altitude(cfg)
        assert opt.theta_opt == pytest.approx(
            math.atan2(opt.h_opt, opt.r_bar), rel=1e-15)
        # Uniform disk: mean centroid distance 2R/3.
        assert opt.r_bar == pytest.approx(
            2.0 * cfg.deployment_radius / 3.0, rel=0.02)

    def test_iterates_as_triple(self):
        cfg = tiny_altitude_config(node_count=30)
        h_opt, err_opt, theta_opt = u.optimize_altitude(cfg)
        assert h_opt in cfg.sweep.values
        assert err_opt > 0.0
        assert 0.0 < theta_opt < math.pi / 2.0

    def test_requires_altitude_variable(self):
        cfg = u.default_config(variable="inter_distance",
                               sweep=u.SweepSpec("inter_distance",
                                                 (100.0, 200.0)))
        with pytest.raises(ValueError):
            u.optimize_altitude(cfg)


class TestCrlbComparison:
    def test_table_contents(self):
        cfg = tiny_altitude_config(sweep=u.SweepSpec("altitude",
                                                     (500.0, 1500.0)))
        points = u.run_crlb_comparison(cfg, (400.0, 900.0), repetitions=300)
        assert len(points) == 4
        for pt in points:
            geom = u.LinkGeometry(r=pt.r, h=pt.h)
            assert pt.crlb_sigma == pytest.approx(
                u.crlb_sigma(geom, cfg.environment,
                             n_samples=cfg.samples_per_anchor), rel=1e-12)
            assert 0.0 <= pt.boundary_fraction <= 1.0
            assert pt.repetitions == 300
            assert math.isfinite(pt.mle_sigma) and pt.mle_sigma > 0.0
            assert math.isfinite(pt.mle_mean)
        assert [(pt.r, pt.h) for pt in points] == \
            [(400.0, 500.0), (400.0, 1500.0), (900.0, 500.0), (900.0, 1500.0)]

    def test_determinism_across_threads(self):
        cfg = tiny_altitude_config(sweep=u.SweepSpec("altitude",
                                                     (500.0, 1500.0)))
        a = u.run_crlb_comparison(cfg, (400.0,), repetitions=200, threads=1)
        b = u.run_crlb_comparison(cfg, (400.0,), repetitions=200, threads=2)
        assert a == b

    def test_validation(self):
        cfg = tiny_altitude_config()
        for rs in ((), (-5.0,), (400.0, math.nan), (math.inf,)):
            with pytest.raises(ValueError, match="r_values"):
                u.run_crlb_comparison(cfg, rs, repetitions=100)
        with pytest.raises(ValueError, match="repetitions"):
            u.run_crlb_comparison(cfg, (400.0,), repetitions=1)
        with pytest.raises(ValueError, match="repetitions must be an integer"):
            u.run_crlb_comparison(cfg, (400.0,), repetitions=2.5)
        ring = u.default_config(variable="inter_distance",
                                sweep=u.SweepSpec("inter_distance", (100.0,)))
        with pytest.raises(ValueError, match="expected 'altitude'"):
            u.run_crlb_comparison(ring, (400.0,), repetitions=100)


class TestSerialization:
    def test_csv_header_and_roundtrip(self, tmp_path):
        cfg = tiny_altitude_config()
        res = u.run_sweep(cfg)
        out = tmp_path / "sweep.csv"
        u.write_results(res, out)
        text = out.read_text()
        assert text.splitlines()[0] == u.CSV_HEADER
        cols = u.read_results_csv(out)
        np.testing.assert_array_equal(cols["sweep_value"], res.sweep_values)
        np.testing.assert_array_equal(cols["mean_error_m"], res.mean_error)
        np.testing.assert_array_equal(cols["error_std_m"], res.error_std)
        np.testing.assert_array_equal(cols["mean_position_error_m"],
                                      res.mean_position_error)
        assert set(cols["n_nodes"]) == {float(cfg.node_count)}
        assert set(cols["seed"]) == {float(cfg.seed)}

    def test_rewrite_is_bitwise_identical(self, tmp_path):
        cfg = tiny_altitude_config()
        res = u.run_sweep(cfg)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        u.write_results(res, a)
        u.write_results(res, b)
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.meta.json").read_bytes() == \
            (tmp_path / "b.meta.json").read_bytes()

    def test_sidecar_contents(self, tmp_path):
        cfg = tiny_altitude_config(trials=2)
        res = u.run_sweep(cfg)
        out = tmp_path / "sweep.csv"
        u.write_results(res, out)
        meta = json.loads((tmp_path / "sweep.meta.json").read_text())
        assert meta["library"]["name"] == "uavloc"
        assert meta["library"]["version"] == u.__version__
        assert meta["sweep_variable"] == "altitude"
        assert meta["config"]["seed"] == cfg.seed
        assert meta["config"]["node_count"] == cfg.node_count
        assert meta["config"]["environment"]["a_o"] == 45.0
        assert meta["config"]["sweep"]["values"] == list(cfg.sweep.values)
        assert meta["per_point"]["sweep_values"] == list(res.sweep_values)
        assert meta["per_point"]["median_error_m"] == list(res.median_error)
        assert len(meta["per_point"]["elapsed_s"]) == len(res.sweep_values)
        assert meta["runtime"] == {"python": platform.python_version(),
                                   "numpy": np.__version__,
                                   "cpu_count": os.cpu_count(),
                                   "workers": 1, "start_method": None}

    @pytest.mark.parametrize("variable,value,unread", [
        ("altitude", 300.0, {"eval_distance", "eval_azimuths", "constellation.altitude"}),
        ("inter_distance", 200.0,
         {"node_count", "deployment_radius", "constellation.base_side"}),
        ("anchor_count", 3.0, {"node_count", "deployment_radius", "constellation.n_anchors"}),
    ])
    def test_sidecar_config_holds_only_read_keys(self, tmp_path, variable, value, unread):
        # The sidecar leaves out exactly the keys the sweep does not read: the
        # other node population and the constellation field the sweep sets.
        cfg = u.default_config(variable=variable, trials=1, node_count=10,
                               eval_azimuths=4, sweep=u.SweepSpec(variable, (value,)))
        u.write_results(u.run_sweep(cfg), tmp_path / "s.csv")
        config = json.loads((tmp_path / "s.meta.json").read_text())["config"]

        def key_paths(mapping):
            return {f"{k}.{sub}" if isinstance(v, dict) else k for k, v in mapping.items()
                    for sub in (v if isinstance(v, dict) else (None,))}

        everything = key_paths(asdict(cfg))
        assert unread <= everything
        assert key_paths(config) == everything - unread
        assert ex.UNREAD_KEYS[variable] == unread
        assert config["constellation"]["side_increment"] == cfg.constellation.side_increment

    def test_non_finite_value_writes_no_sidecar(self, tmp_path):
        res = u.run_sweep(tiny_altitude_config(node_count=10))
        res = replace(res, median_error=(math.inf,) + res.median_error[1:])
        out = tmp_path / "sweep.csv"
        with pytest.raises(ValueError):
            u.write_results(res, out)
        assert not (tmp_path / "sweep.meta.json").exists()
        assert not out.exists()

    def test_sidecar_records_the_pool(self, tmp_path):
        res = u.run_sweep(tiny_altitude_config(node_count=10), threads=2)
        out = tmp_path / "sweep.csv"
        u.write_results(res, out)
        runtime = json.loads((tmp_path / "sweep.meta.json").read_text())["runtime"]
        assert runtime["workers"] == 2
        assert runtime["start_method"] in multiprocessing.get_all_start_methods()

    def test_read_rejects_foreign_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            u.read_results_csv(bad)

    def test_read_rejects_truncated_row(self, tmp_path):
        out = tmp_path / "sweep.csv"
        u.write_results(u.run_sweep(tiny_altitude_config(node_count=10)), out)
        text = out.read_text()
        out.write_text(text[:text.rindex(",")])  # cut the last row's seed field
        line = text.count("\n")
        with pytest.raises(ValueError, match=rf"sweep\.csv, line {line}: 6 fields"):
            u.read_results_csv(out)

    def test_read_keeps_integer_columns_exact(self, tmp_path):
        # 2^53 + 1 is the first integer a float cannot hold.
        cfg = tiny_altitude_config(node_count=10, seed=2 ** 53 + 1)
        out = tmp_path / "sweep.csv"
        u.write_results(u.run_sweep(cfg), out)
        cols = u.read_results_csv(out)
        assert cols["seed"].tolist() == [2 ** 53 + 1] * len(cfg.sweep.values)
        assert cols["n_nodes"].tolist() == [10] * len(cfg.sweep.values)

    def test_read_names_a_cell_that_is_not_a_number(self, tmp_path):
        out = tmp_path / "name.csv"
        u.write_results(u.run_sweep(tiny_altitude_config(node_count=10)), out)
        lines = out.read_text().splitlines(keepends=True)
        lines[2] = "abc" + lines[2][lines[2].index(","):]
        out.write_text("".join(lines))
        with pytest.raises(ValueError, match=r"name\.csv, line 3, column sweep_value: 'abc'"):
            u.read_results_csv(out)

    def test_read_rejects_empty_file(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty\\.csv"):
            u.read_results_csv(empty)

    def test_write_error_names_path(self, tmp_path):
        cfg = tiny_altitude_config()
        res = u.run_sweep(cfg)
        missing = tmp_path / "no_such_dir" / "out.csv"
        with pytest.raises(OSError, match="no_such_dir"):
            u.write_results(res, missing)

    def test_crlb_table_csv(self, tmp_path):
        cfg = tiny_altitude_config(sweep=u.SweepSpec("altitude", (500.0,)))
        points = u.run_crlb_comparison(cfg, (400.0,), repetitions=200)
        out = tmp_path / "crlb.csv"
        u.write_crlb_table(points, cfg.seed, out)
        lines = out.read_text().splitlines()
        assert lines[0] == CRLB_CSV_HEADER
        cells = lines[1].split(",")
        assert float(cells[0]) == 400.0
        assert float(cells[1]) == 500.0
        assert float(cells[2]) == points[0].crlb_sigma
        assert int(cells[6]) == 200
        assert int(cells[7]) == cfg.seed
