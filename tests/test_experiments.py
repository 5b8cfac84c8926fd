import ast
import json
import math
import multiprocessing
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import uavloc as u
from uavloc import channel as ch
from uavloc import experiments as ex
from uavloc import localization as loc
from uavloc._streams import TAG_RSS, substream
from uavloc.experiments import CRLB_CSV_HEADER, _trial_nodes

from conftest import tiny_altitude_config

ROOT = Path(__file__).resolve().parents[1]


def _parent_pid(_):
    """Pool task: the pid of the process that started this worker."""
    return os.getppid()


def _worker_pid(_):
    """Pool task: the pid of the worker that ran it. The short wait lets
    every worker of the pool take a task."""
    time.sleep(0.02)
    return os.getpid()


def _square(i):
    return i * i


def _exit_worker(_):
    """Pool task that kills its worker."""
    os._exit(1)


def _record_and_exit(args):
    """Pool task that leaves a file named after its index, then kills its worker."""
    folder, i = args
    Path(folder, f"{i}-{os.getpid()}").touch()
    os._exit(1)


def _wait_until_broken(pool):
    """Return once `pool` has noticed that one of its workers died."""
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        try:
            pool.submit(_square, 0).result()
        except BrokenProcessPool:
            return
        time.sleep(0.05)
    raise AssertionError("the pool did not notice its dead worker")


def _bounded(run):
    """`run()`, in a daemon thread whose wait is bounded, so that a hung pool
    fails the test instead of stalling the suite."""
    box = {}

    def target():
        try:
            box["value"] = run()
        except BaseException as exc:
            box["error"] = exc

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(timeout=120)
    assert not runner.is_alive()
    if "error" in box:
        raise box["error"]
    return box["value"]


def _group_alive(pgid):
    """Whether a process of group `pgid` is still running. Zombies do not
    count: they have exited and wait only to be reaped by their parent, which
    for an orphan is whatever runs as pid 1."""
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # pid (comm) state ppid pgrp ...; comm may hold spaces and ')'.
            state, _, pgrp = stat.read_text().rsplit(")", 1)[1].split()[:3]
        except (OSError, IndexError, ValueError):
            continue  # the process exited while the group was read
        if int(pgrp) == pgid and state != "Z":
            return True
    return False


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
    # True is an Integral equal to 1, but would be written as "True" into
    # the CSV's n_trials and seed columns.
    @pytest.mark.parametrize("bad", [2.5, 5.5, True])
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

    @pytest.mark.parametrize("variable", ["inter_distance", "anchor_count"])
    def test_ring_is_byte_equal_in_every_trial(self, variable):
        # `_slice_errors` computes a ring's true ranges and channel moments
        # once per slice on the strength of this.
        cfg = u.default_config(variable=variable, trials=6)
        first = _trial_nodes(cfg, 0).tobytes()
        assert all(_trial_nodes(cfg, t).tobytes() == first for t in range(cfg.trials))


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
        ("anchor_count", (3.0, 30.0), 3),
        ("inter_distance", (100.0, 1000.0), 3),
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
        # whole trials cross trial boundaries. The 6-anchor slice comes first.
        ("anchor_count", (3.0, 6.0), 5, 50, [[48] * 5, [48, 48, 24]]),
        # 40 nodes x 3 anchors = 120 rows per (trial, point), points inner:
        # packs cross point and trial boundaries.
        ("altitude", (50.0, 300.0, 900.0, 2000.0), 2, 360, [[360, 360, 240]]),
        # The real pack size on 40 (trial, point) batches of 120 rows: each
        # call holds two or more whole batches.
        ("altitude", (50.0, 300.0, 900.0, 2000.0), 10, None, None),
        # 120-row batches above a cap of 100 rows: each ranges alone.
        ("altitude", (50.0, 300.0, 900.0, 2000.0), 2, 100, [[120] * 8]),
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
        if pack_rows is None:
            per_call, batches = ex._PACK_ROWS // 120, trials * len(values)
            assert per_call >= 2
            packs = [[120 * min(per_call, batches - i) for i in range(0, batches, per_call)]]
        else:
            monkeypatch.setattr(ex, "_PACK_ROWS", pack_rows)
        for idx in ex._sweep_slices(cfg, 1):
            calls.append([])
            slice_values = [values[i] for i in idx]
            errors = ex._slice_errors(cfg, slice_values)
            for v, got in zip(slice_values, errors):
                _assert_same_errors(got, _point_errors_reference(cfg, v))
        assert calls == packs

    def test_one_ranging_call_in_the_module(self):
        # Sweeps and the crlb table range through `_range_batches` alone.
        tree = ast.parse(Path(ex.__file__).read_text(encoding="utf-8"))

        def calls(node):
            return sum(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                       and n.func.id == "mle_distance_batch" for n in ast.walk(node))

        assert calls(tree) == 1
        assert [f.name for f in tree.body
                if isinstance(f, ast.FunctionDef) and calls(f)] == ["_range_batches"]

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
        # Two points fit under the bound: slices (0, 2) and (1,), one fix each.
        assert rows == [160, 80]

    @pytest.mark.parametrize("variable,values", [
        ("altitude", (300.0, 900.0)),
        ("inter_distance", (200.0, 600.0)),
        ("anchor_count", (3.0, 6.0)),
    ])
    def test_ring_channel_moments_once_per_point(self, monkeypatch, variable, values):
        cfg = u.default_config(variable=variable, trials=3, node_count=20,
                               sweep=u.SweepSpec(variable, values))
        calls = []

        def spy(th, env, _kernel=ch._elevation_model):
            calls.append(th.shape)
            return _kernel(th, env)
        # Sampling reaches the kernel through `channel`; ranging holds its
        # own reference, which this spy leaves alone.
        monkeypatch.setattr(ch, "_elevation_model", spy)
        u.run_sweep(cfg)
        # A ring is the same in every trial; an altitude sweep's nodes are not.
        per_point = cfg.trials if variable == "altitude" else 1
        assert len(calls) == per_point * len(values)

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

    @pytest.mark.parametrize("threads", [-1, ex.MAX_THREADS + 1, 99999999999999999999, 1.5,
                                         True])
    def test_bad_thread_count_is_refused_before_any_pool(self, monkeypatch, threads):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(ex, "ProcessPoolExecutor", no_pool)
        cfg = tiny_altitude_config(node_count=10)
        studies = (lambda: u.run_sweep(cfg, threads=threads),
                   lambda: u.optimize_altitude(cfg, threads=threads),
                   lambda: u.run_crlb_comparison(cfg, (400.0,), repetitions=20,
                                                 threads=threads))
        for study in studies:
            with pytest.raises(ValueError,
                               match=rf"threads must be an integer in \[0, {ex.MAX_THREADS}\]"):
                study()

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
        parents = _bounded(lambda: [pid for _ in range(2)
                                    for pid in ex._map_points(_parent_pid, range(6), 2)[0]])
        assert len(parents) == 12
        assert len(set(parents)) == 1
        assert parents[0] != os.getpid()

    @pytest.mark.parametrize("variable", ex.SWEEP_VARIABLES)
    def test_slices_share_only_byte_equal_layouts(self, monkeypatch, variable):
        values = (3.0, 6.0, 9.0, 12.0, 15.0) if variable == "anchor_count" else \
            (100.0, 200.0, 300.0, 400.0, 500.0)
        cfg = u.default_config(variable=variable, trials=2, node_count=40,
                               sweep=u.SweepSpec(variable, values))
        # The rule `_sweep_slices` states is checked against the layouts
        # themselves, so a sweep variable the layout depends on cannot share
        # slices.
        layouts = [u.build_constellation(ex._constellation_at(cfg, v)).tobytes()
                   for v in values]
        per_point = cfg.trials * cfg.node_count * cfg.constellation.n_anchors
        for bound in (ex._SLICE_RANGES, 2 * per_point + 1, 1):
            monkeypatch.setattr(ex, "_SLICE_RANGES", bound)
            for workers in (1, 2, 8):
                slices = ex._sweep_slices(cfg, workers)
                assert sorted(i for idx in slices for i in idx) == list(range(len(values)))
                assert len(slices) >= min(workers, len(values))
                for idx in slices:
                    assert len({layouts[i] for i in idx}) == 1
                    if variable == "altitude":
                        assert len(idx) == 1 or len(idx) * per_point <= bound
                    else:
                        assert len(idx) == 1
        if variable == "altitude":
            # Dealt round-robin: one slice per worker, more under the bound.
            monkeypatch.setattr(ex, "_SLICE_RANGES", 1 << 20)
            assert ex._sweep_slices(cfg, 1) == [(0, 1, 2, 3, 4)]
            assert ex._sweep_slices(cfg, 2) == [(0, 2, 4), (1, 3)]
            assert ex._sweep_slices(cfg, 8) == [(0,), (1,), (2,), (3,), (4,)]
            monkeypatch.setattr(ex, "_SLICE_RANGES", 2 * per_point + 1)
            assert ex._sweep_slices(cfg, 1) == ex._sweep_slices(cfg, 2) == \
                [(0, 3), (1, 4), (2,)]

    def test_slice_order_changes_no_result(self, monkeypatch):
        cfg = u.default_config(variable="anchor_count", trials=2, sweep=u.SweepSpec(
            "anchor_count", (3.0, 6.0, 9.0, 12.0, 15.0)))
        # Largest first: the pool does not end on its largest task.
        assert ex._sweep_slices(cfg, 1) == ex._sweep_slices(cfg, 2) == \
            [(4,), (3,), (2,), (1,), (0,)]
        want = u.run_sweep(cfg)
        shuffled = [(1,), (4,), (0,), (3,), (2,)]
        monkeypatch.setattr(ex, "_sweep_slices", lambda cfg, workers: shuffled)
        for threads in (1, 2):
            assert _bounded(lambda: u.run_sweep(cfg, threads=threads)) == want

    def test_bounded_slices_on_two_workers_keep_results(self, monkeypatch):
        cfg = tiny_altitude_config(node_count=10, sweep=u.SweepSpec(
            "altitude", (300.0, 500.0, 700.0, 900.0, 1100.0, 1300.0, 1500.0, 1700.0)))
        serial = u.run_sweep(cfg)
        # Two points per slice: eight points make four slices.
        monkeypatch.setattr(ex, "_SLICE_RANGES", 2 * cfg.node_count * cfg.constellation.n_anchors)
        assert ex._sweep_slices(cfg, 2) == [(0, 4), (1, 5), (2, 6), (3, 7)]
        parallel = _bounded(lambda: u.run_sweep(cfg, threads=2))
        assert parallel == serial
        assert parallel.workers == 2

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


class TestWorkerPool:
    """One pool of worker processes per process, reused across parallel runs."""

    def test_parallel_runs_reuse_the_workers(self):
        first, second = _bounded(
            lambda: [ex._map_points(_worker_pid, range(8), 2)[0] for _ in range(2)])
        assert os.getpid() not in first
        assert set(first) & set(second)
        assert len(set(first) | set(second)) <= 2

    def test_another_worker_count_replaces_the_workers(self):
        two, three, three_again, two_again = _bounded(
            lambda: [ex._map_points(_worker_pid, range(9), t)[0] for t in (2, 3, 3, 2)])
        assert set(three) & set(three_again)
        assert len(set(three) | set(three_again)) <= 3
        assert not set(two) & set(three)
        assert not set(three_again) & set(two_again)
        assert not set(two) & set(two_again)

    def test_run_with_fewer_tasks_reuses_the_workers(self):
        full, few = _bounded(lambda: [ex._map_points(_worker_pid, range(n), 3)[0]
                                      for n in (24, 2)])
        assert os.getpid() not in few
        assert set(few) <= set(full)

    def test_dead_worker_drops_the_pool(self):
        def runs():
            with pytest.raises(u.WorkerPoolError, match="__name__"):
                ex._map_points(_exit_worker, range(4), 2)
            return [ex._map_points(_worker_pid, range(8), 2)[0] for _ in range(2)]

        after, again = _bounded(runs)
        assert set(after) & set(again)
        assert len(set(after) | set(again)) <= 2

    @pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
    def test_worker_killed_while_idle_is_replaced(self):
        def runs():
            first = ex._map_points(_worker_pid, range(8), 2)[0]
            os.kill(first[0], signal.SIGKILL)
            _wait_until_broken(ex._pool[2])
            return first, ex._map_points(_worker_pid, range(8), 2)[0]

        first, second = _bounded(runs)
        assert len(second) == 8
        assert first[0] not in second

    def test_task_that_kills_a_kept_worker_is_not_run_again(self, tmp_path):
        def runs():
            ex._map_points(_worker_pid, range(8), 2)
            with pytest.raises(u.WorkerPoolError, match="__name__"):
                ex._map_points(_record_and_exit, [(str(tmp_path), i) for i in range(4)], 2)

        _bounded(runs)
        ran = [f.name.split("-")[0] for f in tmp_path.iterdir()]
        assert ran
        assert len(ran) == len(set(ran))

    def test_pool_of_another_process_is_left_alone(self):
        class Foreign:
            def __getattr__(self, name):
                raise AssertionError(f"used another process's pool: .{name}")

        saved = ex._pool
        ex._pool = (os.getppid(), 2, Foreign())
        try:
            pids = _bounded(lambda: ex._map_points(_worker_pid, range(4), 2)[0])
            assert ex._pool[:2] == (os.getpid(), 2)
            assert os.getpid() not in pids
        finally:
            if ex._pool is not saved and ex._pool[0] == os.getpid():
                ex._pool[2].shutdown()
            ex._pool = saved

    def test_concurrent_runs_with_other_worker_counts(self):
        # More workers than cores, and each run of a thread needs a pool of
        # another size than its last: every run replaces the pool that the
        # other threads' runs may be using.
        def run(k):
            return [ex._map_points(_square, range(6), 2 + (k + i) % 2)[0] for i in range(4)]

        def all_threads():
            results = [None] * 4

            def target(k):
                results[k] = run(k)

            threads = [threading.Thread(target=target, args=(k,), daemon=True)
                       for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            return results

        want = [i * i for i in range(6)]
        assert _bounded(all_threads) == [[want] * 4] * 4

    def test_back_to_back_parallel_sweeps_equal_serial(self):
        cfg = u.default_config(variable="anchor_count", trials=2,
                               sweep=u.SweepSpec("anchor_count", (3.0, 6.0, 9.0)))
        serial = u.run_sweep(cfg, threads=1)
        runs = _bounded(lambda: [u.run_sweep(cfg, threads=2) for _ in range(2)])
        assert runs == [serial, serial]
        assert [r.workers for r in runs] == [2, 2]

    def test_back_to_back_parallel_crlb_tables_equal_serial(self):
        cfg = tiny_altitude_config()
        serial = u.run_crlb_comparison(cfg, [250.0, 1000.0], repetitions=40)
        runs = _bounded(lambda: [u.run_crlb_comparison(cfg, [250.0, 1000.0], repetitions=40,
                                                       threads=2) for _ in range(2)])
        assert runs == [serial, serial]
        assert [r.workers for r in runs] == [2, 2]

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                        reason="reads process states from /proc")
    def test_exit_leaves_no_process_behind(self, tmp_path):
        # Two parallel count sweeps in a guarded script, in a session of its
        # own: once it exits, its workers and fork server must be gone
        # within the 5 s after which perfbench/run.py kills the group.
        script = tmp_path / "twice.py"
        script.write_text(
            "import uavloc as u\n"
            "if __name__ == \"__main__\":\n"
            "    cfg = u.default_config(variable=\"anchor_count\", sweep=u.SweepSpec(\n"
            "        \"anchor_count\", (3.0, 6.0, 9.0)))\n"
            "    for _ in range(2):\n"
            "        print(u.run_sweep(cfg, threads=2).workers)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.Popen([sys.executable, str(script)], env=env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=120)
            deadline = time.monotonic() + 5.0
            while _group_alive(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _group_alive(proc.pid)
        finally:
            if _group_alive(proc.pid):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        assert proc.returncode == 0, err
        assert out.split() == ["2", "2"]


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
        table = u.run_crlb_comparison(cfg, (400.0, 900.0), repetitions=300)
        assert (table.config, table.repetitions) == (cfg, 300)
        points = table.points
        assert len(points) == 4
        for pt in points:
            geom = u.LinkGeometry(r=pt.r, h=pt.h)
            assert pt.crlb_sigma == pytest.approx(
                u.crlb_sigma(geom, cfg.environment,
                             n_samples=cfg.samples_per_anchor), rel=1e-12)
            assert 0.0 <= pt.boundary_fraction <= 1.0
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

    @pytest.mark.parametrize("threads, cap", [
        pytest.param(1, None, id="1"), pytest.param(2, None, id="2"),
        pytest.param(1, 80, id="split")])
    def test_equals_one_call_per_cell(self, threads, cap, monkeypatch):
        # Reference: each cell ranged alone on its own mu - sigma * z draws.
        # Under a cap of 80 rows an altitude's cells range as 74 rows, then 37.
        if cap is not None:
            monkeypatch.setattr(ex, "_CRLB_ROWS", cap)
        cfg = tiny_altitude_config(sweep=u.SweepSpec("altitude", (300.0, 1100.0)))
        rs, reps, env, s = (150.0, 400.0, 2500.0), 37, cfg.environment, cfg.samples_per_anchor
        want = []
        for i_r, r in enumerate(rs):
            for i_h, h in enumerate(cfg.sweep.values):
                geom = u.LinkGeometry(r=r, h=h)
                z = substream(cfg.seed, TAG_RSS, i_r, i_h).standard_normal((reps, s))
                w = u.mean_rss(geom.d, geom.theta, env) - u.shadowing_sigma(geom.theta, env) * z
                d_hat, _, _, boundary = u.mle_distance_batch(w, h, env, cfg.search)
                want.append(u.CrlbPoint(
                    r=r, h=h, crlb_sigma=u.crlb_sigma(geom, env, n_samples=s),
                    mle_sigma=float(np.std(d_hat, ddof=1)), mle_mean=float(np.mean(d_hat)),
                    boundary_fraction=float(np.mean(boundary))))
        got = _bounded(lambda: u.run_crlb_comparison(cfg, rs, repetitions=reps,
                                                     threads=threads))
        assert [asdict(pt) for pt in got.points] == [asdict(pt) for pt in want]

    @pytest.mark.parametrize("reps, sizes", [
        (ex._CRLB_ROWS // 3, [3 * (ex._CRLB_ROWS // 3)]),
        (ex._CRLB_ROWS // 2, [ex._CRLB_ROWS, ex._CRLB_ROWS // 2]),
        (ex._CRLB_ROWS + 1, [ex._CRLB_ROWS + 1] * 3)])
    def test_calls_hold_at_most_the_row_cap(self, reps, sizes, monkeypatch):
        # Cells are packed in r order while the call stays within the cap;
        # a cell above it ranges alone. The table matches the cells ranged
        # one per call.
        calls = []
        real = ex.mle_distance_batch

        def spy(samples, *args, **kwargs):
            calls.append(samples.shape[0])
            return real(samples, *args, **kwargs)

        monkeypatch.setattr(ex, "mle_distance_batch", spy)
        cfg = tiny_altitude_config(samples_per_anchor=1,
                                   sweep=u.SweepSpec("altitude", (700.0,)))
        got = u.run_crlb_comparison(cfg, (200.0, 900.0, 3000.0), repetitions=reps)
        assert calls == sizes
        monkeypatch.setattr(ex, "_CRLB_ROWS", 2)
        assert u.run_crlb_comparison(cfg, (200.0, 900.0, 3000.0), repetitions=reps) == got
        assert calls[len(sizes):] == [reps] * 3

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

    @pytest.mark.parametrize("column", ["median_error", "mean_error", "error_std",
                                        "mean_position_error"])
    def test_non_finite_value_writes_no_sidecar(self, tmp_path, column):
        # median_error goes to the sidecar, the others to the CSV.
        res = u.run_sweep(tiny_altitude_config(node_count=10))
        res = replace(res, **{column: (math.inf,) + getattr(res, column)[1:]})
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

    def test_crlb_sidecar_counts_one_task_per_altitude(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(ex, "ProcessPoolExecutor", no_pool)
        cfg = tiny_altitude_config(sweep=u.SweepSpec("altitude", (500.0,)))
        table = u.run_crlb_comparison(cfg, (400.0, 900.0), repetitions=50, threads=2)
        u.write_crlb_table(table, tmp_path / "crlb.csv")
        runtime = json.loads((tmp_path / "crlb.meta.json").read_text())["runtime"]
        assert (runtime["workers"], runtime["start_method"]) == (1, None)

    def test_crlb_table_records_its_own_run(self, tmp_path):
        # The writer reads the workers and the seed from the table alone.
        cfg = tiny_altitude_config(seed=5, sweep=u.SweepSpec("altitude", (300.0, 500.0)))
        table = u.run_crlb_comparison(cfg, (400.0,), repetitions=50, threads=2)
        assert table.workers == 2
        u.write_crlb_table(table, tmp_path / "crlb.csv")
        runtime = json.loads((tmp_path / "crlb.meta.json").read_text())["runtime"]
        assert (runtime["workers"], runtime["start_method"]) == (2, ex._START_METHOD)
        rows = (tmp_path / "crlb.csv").read_text().splitlines()[1:]
        assert [int(row.split(",")[7]) for row in rows] == [table.config.seed] * 2 == [5, 5]

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
        table = u.run_crlb_comparison(cfg, (400.0,), repetitions=200)
        out = tmp_path / "crlb.csv"
        u.write_crlb_table(table, out)
        lines = out.read_text().splitlines()
        assert lines[0] == CRLB_CSV_HEADER
        cells = lines[1].split(",")
        assert float(cells[0]) == 400.0
        assert float(cells[1]) == 500.0
        assert float(cells[2]) == table.points[0].crlb_sigma
        assert int(cells[6]) == 200
        assert int(cells[7]) == cfg.seed

    def test_crlb_table_sidecar(self, tmp_path):
        # The sidecar holds the library, the config without the keys the
        # table does not read, and what ran it; no per-cell block. A
        # non-finite cell writes neither file.
        cfg = tiny_altitude_config(sweep=u.SweepSpec("altitude", (300.0, 500.0)))
        table = u.run_crlb_comparison(cfg, (400.0,), repetitions=50)
        u.write_crlb_table(table, tmp_path / "crlb.csv")
        meta = json.loads((tmp_path / "crlb.meta.json").read_text())
        assert set(meta) == {"library", "config", "runtime"}
        assert meta["library"] == {"name": "uavloc", "version": u.__version__}
        want = asdict(cfg)
        for key in ("node_count", "deployment_radius", "eval_distance", "eval_azimuths",
                    "constellation", "solver"):
            del want[key]
        assert meta["config"] == json.loads(json.dumps(want))
        assert ex.CRLB_UNREAD_KEYS == set(asdict(cfg)) - set(want)
        assert meta["runtime"]["workers"] == 1 and meta["runtime"]["start_method"] is None
        out = tmp_path / "bad.csv"
        with pytest.raises(ValueError):
            u.write_crlb_table(replace(table, points=table.points[:-1] + (
                replace(table.points[-1], mle_mean=math.inf),)), out)
        assert not out.exists() and not (tmp_path / "bad.meta.json").exists()
