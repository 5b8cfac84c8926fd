import math

import numpy as np
import pytest
from scipy.optimize import minimize

import uavloc as u
from uavloc import localization as loc


def triangle_anchors(side=500.0, h=1000.0):
    spec = u.ConstellationSpec(n_anchors=3, base_side=side, altitude=h)
    return u.build_constellation(spec)


def true_ranges(anchors, node_xy):
    return np.array([math.hypot(node_xy[0] - a.x, node_xy[1] - a.y)
                     for a in anchors])


def _lm_descend_full_batch(axy, rhat, p0, solver):
    """The damped Gauss-Newton loop on row-major (L, N, 2) arrays.

    The reference `_lm_descend` must equal bit for bit: its normal
    equations sum with `np.einsum`, and every row stays in every iteration
    until all have left. Also returns whether each row ever accepted a step
    and the final active mask, so a test can count rows that never
    descended and tell rows that left through the damping cap from rows
    that never left.
    """
    p = p0.copy()
    L = p.shape[0]
    lam = np.full(L, solver.damping0)
    diff = p[:, None, :] - axy[None, :, :]
    dist = np.maximum(np.linalg.norm(diff, axis=2), loc._DIST_FLOOR)
    err = dist - rhat
    obj = (err ** 2).sum(axis=1)
    active = np.ones(L, dtype=bool)
    converged = np.zeros(L, dtype=bool)
    descended = np.zeros(L, dtype=bool)

    for _ in range(solver.max_iter):
        u_ = diff / dist[:, :, None]
        jtj = np.einsum("lni,lnj->lij", u_, u_)
        g = np.einsum("lni,ln->li", u_, err)
        a11 = jtj[:, 0, 0] + lam
        a22 = jtj[:, 1, 1] + lam
        a12 = jtj[:, 0, 1]
        det = np.maximum(a11 * a22 - a12 ** 2, 1e-300)
        dx = -(a22 * g[:, 0] - a12 * g[:, 1]) / det
        dy = -(a11 * g[:, 1] - a12 * g[:, 0]) / det
        step = np.stack([dx, dy], axis=1)
        step_norm = np.hypot(dx, dy)

        p_new = p + step
        diff_new = p_new[:, None, :] - axy[None, :, :]
        dist_new = np.maximum(np.linalg.norm(diff_new, axis=2), loc._DIST_FLOOR)
        err_new = dist_new - rhat
        obj_new = (err_new ** 2).sum(axis=1)

        improved = obj_new < obj
        accept = active & improved
        p[accept] = p_new[accept]
        diff[accept] = diff_new[accept]
        dist[accept] = dist_new[accept]
        err[accept] = err_new[accept]
        obj[accept] = obj_new[accept]
        descended |= accept
        lam[accept] = np.maximum(lam[accept] / 3.0, loc._DAMPING_MIN)
        reject = active & ~improved
        lam[reject] = lam[reject] * 10.0

        done = active & (step_norm < solver.step_tol)
        converged |= done
        active &= ~done
        active &= lam <= loc._DAMPING_MAX
        if not active.any():
            break

    return p, obj, converged, descended, active


def assert_descents_equal(want, have):
    """Position, objective and converged agree bit for bit.

    `want` may carry the reference loop's descended flags after them.
    """
    assert len(have) == 3
    for w, h in zip(want[:3], have):
        assert w.dtype == h.dtype and w.shape == h.shape
        assert w.tobytes() == h.tobytes()


def objective(p, axy, rhat):
    dist = np.linalg.norm(p[None, :] - axy, axis=1)
    return float(((dist - rhat) ** 2).sum())


class TestErrorMetrics:
    def test_position_error(self):
        fix = u.PositionFix(x_hat=3.0, y_hat=4.0, residual=0.0, converged=True)
        assert u.position_error(fix, u.NodePosition(0.0, 0.0)) == pytest.approx(5.0)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            u.SolverConfig(max_iter=0)
        with pytest.raises(ValueError):
            u.SolverConfig(step_tol=0.0)
        with pytest.raises(ValueError):
            u.SolverConfig(damping0=-1.0)

    @pytest.mark.parametrize("bad", [2.5, 5.5])
    def test_rejects_non_integral_max_iter(self, bad):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            u.SolverConfig(max_iter=bad)


class TestMultilaterate:
    def test_exact_recovery_zero_noise(self):
        rng = np.random.default_rng(12)
        anchors = triangle_anchors()
        for _ in range(12):
            node = rng.uniform(-800.0, 800.0, size=2)
            fix = u.multilaterate(anchors, true_ranges(anchors, node))
            assert fix.converged
            assert fix.x_hat == pytest.approx(node[0], abs=1e-3)
            assert fix.y_hat == pytest.approx(node[1], abs=1e-3)
            assert fix.residual < 1e-6

    def test_exact_recovery_many_anchors(self):
        spec = u.ConstellationSpec(n_anchors=9, base_side=100.0, altitude=50.0,
                                   side_increment=20.0)
        anchors = u.build_constellation(spec)
        node = (640.0, -120.0)
        fix = u.multilaterate(anchors, true_ranges(anchors, node))
        assert fix.converged
        assert fix.x_hat == pytest.approx(node[0], abs=1e-3)
        assert fix.y_hat == pytest.approx(node[1], abs=1e-3)

    def test_matches_reference_minimizer_on_noisy_ranges(self):
        rng = np.random.default_rng(44)
        anchors = triangle_anchors(side=400.0)
        axy = u.anchors_xy(anchors)
        for _ in range(10):
            node = rng.uniform(-600.0, 600.0, size=2)
            rhat = true_ranges(anchors, node) + rng.normal(0.0, 40.0, size=3)
            rhat = np.maximum(rhat, 0.0)
            fix = u.multilaterate(anchors, rhat)
            ref = minimize(objective, axy.mean(axis=0), args=(axy, rhat),
                           method="Nelder-Mead",
                           options={"xatol": 1e-8, "fatol": 1e-12,
                                    "maxiter": 2000})
            # Same basin or better: never worse than the reference optimum.
            assert fix.residual <= float(ref.fun) + 1e-6

    def test_residual_matches_objective(self):
        anchors = triangle_anchors()
        axy = u.anchors_xy(anchors)
        rhat = np.array([900.0, 650.0, 700.0])
        fix = u.multilaterate(anchors, rhat)
        assert fix.residual == pytest.approx(
            objective(np.array([fix.x_hat, fix.y_hat]), axy, rhat), rel=1e-12)

    def test_collinear_anchors_rejected(self):
        anchors = [u.Anchor(x=float(k), y=2.0 * float(k), h=100.0)
                   for k in range(3)]
        with pytest.raises(u.DegenerateGeometryError):
            u.multilaterate(anchors, np.array([10.0, 10.0, 10.0]))
        # DegenerateGeometryError is a ValueError, so one handler suffices.
        assert issubclass(u.DegenerateGeometryError, ValueError)

    def test_too_few_anchors_rejected(self):
        anchors = triangle_anchors()[:2]
        with pytest.raises(ValueError):
            u.multilaterate(anchors, np.array([10.0, 10.0]))

    def test_bad_ranges_rejected(self):
        anchors = triangle_anchors()
        with pytest.raises(ValueError):
            u.multilaterate(anchors, np.array([10.0, -1.0, 10.0]))
        with pytest.raises(ValueError):
            u.multilaterate(anchors, np.array([10.0, math.nan, 10.0]))
        with pytest.raises(ValueError):
            u.multilaterate(anchors, np.array([10.0, 10.0]))


class TestMultilaterateBatch:
    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        anchors = triangle_anchors()
        axy = u.anchors_xy(anchors)
        nodes = rng.uniform(-700.0, 700.0, size=(25, 2))
        rhat = np.linalg.norm(nodes[:, None, :] - axy[None, :, :], axis=2)
        rhat = np.maximum(rhat + rng.normal(0.0, 25.0, size=rhat.shape), 0.0)
        p, obj, conv = u.multilaterate_batch(axy, rhat)
        assert p.shape == (25, 2) and obj.shape == (25,) and conv.shape == (25,)
        for i in range(25):
            fix = u.multilaterate(anchors, rhat[i])
            assert fix.x_hat == pytest.approx(p[i, 0], abs=1e-6)
            assert fix.y_hat == pytest.approx(p[i, 1], abs=1e-6)
            assert fix.residual == pytest.approx(obj[i], rel=1e-9, abs=1e-9)
            assert fix.converged == bool(conv[i])

    def test_batch_zero_noise(self):
        anchors = triangle_anchors(side=300.0, h=200.0)
        axy = u.anchors_xy(anchors)
        nodes = np.array([[0.0, 0.0], [500.0, 100.0], [-250.0, 410.0]])
        rhat = np.linalg.norm(nodes[:, None, :] - axy[None, :, :], axis=2)
        p, obj, conv = u.multilaterate_batch(axy, rhat)
        assert conv.all()
        np.testing.assert_allclose(p, nodes, atol=1e-3)
        assert obj.max() < 1e-6

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_batch_rejects_bad_ranges(self, bad):
        axy = u.anchors_xy(triangle_anchors())
        rhat = np.full((4, 3), 200.0)
        rhat[2, 1] = bad
        with pytest.raises(ValueError, match="finite and >= 0"):
            u.multilaterate_batch(axy, rhat)

    def test_batch_rejects_wrong_shape(self):
        axy = u.anchors_xy(triangle_anchors())
        with pytest.raises(ValueError, match="one column per anchor"):
            u.multilaterate_batch(axy, np.full((4, 2), 200.0))
        with pytest.raises(ValueError, match="one column per anchor"):
            u.multilaterate_batch(axy, np.full(3, 200.0))

    def test_batch_degenerate_geometry(self):
        axy = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(u.DegenerateGeometryError):
            u.multilaterate_batch(axy, np.ones((2, 3)))


class TestCompactedDescent:
    @pytest.mark.parametrize("n_anchors,base_side",
                             [(3, 500.0), (9, 100.0), (12, 100.0), (30, 100.0)])
    def test_byte_equal_to_full_batch(self, n_anchors, base_side):
        # Shapes of the altitude study (3 anchors) and of count studies up
        # to the largest (30); from 8 anchors on numpy's contiguous sum is
        # pairwise, not sequential. Range noise spans what ranging yields
        # from low to high altitude. step_tol=1e-30 keeps rows at the
        # numerical minimum rejecting steps until they leave through the
        # damping cap.
        spec = u.ConstellationSpec(n_anchors=n_anchors, base_side=base_side,
                                   altitude=100.0, side_increment=20.0)
        axy = u.anchors_xy(u.build_constellation(spec))
        rng = np.random.default_rng(n_anchors)
        solvers = (u.SolverConfig(), u.SolverConfig(max_iter=5),
                   u.SolverConfig(step_tol=1e-30))
        exits = {"step_tol": 0, "damping_cap": 0, "never": 0}
        for sigma in (1.0, 30.0, 300.0, 1500.0):
            nodes = rng.uniform(-1500.0, 1500.0, size=(200, 2))
            rhat = np.linalg.norm(nodes[:, None, :] - axy[None, :, :], axis=2)
            rhat = np.maximum(rhat + rng.normal(0.0, sigma, size=rhat.shape), 0.0)
            p0 = np.tile(axy.mean(axis=0), (rhat.shape[0], 1))
            for solver in solvers:
                *ref, active = _lm_descend_full_batch(axy, rhat, p0, solver)
                assert_descents_equal(ref, loc._lm_descend(axy, rhat, p0, solver))
                conv = ref[2]
                exits["step_tol"] += int(conv.sum())
                exits["damping_cap"] += int((~conv & ~active).sum())
                exits["never"] += int(active.sum())
        assert min(exits.values()) > 0, exits

    @pytest.mark.parametrize("n_anchors", range(3, 31, 3))
    def test_single_row_byte_equal_to_full_batch(self, n_anchors):
        # A batch ends with one row left when the others have finished.
        # numpy sums an (N, 1) array pairwise, so from 8 anchors on a plain
        # anchor sum over one row leaves the reference's order.
        spec = u.ConstellationSpec(n_anchors=n_anchors, base_side=100.0,
                                   altitude=100.0, side_increment=20.0)
        axy = u.anchors_xy(u.build_constellation(spec))
        rng = np.random.default_rng(100 + n_anchors)
        nodes = rng.uniform(-1500.0, 1500.0, size=(40, 2))
        rhat = np.linalg.norm(nodes[:, None, :] - axy[None, :, :], axis=2)
        sigma = np.resize([1.0, 30.0, 300.0, 1500.0], (40, 1))
        rhat = np.maximum(rhat + rng.normal(0.0, 1.0, size=rhat.shape) * sigma, 0.0)
        starts = np.concatenate([np.tile(axy.mean(axis=0), (20, 1)),
                                 rng.uniform(-1500.0, 1500.0, size=(20, 2))])
        for solver in (u.SolverConfig(), u.SolverConfig(step_tol=1e-30)):
            for i in range(rhat.shape[0]):
                args = (axy, rhat[i:i + 1], starts[i:i + 1], solver)
                *ref, _ = _lm_descend_full_batch(*args)
                assert_descents_equal(ref, loc._lm_descend(*args))

    def test_stuck_rows_return_the_centroid(self):
        # An irregular triangle: from its centroid, the first damped step
        # for one long range and two zero ranges is rejected. Exact ranges
        # from the centroid give a zero step: converged, never descended.
        axy = np.array([[-238.0, -202.0], [314.0, -408.0], [100.0, 229.0]])
        center = axy.mean(axis=0)
        at_center = np.linalg.norm(center - axy, axis=1)
        nodes = np.random.default_rng(5).uniform(-700.0, 700.0, size=(3, 2))
        consistent = np.linalg.norm(nodes[:, None, :] - axy[None, :, :], axis=2)
        rhat = np.array([
            [1266.0, 0.0, 0.0],
            at_center,
            consistent[0],
            [344.0, 0.0, 0.0],
            at_center,
            consistent[1],
            [771.0, 0.0, 0.0],
            consistent[2],
        ])
        solver = u.SolverConfig(max_iter=1)
        p0 = np.tile(center, (rhat.shape[0], 1))
        *want, _ = _lm_descend_full_batch(axy, rhat, p0, solver)
        conv0, desc0 = want[2], want[3]
        stuck = ~conv0 & ~desc0
        # Stuck rows sit between rows that leave the loop early (converged)
        # and rows that stay, so their working index moves on compaction.
        assert list(np.nonzero(stuck)[0]) == [0, 3, 6]
        assert (conv0 & ~desc0)[[1, 4]].all() and desc0[[2, 5, 7]].all()

        p, obj, conv = u.multilaterate_batch(axy, rhat, solver)
        assert_descents_equal(want, (p, obj, conv))
        start = ((at_center - rhat) ** 2).sum(axis=1)
        assert p[stuck].tobytes() == p0[stuck].tobytes()
        assert obj[stuck].tobytes() == start[stuck].tobytes()
        assert not conv[stuck].any()
        # With the default max_iter the damping grows until a step is taken.
        assert _lm_descend_full_batch(axy, rhat, p0, u.SolverConfig())[3][stuck].all()


class TestBlockedDescent:
    B = 7

    @staticmethod
    def _rows():
        # Noisy ranges on the irregular triangle of the stuck-row test,
        # with one long range and two zero ranges on each side of both block
        # boundaries (rows 0, 6, 7 and 14 of 15 at a block size of 7).
        axy = np.array([[-238.0, -202.0], [314.0, -408.0], [100.0, 229.0]])
        rng = np.random.default_rng(7)
        nodes = rng.uniform(-900.0, 900.0, size=(2 * TestBlockedDescent.B + 1, 2))
        rhat = np.linalg.norm(nodes[:, None, :] - axy[None, :, :], axis=2)
        rhat = np.maximum(rhat + rng.normal(0.0, 200.0, size=rhat.shape), 0.0)
        for i, far in zip((0, 6, 7, 14), (1266.0, 344.0, 771.0, 980.0)):
            rhat[i] = (far, 0.0, 0.0)
        return axy, rhat

    def test_any_block_size_equals_rows_alone(self, monkeypatch):
        axy, rhat = self._rows()
        p0 = np.tile(axy.mean(axis=0), (rhat.shape[0], 1))
        monkeypatch.setattr(loc, "_DESCENT_ROWS", self.B)
        exits = {"step_tol": 0, "damping_cap": 0, "stuck": 0}
        for solver in (u.SolverConfig(), u.SolverConfig(step_tol=1e-30),
                       u.SolverConfig(max_iter=1)):
            _, _, conv, desc, active = _lm_descend_full_batch(axy, rhat, p0, solver)
            exits["step_tol"] += int(conv.sum())
            exits["damping_cap"] += int((~conv & ~active).sum())
            exits["stuck"] += int((~conv & ~desc).sum())
            for n in (self.B - 1, self.B, self.B + 1, 2 * self.B + 1):
                p, obj, conv = u.multilaterate_batch(axy, rhat[:n], solver)
                for i in range(n):
                    want = u.multilaterate_batch(axy, rhat[i:i + 1], solver)
                    assert p[i].tobytes() == want[0][0].tobytes()
                    assert obj[i].tobytes() == want[1][0].tobytes()
                    assert conv[i] == want[2][0]
        assert min(exits.values()) > 0, exits

    @staticmethod
    def _alone(axy, rhat, p0, solver):
        """Each row descended on its own by the reference loop, and whether
        it was still active (had taken max_iter steps) at the end."""
        rows = [_lm_descend_full_batch(axy, rhat[i:i + 1], p0[i:i + 1], solver)
                for i in range(rhat.shape[0])]
        return [np.concatenate(col) for col in zip(*rows)]

    @pytest.mark.parametrize("cap", [1, 2, 7, 64])
    def test_refilled_working_set_equals_rows_alone(self, monkeypatch, cap):
        # 15 rows; with cap < 15 rows join as others leave, and a late row
        # can still run all max_iter steps or leave through the damping cap.
        axy, rhat = self._rows()
        p0 = np.tile(axy.mean(axis=0), (rhat.shape[0], 1))
        monkeypatch.setattr(loc, "_DESCENT_ROWS", cap)
        exits = {"step_tol": 0, "damping_cap": 0, "max_iter": 0}
        for solver in (u.SolverConfig(max_iter=6), u.SolverConfig(step_tol=1e-30),
                       u.SolverConfig(max_iter=1), u.SolverConfig()):
            *want, active = self._alone(axy, rhat, p0, solver)
            assert_descents_equal(want, loc._lm_descend(axy, rhat, p0, solver))
            exits["step_tol"] += int(want[2].sum())
            exits["damping_cap"] += int((~want[2] & ~active).sum())
            exits["max_iter"] += int(active[cap:].sum())  # late rows only
        assert exits["step_tol"] and exits["damping_cap"], exits
        assert (exits["max_iter"] > 0) == (cap < rhat.shape[0]), exits

    def test_late_row_takes_all_its_steps(self, monkeypatch):
        # Rows 0-2 converge within a few steps; rows 3-5 crawl (step_tol
        # is tiny) and join only as the first ones leave, so they must
        # still take max_iter steps each, counted from their entry.
        axy, rhat = self._rows()
        rhat = rhat[[1, 2, 3, 0, 6, 7]]
        p0 = np.tile(axy.mean(axis=0), (rhat.shape[0], 1))
        solver = u.SolverConfig(max_iter=30, step_tol=1e-6)
        *want, active = self._alone(axy, rhat, p0, solver)
        monkeypatch.setattr(loc, "_DESCENT_ROWS", 3)
        steps = []
        hypot = np.hypot

        def spy_hypot(*args, **kwargs):
            steps.append(args[0].shape[0])
            return hypot(*args, **kwargs)

        monkeypatch.setattr(np, "hypot", spy_hypot)
        got = loc._lm_descend(axy, rhat, p0, solver)
        assert_descents_equal(want, got)
        assert active[3:].any() and len(steps) > solver.max_iter

    @pytest.mark.parametrize("n_anchors", [9, 12, 30])
    def test_lone_row_refill_is_carried_twice(self, monkeypatch, n_anchors):
        # Four equal rows leave at the same step, and the fifth joins an
        # empty working set alone: it must be carried as two copies, as
        # from 8 anchors on numpy would sum one row pairwise.
        spec = u.ConstellationSpec(n_anchors=n_anchors, base_side=100.0,
                                   altitude=100.0, side_increment=20.0)
        axy = u.anchors_xy(u.build_constellation(spec))
        rng = np.random.default_rng(n_anchors)
        nodes = rng.uniform(-1500.0, 1500.0, size=(2, 2))
        rhat = np.linalg.norm(nodes[:, None, :] - axy[None, :, :], axis=2)
        rhat = np.maximum(rhat + rng.normal(0.0, 300.0, size=rhat.shape), 0.0)
        rhat = rhat[[0, 0, 0, 0, 1]]
        p0 = np.tile(axy.mean(axis=0), (5, 1))
        monkeypatch.setattr(loc, "_DESCENT_ROWS", 4)
        widths = []
        residuals = loc._residuals

        def spy(p, *args):
            widths.append(p.shape[1])
            return residuals(p, *args)

        monkeypatch.setattr(loc, "_residuals", spy)
        for solver in (u.SolverConfig(), u.SolverConfig(step_tol=1e-30)):
            widths.clear()
            *want, _ = self._alone(axy, rhat, p0, solver)
            assert_descents_equal(want, loc._lm_descend(axy, rhat, p0, solver))
            sets = [w for w in widths if w]  # the empty start takes none
            assert sets[0] == 4 and 2 in sets and 1 not in sets

    def test_zero_rows_do_no_descent(self, monkeypatch):
        axy, rhat = self._rows()
        descents, steps = [], []
        lm_descend, hypot = loc._lm_descend, np.hypot

        def spy_descend(axy_, rhat_, p0_, solver_):
            descents.append(rhat_.shape[0])
            return lm_descend(axy_, rhat_, p0_, solver_)

        def spy_hypot(*args, **kwargs):
            # The descent takes the norm of each iteration's steps once.
            steps.append(args[0].shape)
            return hypot(*args, **kwargs)

        monkeypatch.setattr(loc, "_lm_descend", spy_descend)
        monkeypatch.setattr(np, "hypot", spy_hypot)
        p, obj, conv = u.multilaterate_batch(axy, np.empty((0, 3)))
        assert descents == []
        assert p.shape == (0, 2) and obj.shape == (0,) and conv.shape == (0,)
        out = lm_descend(axy, np.empty((0, 3)), np.empty((0, 2)), u.SolverConfig())
        assert steps == []
        assert [a.shape for a in out] == [(0, 2), (0,), (0,)]
        # The spy sees iterations: two, on rows that do not finish in one.
        lm_descend(axy, rhat[1:4], np.tile(axy.mean(axis=0), (3, 1)),
                   u.SolverConfig(max_iter=2))
        assert steps == [(3,), (3,)]
