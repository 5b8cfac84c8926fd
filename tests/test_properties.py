"""Property-based tests of invariants that must hold for any input."""

import math

import numpy as np
import pytest
import yaml

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import uavloc as u  # noqa: E402
from uavloc import config, estimation as est, localization as loc  # noqa: E402
from uavloc.config import DEFAULT_GRIDS, grid_from_range  # noqa: E402

from test_estimation import KERNEL_ENVS, ranging_batch, reference_loglik  # noqa: E402
from test_localization import _lm_descend_full_batch, assert_descents_equal  # noqa: E402

ALTITUDES = grid_from_range(*DEFAULT_GRIDS["altitude"])


@settings(max_examples=40, deadline=None)
@given(batches=st.lists(st.tuples(st.integers(0, 12), st.sampled_from(ALTITUDES)),
                        min_size=1, max_size=6),
       n=st.sampled_from([1, 5, 30]),
       env=st.sampled_from([u.URBAN, u.SUBURBAN]),
       seed=st.integers(0, 2 ** 16))
def test_multi_batch_ranging_equals_each_batch_alone(batches, n, env, seed):
    # Batches of two or more rows hold one row pinned at d = h and one at
    # d_max, so iteration counts differ across the call.
    ws = [ranging_batch(env, rows, n, h, seed + i) for i, (rows, h) in enumerate(batches)]
    offsets = np.cumsum([0] + [rows for rows, _ in batches])
    got = u.mle_distance_batch(np.concatenate(ws), [h for _, h in batches], env,
                               offsets=offsets)
    for w, (_, h), i, j in zip(ws, batches, offsets[:-1], offsets[1:]):
        for g, want in zip(got, u.mle_distance_batch(w, h, env)):
            assert g.dtype == want.dtype
            assert g[i:j].tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(h=st.floats(50.0, 3000.0), rows=st.integers(1, 80), n=st.sampled_from([1, 5, 30]),
       env=st.sampled_from([u.URBAN, u.SUBURBAN, u.without_shadowing(u.URBAN)]),
       grid_points=st.sampled_from([3, 37, 255, 256, 257]),
       bound_cols=st.sampled_from([1, 5, 16, 257]),
       seed=st.integers(0, 2 ** 16))
@example(h=50.0, rows=40, n=1, env=u.URBAN, grid_points=256, bound_cols=16, seed=0)
@example(h=3000.0, rows=40, n=30, env=u.without_shadowing(u.URBAN), grid_points=256,
         bound_cols=16, seed=0)
def test_pruned_bracket_equals_dense_argmax(h, rows, n, env, grid_points, bound_cols, seed):
    # With var at the sigma floor (no shadowing) the log-likelihood reaches
    # 1e28, so the certification margin must scale with it. One-column
    # blocks make the bound exact on each column, so stage 2 passes over
    # every column within the margin of the probe's value; one block of
    # the whole grid (257 >= grid_points) is a single full pass.
    w = ranging_batch(env, rows, n, h, seed)
    s1, s2 = est._suffstats(w)
    saved = est._BOUND_COLS
    est._BOUND_COLS = bound_cols
    try:
        _, terms, blocks = est._grid_terms(h, n, env, u.SearchConfig(grid_points=grid_points))
        got = est._bracket(s1, s2, n, terms, blocks,
                           np.empty(rows * min(bound_cols, grid_points)))
    finally:
        est._BOUND_COLS = saved
    c0, two_mu, n_mu2, two_var = terms
    dense = c0 - ((s2[:, None] - s1[:, None] * two_mu) + n_mu2) / two_var
    assert got.tolist() == np.argmax(dense, axis=1).tolist()


@st.composite
def links(draw):
    """Per-link altitudes h in [50, 3000] m and slant distances d in [h, 20000] m."""
    hs = draw(st.lists(st.floats(50.0, 3000.0), min_size=1, max_size=20))
    ds = [draw(st.floats(h, 20000.0)) for h in hs]
    return np.array(hs), np.array(ds)


@settings(max_examples=200, deadline=None)
@given(hd=links(), n=st.sampled_from([1, 5, 30]),
       env=st.sampled_from(KERNEL_ENVS),
       seed=st.integers(0, 2 ** 16))
def test_likelihood_kernel_equals_public_composition(hd, n, env, seed):
    h, d = hd
    s1, s2 = est._suffstats(np.random.default_rng(seed).normal(-100.0, 10.0, (d.size, n)))
    for hh in (h, h.min()):  # per-link altitudes, and one shared by all
        got = est._loglik(d, hh, n, env, s1, s2)
        assert got.tobytes() == reference_loglik(d, hh, env, s1, s2, n).tobytes()


def descent_rows(n, rows, sigma, seed, centroid_start):
    """n random anchors; rows noisy range vectors and their start points."""
    rng = np.random.default_rng(seed)
    axy = rng.uniform(-800.0, 800.0, size=(n, 2))
    nodes = rng.uniform(-1500.0, 1500.0, size=(rows, 2))
    rhat = np.linalg.norm(nodes[:, None, :] - axy[None, :, :], axis=2)
    rhat = np.maximum(rhat + rng.normal(0.0, sigma, size=rhat.shape), 0.0)
    if centroid_start:
        return axy, rhat, np.tile(axy.mean(axis=0), (rows, 1))
    return axy, rhat, rng.uniform(-1500.0, 1500.0, size=(rows, 2))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(3, 30), rows=st.integers(1, 64), sigma=st.floats(0.0, 2000.0),
       seed=st.integers(0, 2 ** 16), centroid_start=st.booleans(),
       solver=st.sampled_from([u.SolverConfig(), u.SolverConfig(max_iter=5),
                               u.SolverConfig(step_tol=1e-30)]))
def test_descent_equals_reference_loop(n, rows, sigma, seed, centroid_start, solver):
    axy, rhat, p0 = descent_rows(n, rows, sigma, seed, centroid_start)
    *want, _ = _lm_descend_full_batch(axy, rhat, p0, solver)
    assert_descents_equal(want, loc._lm_descend(axy, rhat, p0, solver))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(3, 30), rows=st.integers(1, 40), sigma=st.floats(0.0, 2000.0),
       seed=st.integers(0, 2 ** 16), centroid_start=st.booleans(),
       cap=st.integers(1, 45),
       solver=st.sampled_from([u.SolverConfig(max_iter=1), u.SolverConfig(max_iter=5),
                               u.SolverConfig(max_iter=12), u.SolverConfig(step_tol=1e-30)]))
@example(n=8, rows=4, sigma=300.0, seed=1, centroid_start=False, cap=2,
         solver=u.SolverConfig(max_iter=12))
def test_refilled_descent_equals_reference_loop(n, rows, sigma, seed, centroid_start, cap,
                                                solver):
    # Rows join the working set as others leave; each keeps its own step
    # count, so it leaves at its own max_iter, bit for bit as in one batch.
    # The example has a lone row join a working set of one, at 8 anchors.
    axy, rhat, p0 = descent_rows(n, rows, sigma, seed, centroid_start)
    *want, _ = _lm_descend_full_batch(axy, rhat, p0, solver)
    saved = loc._DESCENT_ROWS
    loc._DESCENT_ROWS = cap
    try:
        got = loc._lm_descend(axy, rhat, p0, solver)
    finally:
        loc._DESCENT_ROWS = saved
    assert_descents_equal(want, got)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 30), rows=st.integers(1, 16), sigma=st.floats(0.0, 2000.0),
       seed=st.integers(0, 2 ** 16), centroid_start=st.booleans())
def test_accepted_steps_never_raise_the_objective(n, rows, sigma, seed, centroid_start):
    # The descent stopped after k iterations returns the objective of its
    # last accepted step, so it must not rise with k, nor above the start.
    axy, rhat, p0 = descent_rows(n, rows, sigma, seed, centroid_start)
    dist = np.maximum(np.linalg.norm(p0[:, None, :] - axy, axis=2), loc._DIST_FLOOR)
    start = ((dist - rhat) ** 2).sum(axis=1)
    prev = start
    for k in range(1, 21):
        p, obj, _ = loc._lm_descend(axy, rhat, p0, u.SolverConfig(max_iter=k))
        moved = (p != p0).any(axis=1)
        assert np.all(obj <= prev)
        assert np.all(obj[moved] < start[moved])
        prev = obj


@st.composite
def small_studies(draw):
    """A small altitude, spacing or count study on part of its default grid."""
    variable = draw(st.sampled_from(sorted(DEFAULT_GRIDS)))
    grid = draw(st.lists(st.sampled_from(grid_from_range(*DEFAULT_GRIDS[variable])),
                         min_size=1, max_size=4, unique=True))
    return u.default_config(variable=variable, sweep=u.SweepSpec(variable, sorted(grid)),
                            seed=draw(st.integers(0, 2 ** 16)),
                            trials=draw(st.integers(1, 3)),
                            node_count=draw(st.integers(1, 30)),
                            eval_azimuths=draw(st.integers(1, 8)))


@settings(max_examples=10, deadline=None)
@given(cfg=small_studies())
def test_two_workers_reproduce_one(cfg):
    assert u.run_sweep(cfg, threads=2) == u.run_sweep(cfg, threads=1)


# Config values of every kind YAML can hold, with numbers most settings
# accept drawn most often. Sweep sections get small numbers and a few huge
# ones, which `grid_from_range` must refuse before building their grid.
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4))
ANY = st.one_of(SCALARS, st.lists(SCALARS, max_size=3),
                st.dictionaries(st.text(max_size=3), SCALARS, max_size=2))


def _mostly(usual, other):
    """`usual` three times in four, else `other`."""
    return st.integers(0, 3).flatmap(lambda k: other if k == 0 else usual)


VALUES = _mostly(st.sampled_from([3, 6, 30.0, 250.0]), ANY)
SWEEP_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-5, 400),
                          st.sampled_from([0.5, 3.0, 50.0, 3000.0, 1.0e12, -1.0e308, 1.0e308,
                                           math.inf, math.nan, "abc"]))
SWEEP_VALUES = st.one_of(SWEEP_SCALARS, st.sampled_from(["altitude", "anchor_count", "x"]),
                         st.lists(SWEEP_SCALARS, max_size=4))
#: Every settable key, as "section.key" below the top level.
KEYS = frozenset().union(*(reads for _, reads in config.COMMANDS.values()))


def _keys(section: str) -> set:
    return {k.partition(".")[2] for k in KEYS if k.startswith(section + ".")}


def _section(keys, values=VALUES):
    return _mostly(st.fixed_dictionaries({}, optional=dict.fromkeys(sorted(keys), values)),
                   ANY)


CONFIGS = st.fixed_dictionaries({}, optional={
    **dict.fromkeys(sorted(k for k in KEYS if "." not in k), VALUES),
    "environment": st.one_of(st.sampled_from(["urban", "suburban", "rural"]),
                             _section(_keys("environment"))),
    "constellation": _section(_keys("constellation")),
    "sweep": _section(_keys("sweep"), SWEEP_VALUES),
    "search": _section(_keys("search")),
    "solver": _section(_keys("solver")),
})


@settings(max_examples=200, deadline=None)
@given(raw=CONFIGS, variable=st.sampled_from([None, *DEFAULT_GRIDS]),
       command=st.sampled_from([None, *config.COMMANDS]))
@example(raw={"deployment_radius": 10 ** 400}, variable=None, command=None)
def test_any_config_mapping_loads_or_raises_config_error(tmp_path_factory, raw, variable,
                                                         command):
    path = tmp_path_factory.mktemp("cfg") / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    try:
        cfg = u.load_config(path, variable=variable, command=command)
    except u.ConfigError:
        return
    assert isinstance(cfg, u.ExperimentConfig)
