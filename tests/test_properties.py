"""Property-based tests of invariants that must hold for any input."""

import math

import numpy as np
import pytest
import yaml

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import uavloc as u  # noqa: E402
from uavloc import config  # noqa: E402
from uavloc.config import DEFAULT_GRIDS, grid_from_range  # noqa: E402

from test_estimation import ranging_batch  # noqa: E402

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


# Config values of every kind YAML can hold, with numbers most settings
# accept drawn most often. Sweep sections get small numbers only:
# `grid_from_range` builds the whole start/stop/step grid.
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4))
ANY = st.one_of(SCALARS, st.lists(SCALARS, max_size=3),
                st.dictionaries(st.text(max_size=3), SCALARS, max_size=2))


def _mostly(usual, other):
    """`usual` three times in four, else `other`."""
    return st.integers(0, 3).flatmap(lambda k: other if k == 0 else usual)


VALUES = _mostly(st.sampled_from([3, 6, 30.0, 250.0]), ANY)
SWEEP_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-5, 400),
                          st.sampled_from([0.5, 3.0, 50.0, 3000.0, math.inf, math.nan, "abc"]))
SWEEP_VALUES = st.one_of(SWEEP_SCALARS, st.sampled_from(["altitude", "anchor_count", "x"]),
                         st.lists(SWEEP_SCALARS, max_size=4))
SECTIONS = {"environment", "constellation", "sweep", "search", "solver"}


def _section(keys, values=VALUES):
    return _mostly(st.fixed_dictionaries({}, optional=dict.fromkeys(sorted(keys), values)),
                   ANY)


CONFIGS = st.fixed_dictionaries({}, optional={
    **dict.fromkeys(sorted(config._TOP_KEYS - SECTIONS), VALUES),
    "environment": st.one_of(st.sampled_from(["urban", "suburban", "rural"]),
                             _section(config._ENVIRONMENT_KEYS)),
    "constellation": _section(config._CONSTELLATION_KEYS),
    "sweep": _section(config._SWEEP_KEYS, SWEEP_VALUES),
    "search": _section(config._SEARCH_KEYS),
    "solver": _section(config._SOLVER_KEYS),
})


@settings(max_examples=200, deadline=None)
@given(raw=CONFIGS, variable=st.sampled_from([None, *DEFAULT_GRIDS]))
@example(raw={"deployment_radius": 10 ** 400}, variable=None)
def test_any_config_mapping_loads_or_raises_config_error(tmp_path_factory, raw, variable):
    path = tmp_path_factory.mktemp("cfg") / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    try:
        cfg = u.load_config(path, variable=variable)
    except u.ConfigError:
        return
    assert isinstance(cfg, u.ExperimentConfig)
