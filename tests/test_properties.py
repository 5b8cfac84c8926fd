"""Property-based tests of invariants that must hold for any input."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import uavloc as u  # noqa: E402
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
