"""Property test of ``learn.partition_gradients`` over random layouts.

Oracle: ``learn.partial_gradient`` of each partition on its own slice,
and each partition's own product ``X_j @ beta``, compared bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from gradcode import learn

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def layouts(draw):
    """A dataset whose contiguous partitions come in runs of one size,
    with the size changing between runs (or not), a budget from one byte
    to the whole matrix, and a memory order."""
    runs = draw(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 5)),
                         min_size=1, max_size=6))
    sizes = [size for size, count in runs for _ in range(count)]
    # Rows before the first partition put the layout at an odd offset.
    start = draw(st.integers(0, 3))
    rows, p = start + sum(sizes), draw(st.integers(1, 5))
    ends = start + np.cumsum(sizes)
    bounds = tuple((int(e - n), int(e)) for e, n in zip(ends, sizes))
    budget = draw(st.integers(1, rows * p * 8))
    order = draw(st.sampled_from("CF"))
    seed = draw(st.integers(0, 2**32 - 1))
    return bounds, rows, p, budget, order, seed


# Derandomized, so every run of the suite checks the same 200 layouts.
@hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
@hypothesis.given(layouts())
def test_partition_gradients_equal_partial_gradient_on_any_layout(layout):
    bounds, rows, p, budget, order, seed = layout
    rng = np.random.default_rng(seed)
    X = np.asarray(rng.standard_normal((rows, p)), order=order)
    ds = learn.Dataset(X, (rng.random(rows) < 0.5).astype(float), bounds)
    beta = rng.standard_normal(p)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(learn, "_GROUP_BYTES", budget)
        logits = np.full(rows, np.nan)
        G = learn.partition_gradients(ds, beta, logits)
    for j, (lo, hi) in enumerate(bounds):
        assert np.array_equal(G[j], learn.partial_gradient(ds, j, beta))
        assert np.array_equal(logits[lo:hi], ds.X[lo:hi] @ beta)
