"""Workload generation, gradients, metrics, and optimizers.

Oracles: gradients are checked against central finite differences of
the loss; AUC against a quadratic-time enumeration of label pairs; the
accelerated optimizer against the closed-form minimizer of a quadratic
solved independently with numpy.linalg.solve. The decaying-step worked
example (first step scales the gradient by 1/2 when c1 = c2 = 1) is
frozen by hand.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from gradcode import learn
from gradcode.errors import ConfigError, DegenerateLabels, DimensionMismatch, NonFinite
from gradcode.numerics import make_rng


def small_problem(seed: int, d: int = 40, p: int = 5) -> learn.Dataset:
    ds, _ = learn.gen_synthetic(make_rng(seed), d, p)
    return ds


def fd_gradient(ds: learn.Dataset, beta: np.ndarray, h: float = 1e-6) -> np.ndarray:
    g = np.empty_like(beta)
    for i in range(beta.size):
        e = np.zeros_like(beta)
        e[i] = h
        g[i] = (learn.log_loss(ds, beta + e) - learn.log_loss(ds, beta - e)) / (2 * h)
    return g


def pairwise_auc(scores, labels) -> float:
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(bool)
    wins = ties = total = 0
    for i in np.flatnonzero(labels):
        for j in np.flatnonzero(~labels):
            total += 1
            if scores[i] > scores[j]:
                wins += 1
            elif scores[i] == scores[j]:
                ties += 1
    return (wins + 0.5 * ties) / total


@pytest.mark.parametrize("seed", range(4))
def test_full_gradient_matches_finite_differences(seed):
    ds = small_problem(seed)
    beta = make_rng(50 + seed).standard_normal(ds.dim) * 0.3
    g = learn.full_gradient(ds, beta)
    np.testing.assert_allclose(g, fd_gradient(ds, beta), rtol=1e-6, atol=1e-7)


@pytest.mark.parametrize("k", [1, 3, 7, 40])
def test_partials_sum_to_full_gradient(k):
    ds = learn.with_partitions(small_problem(9), k)
    beta = make_rng(99).standard_normal(ds.dim)
    total = sum(learn.partial_gradient(ds, j, beta) for j in range(k))
    np.testing.assert_allclose(total, learn.full_gradient(ds, beta), rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize(
    "d, k",
    [(1003, 10), (997, 7), (1000, 1), (120, 120), (8000, 120)],
)
@pytest.mark.parametrize("group", ["default", "several", "one_each"])
def test_partition_gradients_equal_partial_gradient(monkeypatch, d, k, group):
    # 1003/10 and 997/7 leave an uneven last partition and put the
    # partitions at odd offsets in the logits buffer.
    ds = learn.with_partitions(small_problem(3, d, 37), k)
    row_bytes = ds.X.itemsize * ds.dim
    budget = {
        "default": learn._GROUP_BYTES,
        "several": 3 * (d // k) * row_bytes,
        "one_each": 1,
    }[group]
    monkeypatch.setattr(learn, "_GROUP_BYTES", budget)
    calls = []
    sigmoid = learn.sigmoid
    monkeypatch.setattr(learn, "sigmoid", lambda z: calls.append(z.size) or sigmoid(z))
    beta = make_rng(7).standard_normal(ds.dim)
    G = learn.partition_gradients(ds, beta)
    groups = len(calls)
    assert sum(calls) == d
    if group == "default":
        # 1 MiB holds 3542 rows of 37 floats, so 8000 rows of 66-row
        # partitions make groups of 53, 53 and 14 partitions; every
        # smaller dataset here fits in one group.
        assert groups == (3 if d == 8000 else 1)
    elif group == "one_each":
        assert groups == k
    elif k > 3:
        assert 1 < groups < k
    assert len(G) == k
    for j, g in enumerate(G):
        assert np.array_equal(g, learn.partial_gradient(ds, j, beta))


@pytest.mark.parametrize("group", ["default", "three", "one_byte"])
def test_partition_gradients_write_every_partitions_logits(monkeypatch, group):
    # 997/7 puts partition bounds at odd rows, off any blocking a
    # product over the whole matrix would use.
    ds = learn.with_partitions(small_problem(5, 997, 37), 7)
    budget = {
        "default": learn._GROUP_BYTES,
        "three": 3 * (997 // 7) * ds.X.itemsize * ds.dim,
        "one_byte": 1,
    }[group]
    monkeypatch.setattr(learn, "_GROUP_BYTES", budget)
    beta = make_rng(6).standard_normal(ds.dim)
    logits = np.full(ds.rows, np.nan)
    G = learn.partition_gradients(ds, beta, logits)
    for lo, hi in ds.partition_bounds:
        assert np.array_equal(logits[lo:hi], ds.X[lo:hi] @ beta)
    for g, plain in zip(G, learn.partition_gradients(ds, beta)):
        assert np.array_equal(g, plain)


@pytest.mark.parametrize("d, k, budget", [
    (8000, 24, None), (8000, 120, None),
    # One group of four 20,000-row partitions: OpenBLAS threads each
    # matrix-vector product at this size.
    (80_000, 4, 80_000 * 100 * 8),
])
@pytest.mark.parametrize("order", ["C", "F"])
def test_stacked_products_equal_partial_gradient_bit_for_bit(monkeypatch, d, k, budget, order):
    # p = 100 and 8,000 training rows are the desk workload's shapes, 24
    # and 120 partitions its cyclic and two-stage runs. numpy computes a
    # stacked matmul one BLAS call per stack item, on each item's own
    # strides; that is how numpy iterates, not a documented guarantee,
    # checked on numpy 2.4.6 with scipy-openblas 0.3.31.
    if budget is not None:
        monkeypatch.setattr(learn, "_GROUP_BYTES", budget)
    ds = learn.with_partitions(small_problem(11, d, 100), k)
    if order == "F":  # the stacked views split the row axis of any layout
        ds = learn.Dataset(np.asfortranarray(ds.X), ds.y, ds.partition_bounds)
    beta = make_rng(12).standard_normal(ds.dim)
    logits = np.empty(ds.rows)
    G = learn.partition_gradients(ds, beta, logits)
    for j, (lo, hi) in enumerate(ds.partition_bounds):
        assert np.array_equal(logits[lo:hi], ds.X[lo:hi] @ beta)
        assert np.array_equal(G[j], learn.partial_gradient(ds, j, beta))


def test_gradient_plan_is_built_once_per_partitioned_dataset(monkeypatch):
    builds = []
    plan_groups = learn._plan_groups
    monkeypatch.setattr(learn, "_plan_groups", lambda ds: builds.append(ds) or plan_groups(ds))
    data = small_problem(5, 997, 37)
    beta = make_rng(6).standard_normal(data.dim)
    ds = learn.with_partitions(data, 7)
    every = learn.partition_gradients(ds, beta)
    plan = ds.gradient_plan
    again = learn.partition_gradients(ds, beta, np.empty(ds.rows))
    assert builds == [ds] and ds.gradient_plan is plan
    assert np.array_equal(again, every)
    other = learn.with_partitions(data, 7)
    learn.partition_gradients(other, beta)
    assert builds == [ds, other] and other.gradient_plan is not plan


@pytest.mark.parametrize("budget, groups", [
    # 24 partitions of 333 x 100 rows, the last 341: 1 MiB holds three,
    # 8 x 341 rows' bytes eight, one byte one.
    (None, 8), (8 * 341 * 800, 3), (1, 24),
])
@pytest.mark.parametrize("order", ["C", "F"])
def test_gradient_plan_groups_by_the_budget_it_was_built_under(monkeypatch, budget, groups,
                                                               order):
    if budget is not None:
        monkeypatch.setattr(learn, "_GROUP_BYTES", budget)
    ds = learn.with_partitions(small_problem(11, 8000, 100), 24)
    if order == "F":
        ds = learn.Dataset(np.asfortranarray(ds.X), ds.y, ds.partition_bounds)
    beta = make_rng(12).standard_normal(ds.dim)
    G = learn.partition_gradients(ds, beta)
    plan = ds.gradient_plan
    assert len(plan) == groups
    covered = []
    for group in plan:
        assert np.shares_memory(group.y, ds.y)
        for j, m, at, rows, X in group.runs:
            # A view of the run's rows, never a copy.
            assert np.shares_memory(X, ds.X) and X.shape == (m, rows, ds.dim)
            lo = ds.partition_bounds[j][0]
            assert lo == group.lo + at
            assert np.array_equal(X.reshape(m * rows, ds.dim), ds.X[lo : lo + m * rows])
            covered += range(j, j + m)
    assert covered == list(range(24))
    for j in range(24):
        assert np.array_equal(G[j], learn.partial_gradient(ds, j, beta))
    # The plan stays as built: a budget changed afterwards moves nothing.
    monkeypatch.setattr(learn, "_GROUP_BYTES", 1 << 30)
    assert np.array_equal(learn.partition_gradients(ds, beta), G)
    assert ds.gradient_plan is plan


class _CountingNumpy:
    """numpy, with each ``matmul`` call counted."""

    def __init__(self):
        self.matmuls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, *args, **kwargs):
        self.matmuls += 1
        return np.matmul(*args, **kwargs)


@pytest.mark.parametrize("k, calls", [
    # 24 partitions of 333 rows (the last 341) make groups of 3: two runs
    # in the last group, one in every other, and a call per run and
    # direction. 120 of 66 rows (the last 146) make groups of 19 and a
    # last group of 6. One call per partition and direction made 48 and
    # 240.
    (24, 18),
    (120, 16),
])
def test_one_matmul_per_run_of_equal_partitions(monkeypatch, k, calls):
    ds = learn.with_partitions(small_problem(13, 8000, 100), k)
    counting = _CountingNumpy()
    monkeypatch.setattr(learn, "np", counting)
    learn.partition_gradients(ds, make_rng(14).standard_normal(ds.dim))
    assert counting.matmuls == calls


def test_partition_gradients_never_group_across_a_gap():
    ds = small_problem(4, 60, 3)
    ds = learn.Dataset(ds.X, ds.y, ((30, 40), (0, 10), (10, 20), (40, 60)))
    beta = make_rng(8).standard_normal(ds.dim)
    for j, g in enumerate(learn.partition_gradients(ds, beta)):
        assert np.array_equal(g, learn.partial_gradient(ds, j, beta))


def test_partition_bounds_layout():
    assert learn.make_partition_bounds(10, 3) == ((0, 3), (3, 6), (6, 10))
    assert learn.make_partition_bounds(10, 1) == ((0, 10),)
    assert learn.make_partition_bounds(4, 4) == ((0, 1), (1, 2), (2, 3), (3, 4))
    with pytest.raises(DimensionMismatch):
        learn.make_partition_bounds(4, 5)
    with pytest.raises(DimensionMismatch):
        learn.make_partition_bounds(4, 0)


def test_sigmoid_and_loss_stable_at_extremes():
    z = np.array([-1e4, -50.0, 0.0, 50.0, 1e4])
    sig = learn.sigmoid(z)
    assert np.all(np.isfinite(sig))
    assert np.all((sig >= 0) & (sig <= 1))
    assert sig[2] == 0.5
    ds = learn.Dataset(np.array([[1e3], [-1e3]]), np.array([0.0, 1.0]), ((0, 2),))
    loss = learn.log_loss(ds, np.array([1.0]))
    assert np.isfinite(loss)
    assert loss == pytest.approx(2e3)  # both rows maximally wrong


def _two_branch_sigmoid(z):
    # The former masked formula, kept as the oracle for the single-pass one.
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_bit_identical_to_two_branch_formula():
    rng = make_rng(17)
    special = np.array([0.0, -0.0, np.inf, -np.inf, 1e4, -1e4, np.nan, 745.2, -745.2])
    cases = [special, np.concatenate([rng.standard_normal(50), special])]
    cases += [scale * rng.standard_normal(size) for size in (1, 7, 333, 4099)
              for scale in (1.0, 30.0, 800.0)]
    for z in cases:
        # equal_nan: both give NaN at NaN, whatever its sign bit.
        assert np.array_equal(learn.sigmoid(z), _two_branch_sigmoid(z), equal_nan=True)


@pytest.mark.parametrize("z", [0.5, -0.0, -np.inf, -800.0])
def test_sigmoid_of_a_scalar_is_a_scalar(z):
    value = learn.sigmoid(z)
    assert np.ndim(value) == 0
    assert value == _two_branch_sigmoid(np.array([z]))[0]


def _logaddexp_loss(ds, beta):
    # The former np.logaddexp expression, kept as the oracle for the
    # exp/log1p one.
    z = ds.X @ beta
    return np.sum(np.logaddexp(0.0, z) - ds.y * z)


def _logit_dataset(z, y):
    # One feature and beta = [1.0], so X @ beta is z itself.
    return learn.Dataset(np.asarray(z, dtype=float).reshape(-1, 1), y, ((0, len(y)),))


def test_log_loss_matches_logaddexp_formula():
    rng = make_rng(19)
    one = np.array([1.0])
    for rows in (1, 7, 1000, 100_000):
        for scale in (1e-3, 1.0, 30.0, 800.0):
            ds = _logit_dataset(scale * rng.standard_normal(rows),
                                (rng.random(rows) < 0.5).astype(float))
            X, y = ds.X.copy(), ds.y.copy()
            expected = _logaddexp_loss(ds, one)
            assert learn.log_loss(ds, one) == pytest.approx(expected, rel=1e-13, abs=0.0)
            assert np.array_equal(ds.X, X) and np.array_equal(ds.y, y)
            if rows <= 7:
                # Row by row too, so no tiny loss term hides in a larger sum.
                for i in range(rows):
                    row = _logit_dataset(ds.X[i], ds.y[i:i + 1])
                    assert learn.log_loss(row, one) == pytest.approx(
                        _logaddexp_loss(row, one), rel=1e-13, abs=0.0)


def test_log_loss_equals_logaddexp_formula_at_extremes():
    one = np.array([1.0])
    special = (0.0, -0.0, 745.2, -745.2, 1e4, -1e4, np.inf, -np.inf, np.nan)
    for z in special:
        for y in (0.0, 1.0):
            ds = _logit_dataset([z], np.array([y]))
            # 0 * inf is NaN on both paths.
            with np.errstate(invalid="ignore"):
                got, expected = learn.log_loss(ds, one), _logaddexp_loss(ds, one)
            assert np.array_equal(got, expected, equal_nan=True), (z, y, got, expected)


def _three_temporary_loss(z, y):
    # The former whole-array expression, kept as the oracle for the
    # chunked one.
    t = np.abs(z)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    t += np.maximum(z, 0.0)
    t -= y * z
    return float(np.sum(t))


@pytest.mark.parametrize("size", [1, 7, 32_767, 32_768, 32_769, 443_520])
def test_logits_loss_chunks_equal_the_whole_array_formula(size):
    rng = make_rng(size)
    z = 800.0 * np.tanh(rng.standard_normal(size)) * rng.random(size)
    z[:: max(1, size // 5)] = 800.0 * rng.choice([-1.0, 1.0])
    y = (rng.random(size) < 0.5).astype(float)
    expected = _three_temporary_loss(z, y)
    assert learn.logits_loss(z, y) == expected
    buf = np.full(size, np.nan)
    assert learn.logits_loss(z, y, out=buf) == expected
    z_in = z.copy()
    assert learn.logits_loss(z_in, y, out=z_in) == expected


def test_logits_loss_into_a_buffer_allocates_at_most_the_budget():
    rng = make_rng(31)
    size = 443_520
    z = 30.0 * rng.standard_normal(size)
    y = (rng.random(size) < 0.5).astype(float)
    buf = np.empty(size)
    tracemalloc.start()
    try:
        learn.logits_loss(z, y, out=buf)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


def test_gen_synthetic_matches_dense_mean_expression():
    # The masked in-place adds give the same X as adding a dense
    # (d, p) array of cluster means, on the same draws.
    seed, d, p = 23, 300, 7
    rng = make_rng(seed)
    mu1 = rng.standard_normal(p)
    mu2 = rng.standard_normal(p)
    rng.standard_normal(p)  # beta_star
    component = rng.random(d) < 0.5
    X = rng.standard_normal((d, p))
    X += np.where(component[:, None], mu1, mu2)
    ds, _ = learn.gen_synthetic(make_rng(seed), d, p)
    assert np.array_equal(ds.X, X)


def test_gen_synthetic_deterministic():
    a, bs_a = learn.gen_synthetic(make_rng(5), 100, 8)
    b, bs_b = learn.gen_synthetic(make_rng(5), 100, 8)
    c, _ = learn.gen_synthetic(make_rng(6), 100, 8)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    assert np.array_equal(bs_a, bs_b)
    assert not np.array_equal(a.X, c.X)
    assert set(np.unique(a.y)) <= {0.0, 1.0}


def test_gen_synthetic_label_model():
    # The label frequency must track the mixture's kappa; recompute
    # kappa directly from the documented draw order.
    seed, d, p = 11, 20000, 10
    rng = make_rng(seed)
    mu1 = rng.standard_normal(p)
    mu2 = rng.standard_normal(p)
    beta_star = rng.standard_normal(p) / np.sqrt(p)
    ds, bs = learn.gen_synthetic(make_rng(seed), d, p)
    assert np.array_equal(bs, beta_star)
    with np.errstate(over="ignore"):
        kappa = 1.0 / (1.0 + np.exp(2.0 * (ds.X @ beta_star)))
    diff = abs(float(ds.y.mean()) - float(kappa.mean()))
    assert diff < 0.015  # 4 sigma of a Bernoulli mean at this d
    centre = (mu1 + mu2) / 2
    assert float(np.max(np.abs(ds.X.mean(axis=0) - centre))) < 0.2


def test_holdout_split_deterministic_and_partitioning():
    ds, _ = learn.gen_synthetic(make_rng(3), 250, 6)
    before = np.column_stack([ds.X, ds.y])
    train, hold = learn.holdout_split(ds, 0.2)
    ds2, _ = learn.gen_synthetic(make_rng(3), 250, 6)
    train2, hold2 = learn.holdout_split(ds2, 0.2)
    assert np.array_equal(train.X, train2.X) and np.array_equal(hold.y, hold2.y)
    assert hold.rows == 50 and train.rows == 200
    # The generated rows, unchanged and in order, each feature row with its label.
    after = np.vstack([np.column_stack([d.X, d.y]) for d in (hold, train)])
    assert np.array_equal(after, before)
    assert np.array_equal(np.column_stack([ds.X, ds.y]), before)
    with pytest.raises(DimensionMismatch):
        learn.holdout_split(ds, 0.0)


@pytest.mark.parametrize(
    "d, frac",
    [(3, 0.2), (3, 0.5), (3, 0.34), (1000, 0.2), (1000, 0.34),
     (87_380, 0.2), (87_380, 0.5), (87_381, 0.2), (87_381, 0.34)],
)
def test_holdout_split_in_place_matches_fancy_index_split(d, frac):
    data = make_rng(d)
    X0 = data.standard_normal((d, 3))
    y0 = (data.random(d) < 0.5).astype(float)
    ds = learn.Dataset(X0.copy(), y0.copy(), ((0, d),))
    rng = make_rng(5)
    train, hold = learn.holdout_split(ds, frac, rng)
    # Reference: the leading and trailing rows copied out by fancy index.
    n_hold = int(round(frac * d))
    for split, idx in ((train, np.arange(n_hold, d)), (hold, np.arange(n_hold))):
        assert np.array_equal(split.X, X0[idx]) and np.array_equal(split.y, y0[idx])
        assert split.partition_bounds == ((0, len(idx)),)
        assert np.shares_memory(split.X, ds.X) and np.shares_memory(split.y, ds.y)
    # The split draws nothing from the generator it is given.
    assert rng.random() == make_rng(5).random()
    # ds is left as generated: each row in place with its label.
    assert np.array_equal(ds.X, X0) and np.array_equal(ds.y, y0)


def test_holdout_split_scratch_memory_is_a_fraction_of_the_data():
    rng = make_rng(8)
    d = 100_000
    ds = learn.Dataset(rng.standard_normal((d, 40)), (rng.random(d) < 0.5).astype(float), ((0, d),))
    tracemalloc.start()
    try:
        learn.holdout_split(ds, 0.2, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A copying split allocates a whole second X (30.5 MB here).
    assert peak <= 64 * 1024


def test_holdout_split_scratch_is_the_two_views():
    rng = make_rng(8)
    d, p = 100_000, 100
    ds = learn.Dataset(rng.standard_normal((d, p)), (rng.random(d) < 0.5).astype(float), ((0, d),))
    tracemalloc.start()
    try:
        learn.holdout_split(ds, 0.2, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Two Datasets of views, their bounds tuples: no array of any size.
    assert peak <= 64 * 1024


def test_auc_frozen_and_edge_values():
    assert learn.auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)
    assert learn.auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == pytest.approx(1.0)
    assert learn.auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == pytest.approx(0.0)
    assert learn.auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == pytest.approx(0.5)
    with pytest.raises(DegenerateLabels):
        learn.auc([0.1, 0.2], [1, 1])


@pytest.mark.parametrize("seed", range(5))
def test_auc_matches_pair_enumeration(seed):
    rng = make_rng(70 + seed)
    scores = np.round(rng.random(60), 2)  # rounding forces ties
    labels = rng.random(60) < 0.4
    if labels.all() or not labels.any():
        labels[0] = ~labels[0]
    assert learn.auc(scores, labels) == pytest.approx(pairwise_auc(scores, labels))


def mergesort_auc(scores, labels) -> float:
    """Reference AUC: a stable sort, then tie-group mean ranks."""
    scores = np.asarray(scores, dtype=float)
    pos = np.asarray(labels).astype(bool)
    n_pos = int(np.count_nonzero(pos))
    n_neg = pos.size - n_pos
    order = np.argsort(scores, kind="mergesort")
    s = scores[order]
    group = np.cumsum(np.r_[True, s[1:] != s[:-1]]) - 1
    counts = np.bincount(group)
    avg_rank = np.cumsum(counts) - (counts - 1) / 2.0
    ranks = np.empty(s.size)
    ranks[order] = avg_rank[group]
    return (float(ranks[pos].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@pytest.mark.parametrize("seed", range(20))
def test_auc_bit_identical_to_stable_sort(seed):
    rng = make_rng(200 + seed)
    n = int(rng.integers(2, 3000))
    scores = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
    if seed % 2:
        scores = np.round(scores, 1)  # many ties
    if seed % 3 == 0:
        scores[rng.random(n) < 0.1] = np.inf
        scores[rng.random(n) < 0.1] = -np.inf
    if seed % 5 == 0:
        scores[rng.random(n) < 0.2] = 0.0
        scores[rng.random(n) < 0.2] = -0.0
    labels = rng.random(n) < 0.4
    labels[0], labels[-1] = True, False
    assert learn.auc(scores, labels) == mergesort_auc(scores, labels)


@pytest.mark.parametrize("scores, labels", [
    ([0.3] * 7, [0, 1, 0, 1, 1, 0, 0]),  # one tie group
    ([0.0, -0.0, 0.0, -0.0, 1.0], [1, 0, 0, 1, 1]),  # signed zeros tie
    ([np.inf, -np.inf, np.inf, 0.0, -np.inf], [1, 0, 0, 1, 0]),
    ([5.0, 1.0, 3.0, 2.0], [0, 0, 0, 1]),  # one positive
    ([5.0, 1.0, 3.0, 2.0], [1, 1, 0, 1]),  # one negative
])
def test_auc_group_sums_match_the_rank_scatter_on_edge_scores(scores, labels):
    assert learn.auc(scores, labels) == mergesort_auc(scores, labels)


def test_auc_group_sums_match_the_rank_scatter_at_holdout_size():
    # 110,880 scores, a paper-scale holdout: rank sums near 3e9.
    rng = make_rng(211)
    scores = rng.standard_normal(110_880)
    scores[::7] = np.round(scores[::7], 2)
    labels = rng.random(scores.size) < 0.5
    assert learn.auc(scores, labels) == mergesort_auc(scores, labels)


def reduceat_auc(scores, labels) -> float:
    """The former tie-group sums by np.add.reduceat over np.r_ bounds,
    kept as the oracle for the running-count ones."""
    scores = np.asarray(scores, dtype=float)
    pos = np.asarray(labels).astype(bool)
    n_pos = int(np.count_nonzero(pos))
    n_neg = pos.size - n_pos
    order = np.argsort(scores)
    s = scores[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    ends = np.r_[starts[1:], s.size]
    avg_rank = (starts + ends + 1) / 2.0
    group_pos = np.add.reduceat(pos[order], starts, dtype=np.int64)
    pos_rank_sum = float(np.sum(avg_rank * group_pos))
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@pytest.mark.parametrize("n", [2, 3, 10, 1000, 100_000])
@pytest.mark.parametrize("scores_kind", ["distinct", "ties", "infinite"])
def test_auc_equals_the_reduceat_formula(n, scores_kind):
    rng = make_rng(n)
    scores = rng.standard_normal(n)
    if scores_kind == "ties":
        scores = np.round(scores, 1)
    elif scores_kind == "infinite":
        scores[rng.random(n) < 0.2] = np.inf
        scores[rng.random(n) < 0.2] = -np.inf
        scores[0], scores[-1] = np.inf, -np.inf
    labels = rng.random(n) < 0.4
    labels[0], labels[-1] = True, False
    assert learn.auc(scores, labels) == reduceat_auc(scores, labels)


def test_auc_rejects_nan_scores():
    with pytest.raises(NonFinite):
        learn.auc([0.1, np.nan, 0.3, 0.2], [0, 1, 1, 0])


def optimizer(p: int, **constants) -> learn.Optimizer:
    """An optimizer with explicit constants, so no smoothness bound."""
    return learn.make_optimizer(learn.OptimizerConfig(**constants), p)


def test_decaying_gd_frozen_first_step():
    opt = optimizer(2, method=learn.GD_DECAY, c1=1.0, c2=1.0)
    beta = opt.step(np.array([2.0, -2.0]))
    np.testing.assert_allclose(beta, [-1.0, 1.0], atol=1e-15)
    # Zero gradient leaves the model alone.
    np.testing.assert_allclose(opt.step(np.zeros(2)), [-1.0, 1.0], atol=1e-15)


def test_nag_first_step_is_plain_descent():
    opt = optimizer(2, eta=0.25)
    np.testing.assert_allclose(opt.eval_point(), [0.0, 0.0], atol=1e-15)
    beta = opt.step(np.array([4.0, -8.0]))
    np.testing.assert_allclose(beta, [-1.0, 2.0], atol=1e-15)


@pytest.mark.parametrize("method", [learn.NAG, learn.GD_DECAY])
def test_eval_point_is_the_eval_weights_combination(method):
    # Oracle: eval_point() == a*beta + b*beta_prev, beta_prev recorded
    # outside the optimizer before each step.
    ds = small_problem(11, 300, 6)
    config = learn.OptimizerConfig(method=method)
    opt = learn.make_optimizer(config, ds.dim, learn.lipschitz_bound(ds.X))
    prev = opt.beta.copy()
    for _ in range(50):
        a, b = opt.eval_weights()
        point = opt.eval_point()
        combo = a * opt.beta + b * prev
        if method == learn.GD_DECAY:
            assert (a, b) == (1.0, 0.0)
            assert np.array_equal(point, combo)
        else:
            scale = max(1.0, float(np.max(np.abs(opt.beta))), float(np.max(np.abs(prev))))
            assert float(np.max(np.abs(point - combo))) <= 1e-15 * scale
        prev = opt.beta.copy()
        opt.step(learn.full_gradient(ds, point))


def test_nag_converges_on_quadratic():
    # Oracle: the exact minimizer of 0.5 b'Qb - c'b from a direct solve.
    Q = np.diag([5.0, 10.0])
    c = np.array([1.0, 2.0])
    target = np.linalg.solve(Q, c)
    opt = optimizer(2, eta=1.0 / 10.0)
    iterations = 0
    for _ in range(500):
        iterations += 1
        beta = opt.step(Q @ opt.eval_point() - c)
        if float(np.max(np.abs(beta - target))) < 1e-6:
            break
    assert float(np.max(np.abs(opt.beta - target))) < 1e-6
    assert iterations <= 500


def test_nag_loss_monotone_after_burn_in():
    # Exact full gradients: after burn-in the loss five iterations
    # later never rises beyond the method's own small ripple. The
    # allowance (0.5%) is ~6x the worst ripple observed across seeds
    # and sizes; a bad step size inflates the loss by whole multiples.
    ds, _ = learn.gen_synthetic(make_rng(21), 400, 8)
    L = learn.lipschitz_bound(ds.X)
    opt = learn.make_optimizer(learn.OptimizerConfig(), ds.dim, L)  # eta = 1/L
    losses = []
    for _ in range(60):
        beta = opt.step(learn.full_gradient(ds, opt.eval_point()))
        losses.append(learn.log_loss(ds, beta))
    for t in range(10, len(losses) - 5):
        assert losses[t + 5] <= losses[t] * (1 + 5e-3)
    assert losses[-1] < losses[9]  # net descent past burn-in
    assert min(losses) < 0.7 * losses[0]


def test_lipschitz_bound_is_max_eigenvalue_over_four():
    X = make_rng(1).standard_normal((50, 4))
    direct = float(np.max(np.linalg.eigvalsh(X.T @ X))) / 4
    assert learn.lipschitz_bound(X) == pytest.approx(direct)
    # 1/L steps never overshoot on the summed logistic loss.
    ds = learn.Dataset(X, (make_rng(2).random(50) < 0.5).astype(float), ((0, 50),))
    opt = optimizer(4, method=learn.GD_DECAY, c1=1.0 / learn.lipschitz_bound(X), c2=0.0)
    prev = learn.log_loss(ds, opt.beta)
    for _ in range(20):
        beta = opt.step(learn.full_gradient(ds, opt.beta))
        cur = learn.log_loss(ds, beta)
        assert cur <= prev * (1 + 1e-12)
        prev = cur


def test_divergence_detection():
    opt = optimizer(2, eta=1.0)
    with pytest.raises(NonFinite, match="iteration 1"):
        opt.step(np.array([np.nan, 0.0]))
    # Finite gradient, but the step itself overflows the iterate.
    huge = optimizer(1, method=learn.GD_DECAY, c1=1e308, c2=0.0)
    with pytest.raises(NonFinite, match="diverged"):
        huge.step(np.array([1e10]))


def test_make_optimizer_defaults_and_validation():
    cfg = learn.OptimizerConfig(method=learn.NAG)
    opt = learn.make_optimizer(cfg, 3, lipschitz=4.0)
    assert opt.rate(1) == opt.rate(50) == pytest.approx(0.25)
    assert [opt.momentum(t) for t in (1, 2, 4)] == [0.0, 0.25, 0.5]
    with pytest.raises(ConfigError):
        learn.make_optimizer(cfg, 3)  # no smoothness bound to scale by
    gd = learn.make_optimizer(learn.OptimizerConfig(method=learn.GD_DECAY), 3, lipschitz=2.0)
    c1 = learn.DEFAULT_GD_RATE_SCALE * 11.0 / 2.0
    assert gd.rate(1) == pytest.approx(c1 / 11.0)
    assert gd.rate(5) == pytest.approx(c1 / 15.0)
    assert [gd.momentum(t) for t in (1, 2, 50)] == [0.0, 0.0, 0.0]
    explicit = learn.make_optimizer(learn.OptimizerConfig(method=learn.NAG, eta=0.5), 3)
    assert explicit.rate(1) == 0.5
    with pytest.raises(ConfigError, match="unknown optimizer method"):
        learn.OptimizerConfig(method="adam")  # caught before any run builds its data
    with pytest.raises(ConfigError, match="eta"):
        learn.OptimizerConfig(method=learn.NAG, eta=-1.0)
    with pytest.raises(ConfigError, match="c1"):
        learn.OptimizerConfig(method=learn.GD_DECAY, c1=0.0, c2=1.0)
    for method in learn.METHODS:  # the edges of each range are accepted
        learn.OptimizerConfig(method=method, eta=None, c1=None, c2=0.0)
        learn.OptimizerConfig(method=method, eta=1e-300, c1=1e300, c2=1e300)


@pytest.mark.parametrize("method", learn.METHODS)
@pytest.mark.parametrize(
    "key, value",
    [("eta", 0.0), ("eta", -1.0), ("eta", np.inf), ("eta", np.nan),
     ("c1", 0.0), ("c1", -1.0), ("c1", np.inf), ("c1", np.nan),
     ("c2", -20.0), ("c2", np.inf), ("c2", np.nan)],
)
def test_optimizer_constants_are_checked_whatever_the_method(method, key, value):
    with pytest.raises(ConfigError, match=f"^{key} must be finite"):
        learn.OptimizerConfig(method=method, **{key: value})


@pytest.mark.parametrize("method", learn.METHODS)
def test_momentum_update_reproduces_each_methods_own_rule(method):
    # Oracle: each method's update written out directly, without the shared
    # momentum form. gd_decay's beta - r*g is matched bit for bit by
    # beta + (0*v - r*g); NAG's formula is the one the optimizer runs.
    ds = small_problem(5, 300, 6)
    L = learn.lipschitz_bound(ds.X)
    opt = learn.make_optimizer(learn.OptimizerConfig(method=method), ds.dim, L)
    beta, v = np.zeros(ds.dim), np.zeros(ds.dim)
    c2 = learn.DEFAULT_GD_OFFSET
    c1 = learn.DEFAULT_GD_RATE_SCALE * (1.0 + c2) / L
    for t in range(1, 41):
        m = (t - 1) / (t + 2)
        point = beta + m * v if method == learn.NAG else beta
        assert np.array_equal(opt.eval_point(), point)
        g = learn.full_gradient(ds, point)
        if method == learn.NAG:
            v = m * v - (1.0 / L) * g
            beta = beta + v
        else:
            beta = beta - (c1 / (t + c2)) * g
        assert np.array_equal(opt.step(g), beta)
    m = 40 / 43 if method == learn.NAG else 0.0
    assert opt.eval_weights() == (1.0 + m, -m)
