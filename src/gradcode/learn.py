"""Logistic-regression workload: synthetic data, gradients, optimizers.

The model is plain unregularized logistic regression with gradient and
loss taken as sums over rows, not means, so that per-partition
gradients add up to the full gradient with no reweighting. Step sizes
must therefore scale with the data; the default for the accelerated
method is eta = 1/L with L = lambda_max(X^T X)/4, the smoothness
constant of the sum loss, estimated from the training features.

Synthetic data follows a two-cluster mixture: x ~ 0.5 N(mu1, I) +
0.5 N(mu2, I) with mu1, mu2 standard normal, and labels
y ~ Bernoulli(kappa) with kappa = 1/(exp(2 x.beta_star) + 1), so the
population minimizer is -2 beta_star. beta_star is drawn standard
normal scaled by 1/sqrt(p): unit-scale signal keeps the labels noisy
at any dimension instead of collapsing to a separable problem. The draw
order: the seed's generator draws mu1, mu2 and beta_star; then each
block of ``_DRAW_ROWS`` rows draws from its own jumped stream its
cluster flags, its normals and its label uniforms; then one product
X @ beta_star gives kappa, and a label is 1 where its uniform is below
kappa. The data depends on the seed, not on how many cores draw it.

Optimizers count iterations from 1: the decaying schedule is
c1/(t + c2) and the accelerated momentum is (t - 1)/(t + 2), so the
first step of either method is a plain gradient step.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, DegenerateLabels, DimensionMismatch, NonFinite

# Decaying-schedule defaults. c1 = gamma * (1 + c2) / L, so the first
# step's effective rate is gamma/L. gamma = 1 gives both optimizers the
# same smoothness-principled initial rate; c2 = 10 sits mid-grid in a
# sweep over gamma in {0.25, 0.5, 1, 2, 4} x c2 in {2, 10, 50} on the
# desk-scale synthetic problem (d=10000, p=100, 100 iterations) and
# stays well-behaved independent of horizon. Larger gamma keeps
# improving final loss there by trading early overshoot against the
# decay, but only by leaving the stability-safe initial scale.
DEFAULT_GD_RATE_SCALE = 1.0
DEFAULT_GD_OFFSET = 10.0

NAG = "nag"
GD_DECAY = "gd_decay"
METHODS = (NAG, GD_DECAY)

# Rows per block of gen_synthetic's draw. Each block draws from its own
# jumped stream, so this size defines the data; it is not a setting.
# At d=554,400, p=100 on a 2-core host (numpy 2.4.6; fastest of 7
# alternating calls) the blocks drew in 560 ms on two threads, against
# 907 ms for one sequential stream and 965 ms for the same blocks on one
# thread: the gain is the second core, not the blocking.
_DRAW_ROWS = 4096


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature rows, 0/1 labels, and contiguous partition bounds."""

    X: np.ndarray
    y: np.ndarray
    partition_bounds: tuple[tuple[int, int], ...]

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise DimensionMismatch(
                f"features {X.shape} and labels {y.shape} do not line up"
            )
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def rows(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    @property
    def partitions(self) -> int:
        return len(self.partition_bounds)

    @cached_property
    def gradient_plan(self) -> tuple[_Group, ...]:
        """``partition_gradients``' groups, each a run of equal contiguous
        partitions that takes one stacked product pair, built from
        ``partition_bounds`` and ``_GROUP_BYTES`` on first use and kept:
        a run's partitioned dataset builds its plan once, in round 1."""
        return _plan_groups(self)


def make_partition_bounds(d: int, k: int) -> tuple[tuple[int, int], ...]:
    """k contiguous slices of d rows; the last absorbs any remainder."""
    if not 1 <= k <= d:
        raise DimensionMismatch(f"need 1 <= partitions <= rows, got k={k}, d={d}")
    base = d // k
    bounds = [(j * base, (j + 1) * base) for j in range(k)]
    bounds[-1] = ((k - 1) * base, d)
    return tuple(bounds)


def with_partitions(ds: Dataset, k: int) -> Dataset:
    return Dataset(ds.X, ds.y, make_partition_bounds(ds.rows, k))


def _draw_workers() -> int:
    """Threads ``gen_synthetic`` draws its blocks on: one per core this
    process may use, or per core of the machine where the OS reports no
    affinity (macOS, Windows). It schedules blocks and changes no bit."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def gen_synthetic(
    rng: np.random.Generator, d: int = 554400, p: int = 100
) -> tuple[Dataset, np.ndarray]:
    """Draw the two-cluster logistic workload; returns (dataset, beta_star).

    ``rng`` draws mu1, mu2 and beta_star, in that order. The rows are cut
    into blocks of ``_DRAW_ROWS`` (the last is shorter), and block b draws
    from its own generator, ``rng``'s bit generator jumped b + 1 times:
    its cluster flags, its normals, then its label uniforms. The blocks
    run on ``_draw_workers()`` threads, so the data depends on the seed
    alone, not on the core count. Last, the main thread takes one product
    ``X @ beta_star`` and turns the uniforms into labels in place:
    y = 1 where the uniform is below kappa = sigmoid(-2 X beta_star).
    ``rng`` itself advances by the 3p root draws only.
    """
    if d < 2 or p < 1:
        raise DimensionMismatch(f"need d >= 2 and p >= 1, got d={d}, p={p}")
    mu1 = rng.standard_normal(p)
    mu2 = rng.standard_normal(p)
    beta_star = rng.standard_normal(p) / np.sqrt(p)
    X = np.empty((d, p))
    y = np.empty(d)

    def draw(b: int) -> None:
        # numpy's random fills and ufuncs release the GIL; no BLAS runs here.
        block = np.random.Generator(rng.bit_generator.jumped(b + 1))
        lo, hi = b * _DRAW_ROWS, min(d, (b + 1) * _DRAW_ROWS)
        m = (block.random(hi - lo) < 0.5)[:, None]
        rows = X[lo:hi]
        block.standard_normal(out=rows)
        # Masked in-place adds while the block is in cache: no (d, p)
        # temporary for the cluster means.
        np.add(rows, mu1, out=rows, where=m)
        np.add(rows, mu2, out=rows, where=~m)
        block.random(out=y[lo:hi])

    blocks = range(-(-d // _DRAW_ROWS))
    with ThreadPoolExecutor(min(_draw_workers(), len(blocks))) as pool:
        for _ in pool.map(draw, blocks):
            pass
    # One whole-matrix product; then y < kappa block by block, in place,
    # so no d-length buffer but the product's outlives a block.
    z = X @ beta_star
    z *= -2.0
    for lo in range(0, d, _DRAW_ROWS):
        labels = y[lo:lo + _DRAW_ROWS]
        np.less(labels, sigmoid(z[lo:lo + _DRAW_ROWS]), out=labels)
    return Dataset(X, y, ((0, d),)), beta_star


def holdout_rows(rows: int, frac: float) -> int:
    """How many of ``rows`` rows ``holdout_split`` holds out at ``frac``."""
    return int(round(frac * rows))


def holdout_split(
    ds: Dataset, frac: float, rng: np.random.Generator | None = None
) -> tuple[Dataset, Dataset]:
    """Split ``ds`` into ``(train, holdout)``: the holdout is its first
    ``holdout_rows(rows, frac)`` rows, the training set the rest.

    Both are views of ``ds``'s arrays, in row order, so the split copies
    nothing. It shuffles nothing either: ``gen_synthetic``'s rows are
    i.i.d., so its first rows are a random split in distribution, and
    contiguous partitions of the training set are random subsamples. A
    caller with ordered rows must shuffle them first. ``rng`` is never
    drawn from; it stays only because the benchmark's oracle passes one.
    """
    if not 0.0 < frac < 1.0:
        raise DimensionMismatch(f"holdout fraction must be in (0, 1), got {frac}")
    n_hold = holdout_rows(ds.rows, frac)
    if n_hold < 1 or ds.rows - n_hold < 1:
        raise DimensionMismatch(f"holdout fraction {frac} leaves an empty split at d={ds.rows}")
    return (
        Dataset(ds.X[n_hold:], ds.y[n_hold:], ((0, ds.rows - n_hold),)),
        Dataset(ds.X[:n_hold], ds.y[:n_hold], ((0, n_hold),)),
    )


# The scratch budget, in bytes, of the steps that would otherwise allocate
# in proportion to the training data: the rows of one partition group of
# partition_gradients and one chunk of logits_loss (_GROUP_BYTES // 32
# entries: four chunk-wide float arrays).
#
# Partition groups: the logistic map runs once per group instead of once
# per partition; a group this small is still in a core's 2 MiB L2 cache
# when its partitions' second products read it. On a 2-core host (numpy
# 2.4.6, scipy-openblas 0.3.31), with each run of equal partitions taken
# in one stacked call, the pass over 24 partitions of 333 x 100 rows took
# 545 us at 1 MiB against 560 us at 2 MiB and 605 us as one group, and
# over 120 partitions of 66 rows 593, 652 and 685 us, fastest of 400
# alternating calls (medians 695-815 us, all within 3 % at 24
# partitions). A 29.6 MB paper-scale partition is its own group under 1
# or 2 MiB; 12 of them took 44.6, 44.8 and 44.2 ms, fastest of 20, so one
# group saves nothing there. A group always holds at least one partition.
# The groups are fixed once per partitioned dataset (Dataset.gradient_plan),
# so a test that changes the budget must build its dataset afterwards.
_GROUP_BYTES = 1 << 20


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, exact at extreme arguments."""
    z = np.asarray(z, dtype=float)
    # exp(-|z|) never overflows; 1/(1 + e^-z) for z >= 0, e^z/(1 + e^z) below.
    # The numerator max(e^-|z|, z >= 0) is 1 or e^z, and NaN at NaN: the
    # values of np.where(z >= 0, 1.0, e^-|z|), which took 3.3 ms to
    # np.maximum's 0.73 ms over 443,520 values (2-core host, numpy 2.4.6).
    # Working in one buffer skips two temporaries: over a paper partition's
    # 36,960 values it took 0.43 ms to the two-line
    # np.maximum(ez, z >= 0) / (1.0 + ez)'s 0.58 ms, and paper_bundle's
    # round_ms_p50 was lower in 4 of 4 pairs (medians 59.5 and 60.7 ms).
    ez = np.abs(z, out=np.empty(z.shape))  # an array even when z is 0-d
    np.negative(ez, out=ez)
    np.exp(ez, out=ez)
    num = np.maximum(ez, z >= 0)
    ez += 1.0
    num /= ez
    return num


def log_loss(ds: Dataset, beta: np.ndarray, out: np.ndarray | None = None) -> float:
    """Summed logistic negative log-likelihood of ``beta``: one product
    over the whole matrix, then ``logits_loss`` with that product as both
    ``z`` and ``out``, so the rows' terms overwrite it.

    The product is written into ``out`` (a new array when None), a
    C-contiguous buffer of ``ds.rows`` entries whose contents are
    overwritten; it is the same BLAS call either way, so the loss does
    not depend on ``out``, and with it the only scratch is
    ``logits_loss``'s two chunks."""
    z = np.matmul(ds.X, beta, out=out)
    return logits_loss(z, ds.y, out=z)


def logits_loss(z: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> float:
    """Summed logistic negative log-likelihood of the logits ``z``.

    Each row adds log(1 + e^z) - y*z, written as max(z, 0) + log1p(e^-|z|)
    - y*z: the exponent is never positive, and numpy's vectorized exp and
    log1p run several times faster than `np.logaddexp`. The rows' terms
    are written into ``out`` (a new array when None) ``_GROUP_BYTES // 32``
    entries at a time, then summed with one ``np.sum``, so the only
    temporaries are two chunks. ``z`` and ``y`` are vectors; ``out`` must
    be C-contiguous with ``z``'s shape and may be ``z`` itself, and ``z``
    is only read otherwise. Each entry gets the same operations in the
    same order as over the whole array at once, and the sum runs over an
    array of the same shape, so the result does not depend on ``out``.

    A simulated run does not call ``log_loss`` each round: it feeds this
    function the logits its partition gradients already compute, carried
    one round back to the iterate (``sim.run_training``), so a trace loss
    matches ``log_loss`` of its iterate to rounding, measured at most
    3.5e-16 relative under NAG and exactly under ``gd_decay``.
    """
    t = np.empty(z.shape) if out is None else out
    chunk = _GROUP_BYTES // 32
    for i in range(0, len(z), chunk):
        zi, ti = z[i : i + chunk], t[i : i + chunk]
        # Both terms that read z come first: ti may be zi.
        top = np.maximum(zi, 0.0)
        yz = y[i : i + chunk] * zi
        np.abs(zi, out=ti)
        np.negative(ti, out=ti)
        np.exp(ti, out=ti)
        np.log1p(ti, out=ti)
        ti += top
        ti -= yz
    return float(np.sum(t))


def _gradient_rows(ds: Dataset, lo: int, hi: int, beta: np.ndarray) -> np.ndarray:
    X = ds.X[lo:hi]
    z = X @ beta
    return X.T @ (sigmoid(z) - ds.y[lo:hi])


def partial_gradient(ds: Dataset, j: int, beta: np.ndarray) -> np.ndarray:
    """Gradient summed over partition j's rows only."""
    if not 0 <= j < ds.partitions:
        raise DimensionMismatch(f"partition {j} not in [0, {ds.partitions})")
    lo, hi = ds.partition_bounds[j]
    return _gradient_rows(ds, lo, hi, beta)


class _Group(NamedTuple):
    """Partitions j to j + m - 1, m equal contiguous partitions covering
    rows ``lo`` to ``hi - 1``: their labels and the ``(m, rows, dim)``
    view ``X`` of their rows."""

    j: int
    lo: int
    hi: int
    y: np.ndarray
    X: np.ndarray


def _plan_groups(ds: Dataset) -> tuple[_Group, ...]:
    """Runs of consecutive, contiguous, equal-size partitions, each cut at
    ``_GROUP_BYTES`` of rows; a group holds at least one partition."""
    bounds = ds.partition_bounds
    row_bytes = ds.X.itemsize * ds.dim
    groups = []
    j = 0
    while j < len(bounds):
        lo, hi = bounds[j]
        rows, m = hi - lo, 1
        while (
            j + m < len(bounds)
            and bounds[j + m] == (hi, hi + rows)
            and (hi + rows - lo) * row_bytes <= _GROUP_BYTES
        ):
            hi += rows
            m += 1
        # Splitting a slice's row axis gives a view, never a copy, so the
        # stacked products read X in place.
        groups.append(_Group(j, lo, hi, ds.y[lo:hi], ds.X[lo:hi].reshape(m, rows, ds.dim)))
        j += m
    return tuple(groups)


def partition_gradients(
    ds: Dataset, beta: np.ndarray, logits: np.ndarray | None = None
) -> np.ndarray:
    """Every partition's gradient: row j equals ``partial_gradient(ds, j, beta)``.

    A group is a run of consecutive, contiguous partitions of one size,
    cut at ``_GROUP_BYTES`` of rows; under ``make_partition_bounds`` only
    the uneven last partition starts a run of its own. The groups are
    fixed per partitioned dataset: ``ds.gradient_plan`` builds them, with
    each group's stacked view of X, on the first call and every later
    call reuses them, so a test that changes the budget must build its
    dataset afterwards.
    Each group takes one pair of stacked ``np.matmul`` calls: its logits
    as the ``(m, rows, dim)`` view of its rows times ``beta``, then, after
    one logistic map and one label subtraction over them, its rows of the
    ``(partitions, dim)`` result as the ``(m, 1, rows)`` view of the
    residuals times its rows. numpy computes a stacked product as one
    BLAS matrix-vector call per stack item, on the same strides as the
    partition's own slice, so each value is computed by the same
    operations as in ``partial_gradient`` and the results are
    bit-identical. That is how numpy runs it, not a documented guarantee;
    ``test_stacked_products_equal_partial_gradient_bit_for_bit`` pins it.

    Every round takes every partition's gradient, whatever its strategy
    reads, so one plan serves every round; ignore-stragglers' straggler
    rows are computed and left unused. With 2 of 12 paper-scale
    partitions unread, a pass took 42.9 ms against 39.4 ms skipping them
    (medians; 2-core host, numpy 2.4.6, scipy-openblas 0.3.31).

    ``logits``, when given, is a C-contiguous buffer of ``ds.rows``
    entries that the groups' logits are written into, so it ends up
    holding every partition's ``X_j @ beta``.
    """
    G = np.empty((ds.partitions, ds.dim))
    for j, lo, hi, y, X in ds.gradient_plan:
        m, rows = X.shape[:2]
        z = np.empty(hi - lo) if logits is None else logits[lo:hi]
        np.matmul(X, beta, out=z.reshape(m, rows))
        r = sigmoid(z)
        r -= y
        np.matmul(r.reshape(m, 1, rows), X, out=G[j : j + m, None])
        del r  # before the next group's sigmoid allocates its own
    return G


def full_gradient(ds: Dataset, beta: np.ndarray) -> np.ndarray:
    return _gradient_rows(ds, 0, ds.rows, beta)


def lipschitz_bound(X: np.ndarray) -> float:
    """Smoothness constant of the summed logistic loss: lambda_max(X^T X)/4."""
    gram = np.asarray(X).T @ np.asarray(X)
    return float(np.linalg.eigvalsh(gram)[-1]) / 4.0


def require_both_classes(labels: np.ndarray) -> int:
    """The number of positive labels; DegenerateLabels unless both classes occur."""
    n_pos = int(np.count_nonzero(labels))
    if n_pos == 0 or n_pos == labels.size:
        raise DegenerateLabels(f"need both classes, got {n_pos} positives of {labels.size}")
    return n_pos


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve via average ranks (ties count half).

    One ``np.argsort``: the positives' rank sum is taken from their
    sorted positions, then corrected over runs of tied scores only, where
    a run [a, b] holding k positives adds k(a+b+2)/2 less their
    positional ranks. Twice the rank sum is kept in int64, exact, so the
    AUC is the correctly rounded quotient of exact integers whatever the
    sort. Continuous scores have no ties, and the correction runs over
    empty arrays. Beside the sort's indices the scratch is one gathered
    copy of the scores and the positives' positions with their prefix
    sums: at 110,880 scores the traced peak is about 2.3x the scores'
    bytes.

    Raises NonFinite for NaN scores; infinite scores rank like any other.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise DimensionMismatch(
            f"scores {scores.shape} and labels {labels.shape} do not line up"
        )
    pos = labels.astype(bool)
    n_pos = require_both_classes(pos)
    n_neg = pos.size - n_pos
    # NaN ranks would depend on the sort order; every other score gets its
    # tie group's mean rank, so any sort, stable or not, gives the same AUC.
    if np.isnan(scores).any():
        raise NonFinite("AUC scores contain NaN")
    order = np.argsort(scores)
    s = scores[order]
    # i where sorted positions i and i + 1 tie; the gathered scores go at once.
    tied = np.flatnonzero(s[1:] == s[:-1])
    del s
    at = np.flatnonzero(pos[order])  # the positives' sorted positions, ascending
    del order
    below = np.zeros(at.size + 1, dtype=np.int64)  # below[i]: sum of at[:i]
    np.cumsum(at, out=below[1:])
    # Runs [a, b] of tied positions: a run of consecutive tied i from a to b - 1.
    gap = np.flatnonzero(np.diff(tied) != 1)
    a = np.concatenate((tied[:1], tied[gap + 1]))
    b = np.concatenate((tied[gap], tied[-1:])) + 1
    lo = np.searchsorted(at, a)
    hi = np.searchsorted(at, b, side="right")
    # Twice the positives' rank sum: 1-based positional ranks, plus per run
    # the k positives' k(a+b+2) less twice their positional ranks.
    twice = 2 * (int(below[-1]) + n_pos) + int(
        np.sum((hi - lo) * (a + b) - 2 * (below[hi] - below[lo]))
    )
    return (twice / 2 - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass(frozen=True)
class OptimizerConfig:
    """Which update rule to run and its constants.

    ``eta`` (accelerated) and ``c1`` (decaying) must each be finite and
    > 0, or None, meaning scale them from the smoothness constant handed
    to make_optimizer; ``c2`` must be finite and >= 0. Every constant is
    checked whatever the method, so a bad one is rejected before any run
    starts.
    """

    method: str = NAG
    eta: float | None = None
    c1: float | None = None
    c2: float = DEFAULT_GD_OFFSET

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(
                f"unknown optimizer method {self.method!r}, expected one of {METHODS}"
            )
        for name in ("eta", "c1"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and > 0 (or unset), got {value}")
        if not (math.isfinite(self.c2) and self.c2 >= 0):
            raise ConfigError(f"c2 must be finite and >= 0, got {self.c2}")

    @property
    def needs_lipschitz(self) -> bool:
        """Whether the method's rate constant is left to default to 1/L."""
        return (self.eta if self.method == NAG else self.c1) is None


Schedule = Callable[[int], float]


class Optimizer:
    """Momentum descent with rate r(t) and momentum m(t), t counted from 1.

    The caller evaluates the gradient at ``eval_point()``, the lookahead
    beta + m(t)*v, then calls ``step``: v = m(t)*v - r(t)*g, beta += v.
    """

    def __init__(self, p: int, rate: Schedule, momentum: Schedule):
        self.rate = rate
        self.momentum = momentum
        self.beta = np.zeros(p)
        self._velocity = np.zeros(p)
        self._t = 1

    def eval_point(self) -> np.ndarray:
        return self.beta + self.momentum(self._t) * self._velocity

    def eval_weights(self) -> tuple[float, float]:
        """(a, b) with ``eval_point() == a*beta + b*beta_prev`` in exact
        arithmetic, beta_prev the iterate before ``beta``."""
        m = self.momentum(self._t)
        return 1.0 + m, -m

    def step(self, g: np.ndarray) -> np.ndarray:
        t = self._t
        if not np.all(np.isfinite(g)):
            raise NonFinite(f"gradient non-finite at iteration {t}")
        # Overflow is reported through the NonFinite check, not a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            self._velocity = self.momentum(t) * self._velocity - self.rate(t) * g
            self.beta = self.beta + self._velocity
        if not np.all(np.isfinite(self.beta)):
            raise NonFinite(f"iterate diverged to non-finite values at iteration {t}")
        self._t += 1
        return self.beta


def make_optimizer(config: OptimizerConfig, p: int, lipschitz: float | None = None) -> Optimizer:
    """The configured method's schedules, with defaults scaled by 1/L.

    NAG: r = eta, m = (t-1)/(t+2). ``gd_decay``: r = c1/(t + c2), m = 0,
    and beta + (0*v - r*g) is beta - r*g exactly, 0*v being a signed zero.
    """
    def need_l(what: str) -> float:
        if lipschitz is None or not 0 < lipschitz < math.inf:
            raise ConfigError(f"{what} defaults to a 1/L scale but no smoothness bound was given")
        return lipschitz

    if config.method == NAG:
        eta = config.eta if config.eta is not None else 1.0 / need_l("eta")
        return Optimizer(p, lambda t: eta, lambda t: (t - 1) / (t + 2))
    c1, c2 = config.c1, config.c2
    if c1 is None:
        c1 = DEFAULT_GD_RATE_SCALE * (1.0 + c2) / need_l("c1")
    return Optimizer(p, lambda t: c1 / (t + c2), lambda t: 0.0)
