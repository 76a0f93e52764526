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
at any dimension instead of collapsing to a separable problem.

Optimizers count iterations from 1: the decaying schedule is
c1/(t + c2) and the accelerated momentum is (t - 1)/(t + 2), so the
first step of either method is a plain gradient step.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def gen_synthetic(
    rng: np.random.Generator, d: int = 554400, p: int = 100
) -> tuple[Dataset, np.ndarray]:
    """Draw the two-cluster logistic workload; returns (dataset, beta_star)."""
    if d < 2 or p < 1:
        raise DimensionMismatch(f"need d >= 2 and p >= 1, got d={d}, p={p}")
    mu1 = rng.standard_normal(p)
    mu2 = rng.standard_normal(p)
    beta_star = rng.standard_normal(p) / np.sqrt(p)
    component = rng.random(d) < 0.5
    X = rng.standard_normal((d, p))
    # Masked in-place adds: no (d, p) temporary for the cluster means.
    m = component[:, None]
    np.add(X, mu1, out=X, where=m)
    np.add(X, mu2, out=X, where=~m)
    kappa = sigmoid(-2.0 * (X @ beta_star))
    y = (rng.random(d) < kappa).astype(float)
    return Dataset(X, y, ((0, d),)), beta_star


def holdout_split(ds: Dataset, frac: float, rng: np.random.Generator) -> tuple[Dataset, Dataset]:
    """Shuffle rows in place and carve off the first ``frac`` as a holdout set.

    ``ds``'s rows (features and labels together) are permuted in place,
    and the returned ``(train, holdout)`` are views of them: the holdout
    is the first ``round(frac * rows)`` shuffled rows, the training set
    the rest. So the data is held once, not twice; ``ds`` stays a
    consistent shuffled dataset but shares its memory with both splits.
    The training rows keep their shuffled order, so contiguous
    partitions of the training set are random subsamples of the data.
    """
    if not 0.0 < frac < 1.0:
        raise DimensionMismatch(f"holdout fraction must be in (0, 1), got {frac}")
    perm = rng.permutation(ds.rows)
    n_hold = int(round(frac * ds.rows))
    if n_hold < 1 or ds.rows - n_hold < 1:
        raise DimensionMismatch(f"holdout fraction {frac} leaves an empty split at d={ds.rows}")
    _permute_rows(ds.X, perm)
    ds.y[:] = ds.y[perm]
    return (
        Dataset(ds.X[n_hold:], ds.y[n_hold:], ((0, ds.rows - n_hold),)),
        Dataset(ds.X[:n_hold], ds.y[:n_hold], ((0, n_hold),)),
    )


# Rows moved per block by _permute_rows: its scratch is two such blocks
# of X plus two integer index arrays of one entry per row.
_PERMUTE_CHUNK = 8192


def _permute_rows(X: np.ndarray, perm: np.ndarray, chunk: int = _PERMUTE_CHUNK) -> None:
    """``X[:] = X[perm]`` in place, with O(chunk) rows of X as scratch.

    Fills the destination slots a block at a time. ``pos[r]`` is the slot
    original row r sits in now, ``at[q]`` the original row in slot q; both
    are kept current for the rows not yet placed, which all sit at or
    beyond the current block. For block [i, j) the wanted rows are
    gathered, the unwanted rows still in [i, j) move to the slots the
    gather vacated beyond j, and the block is written. Every value is
    copied, never recomputed, so the result is bit-identical to the
    fancy-indexed copy.
    """
    pos = np.arange(len(perm))
    at = pos.copy()
    for i in range(0, len(perm), chunk):
        j = min(i + chunk, len(perm))
        src = pos[perm[i:j]]
        block = X[src]
        free = src[src >= j]
        kept = np.zeros(j - i, dtype=bool)
        kept[src[src < j] - i] = True
        evict = np.flatnonzero(~kept) + i
        X[free] = X[evict]
        moved = at[evict]
        at[free] = moved
        pos[moved] = free
        X[i:j] = block


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, exact at extreme arguments."""
    z = np.asarray(z, dtype=float)
    # exp(-|z|) never overflows; 1/(1 + e^-z) for z >= 0, e^z/(1 + e^z) below.
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, ez) / (1.0 + ez)


def log_loss(ds: Dataset, beta: np.ndarray) -> float:
    """Summed logistic negative log-likelihood, overflow-safe.

    Each row adds log(1 + e^z) - y*z, written as max(z, 0) + log1p(e^-|z|)
    - y*z: the exponent is never positive, and numpy's vectorized exp and
    log1p run several times faster than `np.logaddexp`. z is one product
    over the whole matrix, so the loss never depends on the partitioning.
    """
    z = ds.X @ beta
    t = np.abs(z)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    t += np.maximum(z, 0.0)
    t -= ds.y * z
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


# Most bytes of rows in one partition group of partition_gradients. The
# logistic map runs once per group instead of once per partition; a group
# this small is still in the last-level cache when its partitions' second
# products read it. A group always holds at least one partition.
_GROUP_BYTES = 8 << 20


def partition_gradients(ds: Dataset, beta: np.ndarray) -> list[np.ndarray]:
    """Every partition's gradient, each equal to ``partial_gradient(ds, j, beta)``.

    Consecutive partitions are grouped up to ``_GROUP_BYTES`` of rows. A
    group's logits come from one product per partition, written into one
    buffer, and the logistic map and the label subtraction run once over
    the buffer; then each partition takes its own ``X_j.T @ r_j``. Each
    value is computed by the same operations as in ``partial_gradient``,
    so the results are bit-identical.
    """
    bounds = ds.partition_bounds
    row_bytes = ds.X.itemsize * ds.dim
    out = []
    first = 0
    while first < len(bounds):
        lo, hi = bounds[first]
        last = first + 1
        while (
            last < len(bounds)
            and bounds[last][0] == hi
            and (bounds[last][1] - lo) * row_bytes <= _GROUP_BYTES
        ):
            hi = bounds[last][1]
            last += 1
        z = np.empty(hi - lo)
        for a, b in bounds[first:last]:
            np.matmul(ds.X[a:b], beta, out=z[a - lo : b - lo])
        r = sigmoid(z) - ds.y[lo:hi]
        out += [ds.X[a:b].T @ r[a - lo : b - lo] for a, b in bounds[first:last]]
        first = last
    return out


def full_gradient(ds: Dataset, beta: np.ndarray) -> np.ndarray:
    return _gradient_rows(ds, 0, ds.rows, beta)


def lipschitz_bound(X: np.ndarray) -> float:
    """Smoothness constant of the summed logistic loss: lambda_max(X^T X)/4."""
    gram = np.asarray(X).T @ np.asarray(X)
    return float(np.linalg.eigvalsh(gram)[-1]) / 4.0


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve via average ranks (ties count half).

    Raises NonFinite for NaN scores; infinite scores rank like any other.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise DimensionMismatch(
            f"scores {scores.shape} and labels {labels.shape} do not line up"
        )
    pos = labels.astype(bool)
    n_pos = int(np.count_nonzero(pos))
    n_neg = pos.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabels(f"need both classes, got {n_pos} positives of {pos.size}")
    # NaN ranks would depend on the sort order; every other score gets its
    # tie group's mean rank, so any sort, stable or not, gives the same AUC.
    if np.isnan(scores).any():
        raise NonFinite("AUC scores contain NaN")
    order = np.argsort(scores)
    s = scores[order]
    first_of_group = np.r_[True, s[1:] != s[:-1]]
    group = np.cumsum(first_of_group) - 1
    counts = np.bincount(group)
    ends = np.cumsum(counts)
    avg_rank = ends - (counts - 1) / 2.0  # mean of 1-based ranks in each tie group
    ranks = np.empty(s.size)
    ranks[order] = avg_rank[group]
    pos_rank_sum = float(ranks[pos].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass(frozen=True)
class OptimizerConfig:
    """Which update rule to run and its constants.

    ``eta`` (accelerated) and ``c1`` (decaying) may be None, meaning
    scale them from the smoothness constant handed to make_optimizer.
    """

    method: str = NAG
    eta: float | None = None
    c1: float | None = None
    c2: float = DEFAULT_GD_OFFSET


class NesterovAG:
    """Accelerated gradient with momentum (t-1)/(t+2), t counted from 1.

    The caller evaluates the gradient at ``eval_point()`` (the lookahead
    position), then calls ``step``. The first step is plain descent.
    """

    def __init__(self, p: int, eta: float):
        if not eta > 0:
            raise ConfigError(f"step size must be positive, got {eta}")
        self.eta = eta
        self.beta = np.zeros(p)
        self._velocity = np.zeros(p)
        self._t = 1

    def _momentum(self) -> float:
        return (self._t - 1) / (self._t + 2)

    def eval_point(self) -> np.ndarray:
        return self.beta + self._momentum() * self._velocity

    def step(self, g: np.ndarray) -> np.ndarray:
        _check_gradient(g, self._t)
        # Overflow is reported through the NonFinite check, not a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            self._velocity = self._momentum() * self._velocity - self.eta * g
            self.beta = self.beta + self._velocity
        _check_iterate(self.beta, self._t)
        self._t += 1
        return self.beta


class DecayingGD:
    """Plain descent with rate c1/(t + c2), t counted from 1."""

    def __init__(self, p: int, c1: float, c2: float):
        if not c1 > 0 or not c2 >= 0:
            raise ConfigError(f"need c1 > 0 and c2 >= 0, got c1={c1}, c2={c2}")
        self.c1 = c1
        self.c2 = c2
        self.beta = np.zeros(p)
        self._t = 1

    def eval_point(self) -> np.ndarray:
        return self.beta

    def step(self, g: np.ndarray) -> np.ndarray:
        _check_gradient(g, self._t)
        with np.errstate(over="ignore", invalid="ignore"):
            self.beta = self.beta - (self.c1 / (self._t + self.c2)) * g
        _check_iterate(self.beta, self._t)
        self._t += 1
        return self.beta


def _check_gradient(g: np.ndarray, t: int) -> None:
    if not np.all(np.isfinite(g)):
        raise NonFinite(f"gradient non-finite at iteration {t}")


def _check_iterate(beta: np.ndarray, t: int) -> None:
    if not np.all(np.isfinite(beta)):
        raise NonFinite(f"iterate diverged to non-finite values at iteration {t}")


Optimizer = NesterovAG | DecayingGD


def make_optimizer(config: OptimizerConfig, p: int, lipschitz: float | None = None) -> Optimizer:
    """Instantiate the configured optimizer, scaling defaults by 1/L."""
    def need_l(what: str) -> float:
        if lipschitz is None or not lipschitz > 0:
            raise ConfigError(f"{what} defaults to a 1/L scale but no smoothness bound was given")
        return lipschitz

    if config.method == NAG:
        eta = config.eta if config.eta is not None else 1.0 / need_l("eta")
        return NesterovAG(p, eta)
    if config.method == GD_DECAY:
        if config.c1 is not None:
            c1 = config.c1
        else:
            c1 = DEFAULT_GD_RATE_SCALE * (1.0 + config.c2) / need_l("c1")
        return DecayingGD(p, c1, config.c2)
    raise ConfigError(f"unknown optimizer method {config.method!r}, expected one of {METHODS}")
