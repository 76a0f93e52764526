"""Deterministic simulator for synchronous distributed gradient descent.

Each training iteration is one synchronous round. A strategy is one
``Strategy`` value: its message stages (a naive stage, a coded stage, or
both in turn), each an index array of the partitions each worker's
message sums and a coefficient array of their weights, summed left to
right; its straggler tolerance s; and an optional code. One aggregation
rule serves ``Naive``, ``IgnoreStragglers``, ``Coded`` and
``PartialCoded`` alike: the aggregator needs every message of each stage
but the last and the first n - s of the last stage, decoded when there
is a code and summed otherwise. So naive (s = 0) and a two-stage plan
get the exact gradient, as a code does whichever n - s messages arrive,
and ignore-stragglers gets a biased, partial sum.

A run's clock is drawn and timed before its first round (``schedule``,
no gradient work): from each worker's stage rows over the run's
partitioned training set and the latency and straggler streams alone, it
gives every message's arrival time, each round's duration and its
survivors, so a clock that can never finish fails before any gradient.
A round takes its survivors from the clock, takes every partition's
gradient whatever the strategy, and aggregates in a few array
operations, with no loop over messages. Ignore-stragglers reads only
its survivors' partitions: its stragglers' gradients are computed and
left unused (about 3.5 ms of a 43 ms paper-scale pass, 2 of 12
partitions). A round's training loss is
finished in the next round, from the logits that round's gradients
compute (``run_training``), and the last iterate's by one product over
the training matrix, so a round passes over X twice, not three times.
A run's result (``RunResult``) is its clock plus its loss and AUC
series; ``run_iteration`` returns the round's timing facts as well, but
only as copies of the clock kept for observers.
Time is simulated, never measured: a worker's compute cost is
proportional to the rows it processes, scaled so that
``compute_time_per_partition`` is the cost of one n-way partition. A
stage-k message arrives at the worker's round multiplier, jitter times
slowdown, times the cumulative compute of stages 0..k, + (k + 1) * comm
+ injected delay. Among messages of one kind, ties in time go to the
lower worker index, so every run resolves them alike.
All randomness flows from three named seeds (data, latency, straggler);
jitter is drawn for all workers of every round whether or not anyone
straggles, so a model trajectory can never depend on the straggler
stream through draw-order coupling. Aggregator-side decode and
summation costs are not modeled.

The data of a run (the synthetic draw, its holdout split and the
smoothness bound) depends only on the data seed, d, p and the holdout
fraction. ``prepare_data`` builds it once; the runs of one comparison
must agree on those four values and are all trained on that one
build, so they differ only in strategy, timing and optimizer.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import codec, learn
from .codec import GradientCode, decode_row
from .errors import (
    ConfigError,
    IndexOutOfRange,
    MismatchedConfigs,
    NonFinite,
    SpanFailure,
    StarvedIteration,
)
from .numerics import check_indexable, make_rng
from .partial import TwoStagePlan, check_alpha

# Lognormal jitter multiplier exp(sigma * Z): sigma chosen so that
# about 5% of draws exceed five times the median.
DEFAULT_JITTER_SIGMA = math.log(5.0) / 1.6448536269514722

STRAGGLER_MODES = ("none", "fixed", "random")
STRAGGLER_KINDS = ("delay", "slowdown")

EXACT = "exact"
PARTIAL_SUM = "partial_sum"


# ---------------------------------------------------------------------------
# Configuration types


@dataclass(frozen=True)
class LatencyModel:
    """Per-round timing constants, all in simulated seconds."""

    compute_time_per_partition: float = 1.0
    comm_time: float = 0.05
    jitter_sigma: float | None = DEFAULT_JITTER_SIGMA

    def __post_init__(self):
        # A dead worker is a straggler policy (extra=inf), not a latency.
        compute = self.compute_time_per_partition
        if not (math.isfinite(compute) and compute > 0):
            raise ConfigError(f"compute time must be finite and positive, got {compute}")
        if not (math.isfinite(self.comm_time) and self.comm_time >= 0):
            raise ConfigError(
                f"comm time must be finite and non-negative, got {self.comm_time}"
            )
        sigma = self.jitter_sigma
        if sigma is not None and not (math.isfinite(sigma) and sigma > 0):
            raise ConfigError(f"jitter sigma must be finite and positive or None, got {sigma}")


@dataclass(frozen=True)
class StragglerPolicy:
    """Who straggles each iteration and what straggling does.

    mode: "none", "fixed" (the given workers every iteration), or
    "random" (a fresh uniform draw of ``count`` workers per iteration).
    kind: "delay" adds ``extra`` seconds (may be inf) to a straggler's
    messages; "slowdown" multiplies its compute time by ``alpha``.
    """

    mode: str = "none"
    workers: tuple[int, ...] = ()
    count: int = 0
    kind: str = "delay"
    extra: float = 0.0
    alpha: float = 1.0

    def __post_init__(self):
        if self.mode not in STRAGGLER_MODES:
            raise ConfigError(f"unknown straggler mode {self.mode!r}")
        if self.kind not in STRAGGLER_KINDS:
            raise ConfigError(f"unknown straggler kind {self.kind!r}")
        object.__setattr__(self, "workers", tuple(int(w) for w in self.workers))
        if self.mode == "fixed":
            if not self.workers:
                raise ConfigError("fixed straggler mode needs a non-empty worker set")
            if len(set(self.workers)) != len(self.workers):
                raise ConfigError(f"duplicate straggler workers: {self.workers}")
        elif self.workers:
            raise ConfigError(f"straggler workers given but mode is {self.mode!r}")
        if self.mode == "random":
            if self.count < 1:
                raise ConfigError("random straggler mode needs count >= 1")
        elif self.count:
            raise ConfigError(f"straggler count given but mode is {self.mode!r}")
        if self.kind == "delay":
            if math.isnan(self.extra) or self.extra < 0:
                raise ConfigError(f"delay must be >= 0 (inf allowed), got {self.extra}")
        if self.kind == "slowdown" and self.mode != "none":
            check_alpha(self.alpha)


NO_STRAGGLERS = StragglerPolicy()


# ---------------------------------------------------------------------------
# Strategies


@dataclass(frozen=True, eq=False)
class Strategy:
    """What each worker sends in a round, and how much of it is needed.

    Each of the n workers runs the stages in order and sends one message
    once each stage's compute is done. Stage k is two read-only ``(n, t)``
    arrays: worker w's stage-k message is the sum, left to right, of
    ``coef[k][w, i] * g[index[k][w, i]]`` over its t partition gradients
    g (a plain term has coefficient 1.0, and ``1.0 * g == g`` exactly).
    The aggregator needs every message of each stage but the last and
    the first n - s of the last stage, decoded with ``code`` when there
    is one and summed otherwise. Build one with ``Naive``,
    ``IgnoreStragglers``, ``Coded`` or ``PartialCoded``.
    """

    label: str
    s: int
    index: tuple[np.ndarray, ...]
    coef: tuple[np.ndarray, ...]
    code: GradientCode | None = None

    def __post_init__(self):
        for arrays in (self.index, self.coef):
            for a in arrays:
                a.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.index[0])

    @property
    def partition_count(self) -> int:
        return max(int(index.max()) for index in self.index) + 1

    @property
    def kinds(self) -> tuple[str, ...]:
        """Each stage's message kind: only a decoded last stage is coded."""
        last = "coded" if self.code is not None else "naive"
        return ("naive",) * (len(self.index) - 1) + (last,)


def _plain_stage(index) -> tuple[np.ndarray, np.ndarray]:
    index = np.array(index, dtype=np.intp)
    return index, np.ones(index.shape)


def _coded_stage(code: GradientCode, offset: int = 0) -> tuple[np.ndarray, np.ndarray]:
    # A code row has s + 1 non-zeros, so the supports stack into one
    # (n, t) array, in increasing partition order.
    support = np.array([codec.assignment(code, w) for w in range(code.n)], dtype=np.intp)
    return offset + support, np.take_along_axis(code.B, support, axis=1)


def Naive(n: int) -> Strategy:
    """Uncoded: one partition per worker, every message required."""
    if n < 1:
        raise ConfigError(f"need at least one worker, got n={n}")
    check_indexable(f"a worker count of n={n}", n)
    index, coef = _plain_stage(np.arange(n)[:, None])
    return Strategy("naive", 0, (index,), (coef,))


def IgnoreStragglers(n: int, s: int) -> Strategy:
    """Uncoded, but the aggregator stops waiting after n - s messages."""
    if not 1 <= s < n:
        raise ConfigError(f"need 1 <= s < n, got s={s}, n={n}")
    return replace(Naive(n), label=f"ignore_s{s}", s=s)


def Coded(code: GradientCode) -> Strategy:
    """A gradient code: any n - s messages reproduce the exact gradient."""
    index, coef = _coded_stage(code)
    return Strategy(f"{code.kind}_n{code.n}_s{code.s}", code.s, (index,), (coef,), code)


def PartialCoded(plan: TwoStagePlan) -> Strategy:
    """Two-stage plan: all naive sums plus any n - s coded messages."""
    naive = plan.naive_stage
    stages = (_plain_stage(naive), _coded_stage(plan.code, naive.size))
    return Strategy(f"partial_{plan.code.kind}_a{plan.alpha:g}", plan.s, *zip(*stages), plan.code)


@dataclass(frozen=True)
class SeedBundle:
    """The seeds a run draws from. A cyclic code is drawn before the run
    and records its own draw as ``h_seed``."""

    data: int
    latency: int
    straggler: int


@dataclass(frozen=True, eq=False)
class TrainingConfig:
    strategy: Strategy
    optimizer: learn.OptimizerConfig
    seeds: SeedBundle
    d: int = 10000
    p: int = 100
    iterations: int = 100
    latency: LatencyModel = LatencyModel()
    policy: StragglerPolicy = NO_STRAGGLERS
    holdout_frac: float = 0.2
    auc_interval: int = 10
    verify_decode: bool = False
    label: str | None = None

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigError(f"need at least one iteration, got {self.iterations}")
        if self.auc_interval < 1:
            raise ConfigError(f"auc interval must be >= 1, got {self.auc_interval}")
        if not 0.0 < self.holdout_frac < 1.0:
            raise ConfigError(f"holdout fraction must be in (0, 1), got {self.holdout_frac}")
        check_indexable(f"a d={self.d} by p={self.p} data matrix", self.d, self.p)
        # The clock's arrival times are one (T, stages, n) array.
        check_indexable(f"a clock of iterations={self.iterations} rounds by n={self.strategy.n} "
                        "workers", self.iterations, len(self.strategy.index), self.strategy.n)
        train_rows = self.d - learn.holdout_rows(self.d, self.holdout_frac)
        partitions = self.strategy.partition_count
        if train_rows < partitions:
            raise ConfigError(
                f"{train_rows} training rows (d={self.d} less the holdout) "
                f"cannot fill {partitions} partitions"
            )
        n, s = self.strategy.n, self.strategy.s
        bad = [w for w in self.policy.workers if not 0 <= w < n]
        if bad:
            raise IndexOutOfRange(f"straggler workers {bad} not in [0, {n})")
        # A policy sets workers (fixed mode) or a count (random), not both.
        chosen = len(self.policy.workers) + self.policy.count
        if chosen >= n:
            raise ConfigError(f"{chosen} stragglers leaves no working cluster of {n}")
        # Waiting for the first n - s messages is only meaningful within s;
        # with s = 0 every message is needed, which runs under any injection.
        if s and chosen > s:
            raise ConfigError(f"{chosen} stragglers exceeds the strategy's tolerance s={s}")

    @property
    def run_label(self) -> str:
        return self.label if self.label is not None else self.strategy.label


# ---------------------------------------------------------------------------
# Results


Event = tuple[float, int, str]  # (arrival time, worker, message kind)


@dataclass(frozen=True, eq=False)
class RunResult:
    """A trained run: its clock, each round's training loss and holdout
    AUC (None but every ``auc_interval``-th round and the last), and the
    last iterate."""

    config: TrainingConfig
    clock: Clock
    loss: tuple[float, ...]
    auc: tuple[float | None, ...]
    beta: np.ndarray

    @property
    def label(self) -> str:
        return self.config.run_label

    @cached_property
    def sim_time_s(self) -> np.ndarray:
        """Each round's end in simulated seconds: its clock's durations,
        summed left to right."""
        return np.cumsum(self.clock.durations)

    @property
    def total_time(self) -> float:
        return float(self.sim_time_s[-1])

    @property
    def final_loss(self) -> float:
        return self.loss[-1]

    @property
    def final_auc(self) -> float | None:
        return self.auc[-1]


# ---------------------------------------------------------------------------
# The run's clock


class Clock(NamedTuple):
    """A run's simulated clock, T rounds of n workers: ``finish[t, k, w]``
    is when worker w's stage-k message of round t arrives,
    ``durations[t]`` how long round t lasts, and ``survivors[t]`` the
    senders of its last stage's first n - s messages, in increasing order."""

    finish: np.ndarray
    durations: np.ndarray
    survivors: np.ndarray


def schedule(strategy: Strategy, train: learn.Dataset, latency: LatencyModel,
             policy: StragglerPolicy, seeds: SeedBundle, iterations: int) -> Clock:
    """Draw the stragglers and time every round of a run, with no gradient work.

    The latency and straggler generators start from ``seeds``. All the
    jitter is one (T, n) normal draw, which numpy fills with the values of
    T draws of n: numpy's behaviour, not a documented guarantee, checked
    on numpy 2.4.6 and pinned by
    test_one_jitter_draw_equals_a_draw_per_round. The stragglers are
    drawn one round at a time, since ``Generator.choice`` has no batched
    form with the same stream. A worker's compute takes one multiplier a
    round, jitter times slowdown, and its stages' times are one cumulative
    sum over the stages. Raises NonFinite when a compute time, an arrival
    time under a finite delay or the total simulated time overflows, and
    StarvedIteration when an infinite delay holds back a required
    message, each for the first round where it happens.
    """
    n, rounds = strategy.n, np.arange(iterations)[:, None]
    straggler_rng = make_rng(seeds.straggler)
    if policy.mode == "random":
        stragglers = np.array([straggler_rng.choice(n, size=policy.count, replace=False)
                               for _ in range(iterations)])
    else:  # the fixed workers, or none
        workers = np.array(policy.workers, dtype=np.intp)
        stragglers = np.broadcast_to(workers, (iterations, workers.size))
    sizes = np.array([hi - lo for lo, hi in train.partition_bounds])
    rows = np.array([sizes[index].sum(axis=1) for index in strategy.index], dtype=float)
    per_row = latency.compute_time_per_partition * n / train.rows
    sigma = latency.jitter_sigma or 0.0  # exp(0 * z) is exactly 1
    extra = np.zeros((iterations, n))
    # An overflow is reported below, with its round.
    with np.errstate(over="ignore"):
        multiplier = np.exp(sigma * make_rng(seeds.latency).standard_normal((iterations, n)))
        if policy.kind == "slowdown":
            multiplier[rounds, stragglers] *= policy.alpha
        else:
            extra[rounds, stragglers] = policy.extra
        stage0 = multiplier * per_row * rows[0]
        # A later stage runs at the first stage's cost per row after all
        # earlier stages' compute, and stage k's message is the (k + 1)-th sent.
        compute = np.cumsum(np.concatenate(
            [stage0[:, None], (stage0 / rows[0])[:, None] * rows[1:]], axis=1), axis=1)
        finish = compute + np.arange(1, len(rows) + 1)[:, None] * latency.comm_time + extra[:, None]
    _fail_at(~np.isfinite(compute).all(axis=(1, 2)),
             f"a worker's compute time overflows at jitter_sigma={latency.jitter_sigma}")
    # Only an infinite delay may keep a message from arriving.
    _fail_at((~np.isfinite(finish) & np.isfinite(extra)[:, None]).any(axis=(1, 2)),
             "a message's arrival time overflows")
    # Every message of the earlier stages, then the first n - s of the last.
    early = finish[:, :-1].max(axis=(1, 2), initial=0.0)
    times = finish[:, -1]
    need = n - strategy.s
    # A stable sort breaks ties by worker index.
    first = np.argsort(times, axis=1, kind="stable")[:, :need]
    last = np.take_along_axis(times, first[:, -1:], axis=1)[:, 0]
    starved = ~(np.isfinite(early) & np.isfinite(last))
    if starved.any():
        if not math.isfinite(early[np.argmax(starved)]):
            raise StarvedIteration(
                "the aggregator needs every naive message; a full delay never arrives"
            )
        raise StarvedIteration(f"fewer than {need} of {n} workers can ever finish")
    durations = np.maximum(early, last)
    with np.errstate(over="ignore"):
        _fail_at(~np.isfinite(np.cumsum(durations)), "the simulated time overflows")
    return Clock(finish, durations, np.sort(first, axis=1))


def _fail_at(bad: np.ndarray, what: str) -> None:
    """Raise NonFinite naming the first round where ``bad`` holds."""
    if bad.any():
        raise NonFinite(f"round {int(np.argmax(bad)) + 1}: {what}")


# ---------------------------------------------------------------------------
# One synchronous round


def _sequential_sum(parts: np.ndarray) -> np.ndarray:
    """The sum over the first axis of a C-ordered array, from +0.0 and
    left to right, so reruns and test oracles match bit for bit."""
    # np.add.reduce adds whole rows in order when the summed axis is not
    # the fast one in memory, and sums pairwise along the fast one, which
    # a row of one entry makes it. np.add.accumulate is sequential for
    # any shape, but summing a (4, 21, 100) array took it 60 us to
    # reduce's 5 us. The row order is how numpy iterates, not a documented
    # guarantee: it was checked on numpy 2.4.6, and
    # test_sequential_sum_adds_rows_left_to_right pins it. accumulate
    # starts from the first row, reduce from +0.0: adding +0.0 maps only -0.0.
    if parts[0].size == 1:
        return np.add.accumulate(parts, axis=0)[-1] + 0.0
    return np.add.reduce(parts, axis=0)


def _messages(G: np.ndarray, index: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Row i is the message whose terms are ``index[i]`` and ``coef[i]``.

    A one-term message is summed too, not gathered: ``np.add.reduce``
    starts from +0.0, so its sum of one row turns a -0.0 into +0.0.
    """
    return _sequential_sum(G[index.T] * coef.T[..., None])


def run_iteration(
    strategy: Strategy,
    clock: Clock,
    t: int,
    train: learn.Dataset,
    point: np.ndarray,
    verify_decode: bool = False,
    logits: np.ndarray | None = None,
) -> tuple[np.ndarray, float, tuple[int, ...], str, tuple[Event, ...]]:
    """Aggregate round ``t`` (from 0) of ``clock`` at ``point``.

    Returns (gradient, round duration, survivors used, gradient kind,
    all message events). A run reads only the gradient: the duration,
    survivors and events are copies of the clock's, and the kind follows
    from the strategy. They stay in the result only for observers, the
    benchmark's round probe (``bench/spans.py``) and the tests' ``recorded``
    fixture, until the benchmark reads the clock instead.
    Every round takes every partition's gradient
    (``learn.partition_gradients``), whichever messages it uses, so
    ``verify_decode`` checks a decode against all of them at no extra
    cost; ignore-stragglers' straggler rows are computed and left unused.
    ``logits``, when given, receives every partition's ``X_j @ point``.
    """
    survivors = tuple(clock.survivors[t].tolist())
    events = tuple(
        (at, w, kind)
        for kind, times in zip(strategy.kinds, clock.finish[t].tolist())
        for w, at in enumerate(times)
    )
    rows = clock.survivors[t]
    used = [*zip(strategy.index[:-1], strategy.coef[:-1]),
            (strategy.index[-1][rows], strategy.coef[-1][rows])]
    G = learn.partition_gradients(train, point, logits)
    parts = [_messages(G, index, coef) for index, coef in used]
    if strategy.code is not None:
        # The coded messages are the last stage's, one per survivor.
        parts[-1] *= decode_row(strategy.code, survivors).coeffs[:, None]
    gradient = _sequential_sum(parts[0] if len(parts) == 1 else np.concatenate(parts))
    if verify_decode and strategy.code is not None:
        _check_exact(gradient, G, survivors)
    kind = EXACT if strategy.code is not None or strategy.s == 0 else PARTIAL_SUM
    return gradient, float(clock.durations[t]), survivors, kind, events


def _check_exact(gradient: np.ndarray, G: np.ndarray, survivors: tuple[int, ...]) -> None:
    total = _sequential_sum(G)
    scale = max(1.0, float(np.max(np.abs(total))))
    err = float(np.max(np.abs(gradient - total))) / scale
    if err > 1e-6:
        raise SpanFailure(
            f"decoded gradient off by {err:.3e} relative for survivors {survivors}",
            survivors,
            err,
        )


# ---------------------------------------------------------------------------
# Full runs


DataKey = tuple[int, int, int, float]  # (data seed, d, p, holdout fraction)


def data_key(config: TrainingConfig) -> DataKey:
    """The settings that determine a run's training and holdout data."""
    return (config.seeds.data, config.d, config.p, config.holdout_frac)


@dataclass(frozen=True, eq=False)
class TrainingData:
    """The unpartitioned training rows and the holdout of one data key.

    The smoothness bound is computed on first use only, since a run with
    an explicit step size never needs it, and at most once however many
    runs share the data.
    """

    key: DataKey
    train: learn.Dataset
    holdout: learn.Dataset

    @cached_property
    def lipschitz(self) -> float:
        return learn.lipschitz_bound(self.train.X)


def prepare_data(config: TrainingConfig) -> TrainingData:
    """Draw, split and hold the data of ``config``; seed-determined.

    The holdout is the first generated rows and the training set the
    rest, both views of the generated arrays (``learn.holdout_split``),
    so the data is held once.
    """
    dataset, _ = learn.gen_synthetic(make_rng(config.seeds.data), config.d, config.p)
    train, holdout = learn.holdout_split(dataset, config.holdout_frac)
    # Every run takes the holdout's AUC, so a one-class holdout fails here,
    # before any training.
    learn.require_both_classes(holdout.y)
    return TrainingData(data_key(config), train, holdout)


def check_comparison(configs: list[TrainingConfig]) -> None:
    """Raise MismatchedConfigs unless there are runs, their labels are
    unique, and they all train on the same data."""
    if not configs:
        raise MismatchedConfigs("no runs to compare")
    labels = [c.run_label for c in configs]
    if len(set(labels)) != len(labels):
        raise MismatchedConfigs(f"run labels must be unique, got {labels}")
    first = configs[0]
    for c in configs[1:]:
        if data_key(c) != data_key(first):
            raise MismatchedConfigs(
                f"run {c.run_label!r} trains on different data than {first.run_label!r}; "
                "data seed, d, p and holdout fraction must all match"
            )


def run_training(config: TrainingConfig, data: TrainingData | None = None) -> RunResult:
    """Train to completion under one strategy; fully seed-determined.

    ``data`` is the result of ``prepare_data`` for a config with the same
    data key; without it the run builds its own.

    Iterate t's loss is taken from round t + 1's logits. The eval point is
    a*beta_t + b*beta_{t-1} (``eval_weights``), so X @ beta_t is
    (X @ point - b * X @ beta_{t-1}) / a, with X @ beta_{t-1} carried from
    the round before; rounding in the carry shrinks by m/(1+m) <= 1/2 a
    round. With b = 0 (``gd_decay``) the logits are used as computed. The
    per-partition products can round differently from one product over
    the whole matrix, so a round's loss may differ from ``learn.log_loss``
    of its iterate: measured at d=10,000, p=100 over 100 iterations, by
    at most 3.5e-16 relative under NAG and not at all under ``gd_decay``.
    No round follows the last iterate, so its loss is ``learn.log_loss``,
    with the product over the whole matrix written into the run's own
    ``logits`` buffer: the last loss allocates nothing the size of the
    training split.
    """
    if data is None:
        data = prepare_data(config)
    elif data.key != data_key(config):
        raise MismatchedConfigs(
            f"run {config.run_label!r} needs data {data_key(config)}, was given {data.key}"
        )
    train = learn.with_partitions(data.train, config.strategy.partition_count)
    clock = schedule(config.strategy, train, config.latency, config.policy, config.seeds,
                     config.iterations)

    lipschitz = data.lipschitz if config.optimizer.needs_lipschitz else None
    opt = learn.make_optimizer(config.optimizer, config.p, lipschitz)

    losses: list[float] = []
    aucs: list[float | None] = []
    # ``logits`` gets X @ the eval point from each round's gradients;
    # ``carried`` holds X @ beta_prev, the older of the two iterates the
    # eval point combines (zero at first: beta_0 = 0).
    logits = np.empty(train.rows)
    carried = np.zeros(train.rows)
    for t in range(1, config.iterations + 1):
        point = opt.eval_point()
        a, b = opt.eval_weights()
        gradient = run_iteration(
            config.strategy, clock, t - 1, train, point, config.verify_decode, logits
        )[0]
        if b:
            carried *= b  # free to scale: it is the next round's logits buffer
            logits -= carried
            logits /= a
        if t > 1:
            # Nothing reads ``carried`` again before the next round overwrites it.
            losses.append(learn.logits_loss(logits, train.y, out=carried))
        logits, carried = carried, logits
        beta = opt.step(gradient)
        auc_val = None
        if t % config.auc_interval == 0 or t == config.iterations:
            # Scores are linear: AUC only needs the ranking, and the
            # logistic link is monotone.
            auc_val = learn.auc(data.holdout.X @ beta, data.holdout.y)
        aucs.append(auc_val)
    # No later round reads ``logits``: the last iterate's product goes there.
    losses.append(learn.log_loss(train, opt.beta, out=logits))
    return RunResult(config, clock, tuple(losses), tuple(aucs), opt.beta)


# ---------------------------------------------------------------------------
# Comparisons


@dataclass(frozen=True)
class ThresholdRow:
    threshold: float
    # per label: (first iteration reaching the threshold, sim time) or None
    reached: dict[str, tuple[int, float] | None]


@dataclass(frozen=True)
class Comparison:
    runs: tuple[RunResult, ...]
    thresholds: tuple[ThresholdRow, ...]


def time_to_loss(result: RunResult, threshold: float) -> tuple[int, float] | None:
    """First (iteration, cumulative sim time) with loss <= threshold."""
    for t, loss in enumerate(result.loss):
        if loss <= threshold:
            return t + 1, float(result.sim_time_s[t])
    return None


def _pick_thresholds(results: list[RunResult]) -> list[float]:
    """Nine loss targets, 10 %, 20 %, ..., 90 % of the way down from the
    highest first-round loss among the runs to the lowest final loss,
    non-finite losses skipped; none unless some run ends below that first loss.

    The last target lies a tenth of the range above the lowest final
    loss, so exact strategies that agree up to rounding all reach it,
    while a run that stops short or ends worse can leave targets unreached.
    """
    top = max((r.loss[0] for r in results if math.isfinite(r.loss[0])), default=math.nan)
    bottom = min((r.loss[-1] for r in results if math.isfinite(r.loss[-1])), default=math.nan)
    if not top > bottom:
        return []
    return [top - k * (top - bottom) / 10 for k in range(1, 10)]


def compare_runs(results: list[RunResult]) -> Comparison:
    """The runs, with the first iteration and sim time at which each
    reaches each loss target (``_pick_thresholds``), None where it never
    does. Raises MismatchedConfigs unless ``check_comparison`` accepts
    their configs.

    A single run yields a degenerate one-run comparison.
    """
    check_comparison([r.config for r in results])
    return Comparison(
        runs=tuple(results),
        thresholds=tuple(
            ThresholdRow(thr, {r.label: time_to_loss(r, thr) for r in results})
            for thr in _pick_thresholds(results)
        ),
    )


# ---------------------------------------------------------------------------
# CSV export


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_run_csv(result: RunResult, path) -> None:
    """One row per iteration: iteration, sim_time_s, loss, auc, survivors, strategy."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "sim_time_s", "loss", "auc", "survivors", "strategy"])
        rounds = zip(result.sim_time_s.tolist(), result.loss, result.auc,
                     result.clock.survivors.tolist())
        for t, (elapsed, loss, auc, survivors) in enumerate(rounds, 1):
            writer.writerow([t, _fmt(elapsed), _fmt(loss), _fmt(auc),
                             ";".join(str(w) for w in survivors), result.label])


def write_comparison_csvs(cmp: Comparison, iterations_path, thresholds_path) -> None:
    """Aligned per-iteration series and loss-milestone arrival tables;
    a shorter run's cells past its last round are empty."""
    labels = [r.label for r in cmp.runs]
    with Path(iterations_path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["iteration"]
        for label in labels:
            header += [f"{label}_sim_time_s", f"{label}_loss", f"{label}_auc"]
        writer.writerow(header)
        series = [zip(r.sim_time_s.tolist(), r.loss, r.auc) for r in cmp.runs]
        padded = itertools.zip_longest(*series, fillvalue=(None, None, None))
        for t, rounds in enumerate(padded, 1):
            writer.writerow([t, *(_fmt(value) for row in rounds for value in row)])
    with Path(thresholds_path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["loss_threshold"]
        for label in labels:
            header += [f"{label}_iteration", f"{label}_sim_time_s"]
        writer.writerow(header)
        for row_data in cmp.thresholds:
            row = [_fmt(row_data.threshold)]
            for label in labels:
                hit = row_data.reached[label]
                row += ["", ""] if hit is None else [hit[0], _fmt(hit[1])]
            writer.writerow(row)
