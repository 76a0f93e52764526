"""Deterministic simulator for synchronous distributed gradient descent.

Each training iteration is one synchronous round. Every strategy runs
through one message layout (``Layout``), built once per run from the
strategy and the partitioned training set: each worker's stage rows, the
partition terms of each message it sends (a naive stage, a coded stage,
or both in turn), and one of four aggregation rules:

* every naive message (naive); the update is the exact gradient;
* the first n - s naive messages, summed (ignore-stragglers): a biased,
  partial gradient;
* the first n - s coded messages, decoded (coded): the exact gradient
  whichever set arrived;
* every naive message plus the first n - s coded messages, decoded
  (two-stage): again exact.

A round draws the stragglers, times itself from the layout alone
(``time_round``, no gradient work), picks the survivors and aggregates.
Time is simulated, never measured: a worker's compute cost is
proportional to the rows it processes, scaled so that
``compute_time_per_partition`` is the cost of one n-way partition. A
stage-k message arrives at jitter * slowdown * (compute of stages 0..k)
+ (k + 1) * comm + injected delay. Among messages of one kind, ties in
time go to the lower worker index, so every run resolves them alike.
All randomness flows from three named seeds (data, latency, straggler);
jitter is drawn for all workers every iteration whether or not anyone
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
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import codec, learn
from .codec import DecodeCache, GradientCode, decode_row
from .errors import (
    ConfigError,
    IndexOutOfRange,
    InvalidAlpha,
    MismatchedConfigs,
    SpanFailure,
    StarvedIteration,
)
from .numerics import make_rng
from .partial import TwoStagePlan

# Lognormal jitter multiplier exp(sigma * Z): sigma chosen so that
# about 5% of draws exceed five times the median.
DEFAULT_JITTER_SIGMA = math.log(5.0) / 1.6448536269514722

EXACT = "exact"
PARTIAL_SUM = "partial_sum"

MSG_NAIVE = "naive"
MSG_CODED = "coded"


# ---------------------------------------------------------------------------
# Configuration types


@dataclass(frozen=True)
class LatencyModel:
    """Per-round timing constants, all in simulated seconds."""

    compute_time_per_partition: float = 1.0
    comm_time: float = 0.05
    jitter_sigma: float | None = DEFAULT_JITTER_SIGMA

    def __post_init__(self):
        if not self.compute_time_per_partition > 0:
            raise ConfigError(
                f"compute time must be positive, got {self.compute_time_per_partition}"
            )
        if self.comm_time < 0:
            raise ConfigError(f"comm time must be non-negative, got {self.comm_time}")
        if self.jitter_sigma is not None and not self.jitter_sigma > 0:
            raise ConfigError(
                f"jitter sigma must be positive or None, got {self.jitter_sigma}"
            )


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
        if self.mode not in ("none", "fixed", "random"):
            raise ConfigError(f"unknown straggler mode {self.mode!r}")
        if self.kind not in ("delay", "slowdown"):
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
            if not math.isfinite(self.alpha) or self.alpha <= 1.0:
                raise InvalidAlpha(f"slowdown factor must be finite and > 1, got {self.alpha}")

    @property
    def active(self) -> bool:
        return self.mode != "none"


NO_STRAGGLERS = StragglerPolicy()


# ---------------------------------------------------------------------------
# Strategies


@dataclass(frozen=True)
class Naive:
    """Uncoded: one partition per worker, every message required."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"need at least one worker, got n={self.n}")

    workers = property(lambda self: self.n)
    tolerated = property(lambda self: 0)
    partition_count = property(lambda self: self.n)
    label = property(lambda self: "naive")


@dataclass(frozen=True)
class IgnoreStragglers:
    """Uncoded, but the aggregator stops waiting after n - s messages."""

    n: int
    s: int

    def __post_init__(self):
        if not 1 <= self.s < self.n:
            raise ConfigError(f"need 1 <= s < n, got s={self.s}, n={self.n}")

    workers = property(lambda self: self.n)
    tolerated = property(lambda self: self.s)
    partition_count = property(lambda self: self.n)
    label = property(lambda self: f"ignore_s{self.s}")


@dataclass(frozen=True, eq=False)
class Coded:
    """A gradient code: any n - s messages reproduce the exact gradient."""

    code: GradientCode

    workers = property(lambda self: self.code.n)
    tolerated = property(lambda self: self.code.s)
    partition_count = property(lambda self: self.code.k)
    label = property(lambda self: f"{self.code.kind}_n{self.code.n}_s{self.code.s}")


@dataclass(frozen=True, eq=False)
class PartialCoded:
    """Two-stage plan: all naive sums plus any n - s coded messages."""

    plan: TwoStagePlan

    workers = property(lambda self: self.plan.n)
    tolerated = property(lambda self: self.plan.s)
    partition_count = property(lambda self: self.plan.total_partitions)
    label = property(
        lambda self: f"partial_{self.plan.code.kind}_a{self.plan.alpha:g}"
    )


Strategy = Naive | IgnoreStragglers | Coded | PartialCoded


def validate_policy(policy: StragglerPolicy, strategy: Strategy) -> None:
    """Cross-checks that need both halves of the configuration."""
    n = strategy.workers
    if policy.mode == "fixed":
        bad = [w for w in policy.workers if not 0 <= w < n]
        if bad:
            raise IndexOutOfRange(f"straggler workers {bad} not in [0, {n})")
        chosen = len(policy.workers)
    elif policy.mode == "random":
        chosen = policy.count
    else:
        return
    if chosen >= n:
        raise ConfigError(f"{chosen} stragglers leaves no working cluster of {n}")
    # A tolerance-carrying strategy is only meaningful within it; the
    # naive baseline runs under any injection.
    if not isinstance(strategy, Naive) and chosen > strategy.tolerated:
        raise ConfigError(
            f"{chosen} stragglers exceeds the strategy's tolerance s={strategy.tolerated}"
        )


@dataclass(frozen=True)
class SeedBundle:
    scheme: int
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
    collect_events: bool = False
    collect_iterates: bool = False
    label: str | None = None

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigError(f"need at least one iteration, got {self.iterations}")
        if self.auc_interval < 1:
            raise ConfigError(f"auc interval must be >= 1, got {self.auc_interval}")
        if not 0.0 < self.holdout_frac < 1.0:
            raise ConfigError(f"holdout fraction must be in (0, 1), got {self.holdout_frac}")
        if self.d < self.strategy.partition_count:
            raise ConfigError(
                f"{self.d} rows cannot fill {self.strategy.partition_count} partitions"
            )
        validate_policy(self.policy, self.strategy)

    @property
    def run_label(self) -> str:
        return self.label if self.label is not None else self.strategy.label


# ---------------------------------------------------------------------------
# Results


@dataclass(frozen=True)
class IterationTrace:
    iteration: int
    sim_time_s: float
    duration: float
    survivors: tuple[int, ...]
    gradient_kind: str
    loss: float
    auc: float | None


Event = tuple[float, int, str]  # (arrival time, worker, message kind)


@dataclass(frozen=True, eq=False)
class RunResult:
    label: str
    config: TrainingConfig
    traces: tuple[IterationTrace, ...]
    beta: np.ndarray
    events: tuple[tuple[Event, ...], ...] | None = None
    iterates: tuple[np.ndarray, ...] | None = None

    @property
    def total_time(self) -> float:
        return self.traces[-1].sim_time_s

    @property
    def final_loss(self) -> float:
        return self.traces[-1].loss

    @property
    def final_auc(self) -> float | None:
        return self.traces[-1].auc


# ---------------------------------------------------------------------------
# Message layout


@dataclass(frozen=True, eq=False)
class Layout:
    """What each worker sends in a round, and the aggregation rule; fixed for a run.

    Each worker runs the stages in order and sends a message of kind
    ``kinds[k]`` once stage k's compute is done: ``rows[k, w]`` is the
    rows worker w computes in stage k, and ``terms[k][w]`` the
    (partition, coefficient or None) pairs its message sums. The rule
    needs every message of stage ``every`` and the first ``need`` = n - s
    of stage ``first``, decoded with ``code`` when there is one and
    summed otherwise; either stage may be None.
    """

    n: int
    need: int
    train_rows: int
    kinds: tuple[str, ...]
    rows: np.ndarray
    terms: tuple[tuple[tuple[tuple[int, float | None], ...], ...], ...]
    every: int | None
    first: int | None
    code: GradientCode | None


def _plain_terms(assignment) -> tuple:
    return tuple(tuple((j, None) for j in supp) for supp in assignment)


def _coded_terms(code: GradientCode, offset: int = 0) -> tuple:
    return tuple(
        tuple((offset + j, code.B[w, j]) for j in codec.assignment(code, w))
        for w in range(code.n)
    )


def build_layout(strategy: Strategy, train: learn.Dataset) -> Layout:
    """The message layout of ``strategy`` over ``train``'s partitions."""
    n = strategy.workers
    code = None
    if isinstance(strategy, (Naive, IgnoreStragglers)):
        kinds, terms = (MSG_NAIVE,), (_plain_terms((w,) for w in range(n)),)
        every, first = (0, None) if isinstance(strategy, Naive) else (None, 0)
    elif isinstance(strategy, Coded):
        code = strategy.code
        kinds, terms, every, first = (MSG_CODED,), (_coded_terms(code),), None, 0
    elif isinstance(strategy, PartialCoded):
        plan = strategy.plan
        code = plan.code
        kinds, every, first = (MSG_NAIVE, MSG_CODED), 0, 1
        terms = (_plain_terms(plan.naive_assignment), _coded_terms(code, plan.coded_offset))
    else:
        raise ConfigError(f"unknown strategy type {type(strategy).__name__}")
    sizes = [hi - lo for lo, hi in train.partition_bounds]
    rows = np.array([[float(sum(sizes[j] for j, _ in msg)) for msg in stage] for stage in terms])
    return Layout(n, n - strategy.tolerated, train.rows, kinds, rows, terms, every, first, code)


# ---------------------------------------------------------------------------
# One synchronous round


def _sequential_sum(parts: list[np.ndarray]) -> np.ndarray:
    # Fixed left-to-right order so reruns and test oracles match bit for bit.
    total = parts[0].copy()
    for part in parts[1:]:
        total += part
    return total


def _message(G: list[np.ndarray], terms: tuple) -> np.ndarray:
    parts = [G[j] if c is None else c * G[j] for j, c in terms]
    return parts[0] if len(parts) == 1 else _sequential_sum(parts)


def time_round(
    layout: Layout,
    latency: LatencyModel,
    policy: StragglerPolicy,
    latency_rng: np.random.Generator,
    straggler_rng: np.random.Generator,
) -> tuple[np.ndarray, float, tuple[int, ...]]:
    """Draw the stragglers and time one round, with no gradient work.

    Returns (arrival times indexed [stage, worker], round duration,
    survivors): the senders of stage ``first``'s first ``need`` messages,
    or every worker. Raises StarvedIteration when a required message can
    never arrive.
    """
    n = layout.n
    stragglers = []
    if policy.mode == "fixed":
        stragglers = list(policy.workers)
    elif policy.mode == "random":
        stragglers = straggler_rng.choice(n, size=policy.count, replace=False)
    per_row = latency.compute_time_per_partition * n / layout.train_rows
    jitter = np.ones(n)
    if latency.jitter_sigma is not None:
        jitter = np.exp(latency.jitter_sigma * latency_rng.standard_normal(n))
    slow = np.ones(n)
    extra = np.zeros(n)
    if policy.kind == "slowdown":
        slow[stragglers] = policy.alpha
    else:
        extra[stragglers] = policy.extra
    rows = layout.rows
    compute = jitter * slow * per_row * rows[0]
    finish = np.empty(rows.shape)
    finish[0] = compute + latency.comm_time + extra
    # A later stage's message goes out after all earlier stages' compute,
    # at the first stage's per-row cost, jitter and slowdown included.
    scale = compute / rows[0]
    for k in range(1, len(rows)):
        compute = compute + scale * rows[k]
        finish[k] = compute + (k + 1) * latency.comm_time + extra
    duration = 0.0
    survivors = tuple(range(n))
    if layout.every is not None:
        duration = float(np.max(finish[layout.every]))
        if not math.isfinite(duration):
            raise StarvedIteration(
                f"the aggregator needs every {layout.kinds[layout.every]} message; "
                "a full delay never arrives"
            )
    if layout.first is not None:
        times = finish[layout.first]
        # A stable sort breaks ties by worker index.
        first = np.argsort(times, kind="stable")[: layout.need]
        last = float(times[first[-1]])
        if not math.isfinite(last):
            raise StarvedIteration(f"fewer than {layout.need} of {n} workers can ever finish")
        duration = max(duration, last)
        survivors = tuple(sorted(first.tolist()))
    return finish, duration, survivors


def run_iteration(
    layout: Layout,
    latency: LatencyModel,
    policy: StragglerPolicy,
    train: learn.Dataset,
    point: np.ndarray,
    latency_rng: np.random.Generator,
    straggler_rng: np.random.Generator,
    cache: DecodeCache,
    verify_decode: bool = False,
) -> tuple[np.ndarray, float, tuple[int, ...], str, tuple[Event, ...]]:
    """Simulate one round at ``point``.

    Returns (gradient, round duration, survivors used, gradient kind,
    all message events). Raises StarvedIteration when a required
    message can never arrive.
    """
    finish, duration, survivors = time_round(layout, latency, policy, latency_rng, straggler_rng)
    events = tuple(
        (t, w, kind)
        for kind, times in zip(layout.kinds, finish.tolist())
        for w, t in enumerate(times)
    )
    G = learn.partition_gradients(train, point)
    parts = []
    if layout.every is not None:
        parts += [_message(G, terms) for terms in layout.terms[layout.every]]
    if layout.first is not None:
        terms = layout.terms[layout.first]
        messages = [_message(G, terms[w]) for w in survivors]
        if layout.code is not None:
            row = decode_row(layout.code, survivors, cache)
            messages = [c * m for c, m in zip(row.coeffs, messages)]
        parts += messages
    gradient = _sequential_sum(parts)
    if verify_decode and layout.code is not None:
        _check_exact(gradient, G, survivors)
    kind = EXACT if layout.first is None or layout.code is not None else PARTIAL_SUM
    return gradient, duration, survivors, kind, events


def _check_exact(gradient: np.ndarray, G: list[np.ndarray], survivors: tuple[int, ...]) -> None:
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
    """Draw, split and hold the data of ``config``; seed-determined."""
    data_rng = make_rng(config.seeds.data)
    dataset, _ = learn.gen_synthetic(data_rng, config.d, config.p)
    train, holdout = learn.holdout_split(dataset, config.holdout_frac, data_rng)
    # The split is the generated array, shuffled in place: one copy of the data.
    return TrainingData(data_key(config), train, holdout)


def check_shared_data(configs: list[TrainingConfig]) -> None:
    """Raise MismatchedConfigs unless every config trains on the same data."""
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
    """
    if data is None:
        data = prepare_data(config)
    elif data.key != data_key(config):
        raise MismatchedConfigs(
            f"run {config.run_label!r} needs data {data_key(config)}, was given {data.key}"
        )
    latency_rng = make_rng(config.seeds.latency)
    straggler_rng = make_rng(config.seeds.straggler)

    train = learn.with_partitions(data.train, config.strategy.partition_count)
    layout = build_layout(config.strategy, train)

    if config.optimizer.method == learn.GD_DECAY:
        needs_scale = config.optimizer.c1 is None
    else:
        needs_scale = config.optimizer.eta is None
    lipschitz = data.lipschitz if needs_scale else None
    opt = learn.make_optimizer(config.optimizer, config.p, lipschitz)

    cache: DecodeCache = {}
    traces: list[IterationTrace] = []
    all_events: list[tuple[Event, ...]] = []
    iterates: list[np.ndarray] = []
    clock = 0.0
    for t in range(1, config.iterations + 1):
        point = opt.eval_point()
        gradient, duration, survivors, kind, events = run_iteration(
            layout,
            config.latency,
            config.policy,
            train,
            point,
            latency_rng,
            straggler_rng,
            cache,
            config.verify_decode,
        )
        beta = opt.step(gradient)
        clock += duration
        loss = learn.log_loss(train, beta)
        auc_val = None
        if t % config.auc_interval == 0 or t == config.iterations:
            # Scores are linear: AUC only needs the ranking, and the
            # logistic link is monotone.
            auc_val = learn.auc(data.holdout.X @ beta, data.holdout.y)
        traces.append(
            IterationTrace(t, clock, duration, survivors, kind, loss, auc_val)
        )
        if config.collect_events:
            all_events.append(events)
        if config.collect_iterates:
            iterates.append(beta.copy())
    return RunResult(
        label=config.run_label,
        config=config,
        traces=tuple(traces),
        beta=opt.beta,
        events=tuple(all_events) if config.collect_events else None,
        iterates=tuple(iterates) if config.collect_iterates else None,
    )


# ---------------------------------------------------------------------------
# Comparisons


@dataclass(frozen=True)
class ThresholdRow:
    threshold: float
    # per label: (first iteration reaching the threshold, sim time) or None
    reached: dict[str, tuple[int, float] | None]


@dataclass(frozen=True)
class Comparison:
    labels: tuple[str, ...]
    iterations: tuple[int, ...]
    # per label, aligned with ``iterations``; None pads shorter runs
    sim_time_s: dict[str, tuple[float | None, ...]]
    loss: dict[str, tuple[float | None, ...]]
    auc: dict[str, tuple[float | None, ...]]
    thresholds: tuple[ThresholdRow, ...]


def time_to_loss(result: RunResult, threshold: float) -> tuple[int, float] | None:
    """First (iteration, cumulative sim time) with loss <= threshold."""
    for tr in result.traces:
        if tr.loss <= threshold:
            return tr.iteration, tr.sim_time_s
    return None


def _pick_thresholds(results: list[RunResult], count: int = 10) -> list[float]:
    # Milestones come from the run that ends worst, so every run is
    # graded on levels someone actually attained.
    reference = max(results, key=lambda r: min(tr.loss for tr in r.traces))
    cummin = np.minimum.accumulate([tr.loss for tr in reference.traces])
    milestones = sorted({float(v) for v in cummin}, reverse=True)
    if len(milestones) <= count:
        return milestones
    idx = np.linspace(0, len(milestones) - 1, count).round().astype(int)
    return [milestones[i] for i in sorted(set(idx.tolist()))]


def compare_runs(results: list[RunResult]) -> Comparison:
    """Align runs trained on the same data into per-iteration series.

    A single run yields a degenerate one-column comparison.
    """
    if not results:
        raise MismatchedConfigs("no runs to compare")
    labels = [r.label for r in results]
    if len(set(labels)) != len(labels):
        raise MismatchedConfigs(f"run labels must be unique, got {labels}")
    check_shared_data([r.config for r in results])
    horizon = max(len(r.traces) for r in results)
    iterations = tuple(range(1, horizon + 1))

    def column(r: RunResult, get) -> tuple:
        vals = [get(tr) for tr in r.traces]
        return tuple(vals + [None] * (horizon - len(vals)))

    return Comparison(
        labels=tuple(labels),
        iterations=iterations,
        sim_time_s={r.label: column(r, lambda tr: tr.sim_time_s) for r in results},
        loss={r.label: column(r, lambda tr: tr.loss) for r in results},
        auc={r.label: column(r, lambda tr: tr.auc) for r in results},
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
        for tr in result.traces:
            writer.writerow(
                [
                    tr.iteration,
                    _fmt(tr.sim_time_s),
                    _fmt(tr.loss),
                    _fmt(tr.auc),
                    ";".join(str(w) for w in tr.survivors),
                    result.label,
                ]
            )


def write_comparison_csvs(cmp: Comparison, iterations_path, thresholds_path) -> None:
    """Aligned per-iteration series and loss-milestone arrival tables."""
    with Path(iterations_path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["iteration"]
        for label in cmp.labels:
            header += [f"{label}_sim_time_s", f"{label}_loss", f"{label}_auc"]
        writer.writerow(header)
        for i, t in enumerate(cmp.iterations):
            row = [t]
            for label in cmp.labels:
                row += [
                    _fmt(cmp.sim_time_s[label][i]),
                    _fmt(cmp.loss[label][i]),
                    _fmt(cmp.auc[label][i]),
                ]
            writer.writerow(row)
    with Path(thresholds_path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["loss_threshold"]
        for label in cmp.labels:
            header += [f"{label}_iteration", f"{label}_sim_time_s"]
        writer.writerow(header)
        for row_data in cmp.thresholds:
            row = [_fmt(row_data.threshold)]
            for label in cmp.labels:
                hit = row_data.reached[label]
                row += ["", ""] if hit is None else [hit[0], _fmt(hit[1])]
            writer.writerow(row)
