"""Simulator tests.

Oracles: round durations are recomputed by brute force from the raw
message events; gradient aggregation is replayed outside the simulator
from the recorded survivor sets; exact strategies are checked against a
single-node descent run on the same data. Timing identities use
power-of-two constants so float products are exact and equalities can
be asserted with ==.
"""

import csv
import math

import numpy as np
import pytest

from gradcode import codec, learn, partial, sim
from gradcode.errors import (
    ConfigError,
    IndexOutOfRange,
    InvalidAlpha,
    MismatchedConfigs,
    StarvedIteration,
)
from gradcode.numerics import make_rng

SEEDS = sim.SeedBundle(scheme=11, data=21, latency=31, straggler=41)
NAG_CFG = learn.OptimizerConfig(method=learn.NAG)

# comm 2^-5, compute 2^-1: exact float arithmetic in the timing tests
EXACT_LAT = sim.LatencyModel(
    compute_time_per_partition=0.5, comm_time=0.03125, jitter_sigma=None
)


def small_config(strategy, **kw):
    base = dict(
        strategy=strategy,
        optimizer=NAG_CFG,
        seeds=SEEDS,
        d=512,
        p=6,
        iterations=15,
        latency=sim.LatencyModel(compute_time_per_partition=0.25, comm_time=0.05),
    )
    base.update(kw)
    return sim.TrainingConfig(**base)


def rebuild_datasets(config):
    """The simulator's data pipeline, replicated for replay oracles."""
    rng = make_rng(config.seeds.data)
    ds, _ = learn.gen_synthetic(rng, config.d, config.p)
    train, holdout = learn.holdout_split(ds, config.holdout_frac, rng)
    return learn.with_partitions(train, config.strategy.partition_count), holdout


def replay(config, result, gradient_fn):
    """Drive a fresh optimizer with gradients built by ``gradient_fn``.

    gradient_fn(train, point, trace) must reproduce what the simulated
    aggregator summed, in the same order, so betas match bit for bit.
    """
    train, _ = rebuild_datasets(config)
    opt = learn.make_optimizer(config.optimizer, config.p, learn.lipschitz_bound(train.X))
    beta = None
    for trace in result.traces:
        beta = opt.step(gradient_fn(train, opt.eval_point(), trace))
    return beta, train


def seq_sum(parts):
    total = parts[0].copy()
    for p in parts[1:]:
        total += p
    return total


# ---------------------------------------------------------------------------
# Shared training data


def test_run_on_prepared_data_matches_private_build():
    cfg = small_config(sim.Coded(codec.build_frac(4, 1)))
    own = sim.run_training(cfg)
    shared = sim.run_training(cfg, sim.prepare_data(cfg))
    assert shared.traces == own.traces
    assert np.array_equal(shared.beta, own.beta)


@pytest.mark.parametrize(
    "change",
    [
        {"seeds": sim.SeedBundle(11, 22, 31, 41)},
        {"d": 520},
        {"p": 7},
        {"holdout_frac": 0.25},
    ],
)
def test_run_rejects_data_built_for_another_key(change):
    data = sim.prepare_data(small_config(sim.Naive(4), **change))
    with pytest.raises(MismatchedConfigs):
        sim.run_training(small_config(sim.Naive(4)), data)


def test_shared_data_computes_lipschitz_once_and_only_on_demand(monkeypatch):
    calls = []
    bound = learn.lipschitz_bound
    monkeypatch.setattr(learn, "lipschitz_bound", lambda X: calls.append(1) or bound(X))
    explicit = small_config(sim.Naive(4), optimizer=learn.OptimizerConfig(eta=1e-3))
    data = sim.prepare_data(explicit)
    sim.run_training(explicit, data)
    gd = learn.OptimizerConfig(method=learn.GD_DECAY, c1=1e-3)
    sim.run_training(small_config(sim.Naive(4), optimizer=gd), data)
    assert calls == []
    for strategy in (sim.Naive(4), sim.IgnoreStragglers(4, 1)):
        sim.run_training(small_config(strategy), data)
    assert calls == [1]


# ---------------------------------------------------------------------------
# Round clock vs brute force over raw events


def brute_force_duration(strategy, events):
    # Each strategy's own rule, told apart by its label alone.
    times = sorted(events, key=lambda e: (e[0], e[1], 0 if e[2] == "naive" else 1))
    need = strategy.n - strategy.s
    if strategy.label == "naive":
        return max(t for t, _, _ in events)
    if strategy.label.startswith("ignore_"):
        return times[need - 1][0]
    coded = [e for e in times if e[2] == "coded"]
    if not strategy.label.startswith("partial_"):
        return coded[need - 1][0]
    naive = [t for t, _, k in events if k == "naive"]
    return max(max(naive), coded[need - 1][0])


@pytest.mark.parametrize(
    "strategy",
    [
        sim.Naive(4),
        sim.IgnoreStragglers(4, 1),
        sim.Coded(codec.build_frac(4, 1)),
        sim.Coded(codec.build_cyc(5, 2, seed=3)),
        sim.PartialCoded(partial.plan_partial(4, 1, 1.5, kind=codec.FRAC)),
    ],
)
def test_durations_match_event_brute_force(strategy, recorded):
    cfg = small_config(strategy, d=520)
    res = sim.run_training(cfg)
    [run] = recorded
    assert len(run.events) == cfg.iterations
    clock = 0.0
    for trace, events in zip(res.traces, run.events):
        expected = brute_force_duration(strategy, list(events))
        assert trace.duration == expected
        clock += trace.duration
        assert trace.sim_time_s == pytest.approx(clock, rel=1e-12)


def test_event_counts_and_kinds(recorded):
    cfg = small_config(
        sim.PartialCoded(partial.plan_partial(4, 1, 2.0, kind=codec.FRAC)),
        d=528,
    )
    sim.run_training(cfg)
    sim.run_training(small_config(sim.Naive(4)))
    partial_run, naive_run = recorded
    assert len(partial_run.events) == len(naive_run.events) == cfg.iterations
    for events in partial_run.events:
        kinds = [k for _, _, k in events]
        assert kinds.count("naive") == 4 and kinds.count("coded") == 4
    for events in naive_run.events:
        assert all(k == "naive" for _, _, k in events)


# ---------------------------------------------------------------------------
# Aggregation replayed from recorded survivors


def test_ignore_sums_exactly_surviving_partitions():
    policy = sim.StragglerPolicy(mode="random", count=1, kind="delay", extra=50.0)
    cfg = small_config(sim.IgnoreStragglers(4, 1), policy=policy, iterations=20)
    res = sim.run_training(cfg)

    def partial_sum(train, point, trace):
        assert len(trace.survivors) == 3
        assert trace.gradient_kind == "partial_sum"
        return seq_sum([learn.partial_gradient(train, w, point) for w in trace.survivors])

    beta, _ = replay(cfg, res, partial_sum)
    assert np.array_equal(beta, res.beta)


def test_ignore_excludes_the_delayed_worker():
    # A huge delay with zero jitter forces the straggler out every time.
    policy = sim.StragglerPolicy(mode="random", count=1, kind="delay", extra=1e6)
    cfg = small_config(
        sim.IgnoreStragglers(4, 1),
        policy=policy,
        latency=EXACT_LAT,
        iterations=30,
    )
    res = sim.run_training(cfg)
    excluded = {tuple(set(range(4)) - set(tr.survivors)) for tr in res.traces}
    assert all(len(e) == 1 for e in excluded)
    assert len(excluded) >= 2  # the random draw moves around


def test_coded_decode_replay_bit_exact():
    code = codec.build_cyc(5, 2, seed=9)
    policy = sim.StragglerPolicy(mode="random", count=2, kind="delay", extra=30.0)
    cfg = small_config(sim.Coded(code), policy=policy, d=515, iterations=20)
    res = sim.run_training(cfg)
    cache = {}

    def decoded(train, point, trace):
        G = [learn.partial_gradient(train, j, point) for j in range(code.k)]
        row = codec.decode_row(code, trace.survivors, cache)
        msgs = [
            seq_sum([code.B[w, j] * G[j] for j in codec.assignment(code, w)])
            for w in trace.survivors
        ]
        return seq_sum([c * m for c, m in zip(row.coeffs, msgs)])

    beta, train = replay(cfg, res, decoded)
    assert np.array_equal(beta, res.beta)
    # and the decoded update is the exact full-data gradient
    g_full = learn.full_gradient(train, np.zeros(cfg.p))
    G0 = [learn.partial_gradient(train, j, np.zeros(cfg.p)) for j in range(code.k)]
    scale = np.max(np.abs(g_full))
    assert np.max(np.abs(seq_sum(G0) - g_full)) / scale < 1e-12


def test_partial_two_stage_replay_bit_exact():
    plan = partial.plan_partial(4, 1, 1.5, kind=codec.CYC, seed=13)
    policy = sim.StragglerPolicy(mode="random", count=1, kind="slowdown", alpha=1.4)
    cfg = small_config(sim.PartialCoded(plan), policy=policy, d=1056, iterations=15)
    res = sim.run_training(cfg)
    code, off = plan.code, plan.coded_offset
    cache = {}

    def two_stage(train, point, trace):
        G = [learn.partial_gradient(train, j, point) for j in range(train.partitions)]
        naive = [
            seq_sum([G[j] for j in plan.naive_assignment[w]]) for w in range(plan.n)
        ]
        row = codec.decode_row(code, trace.survivors, cache)
        coded = [
            seq_sum([code.B[w, j] * G[off + j] for j in codec.assignment(code, w)])
            for w in trace.survivors
        ]
        return seq_sum(naive + [c * m for c, m in zip(row.coeffs, coded)])

    beta, _ = replay(cfg, res, two_stage)
    assert np.array_equal(beta, res.beta)


# The aggregation of the term-tuple layout, kept as the oracle for the
# array one: a message is a tuple of (partition, coefficient) terms, None
# for a plain term, summed left to right, and so is the gradient.


def _reference_message(G, terms):
    parts = [G[j] if c is None else c * G[j] for j, c in terms]
    return parts[0] if len(parts) == 1 else seq_sum(parts)


def _coded_terms(code, offset=0):
    return [
        tuple((offset + j, code.B[w, j]) for j in codec.assignment(code, w))
        for w in range(code.n)
    ]


def _reference_layout(name):
    """A 12-worker strategy and its message terms, stage by stage."""
    plain = [((w, None),) for w in range(12)]
    if name == "naive":
        return sim.Naive(12), [plain]
    if name == "ignore":
        return sim.IgnoreStragglers(12, 2), [plain]
    if name in ("frac", "cyc"):
        code = codec.build_frac(12, 2) if name == "frac" else codec.build_cyc(12, 2, seed=5)
        return sim.Coded(code), [_coded_terms(code)]
    kind = name.split("_")[1]
    plan = partial.plan_partial(12, 2, 2.0, kind=kind, seed=6)
    naive = [tuple((j, None) for j in supp) for supp in plan.naive_assignment]
    return sim.PartialCoded(plan), [naive, _coded_terms(plan.code, plan.coded_offset)]


def _reference_gradient(strategy, stages, G, survivors):
    # Every message of the earlier stages, then the survivors' last-stage ones.
    used = [terms for stage in stages[:-1] for terms in stage]
    used += [stages[-1][w] for w in survivors]
    parts = [_reference_message(G, terms) for terms in used]
    if strategy.code is not None:
        row = codec.decode_row(strategy.code, survivors)
        coded = len(parts) - len(survivors)
        parts[coded:] = [c * m for c, m in zip(row.coeffs, parts[coded:])]
    return seq_sum(parts)


@pytest.mark.parametrize("verify", [False, True])
@pytest.mark.parametrize("p", [1, 100])
@pytest.mark.parametrize(
    "name", ["naive", "ignore", "frac", "cyc", "partial_frac", "partial_cyc"]
)
def test_array_aggregation_matches_the_term_loop(name, p, verify):
    # 10 to 16 messages a round: more than numpy's pairwise summation
    # block, so a pairwise sum would show at p = 1.
    strategy, stages = _reference_layout(name)
    rng = make_rng(50 + p)
    ds, _ = learn.gen_synthetic(rng, 600, p)
    train = learn.with_partitions(ds, strategy.partition_count)
    layout = sim.build_layout(strategy, train)
    policy = sim.StragglerPolicy(mode="random", count=2, kind="delay", extra=5.0)
    latency_rng, straggler_rng = make_rng(1), make_rng(2)
    for _ in range(6):
        point = rng.standard_normal(p)
        gradient, _, survivors, _, _ = sim.run_iteration(
            layout, sim.LatencyModel(), policy, train, point, latency_rng, straggler_rng,
            {}, verify,
        )
        G = [learn.partial_gradient(train, j, point) for j in range(train.partitions)]
        assert np.array_equal(gradient, _reference_gradient(strategy, stages, G, survivors))


@pytest.mark.parametrize("shape", [(40, 1), (40, 2), (9, 3), (33, 100), (5, 40, 1),
                                   (12, 1, 1), (3, 7, 5), (1, 1)])
def test_sequential_sum_adds_rows_left_to_right(shape):
    # Wide magnitudes make any other order round differently.
    rng = make_rng(sum(shape))
    for _ in range(20):
        parts = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
        assert np.array_equal(sim._sequential_sum(parts), seq_sum(list(parts)))


@pytest.mark.parametrize("n, s", [(4, 1), (6, 1), (6, 2), (12, 2), (12, 3)])
@pytest.mark.parametrize("alpha", [1.5, 2.0, 4.0])
def test_size_and_message_kinds_derive_from_the_stages(n, s, alpha):
    # (strategy, workers, partitions, stage kinds), the sizes as each
    # constructor's input holds them
    frac = codec.build_frac(n, s)
    plans = [partial.plan_partial(n, s, alpha, kind=kind, seed=3)
             for kind in (codec.FRAC, codec.CYC)]
    cases = [
        (sim.Naive(n), n, n, ("naive",)),
        (sim.IgnoreStragglers(n, s), n, n, ("naive",)),
        (sim.Coded(frac), frac.n, frac.k, ("coded",)),
        (sim.Coded(codec.build_cyc(n, s, 3)), n, n, ("coded",)),
        (sim.Coded(codec.build_naive(n)), n, n, ("coded",)),
    ] + [(sim.PartialCoded(plan), plan.n, plan.total_partitions, ("naive", "coded"))
         for plan in plans]
    for strategy, workers, partitions, kinds in cases:
        assert strategy.n == workers
        assert strategy.partition_count == partitions
        assert strategy.kinds == kinds


@pytest.mark.parametrize(
    "name", ["naive", "ignore", "frac", "cyc", "partial_frac", "partial_cyc"]
)
def test_stage_arrays_hold_each_messages_terms(name):
    strategy, stages = _reference_layout(name)
    assert len(strategy.index) == len(strategy.coef) == len(stages)
    for index, coef, terms in zip(strategy.index, strategy.coef, stages):
        assert index.shape == coef.shape == (strategy.n, len(terms[0]))
        assert not index.flags.writeable and not coef.flags.writeable
        assert index.tolist() == [[j for j, _ in msg] for msg in terms]
        assert coef.tolist() == [[1.0 if c is None else c for _, c in msg] for msg in terms]


# ---------------------------------------------------------------------------
# Exact strategies track single-node descent; partial sums do not


def single_node_betas(cfg):
    train, _ = rebuild_datasets(cfg)
    opt = learn.make_optimizer(cfg.optimizer, cfg.p, learn.lipschitz_bound(train.X))
    betas = []
    for _ in range(cfg.iterations):
        betas.append(opt.step(learn.full_gradient(train, opt.eval_point())).copy())
    return betas


@pytest.mark.parametrize(
    "strategy",
    [
        sim.Naive(4),
        sim.Coded(codec.build_frac(4, 1)),
        sim.Coded(codec.build_cyc(4, 2, seed=5)),
        sim.PartialCoded(partial.plan_partial(4, 2, 2.5, kind=codec.CYC, seed=2)),
    ],
)
def test_exact_strategies_match_single_node(strategy):
    cfg = small_config(strategy, d=768, iterations=40)
    res = sim.run_training(cfg)
    reference = single_node_betas(cfg)[-1]
    scale = max(1.0, float(np.max(np.abs(reference))))
    assert float(np.max(np.abs(res.beta - reference))) / scale < 1e-9
    assert all(tr.gradient_kind == "exact" for tr in res.traces)


def test_ignore_diverges_from_single_node():
    policy = sim.StragglerPolicy(mode="fixed", workers=(1,), kind="delay", extra=9.0)
    cfg = small_config(sim.IgnoreStragglers(4, 1), policy=policy, iterations=25)
    res = sim.run_training(cfg)
    reference = single_node_betas(cfg)[-1]
    assert float(np.max(np.abs(res.beta - reference))) > 1e-4


def test_coded_model_ignores_straggler_pattern():
    code = codec.build_cyc(6, 2, seed=1)
    base = dict(d=516, iterations=30)
    runs = []
    for straggler_seed, policy in [
        (41, sim.StragglerPolicy()),
        (99, sim.StragglerPolicy(mode="random", count=2, kind="delay", extra=40.0)),
        (7, sim.StragglerPolicy(mode="fixed", workers=(0, 3), kind="slowdown", alpha=3.0)),
    ]:
        seeds = sim.SeedBundle(11, 21, 31, straggler_seed)
        cfg = small_config(sim.Coded(code), seeds=seeds, policy=policy, **base)
        runs.append(sim.run_training(cfg))
    losses = [[tr.loss for tr in r.traces] for r in runs]
    for other in losses[1:]:
        assert np.allclose(losses[0], other, rtol=1e-9)
    for other in runs[1:]:
        assert float(np.max(np.abs(runs[0].beta - other.beta))) < 1e-9
    # times do respond to the injection even though the model does not
    assert runs[1].total_time > runs[0].total_time


# ---------------------------------------------------------------------------
# Deterministic timing identities (zero jitter, power-of-two constants)


def test_zero_jitter_round_times_exact():
    # 512 rows over 4 workers: 128 rows each, compute 0.5 per round.
    cfg = small_config(sim.Naive(4), latency=EXACT_LAT, d=640)
    train_rows = 512  # after the 20% holdout
    per_row = EXACT_LAT.compute_time_per_partition * 4 / train_rows
    expected = per_row * 128 + EXACT_LAT.comm_time
    res = sim.run_training(cfg)
    assert all(tr.duration == expected for tr in res.traces)
    assert res.total_time == pytest.approx(cfg.iterations * expected, rel=1e-12)


def test_zero_jitter_ties_break_by_worker_index():
    cfg = small_config(sim.IgnoreStragglers(4, 1), latency=EXACT_LAT, d=640)
    res = sim.run_training(cfg)
    assert all(tr.survivors == (0, 1, 2) for tr in res.traces)


def test_naive_delay_adds_linearly():
    policy = sim.StragglerPolicy(mode="fixed", workers=(2,), kind="delay", extra=0.75)
    base = sim.run_training(small_config(sim.Naive(4), latency=EXACT_LAT, d=640))
    slow = sim.run_training(
        small_config(sim.Naive(4), latency=EXACT_LAT, d=640, policy=policy)
    )
    assert slow.total_time - base.total_time == pytest.approx(
        0.75 * base.config.iterations, rel=1e-12
    )


def test_coded_time_flat_under_tolerated_delay():
    code = codec.build_frac(4, 1)
    base = sim.run_training(small_config(sim.Coded(code), latency=EXACT_LAT, d=640))
    for extra in (0.5, 80.0, 1e6):
        policy = sim.StragglerPolicy(mode="fixed", workers=(3,), kind="delay", extra=extra)
        delayed = sim.run_training(
            small_config(sim.Coded(code), latency=EXACT_LAT, d=640, policy=policy)
        )
        assert delayed.total_time == base.total_time
        assert all(tr.survivors == (0, 1, 2) for tr in delayed.traces)


def test_partial_completion_identity_integral_ratio():
    # alpha = 2, s = 1 gives r = 2 and zero slack: with a worker slowed
    # by exactly alpha, its naive stage and the others' coded stage end
    # one comm hop apart, so the round closes at the coded arrival.
    plan = partial.plan_partial(4, 1, 2.0, kind=codec.FRAC)
    assert partial.timing_slack(plan) == 0.0
    policy = sim.StragglerPolicy(mode="fixed", workers=(0,), kind="slowdown", alpha=2.0)
    cfg = small_config(
        sim.PartialCoded(plan), latency=EXACT_LAT, d=960, policy=policy
    )
    res = sim.run_training(cfg)
    train_rows = 768  # 960 minus the 20% holdout; 12 partitions of 64 rows
    per_row = EXACT_LAT.compute_time_per_partition * 4 / train_rows
    coded_done = per_row * 256 + 2.0 * EXACT_LAT.comm_time
    naive_straggler_done = 2.0 * (per_row * 128) + EXACT_LAT.comm_time
    assert coded_done > naive_straggler_done  # slack is zero, comm decides
    assert all(tr.duration == coded_done for tr in res.traces)
    assert all(tr.survivors == (1, 2, 3) for tr in res.traces)


def _one_round_durations(strategy, latency, policy, d, iterations=2):
    cfg = small_config(strategy, latency=latency, policy=policy, d=d, p=3,
                       iterations=iterations)
    durations = {tr.duration for tr in sim.run_training(cfg).traces}
    assert len(durations) == 1
    return durations.pop()


@pytest.mark.parametrize("n, s", [(4, 1), (4, 3), (6, 1), (6, 2), (8, 1), (8, 3)])
def test_zero_jitter_round_times_over_a_grid(n, s):
    # d = 80 n leaves 64 rows per n-way partition after the holdout, so
    # every product below is exact. The first s workers straggle.
    c, comm = EXACT_LAT.compute_time_per_partition, EXACT_LAT.comm_time
    d = 80 * n
    for extra in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0):
        policy = sim.StragglerPolicy(
            mode="fixed", workers=tuple(range(s)), kind="delay", extra=extra
        )
        naive = _one_round_durations(sim.Naive(n), EXACT_LAT, policy, d)
        assert naive == c + comm + extra
        assert _one_round_durations(sim.IgnoreStragglers(n, s), EXACT_LAT, policy, d) == c + comm
        for code in (codec.build_frac(n, s), codec.build_cyc(n, s, seed=n + s)):
            coded = _one_round_durations(sim.Coded(code), EXACT_LAT, policy, d)
            assert coded == (s + 1) * c + comm
            assert (coded < naive) == (extra > s * c)


@pytest.mark.parametrize("n, s", [(4, 1), (6, 1), (6, 2), (8, 3)])
@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0, 5.0])
def test_two_stage_round_time_matches_plan_slack_and_load(n, s, alpha):
    # The first s workers run alpha times slower. The round closes when
    # the fast workers' coded messages are in and the slow workers'
    # naive sums, which trail by the plan's timing slack, are too.
    plan = partial.plan_partial(n, s, alpha, kind=codec.FRAC)
    parts = plan.total_partitions
    c_part = 0.5  # compute time of one of the plan's partitions
    latency = sim.LatencyModel(
        compute_time_per_partition=c_part * parts / n, comm_time=0.03125, jitter_sigma=None
    )
    policy = sim.StragglerPolicy(
        mode="fixed", workers=tuple(range(s)), kind="slowdown", alpha=alpha
    )
    # 64 training rows per partition after the 20% holdout.
    duration = _one_round_durations(sim.PartialCoded(plan), latency, policy, 80 * parts)
    fast_load = round(partial.realized_load_fraction(plan) * parts)
    assert fast_load == plan.naive_per_worker + s + 1
    fast_coded = fast_load * c_part + 2 * latency.comm_time
    slow_naive = (fast_load + partial.timing_slack(plan)) * c_part + latency.comm_time
    assert duration == max(fast_coded, slow_naive)


# (constructor, argument): the strategy itself is built under the patch.
@pytest.mark.parametrize(
    "strategy",
    [
        (sim.Coded, codec.build_frac(4, 1)),
        (sim.Coded, codec.build_cyc(5, 2, seed=3)),
        (sim.PartialCoded, partial.plan_partial(4, 1, 2.0, kind=codec.CYC, seed=4)),
    ],
)
def test_layout_is_built_once_per_run(monkeypatch, strategy):
    calls = []
    assignment = codec.assignment
    monkeypatch.setattr(
        codec, "assignment", lambda code, w: calls.append(w) or assignment(code, w)
    )
    make, arg = strategy
    built = make(arg)
    for _ in range(2):
        sim.run_training(small_config(built, d=640, iterations=12))
    assert calls == list(range(built.n))


# ---------------------------------------------------------------------------
# Starvation and validation


def test_naive_starves_on_full_delay():
    policy = sim.StragglerPolicy(mode="fixed", workers=(1,), kind="delay", extra=math.inf)
    cfg = small_config(sim.Naive(4), policy=policy)
    with pytest.raises(StarvedIteration):
        sim.run_training(cfg)


def test_partial_naive_stage_starves_on_full_delay():
    # The coded stage tolerates s stragglers, but every naive sum is
    # still required: a dead worker starves the two-stage aggregator.
    plan = partial.plan_partial(4, 1, 2.0, kind=codec.FRAC)
    policy = sim.StragglerPolicy(mode="fixed", workers=(2,), kind="delay", extra=math.inf)
    cfg = small_config(sim.PartialCoded(plan), policy=policy, d=960)
    with pytest.raises(StarvedIteration):
        sim.run_training(cfg)


@pytest.mark.parametrize("make, d, waited_for", [
    (lambda: sim.Naive(4), 512, "fewer than 4 of 4 workers can ever finish"),
    (lambda: sim.PartialCoded(partial.plan_partial(4, 1, 2.0, kind=codec.FRAC)), 960,
     "the aggregator needs every naive message"),
], ids=["naive", "partial"])
def test_a_starved_round_names_the_messages_it_waits_for(make, d, waited_for):
    # Naive waits for all n last-stage messages; a two-stage plan for every
    # message of its earlier, naive stage.
    policy = sim.StragglerPolicy(mode="fixed", workers=(1,), kind="delay", extra=math.inf)
    with pytest.raises(StarvedIteration, match=waited_for):
        sim.run_training(small_config(make(), policy=policy, d=d))


def test_coded_survives_full_delay_within_tolerance():
    policy = sim.StragglerPolicy(mode="fixed", workers=(2,), kind="delay", extra=math.inf)
    cfg = small_config(sim.Coded(codec.build_frac(4, 1)), policy=policy)
    res = sim.run_training(cfg)
    assert all(2 not in tr.survivors for tr in res.traces)
    assert math.isfinite(res.total_time)


def test_policy_validation():
    with pytest.raises(ConfigError, match="tolerance"):
        small_config(
            sim.IgnoreStragglers(4, 1),
            policy=sim.StragglerPolicy(mode="fixed", workers=(0, 1), kind="delay", extra=1.0),
        )
    with pytest.raises(ConfigError, match="tolerance"):
        small_config(
            sim.Coded(codec.build_frac(4, 1)),
            policy=sim.StragglerPolicy(mode="random", count=2, kind="delay", extra=1.0),
        )
    with pytest.raises(IndexOutOfRange):
        small_config(
            sim.Naive(4),
            policy=sim.StragglerPolicy(mode="fixed", workers=(7,), kind="delay", extra=1.0),
        )
    with pytest.raises(ConfigError, match="cluster"):
        small_config(
            sim.Naive(2),
            policy=sim.StragglerPolicy(mode="random", count=2, kind="delay", extra=1.0),
        )


@pytest.mark.parametrize(
    "strategy, accepts",
    [
        (sim.Naive(4), True),
        (sim.IgnoreStragglers(4, 1), False),
        (sim.Coded(codec.build_frac(4, 1)), False),
        (sim.PartialCoded(partial.plan_partial(4, 1, 2.0, kind=codec.FRAC)), False),
        (sim.Coded(codec.build_naive(4)), True),
    ],
)
def test_tolerance_check_follows_the_aggregation_rule(strategy, accepts):
    # Waiting for every message runs under any injection; waiting for
    # the first n - s refuses more than s stragglers.
    policy = sim.StragglerPolicy(mode="random", count=2, kind="delay", extra=1.0)
    if accepts:
        res = sim.run_training(small_config(strategy, policy=policy, iterations=3))
        assert all(tr.survivors == (0, 1, 2, 3) for tr in res.traces)
    else:
        with pytest.raises(ConfigError, match="tolerance"):
            small_config(strategy, policy=policy)


def test_policy_shape_validation():
    with pytest.raises(InvalidAlpha):
        sim.StragglerPolicy(mode="fixed", workers=(0,), kind="slowdown", alpha=1.0)
    with pytest.raises(ConfigError):
        sim.StragglerPolicy(mode="nope")
    with pytest.raises(ConfigError):
        sim.StragglerPolicy(mode="fixed", workers=(), kind="delay")
    with pytest.raises(ConfigError):
        sim.StragglerPolicy(mode="none", workers=(1,))
    with pytest.raises(ConfigError):
        sim.StragglerPolicy(mode="random", count=0)
    with pytest.raises(ConfigError):
        sim.StragglerPolicy(mode="fixed", workers=(1, 1), kind="delay", extra=1.0)
    with pytest.raises(ConfigError):
        sim.StragglerPolicy(mode="fixed", workers=(0,), kind="delay", extra=-2.0)


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(sim.Naive(4), iterations=0)
    with pytest.raises(ConfigError):
        small_config(sim.Naive(4), holdout_frac=1.0)
    with pytest.raises(ConfigError):
        small_config(sim.Naive(4), auc_interval=0)
    with pytest.raises(ConfigError):
        small_config(sim.Naive(600))  # more partitions than rows
    with pytest.raises(ConfigError):
        sim.IgnoreStragglers(4, 0)
    with pytest.raises(ConfigError):
        sim.Naive(0)
    with pytest.raises(ConfigError):
        sim.LatencyModel(compute_time_per_partition=0.0)
    with pytest.raises(ConfigError):
        sim.LatencyModel(jitter_sigma=-1.0)


def test_partitions_must_fit_the_training_split():
    # d=60 holds out round(0.2 * 60) = 12 rows and trains on 48.
    for k in (49, 50):
        with pytest.raises(ConfigError, match="48 training rows"):
            small_config(sim.Naive(k), d=60)
    res = sim.run_training(small_config(sim.Naive(48), d=60, iterations=2))
    assert len(res.traces) == 2


# ---------------------------------------------------------------------------
# Determinism and seed separation


def test_rerun_is_bit_identical():
    policy = sim.StragglerPolicy(mode="random", count=1, kind="slowdown", alpha=2.5)
    cfg = small_config(sim.Coded(codec.build_cyc(4, 1, seed=2)), policy=policy)
    a = sim.run_training(cfg)
    b = sim.run_training(cfg)
    assert a.traces == b.traces
    assert np.array_equal(a.beta, b.beta)


def test_latency_seed_changes_times_not_model():
    cfg1 = small_config(sim.Naive(4))
    cfg2 = small_config(sim.Naive(4), seeds=sim.SeedBundle(11, 21, 99, 41))
    r1, r2 = sim.run_training(cfg1), sim.run_training(cfg2)
    assert [tr.loss for tr in r1.traces] == [tr.loss for tr in r2.traces]
    assert np.array_equal(r1.beta, r2.beta)
    assert [tr.duration for tr in r1.traces] != [tr.duration for tr in r2.traces]


def test_data_seed_changes_model():
    cfg1 = small_config(sim.Naive(4))
    cfg2 = small_config(sim.Naive(4), seeds=sim.SeedBundle(11, 22, 31, 41))
    r1, r2 = sim.run_training(cfg1), sim.run_training(cfg2)
    assert [tr.loss for tr in r1.traces] != [tr.loss for tr in r2.traces]


def test_default_jitter_tail_calibration():
    # Multiplier exceeds 5x the median about 5% of the time.
    rng = make_rng(123)
    draws = np.exp(sim.DEFAULT_JITTER_SIGMA * rng.standard_normal(200_000))
    frac = float(np.mean(draws > 5.0))
    assert 0.045 < frac < 0.055
    assert abs(float(np.median(draws)) - 1.0) < 0.02


def test_auc_interval_sampling():
    cfg = small_config(sim.Naive(4), iterations=7, auc_interval=3)
    res = sim.run_training(cfg)
    have = [tr.iteration for tr in res.traces if tr.auc is not None]
    assert have == [3, 6, 7]  # interval hits plus the final iteration


# ---------------------------------------------------------------------------
# Comparison and CSV export


def make_pair(iterations=12):
    runs = []
    for strat in (sim.Naive(4), sim.Coded(codec.build_frac(4, 1))):
        cfg = small_config(strat, iterations=iterations)
        runs.append(sim.run_training(cfg))
    return runs


def test_compare_runs_aligns_series():
    runs = make_pair()
    cmp_ = sim.compare_runs(runs)
    assert cmp_.labels == ("naive", "frac_n4_s1")
    assert cmp_.iterations == tuple(range(1, 13))
    for r in runs:
        assert cmp_.loss[r.label] == tuple(tr.loss for tr in r.traces)
    thr = [row.threshold for row in cmp_.thresholds]
    assert thr == sorted(thr, reverse=True)
    for row in cmp_.thresholds:
        for label, hit in row.reached.items():
            if hit is not None:
                it, t = hit
                assert cmp_.loss[label][it - 1] <= row.threshold
                assert t == cmp_.sim_time_s[label][it - 1]


def test_compare_rejects_mismatched_data():
    runs = make_pair()
    other = sim.run_training(
        small_config(sim.Naive(4), seeds=sim.SeedBundle(11, 77, 31, 41))
    )
    with pytest.raises(MismatchedConfigs):
        sim.compare_runs([runs[0], other])
    with pytest.raises(MismatchedConfigs):
        sim.compare_runs([])
    with pytest.raises(MismatchedConfigs, match="unique"):
        sim.compare_runs([runs[0], runs[0]])


def test_compare_single_run_degenerates():
    runs = make_pair()
    cmp_ = sim.compare_runs([runs[0]])
    assert cmp_.labels == ("naive",)
    assert cmp_.loss["naive"] == tuple(tr.loss for tr in runs[0].traces)
    assert all(row.reached["naive"] is not None for row in cmp_.thresholds)


def test_compare_pads_shorter_runs():
    a = sim.run_training(small_config(sim.Naive(4), iterations=8))
    b = sim.run_training(small_config(sim.Coded(codec.build_frac(4, 1)), iterations=12))
    cmp_ = sim.compare_runs([a, b])
    assert len(cmp_.iterations) == 12
    assert cmp_.loss["naive"][8:] == (None,) * 4
    assert cmp_.loss["frac_n4_s1"][11] is not None


def test_run_csv_round_trip(tmp_path):
    res = sim.run_training(small_config(sim.Naive(4), iterations=9, auc_interval=4))
    path = tmp_path / "run.csv"
    sim.write_run_csv(res, path)
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == [
        "iteration", "sim_time_s", "loss", "auc", "survivors", "strategy",
    ]
    assert len(rows) == 9
    for row, tr in zip(rows, res.traces):
        assert int(row["iteration"]) == tr.iteration
        assert float(row["sim_time_s"]) == tr.sim_time_s
        assert float(row["loss"]) == tr.loss
        assert row["auc"] == ("" if tr.auc is None else repr(tr.auc))
        assert tuple(int(w) for w in row["survivors"].split(";")) == tr.survivors
        assert row["strategy"] == "naive"


def test_comparison_csvs(tmp_path):
    cmp_ = sim.compare_runs(make_pair())
    it_path, th_path = tmp_path / "it.csv", tmp_path / "th.csv"
    sim.write_comparison_csvs(cmp_, it_path, th_path)
    with it_path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12
    assert "naive_loss" in rows[0] and "frac_n4_s1_sim_time_s" in rows[0]
    assert float(rows[3]["naive_loss"]) == cmp_.loss["naive"][3]
    with th_path.open() as fh:
        trows = list(csv.DictReader(fh))
    assert len(trows) == len(cmp_.thresholds)
    assert float(trows[0]["loss_threshold"]) == cmp_.thresholds[0].threshold


def test_label_override():
    cfg = small_config(sim.Naive(4), label="baseline")
    assert sim.run_training(cfg).label == "baseline"


def test_collect_iterates_matches_final_beta(recorded):
    cfg = small_config(sim.Naive(4), iterations=10)
    res = sim.run_training(cfg)
    [run] = recorded
    assert len(run.iterates) == 10
    assert np.array_equal(run.iterates[-1], res.beta)
    reference = single_node_betas(cfg)
    for ours, theirs in zip(run.iterates, reference):
        assert float(np.max(np.abs(ours - theirs))) < 1e-9


@pytest.mark.parametrize("method", [learn.NAG, learn.GD_DECAY])
def test_trace_loss_is_log_loss_of_each_iterate(method, recorded):
    cfg = small_config(sim.Coded(codec.build_frac(4, 1)), iterations=12,
                       optimizer=learn.OptimizerConfig(method=method))
    # The same arrays the run trains on: a rebuilt copy may be aligned
    # differently, and the product X @ beta with it.
    data = sim.prepare_data(cfg)
    res = sim.run_training(cfg, data)
    [run] = recorded
    assert len(res.traces) == len(run.iterates) == cfg.iterations
    for trace, beta in zip(res.traces, run.iterates):
        want = learn.log_loss(data.train, beta)
        if method == learn.GD_DECAY:
            assert trace.loss == want
        else:
            # NAG's loss comes from carried logits: exact up to rounding.
            assert abs(trace.loss - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("method", [learn.NAG, learn.GD_DECAY])
@pytest.mark.parametrize("d, p, strategy", [
    (512, 6, sim.Coded(codec.build_frac(4, 1))),
    (10000, 100, sim.IgnoreStragglers(24, 3)),
])
def test_carried_loss_matches_log_loss_of_every_iterate(method, d, p, strategy, recorded):
    # Oracle: a whole-matrix log_loss of each recorded iterate. 24 ways
    # over 8000 rows puts partition bounds off any 4-row blocking.
    policy = sim.StragglerPolicy(mode="random", count=strategy.s, kind="delay", extra=5.0)
    cfg = small_config(strategy, d=d, p=p, iterations=40, policy=policy,
                       optimizer=learn.OptimizerConfig(method=method))
    data = sim.prepare_data(cfg)
    res = sim.run_training(cfg, data)
    [run] = recorded
    assert len(res.traces) == len(run.iterates) == 40
    for trace, beta in zip(res.traces, run.iterates):
        want = learn.log_loss(data.train, beta)
        if method == learn.GD_DECAY:
            assert trace.loss == want
        else:
            assert abs(trace.loss - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("method", [learn.NAG, learn.GD_DECAY])
@pytest.mark.parametrize("make", [
    lambda: sim.Naive(4),
    lambda: sim.IgnoreStragglers(4, 1),
    lambda: sim.Coded(codec.build_cyc(4, 1, seed=2)),
    lambda: sim.PartialCoded(partial.plan_partial(4, 1, 2.0, kind=codec.FRAC)),
], ids=["naive", "ignore", "coded", "partial"])
def test_log_loss_runs_once_per_run(monkeypatch, method, make):
    calls = []
    log_loss = learn.log_loss
    monkeypatch.setattr(learn, "log_loss", lambda ds, beta: calls.append(1) or log_loss(ds, beta))
    cfg = small_config(make(), d=960, iterations=12,
                       optimizer=learn.OptimizerConfig(method=method))
    res = sim.run_training(cfg)
    assert len(res.traces) == 12
    assert calls == [1]


def test_run_training_looks_up_run_iteration_each_round(monkeypatch):
    # Probes wrap sim.run_iteration by name; a cached reference would
    # hide every round from them.
    calls = []
    run_iteration = sim.run_iteration
    monkeypatch.setattr(
        sim, "run_iteration", lambda *args: calls.append(args[3]) or run_iteration(*args)
    )
    res = sim.run_training(small_config(sim.Naive(4), iterations=7))
    assert len(calls) == len(res.traces) == 7
    assert all(train.partitions == 4 for train in calls)


@pytest.mark.parametrize("make, verify, wanted", [
    (lambda: sim.Naive(4), False, lambda survivors: {0, 1, 2, 3}),
    (lambda: sim.IgnoreStragglers(4, 1), False, lambda survivors: survivors),
    (lambda: sim.Coded(codec.build_frac(4, 1)), False, lambda survivors: {0, 1, 2, 3}),
    (lambda: sim.Coded(codec.build_frac(4, 1)), True, lambda survivors: None),
], ids=["naive", "ignore", "coded", "coded_verified"])
def test_only_partitions_a_used_message_reads_take_a_gradient(monkeypatch, make, verify, wanted):
    asked = []
    gradients = learn.partition_gradients
    monkeypatch.setattr(
        learn, "partition_gradients",
        lambda ds, beta, logits, want: asked.append(want) or gradients(ds, beta, logits, want),
    )
    policy = sim.StragglerPolicy(mode="random", count=1, kind="delay", extra=5.0)
    res = sim.run_training(small_config(make(), policy=policy, verify_decode=verify))
    assert asked == [wanted(set(tr.survivors)) for tr in res.traces]
