"""Simulator tests.

Oracles: round durations are recomputed by brute force from the raw
message events; a run's clock is replayed by a per-round timer, one
round's draws at a time; gradient aggregation is replayed outside the
simulator from the recorded survivor sets; exact strategies are checked
against a single-node descent run on the same data. Timing identities use
power-of-two constants so float products are exact and equalities can
be asserted with ==.
"""

import csv
import dataclasses
import math

import numpy as np
import pytest

from gradcode import codec, learn, partial, sim
from gradcode.errors import (
    ConfigError,
    IndexOutOfRange,
    InvalidAlpha,
    MismatchedConfigs,
    NonFinite,
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
    ds, _ = learn.gen_synthetic(make_rng(config.seeds.data), config.d, config.p)
    train, holdout = learn.holdout_split(ds, config.holdout_frac)
    return learn.with_partitions(train, config.strategy.partition_count), holdout


def replay(config, result, gradient_fn):
    """Drive a fresh optimizer with gradients built by ``gradient_fn``.

    gradient_fn(train, point, survivors) must reproduce what the simulated
    aggregator summed, in the same order, so betas match bit for bit.
    """
    train, _ = rebuild_datasets(config)
    opt = learn.make_optimizer(config.optimizer, config.p, learn.lipschitz_bound(train.X))
    beta = None
    for survivors in survivor_sets(result):
        beta = opt.step(gradient_fn(train, opt.eval_point(), survivors))
    return beta, train


def survivor_sets(result):
    """Each round's survivors, as a tuple of worker indices."""
    return [tuple(row) for row in result.clock.survivors.tolist()]


def assert_same_series(a, b):
    """Two runs agree in every per-round series, bit for bit."""
    assert a.loss == b.loss
    assert a.auc == b.auc
    assert np.array_equal(a.clock.durations, b.clock.durations)
    assert np.array_equal(a.sim_time_s, b.sim_time_s)
    assert np.array_equal(a.clock.survivors, b.clock.survivors)


def seq_sum(parts):
    total = np.zeros_like(parts[0])
    for p in parts:
        total += p
    return total


# ---------------------------------------------------------------------------
# Shared training data


def test_run_on_prepared_data_matches_private_build():
    cfg = small_config(sim.Coded(codec.build_frac(4, 1)))
    own = sim.run_training(cfg)
    shared = sim.run_training(cfg, sim.prepare_data(cfg))
    assert_same_series(shared, own)
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
    for duration, elapsed, events in zip(res.clock.durations.tolist(), res.sim_time_s.tolist(),
                                         run.events):
        expected = brute_force_duration(strategy, list(events))
        assert duration == expected
        clock += duration
        assert elapsed == pytest.approx(clock, rel=1e-12)


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


def test_ignore_sums_exactly_surviving_partitions(recorded):
    policy = sim.StragglerPolicy(mode="random", count=1, kind="delay", extra=50.0)
    cfg = small_config(sim.IgnoreStragglers(4, 1), policy=policy, iterations=20)
    res = sim.run_training(cfg)
    [run] = recorded
    assert run.kinds == ["partial_sum"] * 20

    def partial_sum(train, point, survivors):
        assert len(survivors) == 3
        return seq_sum([learn.partial_gradient(train, w, point) for w in survivors])

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
    excluded = {tuple(set(range(4)) - set(survivors)) for survivors in survivor_sets(res)}
    assert all(len(e) == 1 for e in excluded)
    assert len(excluded) >= 2  # the random draw moves around


def test_coded_decode_replay_bit_exact():
    code = codec.build_cyc(5, 2, seed=9)
    policy = sim.StragglerPolicy(mode="random", count=2, kind="delay", extra=30.0)
    cfg = small_config(sim.Coded(code), policy=policy, d=515, iterations=20)
    res = sim.run_training(cfg)
    cache = {}

    def decoded(train, point, survivors):
        G = [learn.partial_gradient(train, j, point) for j in range(code.k)]
        row = codec.decode_row(code, survivors, cache)
        msgs = [
            seq_sum([code.B[w, j] * G[j] for j in codec.assignment(code, w)])
            for w in survivors
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

    def two_stage(train, point, survivors):
        G = [learn.partial_gradient(train, j, point) for j in range(train.partitions)]
        naive = [
            seq_sum([G[j] for j in plan.naive_assignment[w]]) for w in range(plan.n)
        ]
        row = codec.decode_row(code, survivors, cache)
        coded = [
            seq_sum([code.B[w, j] * G[off + j] for j in codec.assignment(code, w)])
            for w in survivors
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
    policy = sim.StragglerPolicy(mode="random", count=2, kind="delay", extra=5.0)
    clock = sim.schedule(strategy, train, sim.LatencyModel(), policy,
                         sim.SeedBundle(scheme=0, data=0, latency=1, straggler=2), 6)
    for t in range(6):
        point = rng.standard_normal(p)
        gradient, _, survivors, _, _ = sim.run_iteration(
            strategy, clock, t, train, point, {}, verify
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
    # Both branches start from +0.0, so a column of -0.0s sums to +0.0,
    # rows of one entry as well as wider ones.
    zeros = np.full(shape, -0.0)
    total = sim._sequential_sum(zeros)
    assert not np.signbit(total).any()
    assert not np.signbit(seq_sum(list(zeros))).any()


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


@pytest.mark.parametrize("p", [1, 5])
def test_a_one_term_plain_message_is_its_row_summed_not_gathered(p):
    # 1.0 * g == g bit for bit, signed zeros included, but numpy's sum of
    # one row is 0.0 + g: a -0.0 comes out +0.0, so gathering the rows in
    # place of the sum would change bits.
    rng = make_rng(60 + p)
    G = rng.standard_normal((6, p)) * 10.0 ** rng.integers(-8, 9, (6, p))
    G[1] = -0.0
    G[4, 0] = -0.0
    index = np.array([[2], [1], [4], [0], [1]], dtype=np.intp)
    ones = np.ones(index.shape)
    gathered = G[index[:, 0]]
    assert (G[index.T] * ones.T[..., None])[0].tobytes() == gathered.tobytes()
    messages = sim._messages(G, index, ones)
    assert np.array_equal(messages, gathered)
    assert messages.tobytes() == (gathered + 0.0).tobytes() != gathered.tobytes()


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
def test_exact_strategies_match_single_node(strategy, recorded):
    cfg = small_config(strategy, d=768, iterations=40)
    res = sim.run_training(cfg)
    reference = single_node_betas(cfg)[-1]
    scale = max(1.0, float(np.max(np.abs(reference))))
    assert float(np.max(np.abs(res.beta - reference))) / scale < 1e-9
    [run] = recorded
    assert run.kinds == ["exact"] * 40


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
    losses = [r.loss for r in runs]
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
    assert res.clock.durations.tolist() == [expected] * cfg.iterations
    assert res.total_time == pytest.approx(cfg.iterations * expected, rel=1e-12)


def test_zero_jitter_ties_break_by_worker_index():
    cfg = small_config(sim.IgnoreStragglers(4, 1), latency=EXACT_LAT, d=640)
    res = sim.run_training(cfg)
    assert survivor_sets(res) == [(0, 1, 2)] * cfg.iterations


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
        assert survivor_sets(delayed) == [(0, 1, 2)] * delayed.config.iterations


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
    assert res.clock.durations.tolist() == [coded_done] * cfg.iterations
    assert survivor_sets(res) == [(1, 2, 3)] * cfg.iterations


def _one_round_durations(strategy, latency, policy, d, iterations=2):
    cfg = small_config(strategy, latency=latency, policy=policy, d=d, p=3,
                       iterations=iterations)
    durations = set(sim.run_training(cfg).clock.durations.tolist())
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


@pytest.mark.parametrize("n, s", [(12, 2), (24, 3)])
def test_zero_jitter_closed_forms_under_random_delays(n, s):
    # sim.schedule alone at the desk latency constants without jitter:
    # s random workers a round are delayed by delta. Naive waits for them,
    # ignore-s does not, and a code's workers each compute s + 1 partitions.
    c, comm = 1.0, 0.05
    latency = sim.LatencyModel(compute_time_per_partition=c, comm_time=comm, jitter_sigma=None)
    rows = 100 * n
    train = learn.with_partitions(
        learn.Dataset(np.zeros((rows, 1)), np.zeros(rows), ((0, rows),)), n)
    seeds = sim.SeedBundle(scheme=0, data=0, latency=1, straggler=2)
    for delta in (0.5 * s * c, 5.0, 2.0 * s * c):
        policy = sim.StragglerPolicy(mode="random", count=s, kind="delay", extra=delta)
        forms = {
            "naive": (sim.Naive(n), c + comm + delta),
            "ignore": (sim.IgnoreStragglers(n, s), c + comm),
            "frac": (sim.Coded(codec.build_frac(n, s)), (s + 1) * c + comm),
            "cyc": (sim.Coded(codec.build_cyc(n, s, seed=n + s)), (s + 1) * c + comm),
        }
        durations = {}
        for name, (strategy, expected) in forms.items():
            durations[name] = sim.schedule(strategy, train, latency, policy, seeds, 50).durations
            assert np.allclose(durations[name], expected, rtol=1e-12, atol=0), (name, delta)
        # So coding beats naive exactly when s * c < delta.
        for name in ("frac", "cyc"):
            assert (durations[name] < durations["naive"]).all() == (s * c < delta)


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


# ---------------------------------------------------------------------------
# The run's clock against a round-by-round replay


def _time_round(strategy, train, latency, policy, latency_rng, straggler_rng):
    """The per-round clock the simulator ran before its clock was batched,
    kept as the oracle for ``sim.schedule``: one round's (arrival times
    indexed [stage, worker], duration, survivors)."""
    n = strategy.n
    stragglers = []
    if policy.mode == "fixed":
        stragglers = list(policy.workers)
    elif policy.mode == "random":
        stragglers = straggler_rng.choice(n, size=policy.count, replace=False)
    sizes = np.array([hi - lo for lo, hi in train.partition_bounds])
    rows = np.array([sizes[index].sum(axis=1) for index in strategy.index], dtype=float)
    per_row = latency.compute_time_per_partition * n / train.rows
    jitter = np.ones(n)
    if latency.jitter_sigma is not None:
        jitter = np.exp(latency.jitter_sigma * latency_rng.standard_normal(n))
    slow = np.ones(n)
    extra = np.zeros(n)
    if policy.kind == "slowdown":
        slow[stragglers] = policy.alpha
    else:
        extra[stragglers] = policy.extra
    compute = jitter * slow * per_row * rows[0]
    finish = np.empty(rows.shape)
    finish[0] = compute + latency.comm_time + extra
    scale = compute / rows[0]
    for k in range(1, len(rows)):
        compute = compute + scale * rows[k]
        finish[k] = compute + (k + 1) * latency.comm_time + extra
    duration = float(finish[:-1].max(initial=0.0))
    if not math.isfinite(duration):
        raise StarvedIteration(
            "the aggregator needs every naive message; a full delay never arrives"
        )
    times = finish[-1]
    need = n - strategy.s
    first = np.argsort(times, kind="stable")[:need]
    last = float(times[first[-1]])
    if not math.isfinite(last):
        raise StarvedIteration(f"fewer than {need} of {n} workers can ever finish")
    return finish, max(duration, last), tuple(sorted(first.tolist()))


def _replay_clock(strategy, train, latency, policy, seeds, iterations):
    latency_rng, straggler_rng = make_rng(seeds.latency), make_rng(seeds.straggler)
    return [_time_round(strategy, train, latency, policy, latency_rng, straggler_rng)
            for _ in range(iterations)]


CLOCK_STRATEGIES = {
    "naive": lambda: sim.Naive(6),
    "ignore": lambda: sim.IgnoreStragglers(6, 2),
    "frac": lambda: sim.Coded(codec.build_frac(6, 2)),
    "cyc": lambda: sim.Coded(codec.build_cyc(6, 2, seed=7)),
    "partial_frac": lambda: sim.PartialCoded(partial.plan_partial(6, 2, 2.0, kind=codec.FRAC)),
    "partial_cyc": lambda: sim.PartialCoded(
        partial.plan_partial(6, 1, 1.5, kind=codec.CYC, seed=8)),
}

CLOCK_POLICIES = {
    "none": dict(),
    "fixed_delay": dict(mode="fixed", workers=(4,), kind="delay", extra=0.75),
    "fixed_inf_delay": dict(mode="fixed", workers=(1,), kind="delay", extra=math.inf),
    "fixed_slowdown": dict(mode="fixed", workers=(0,), kind="slowdown", alpha=2.5),
    "random_delay": dict(mode="random", count=1, kind="delay", extra=0.5),
    "random_inf_delay": dict(mode="random", count=1, kind="delay", extra=math.inf),
    "random_slowdown": dict(mode="random", count=1, kind="slowdown", alpha=1.5),
}


@pytest.mark.parametrize("sigma", [sim.DEFAULT_JITTER_SIGMA, None], ids=["jitter", "still"])
@pytest.mark.parametrize("policy", CLOCK_POLICIES)
@pytest.mark.parametrize("name", CLOCK_STRATEGIES)
def test_schedule_equals_a_round_by_round_replay(name, policy, sigma):
    # An infinite delay starves naive and the two-stage naive stage, and
    # is within every other strategy's tolerance. Without jitter, the
    # equal partitions of 1200 rows make arrival ties.
    strategy = CLOCK_STRATEGIES[name]()
    policy = sim.StragglerPolicy(**CLOCK_POLICIES[policy])
    latency = sim.LatencyModel(compute_time_per_partition=0.3, comm_time=0.05,
                               jitter_sigma=sigma)
    ds, _ = learn.gen_synthetic(make_rng(3), 1200, 2)
    train = learn.with_partitions(ds, strategy.partition_count)
    args = (strategy, train, latency, policy, SEEDS, 25)
    try:
        rounds = _replay_clock(*args)
    except StarvedIteration as starved:
        with pytest.raises(StarvedIteration, match=f"^{starved}$"):
            sim.schedule(*args)
        return
    clock = sim.schedule(*args)
    assert clock.finish.shape == (25, len(strategy.index), strategy.n)
    assert np.array_equal(clock.finish, np.array([finish for finish, _, _ in rounds]))
    assert clock.durations.tolist() == [duration for _, duration, _ in rounds]
    assert [tuple(row) for row in clock.survivors.tolist()] == [
        survivors for _, _, survivors in rounds
    ]
    if sigma is None and policy.mode == "none":
        assert clock.survivors.tolist() == [list(range(strategy.n - strategy.s))] * 25


@pytest.mark.parametrize("seed", [0, 5, 41])
@pytest.mark.parametrize("rounds, n", [(1, 1), (7, 3), (100, 24), (3, 1001)])
def test_one_jitter_draw_equals_a_draw_per_round(seed, rounds, n):
    # sim.schedule draws a run's jitter at once. That one (T, n) draw
    # fills its rows as T draws of n would, bit for bit, is how numpy's
    # PCG64 normal sampler consumes its stream, not a documented
    # guarantee: it was checked on numpy 2.4.6.
    batched = make_rng(seed).standard_normal((rounds, n))
    rng = make_rng(seed)
    assert np.array_equal(batched, [rng.standard_normal(n) for _ in range(rounds)])


@pytest.mark.parametrize("make, policy, latency, error", [
    (lambda: sim.Naive(4), dict(mode="fixed", workers=(1,), extra=math.inf), sim.LatencyModel(),
     StarvedIteration),
    (lambda: sim.PartialCoded(partial.plan_partial(4, 1, 2.0, kind=codec.FRAC)),
     dict(mode="random", count=1, extra=math.inf), sim.LatencyModel(), StarvedIteration),
    (lambda: sim.Naive(4), dict(), sim.LatencyModel(jitter_sigma=300.0), NonFinite),
], ids=["starved_naive", "starved_partial", "overflow"])
def test_a_clock_that_cannot_run_fails_before_any_gradient(monkeypatch, make, policy, latency,
                                                           error):
    calls = []
    monkeypatch.setattr(learn, "partition_gradients", lambda *args: calls.append(args))
    cfg = small_config(make(), d=960, iterations=100, latency=latency,
                       policy=sim.StragglerPolicy(kind="delay", **policy))
    with pytest.raises(error):
        sim.run_training(cfg)
    assert calls == []


def test_an_overflowing_clock_names_its_first_round():
    # exp(300 Z) overflows once Z > 2.37, which these seeds first draw in
    # the round named; no overflow warning escapes the clock.
    latency = sim.LatencyModel(jitter_sigma=300.0)
    z = make_rng(SEEDS.latency).standard_normal((100, 4))
    first = int(np.argmax((300.0 * z > np.log(np.finfo(float).max)).any(axis=1))) + 1
    assert first > 1
    with pytest.raises(NonFinite, match=f"^round {first}: .* at jitter_sigma=300.0$"):
        sim.run_training(small_config(sim.Naive(4), iterations=100, latency=latency))



@pytest.mark.parametrize("sigma", [sim.DEFAULT_JITTER_SIGMA, None], ids=["jitter", "still"])
@pytest.mark.parametrize("name", ["naive", "ignore", "frac", "partial_frac"])
def test_sim_time_is_the_running_sum_of_round_durations(name, sigma):
    # RunResult.sim_time_s is np.cumsum of the clock's durations. That
    # np.cumsum adds left to right, as a running Python sum does, is how
    # numpy iterates, not a documented guarantee: it was checked on numpy
    # 2.4.6. Over 300 rounds, the prefix sums of every case below differ
    # from the exactly rounded ones (math.fsum), whether the durations
    # vary (jitter) or repeat (still).
    latency = sim.LatencyModel(compute_time_per_partition=0.3, comm_time=0.05,
                               jitter_sigma=sigma)
    policy = sim.StragglerPolicy(mode="random", count=1, kind="delay", extra=0.7)
    cfg = small_config(CLOCK_STRATEGIES[name](), d=1200, p=2, iterations=300,
                       latency=latency, policy=policy)
    res = sim.run_training(cfg)
    elapsed, running = 0.0, []
    for duration in res.clock.durations.tolist():
        elapsed += duration
        running.append(elapsed)
    assert res.sim_time_s.tolist() == running
    assert res.total_time == running[-1]

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
    assert all(2 not in survivors for survivors in survivor_sets(res))
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
        assert survivor_sets(res) == [(0, 1, 2, 3)] * 3
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
    assert len(res.loss) == 2


# ---------------------------------------------------------------------------
# Determinism and seed separation


def test_rerun_is_bit_identical():
    policy = sim.StragglerPolicy(mode="random", count=1, kind="slowdown", alpha=2.5)
    cfg = small_config(sim.Coded(codec.build_cyc(4, 1, seed=2)), policy=policy)
    a = sim.run_training(cfg)
    b = sim.run_training(cfg)
    assert_same_series(a, b)
    assert np.array_equal(a.beta, b.beta)


def test_latency_seed_changes_times_not_model():
    cfg1 = small_config(sim.Naive(4))
    cfg2 = small_config(sim.Naive(4), seeds=sim.SeedBundle(11, 21, 99, 41))
    r1, r2 = sim.run_training(cfg1), sim.run_training(cfg2)
    assert r1.loss == r2.loss
    assert np.array_equal(r1.beta, r2.beta)
    assert r1.clock.durations.tolist() != r2.clock.durations.tolist()


def test_data_seed_changes_model():
    cfg1 = small_config(sim.Naive(4))
    cfg2 = small_config(sim.Naive(4), seeds=sim.SeedBundle(11, 22, 31, 41))
    r1, r2 = sim.run_training(cfg1), sim.run_training(cfg2)
    assert r1.loss != r2.loss


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
    have = [t for t, auc in enumerate(res.auc, 1) if auc is not None]
    assert have == [3, 6, 7]  # interval hits plus the final iteration


# ---------------------------------------------------------------------------
# Comparison and CSV export


def make_pair(iterations=12):
    runs = []
    for strat in (sim.Naive(4), sim.Coded(codec.build_frac(4, 1))):
        cfg = small_config(strat, iterations=iterations)
        runs.append(sim.run_training(cfg))
    return runs


def comparison_tables(tmp_path, cmp_):
    """The rows of the iterations and thresholds CSVs ``cmp_`` writes."""
    it_path, th_path = tmp_path / "it.csv", tmp_path / "th.csv"
    sim.write_comparison_csvs(cmp_, it_path, th_path)
    with it_path.open() as it_fh, th_path.open() as th_fh:
        return list(csv.DictReader(it_fh)), list(csv.DictReader(th_fh))


def test_compare_runs_aligns_series(tmp_path):
    runs = make_pair()
    cmp_ = sim.compare_runs(runs)
    assert cmp_.runs == tuple(runs)
    rows, trows = comparison_tables(tmp_path, cmp_)
    assert list(rows[0]) == ["iteration"] + [
        f"{label}_{column}" for label in ("naive", "frac_n4_s1")
        for column in ("sim_time_s", "loss", "auc")
    ]
    assert [int(row["iteration"]) for row in rows] == list(range(1, 13))
    for r in runs:
        assert [float(row[f"{r.label}_loss"]) for row in rows] == list(r.loss)
        assert [float(row[f"{r.label}_sim_time_s"]) for row in rows] == r.sim_time_s.tolist()
    thr = [float(row["loss_threshold"]) for row in trows]
    assert thr == [row.threshold for row in cmp_.thresholds]
    assert thr == sorted(thr, reverse=True)
    for row, threshold in zip(trows, thr):
        for r in runs:
            it, t = row[f"{r.label}_iteration"], row[f"{r.label}_sim_time_s"]
            if it == "":
                assert t == ""
            else:
                assert r.loss[int(it) - 1] <= threshold
                assert float(t) == r.sim_time_s[int(it) - 1]


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


def test_compare_single_run_degenerates(tmp_path):
    runs = make_pair()
    rows, trows = comparison_tables(tmp_path, sim.compare_runs([runs[0]]))
    assert list(rows[0]) == ["iteration", "naive_sim_time_s", "naive_loss", "naive_auc"]
    assert [float(row["naive_loss"]) for row in rows] == list(runs[0].loss)
    assert trows and all(row["naive_iteration"] != "" for row in trows)


def test_compare_pads_shorter_runs(tmp_path):
    a = sim.run_training(small_config(sim.Naive(4), iterations=8))
    b = sim.run_training(small_config(sim.Coded(codec.build_frac(4, 1)), iterations=12))
    rows, _ = comparison_tables(tmp_path, sim.compare_runs([a, b]))
    assert len(rows) == 12
    naive = [[row[f"naive_{column}"] for column in ("sim_time_s", "loss", "auc")]
             for row in rows]
    assert all(cells[:2] != ["", ""] for cells in naive[:8])
    assert naive[8:] == [["", "", ""]] * 4
    assert rows[11]["frac_n4_s1_loss"] != ""


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
    rounds = zip(res.sim_time_s.tolist(), res.loss, res.auc, survivor_sets(res))
    for t, (row, (elapsed, loss, auc, survivors)) in enumerate(zip(rows, rounds), 1):
        assert int(row["iteration"]) == t
        assert float(row["sim_time_s"]) == elapsed
        assert float(row["loss"]) == loss
        assert row["auc"] == ("" if auc is None else repr(auc))
        assert tuple(int(w) for w in row["survivors"].split(";")) == survivors
        assert row["strategy"] == "naive"


def test_comparison_csvs(tmp_path):
    cmp_ = sim.compare_runs(make_pair())
    rows, trows = comparison_tables(tmp_path, cmp_)
    assert len(rows) == 12
    assert "naive_loss" in rows[0] and "frac_n4_s1_sim_time_s" in rows[0]
    assert float(rows[3]["naive_loss"]) == cmp_.runs[0].loss[3]
    assert len(trows) == len(cmp_.thresholds) == 9
    assert float(trows[0]["loss_threshold"]) == cmp_.thresholds[0].threshold


def test_a_run_that_stops_short_misses_the_last_loss_targets(tmp_path):
    short = sim.run_training(small_config(sim.Naive(4), iterations=3))
    long = sim.run_training(small_config(sim.Coded(codec.build_frac(4, 1)), iterations=15))
    _, trows = comparison_tables(tmp_path, sim.compare_runs([short, long]))
    # Nine fixed fractions of the way from the highest first loss to the
    # lowest final loss; exact strategies share their first-round loss.
    top, bottom = max(short.loss[0], long.loss[0]), long.final_loss
    assert bottom < short.final_loss
    thr = [float(row["loss_threshold"]) for row in trows]
    assert thr == [top - k * (top - bottom) / 10 for k in range(1, 10)]
    missed = [row for row, target in zip(trows, thr) if short.final_loss > target]
    assert missed and all(
        row["naive_iteration"] == row["naive_sim_time_s"] == "" for row in missed)
    assert all(row["frac_n4_s1_iteration"] != "" for row in trows)
    for row, target in zip(trows, thr):
        for r in (short, long):
            it = row[f"{r.label}_iteration"]
            if it:
                t = int(it)
                assert r.loss[t - 1] <= target < min(r.loss[: t - 1], default=math.inf)
                assert float(row[f"{r.label}_sim_time_s"]) == r.sim_time_s[t - 1]


def test_loss_targets_skip_non_finite_losses():
    run = sim.run_training(small_config(sim.Naive(4), iterations=6))
    bad = dataclasses.replace(run, loss=(math.nan,) * 6)
    assert sim._pick_thresholds([run, bad]) == sim._pick_thresholds([run])
    assert sim._pick_thresholds([bad]) == []


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
    assert len(res.loss) == len(run.iterates) == cfg.iterations
    for loss, beta in zip(res.loss, run.iterates):
        want = learn.log_loss(data.train, beta)
        if method == learn.GD_DECAY:
            assert loss == want
        else:
            # NAG's loss comes from carried logits: exact up to rounding.
            assert abs(loss - want) <= 1e-13 * abs(want)


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
    assert len(res.loss) == len(run.iterates) == 40
    for loss, beta in zip(res.loss, run.iterates):
        want = learn.log_loss(data.train, beta)
        if method == learn.GD_DECAY:
            assert loss == want
        else:
            assert abs(loss - want) <= 1e-13 * abs(want)


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
    assert len(res.loss) == 12
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
    assert len(calls) == len(res.loss) == 7
    assert all(train.partitions == 4 for train in calls)


@pytest.mark.parametrize("make", [
    lambda: sim.IgnoreStragglers(4, 1),
    lambda: sim.PartialCoded(partial.plan_partial(4, 1, 2.0, kind=codec.FRAC)),
], ids=["ignore", "partial"])
def test_a_run_reads_only_the_gradient_of_each_round(monkeypatch, make):
    # The rest of run_iteration's result copies the clock for observers;
    # the run's series come from the clock itself.
    policy = sim.StragglerPolicy(mode="random", count=1, kind="delay", extra=5.0)
    cfg = small_config(make(), d=960, iterations=20, auc_interval=3, policy=policy)
    want = sim.run_training(cfg)
    run_iteration = sim.run_iteration
    monkeypatch.setattr(
        sim, "run_iteration", lambda *args: (run_iteration(*args)[0], None, None, None, None)
    )
    got = sim.run_training(cfg)
    assert_same_series(got, want)
    assert np.array_equal(got.beta, want.beta)
