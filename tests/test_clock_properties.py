"""Property test of ``sim.schedule`` over random strategies and policies.

Oracle: ``tests/test_sim.py``'s round-by-round replay of the clock
(``_replay_clock``), compared bit for bit, or the same StarvedIteration.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from gradcode import codec, learn, partial, sim
from gradcode.errors import StarvedIteration
from test_sim import _replay_clock

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def strategies(draw):
    """n workers, a tolerance s and one strategy that has them; frac only
    where (s + 1) divides n."""
    n = draw(st.integers(2, 30))
    s = draw(st.integers(1, n - 1))
    kinds = ["naive", "ignore", "cyc", "partial"] + (["frac"] if n % (s + 1) == 0 else [])
    kind = draw(st.sampled_from(kinds))
    seed = draw(st.integers(0, 2**16))
    if kind == "naive":
        return sim.Naive(n)
    if kind == "ignore":
        return sim.IgnoreStragglers(n, s)
    if kind == "frac":
        return sim.Coded(codec.build_frac(n, s))
    if kind == "cyc":
        return sim.Coded(codec.build_cyc(n, s, seed))
    code = draw(st.sampled_from([codec.FRAC, codec.CYC] if n % (s + 1) == 0 else [codec.CYC]))
    alpha = draw(st.floats(1.5, 6.0))
    return sim.PartialCoded(partial.plan_partial(n, s, alpha, kind=code, seed=seed))


@st.composite
def policies(draw, n):
    """No stragglers, or fixed or random ones, delayed (for ever, too) or
    slowed down."""
    mode = draw(st.sampled_from(sim.STRAGGLER_MODES))
    if mode == "none":
        return sim.NO_STRAGGLERS
    if mode == "fixed":
        chosen = dict(workers=tuple(draw(st.lists(st.integers(0, n - 1), min_size=1,
                                                  max_size=n - 1, unique=True))))
    else:
        chosen = dict(count=draw(st.integers(1, n - 1)))
    if draw(st.booleans()):
        return sim.StragglerPolicy(mode=mode, kind="slowdown",
                                   alpha=draw(st.floats(1.01, 10.0)), **chosen)
    extra = draw(st.one_of(st.floats(0.0, 20.0), st.just(math.inf)))
    return sim.StragglerPolicy(mode=mode, kind="delay", extra=extra, **chosen)


@st.composite
def clocks(draw):
    strategy = draw(strategies())
    policy = draw(policies(strategy.n))
    sigma = draw(st.one_of(st.none(), st.just(sim.DEFAULT_JITTER_SIGMA), st.floats(1e-3, 0.5)))
    latency = sim.LatencyModel(compute_time_per_partition=draw(st.floats(1e-3, 10.0)),
                               comm_time=draw(st.floats(0.0, 1.0)), jitter_sigma=sigma)
    # Rows that no partition count divides evenly, so the last partition
    # is shorter than the others.
    k = strategy.partition_count
    rows = k * draw(st.integers(1, 4)) + draw(st.integers(1, k))
    train = learn.with_partitions(
        learn.Dataset(np.zeros((rows, 1)), np.zeros(rows), ((0, rows),)), k)
    seeds = sim.SeedBundle(data=0, latency=draw(st.integers(0, 2**32 - 1)),
                           straggler=draw(st.integers(0, 2**32 - 1)))
    return strategy, train, latency, policy, seeds, draw(st.integers(1, 12))


# Derandomized, so every run of the suite checks the same 200 clocks.
@hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
@hypothesis.given(clocks())
def test_schedule_equals_the_round_by_round_replay_on_any_clock(args):
    try:
        rounds = _replay_clock(*args)
    except StarvedIteration as starved:
        with pytest.raises(StarvedIteration, match=f"^{starved}$"):
            sim.schedule(*args)
        return
    clock = sim.schedule(*args)
    assert np.array_equal(clock.finish, np.array([finish for finish, _, _ in rounds]))
    assert clock.durations.tolist() == [duration for _, duration, _ in rounds]
    assert [tuple(row) for row in clock.survivors.tolist()] == [
        survivors for _, _, survivors in rounds
    ]
