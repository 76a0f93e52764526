"""Acceptance gate: one test per release criterion.

Each test asserts the substantive property and its wall-clock budget,
so `pytest -v` prints one pass/fail line per criterion. Tolerances are
pinned here on purpose; loosening one is a release decision, not a
test fix.
"""

import json
import math
import time
from fractions import Fraction
from itertools import combinations

import numpy as np

from gradcode import codec, learn, partial, sim
from gradcode.numerics import make_rng

# (n, s, frac_too): the coverage grid for the small-scheme suites. The
# (10, 4) pair is exercised through the cyclic construction only.
GRID = (
    (4, 1, True),
    (6, 1, True),
    (6, 2, True),
    (8, 3, True),
    (9, 2, True),
    (10, 4, False),
    (12, 2, True),
)

WEAK_B = [
    [1.0, 1.0, 0.0, 0.0],
    [1.0, 1.0, 0.0, 0.0],
    [1.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 1.0],
]


def _grid_codes():
    for n, s, frac_too in GRID:
        if frac_too:
            yield codec.build_frac(n, s)
        yield codec.build_cyc(n, s, seed=1000 + 10 * n + s)


def _rebuild_train(seeds: sim.SeedBundle, d: int, p: int, holdout_frac: float = 0.2):
    """Replay the dataset pipeline a training run performs internally."""
    data_rng = make_rng(seeds.data)
    dataset, _ = learn.gen_synthetic(data_rng, d, p)
    train, holdout = learn.holdout_split(dataset, holdout_frac, data_rng)
    return train, holdout


def _single_node_iterates(train, p: int, iterations: int) -> list[np.ndarray]:
    """Accelerated descent driven by whole-matrix gradients, no workers."""
    opt = learn.make_optimizer(
        learn.OptimizerConfig(), p, learn.lipschitz_bound(train.X)
    )
    out = []
    for _ in range(iterations):
        g = learn.full_gradient(train, opt.eval_point())
        out.append(opt.step(g).copy())
    return out


def test_criterion_1_worked_example_decode():
    t0 = time.monotonic()
    B = np.array([[0.5, 1.0, 0.0], [0.0, 1.0, -1.0], [0.5, 0.0, 1.0]])
    A = np.array([[2.0, -1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 2.0]])
    assert float(np.max(np.abs(A @ B - np.ones((3, 3))))) < 1e-12

    code = codec.GradientCode(codec.CYC, 3, 3, 1, B)
    expected = {(0, 1): (2.0, -1.0), (0, 2): (1.0, 1.0), (1, 2): (1.0, 2.0)}
    for survivors, coeffs in expected.items():
        row = codec.decode_row(code, survivors)
        assert float(np.max(np.abs(row.coeffs - np.array(coeffs)))) < 1e-12
        # Scattered back over all three workers, the row matches the
        # decoding-table row whose zero sits at the straggler.
        full = np.zeros(3)
        full[list(survivors)] = row.coeffs
        missing = ({0, 1, 2} - set(survivors)).pop()
        assert float(np.max(np.abs(full - A[2 - missing]))) < 1e-12
    assert time.monotonic() - t0 < 1.0


def test_criterion_2_exhaustive_robustness():
    t0 = time.monotonic()
    rng = make_rng(42)
    for code in _grid_codes():
        report = codec.verify_bspan(code)
        assert report.ok, (code.kind, code.n, code.s, report.failures[:3])
        assert report.checked == math.comb(code.n, code.s)
        assert report.max_residual < 1e-8

        # Recovery drill: decode random per-partition gradients from a
        # handful of random survivor sets and compare with the plain sum.
        G = rng.standard_normal((code.k, 5))
        messages = code.B @ G
        target = G.sum(axis=0)
        scale = float(np.max(np.abs(target)))
        for _ in range(5):
            picked = rng.choice(code.n, size=code.survivors_needed, replace=False)
            row = codec.decode_row(code, picked)
            recovered = row.coeffs @ messages[list(row.survivors)]
            assert float(np.max(np.abs(recovered - target))) < 1e-6 * scale
    assert time.monotonic() - t0 < 30.0


def test_criterion_3_density_equality_and_weak_scheme(tmp_path):
    t0 = time.monotonic()
    for code in _grid_codes():
        report = codec.density_check(code)
        assert report.bound == code.s + 1
        assert report.meets_bound_with_equality
        assert all(density == code.s + 1 for density in report.row_density)

    # One partition column touching only s workers: imports cleanly but
    # cannot serve every straggler pattern.
    path = tmp_path / "weak.json"
    path.write_text(
        json.dumps({"version": 1, "kind": "frac", "n": 4, "k": 4, "s": 1, "B": WEAK_B})
    )
    weak = codec.import_code(path)
    report = codec.verify_bspan(weak)
    assert not report.ok
    assert (0, 1, 2) in report.failures
    assert time.monotonic() - t0 < 5.0


def test_criterion_4_submatrix_invertibility():
    t0 = time.monotonic()
    checked = 0
    for n in range(2, 13):
        for s in range(1, min(3, n - 1) + 1):
            for seed in range(20):
                code = codec.build_cyc(n, s, seed)
                H = codec.cyc_h_matrix(n, s, code.h_seed)
                mds = codec.mds_check(H)
                assert mds.ok, (n, s, seed, mds.failures[:3])
                assert mds.checked == math.comb(n, s)

                B = code.B
                tol = 1e-8 * max(1.0, float(np.max(np.abs(B))))
                for rows in combinations(range(n), n - s):
                    rank = np.linalg.matrix_rank(B[list(rows)], tol=tol)
                    assert rank == n - s, (n, s, seed, rows)
                checked += 1
    assert checked == 600
    assert time.monotonic() - t0 < 60.0


def test_criterion_5_trajectory_equivalence(recorded):
    t0 = time.monotonic()
    d, p, iterations = 10_000, 100, 100
    codes = {
        codec.FRAC: codec.build_frac(12, 2),
        codec.CYC: codec.build_cyc(12, 2, seed=301),
    }
    train, _ = _rebuild_train(sim.SeedBundle(301, 302, 303, 304), d, p)
    reference = _single_node_iterates(train, p, iterations)

    for kind, code in codes.items():
        seen_patterns = set()
        for i in range(10):
            config = sim.TrainingConfig(
                strategy=sim.Coded(code),
                optimizer=learn.OptimizerConfig(),
                seeds=sim.SeedBundle(301, 302, 303, 304 + i),
                d=d,
                p=p,
                iterations=iterations,
                policy=sim.StragglerPolicy(
                    mode="random", count=2, kind="delay", extra=5.0
                ),
            )
            result = sim.run_training(config)
            iterates = recorded[-1].iterates
            assert len(iterates) == iterations, kind
            for ours, theirs in zip(iterates, reference):
                assert float(np.max(np.abs(ours - theirs))) < 1e-6, kind
            seen_patterns.update(map(tuple, result.clock.survivors.tolist()))
        # The straggler stream must actually vary the survivor sets.
        assert len(seen_patterns) > 1, kind
    assert time.monotonic() - t0 < 120.0


def test_criterion_6_delay_injection():
    t0 = time.monotonic()
    d, p, iterations = 2400, 20, 25
    # Deterministic timing (no jitter) so the thresholds bind exactly:
    # each worker's base compute is 1.0 per iteration.
    latency = sim.LatencyModel(1.0, 0.05, None)
    seeds = sim.SeedBundle(601, 602, 603, 604)

    def total_time(strategy, extra):
        policy = sim.NO_STRAGGLERS
        if extra > 0:
            policy = sim.StragglerPolicy(
                mode="fixed", workers=(0,), kind="delay", extra=extra
            )
        config = sim.TrainingConfig(
            strategy=strategy,
            optimizer=learn.OptimizerConfig(),
            seeds=seeds,
            d=d,
            p=p,
            iterations=iterations,
            latency=latency,
            policy=policy,
        )
        return sim.run_training(config).total_time

    extras = (1.0, 2.0, 5.0)
    baseline = total_time(sim.Naive(12), 0.0)
    for extra in extras:
        increase = total_time(sim.Naive(12), extra) - baseline
        assert increase >= 0.8 * extra * iterations

    for s in (1, 2):
        for code in (codec.build_frac(12, s), codec.build_cyc(12, s, seed=620 + s)):
            totals = [total_time(sim.Coded(code), extra) for extra in (0.0,) + extras]
            assert max(totals) - min(totals) < 0.01 * min(totals), (code.kind, s)

    overhead = partial.load_fraction(12, 2, 1.2) * 12 - 1
    assert abs(overhead - 0.125) < 1e-12
    assert partial.plan_partial(12, 2, 1.2).naive_per_worker == 15
    assert time.monotonic() - t0 < 120.0


def test_criterion_7_random_straggler_convergence():
    t0 = time.monotonic()
    code = codec.build_frac(12, 2)
    wins = 0
    for base in range(201, 206):
        seeds = sim.SeedBundle(base, base + 1, base + 2, base + 3)
        policy = sim.StragglerPolicy(mode="random", count=2, kind="delay", extra=5.0)
        coded = sim.run_training(
            sim.TrainingConfig(
                strategy=sim.Coded(code),
                optimizer=learn.OptimizerConfig(),
                seeds=seeds,
                policy=policy,
            )
        )
        ignore = sim.run_training(
            sim.TrainingConfig(
                strategy=sim.IgnoreStragglers(12, 2),
                optimizer=learn.OptimizerConfig(method=learn.GD_DECAY),
                seeds=seeds,
                policy=policy,
            )
        )
        coded_best = np.minimum.accumulate(coded.loss)
        ignore_best = np.minimum.accumulate(ignore.loss)
        # Every loss level the baseline ever reaches, the coded run has
        # already reached by the same iteration.
        assert np.all(coded_best <= ignore_best), base

        assert coded.final_auc >= ignore.final_auc - 0.005, base
        if coded.final_auc > ignore.final_auc:
            wins += 1
    assert wins >= 4
    assert time.monotonic() - t0 < 300.0


def test_criterion_8_two_stage_arithmetic():
    t0 = time.monotonic()
    plan = partial.plan_partial(3, 1, 2.0, kind=codec.CYC, seed=5)
    assert plan.total_partitions == 9
    assert partial.load_fraction(3, 1, 2.0) == 4.0 / 9.0
    assert partial.realized_load_fraction(plan) == 4.0 / 9.0

    # Whenever (s+1)/(alpha-1) is an integer r and alpha is exactly
    # representable, the plan absorbs no rounding: zero slack and
    # exactly r unreplicated partitions per worker.
    exact_cases = 0
    for s in range(1, 7):
        for r in range(1, 9):
            alpha = 1.0 + (s + 1) / r
            if Fraction(alpha) != 1 + Fraction(s + 1, r):
                continue
            plan = partial.plan_partial(2 * (s + 1), s, alpha)
            assert plan.naive_per_worker == r, (s, r)
            assert partial.timing_slack(plan) == 0.0, (s, r)
            exact_cases += 1
    assert exact_cases >= 8
    assert time.monotonic() - t0 < 5.0


def test_criterion_9_gradient_checks():
    t0 = time.monotonic()
    rng = make_rng(97)
    ds, _ = learn.gen_synthetic(rng, 200, 12)

    eps = 1e-5
    for _ in range(20):
        beta = rng.standard_normal(12)
        direction = rng.standard_normal(12)
        direction /= np.linalg.norm(direction)
        fd = (
            learn.log_loss(ds, beta + eps * direction)
            - learn.log_loss(ds, beta - eps * direction)
        ) / (2 * eps)
        slope = float(learn.full_gradient(ds, beta) @ direction)
        assert abs(fd - slope) < 1e-4 * abs(slope)

    beta = rng.standard_normal(12)
    full = learn.full_gradient(ds, beta)
    scale = float(np.max(np.abs(full)))
    for k in (1, 3, 7, 12):
        split = learn.with_partitions(ds, k)
        total = np.zeros(12)
        for j in range(k):
            total = total + learn.partial_gradient(split, j, beta)
        assert float(np.max(np.abs(total - full))) < 1e-10 * scale
    assert time.monotonic() - t0 < 10.0
