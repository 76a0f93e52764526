"""Two-stage planner arithmetic and serialization.

The rounding and timing claims are checked against exact rational
arithmetic (fractions.Fraction) so no float artifact can fake a pass:
for alpha = 1 + (s+1)/r the ratio (s+1)/(alpha-1) equals r exactly and
the slow worker's naive stage must end precisely when a fast worker's
full iteration does.
"""

from __future__ import annotations

import dataclasses
import json
import math
from fractions import Fraction

import pytest

from gradcode import codec, partial
from gradcode.errors import (
    BudgetExceeded,
    ConfigError,
    DimensionMismatch,
    DivisibilityError,
    InvalidAlpha,
    ParseError,
)


def exact_ratio(s: int, alpha: Fraction) -> Fraction:
    return Fraction(s + 1) / (alpha - 1)


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("r", [1, 2, 3, 5, 15])
def test_integral_ratio_plans_exactly_r(s, r):
    alpha_exact = 1 + Fraction(s + 1, r)
    alpha = float(alpha_exact)
    assert exact_ratio(s, alpha_exact) == r
    n = (s + 1) * 2
    plan = partial.plan_partial(n, s, alpha)
    assert plan.naive_per_worker == r
    # Exact oracle: alpha * r == r + s + 1 as rationals.
    assert alpha_exact * r == r + s + 1
    assert abs(partial.timing_slack(plan)) < 1e-9
    assert plan.total_partitions == n + n * r


@pytest.mark.parametrize(
    "s,alpha_exact,expect_r",
    [
        (2, Fraction(17, 10), 5),  # ratio 30/7, rounds up
        (1, Fraction(5, 1), 1),  # ratio 1/2, rounds up to one partition
        (2, Fraction(5, 2), 2),  # ratio 2 exactly
        (3, Fraction(13, 10), 14),  # ratio 40/3, rounds up
    ],
)
def test_rounding_matches_exact_ceiling(s, alpha_exact, expect_r):
    assert math.ceil(exact_ratio(s, alpha_exact)) == expect_r
    assert partial.naive_partition_count(s, float(alpha_exact)) == expect_r


@pytest.mark.parametrize("num,den", [(3, 2), (7, 4), (11, 10), (2, 1), (9, 5), (13, 4)])
@pytest.mark.parametrize("s", [1, 2, 4])
def test_timing_slack_bounds(num, den, s):
    alpha_exact = Fraction(num, den)
    n = (s + 1) * 2
    plan = partial.plan_partial(n, s, float(alpha_exact))
    r = plan.naive_per_worker
    # Exact-arithmetic invariant: 0 <= alpha r - (r + s + 1) < alpha - 1.
    slack_exact = alpha_exact * r - (r + s + 1)
    assert 0 <= slack_exact < alpha_exact - 1
    assert partial.timing_slack(plan) == pytest.approx(float(slack_exact), abs=1e-9)


def test_worked_plan_three_workers():
    # (s+1) does not divide 3, so stage two must be the cyclic code.
    plan = partial.plan_partial(3, 1, 2.0, kind=codec.CYC, seed=5)
    assert plan.naive_per_worker == 2
    assert plan.naive_stage.shape == (3, 2)
    assert plan.naive_stage.size == 6
    assert plan.total_partitions - plan.naive_stage.size == 3
    assert plan.total_partitions == 9
    assert plan.naive_stage.tolist() == [[0, 1], [2, 3], [4, 5]]
    # Every naive partition is owned exactly once.
    flat = [i for row in plan.naive_stage.tolist() for i in row]
    assert sorted(flat) == list(range(6))
    assert partial.load_fraction(3, 1, 2.0) == pytest.approx(4 / 9)
    assert partial.realized_load_fraction(plan) == pytest.approx(4 / 9)


def test_load_fraction_frozen_values():
    # (s+1) alpha / (n (s + alpha)) at the documented operating point.
    assert partial.load_fraction(12, 2, 1.2) == pytest.approx(3.6 / 38.4)
    assert partial.load_fraction(12, 2, 1.2) * 12 - 1 == pytest.approx(0.125)
    f = partial.load_fraction(6, 2, 1.5)
    plan = partial.plan_partial(6, 2, 1.5)
    assert plan.total_partitions == 42
    assert partial.realized_load_fraction(plan) == pytest.approx(f)


def test_realized_fraction_within_one_partition_when_rounding():
    # Rounding r up grows the naive pie while the coded slice stays
    # s + 1 partitions, so the realized share dips slightly below the
    # ideal formula, by less than one partition's worth of data.
    plan = partial.plan_partial(6, 2, 1.7)
    f = partial.load_fraction(6, 2, 1.7)
    realized = partial.realized_load_fraction(plan)
    assert realized <= f + 1e-12
    assert f - realized < 1.0 / plan.total_partitions


def test_alpha_validation():
    for bad in (1.0, 0.5, 0.0, -2.0, float("inf"), float("nan")):
        with pytest.raises(InvalidAlpha):
            partial.plan_partial(4, 1, bad)
        with pytest.raises(InvalidAlpha):
            partial.load_fraction(4, 1, bad)


def test_stage_two_kind_handling():
    with pytest.raises(DivisibilityError):
        partial.plan_partial(5, 1, 2.0, kind=codec.FRAC)
    plan = partial.plan_partial(5, 1, 2.0, kind=codec.CYC, seed=17)
    assert plan.code.kind == codec.CYC
    assert plan.code.h_seed == 17
    with pytest.raises(ConfigError):
        partial.plan_partial(5, 1, 2.0, kind=codec.CYC)  # no seed
    with pytest.raises(ConfigError):
        partial.plan_partial(4, 1, 2.0, kind="naive")
    with pytest.raises(DimensionMismatch):
        partial.plan_partial(4, 0, 2.0)


def test_naive_stage_two_code_gets_the_kind_message():
    # There is no naive code; the planner names the kind it refuses.
    with pytest.raises(ConfigError, match="stage-two kind must be 'frac' or 'cyc', got 'naive'"):
        partial.plan_partial(4, 1, 2.0, kind="naive")


NEAR_ONE = 1.0000000001  # r = ceil(2 / 1e-10): about 2e10 naive partitions a worker
BUDGET_MESSAGE = "gives 79999993380 naive partitions, more than the budget of 1000000"


def test_a_naive_stage_over_the_budget_is_refused_before_it_is_laid_out():
    # Neither lays out the naive stage, which would not fit in memory.
    with pytest.raises(BudgetExceeded, match=BUDGET_MESSAGE):
        partial.TwoStagePlan(NEAR_ONE, codec.build_frac(4, 1))
    with pytest.raises(BudgetExceeded, match=BUDGET_MESSAGE):
        partial.plan_partial(4, 1, NEAR_ONE)


def test_a_naive_stage_of_exactly_the_budget_builds():
    # (s+1)/(alpha-1) snaps to r = 250,000, so n*r is the budget itself.
    plan = partial.TwoStagePlan(1 + 2 / 250000, codec.build_frac(4, 1))
    assert plan.naive_stage.shape == (4, 250000)
    assert plan.naive_stage.size == codec.DEFAULT_ENUMERATION_BUDGET
    assert plan.total_partitions == codec.DEFAULT_ENUMERATION_BUDGET + 4
    with pytest.raises(BudgetExceeded, match="1000004 naive partitions"):
        partial.TwoStagePlan(1 + 2 / 250001, codec.build_frac(4, 1))


def test_plan_export_import_round_trip(tmp_path):
    for plan in (
        partial.plan_partial(6, 2, 1.5),
        partial.plan_partial(5, 2, 2.5, kind=codec.CYC, seed=9),
    ):
        path = tmp_path / f"{plan.code.kind}.json"
        partial.export_plan(plan, path)
        loaded = partial.import_plan(path)
        assert (loaded.n, loaded.s, loaded.alpha) == (plan.n, plan.s, plan.alpha)
        assert loaded.naive_per_worker == plan.naive_per_worker
        assert loaded.naive_stage.tolist() == plan.naive_stage.tolist()
        assert loaded.code.kind == plan.code.kind
        assert loaded.code.h_seed == plan.code.h_seed
        import numpy as np

        assert np.array_equal(loaded.code.B, plan.code.B)
        partial.export_plan(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_text() == path.read_text()


def test_plan_holds_only_alpha_and_code(tmp_path):
    assert [f.name for f in dataclasses.fields(partial.TwoStagePlan)] == ["alpha", "code"]
    plan = partial.plan_partial(6, 2, 1.7, kind=codec.CYC, seed=4)
    path = tmp_path / "plan.json"
    partial.export_plan(plan, path)
    loaded = partial.import_plan(path)
    derived = ("n", "s", "naive_per_worker", "total_partitions")
    assert [getattr(loaded, name) for name in derived] == [
        getattr(plan, name) for name in derived
    ]
    assert loaded.naive_stage.tolist() == plan.naive_stage.tolist()
    assert (plan.n, plan.s, plan.naive_per_worker, plan.total_partitions) == (6, 2, 5, 36)


def test_plan_file_field_order(tmp_path):
    path = tmp_path / "plan.json"
    partial.export_plan(partial.plan_partial(4, 1, 3.0), path)
    pairs = json.loads(path.read_text(), object_pairs_hook=lambda p: p)
    assert [k for k, _ in pairs] == [
        "version",
        "kind",
        "n",
        "k",
        "s",
        "B",
        "alpha",
        "naive_per_worker",
        "naive_assignment",
    ]


def test_plan_import_rejections(tmp_path):
    plan = partial.plan_partial(4, 1, 3.0)
    path = tmp_path / "plan.json"
    partial.export_plan(plan, path)
    raw = json.loads(path.read_text())

    def dump(obj):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(obj))
        return p

    with pytest.raises(ParseError, match="missing plan fields"):
        partial.import_plan(dump({k: v for k, v in raw.items() if k != "alpha"}))
    with pytest.raises(ParseError, match="invariants"):
        partial.import_plan(dump({**raw, "naive_per_worker": raw["naive_per_worker"] + 1}))
    with pytest.raises(ParseError, match="invariants"):
        shuffled = list(reversed(raw["naive_assignment"]))
        partial.import_plan(dump({**raw, "naive_assignment": shuffled}))
    with pytest.raises(ParseError, match="invariants"):
        partial.import_plan(dump({**raw, "alpha": 1.0}))
    # alpha = 2 plans r = 2 naive partitions a worker; the file stores 1.
    with pytest.raises(ParseError, match="naive_per_worker=1 inconsistent"):
        partial.import_plan(dump({**raw, "alpha": 2.0}))
    with pytest.raises(ParseError, match="unknown fields"):
        partial.import_plan(dump({**raw, "mystery": True}))
    # The budget is checked before the stored assignment is compared.
    with pytest.raises(ParseError, match=f"invariants: alpha={NEAR_ONE} {BUDGET_MESSAGE}"):
        partial.import_plan(dump({**raw, "alpha": NEAR_ONE}))
    # A plan file is not a plain scheme file.
    with pytest.raises(ParseError, match="unknown fields"):
        codec.import_code(path)
