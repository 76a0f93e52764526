"""Scheme construction, decoding, verification, and serialization.

Oracles are independent of the code paths they check:

* decodability of a survivor set is cross-checked by a rank test
  (all-ones lies in the row span iff appending it leaves rank equal),
  never by re-running the solver;
* cyclic rows are checked against the Gaussian matrix H rebuilt from
  the recorded seed;
* recovery is checked against a column sum of a random partial-gradient
  matrix that exists before any decoding happens;
* the one fully worked 3-worker scheme and its three decode rows were
  derived by hand and are frozen below.
"""

from __future__ import annotations

import json
import math
from itertools import combinations

import numpy as np
import pytest

from gradcode import codec
from gradcode.errors import (
    BudgetExceeded,
    ConfigError,
    DimensionMismatch,
    DivisibilityError,
    IndexOutOfRange,
    NonFinite,
    ParseError,
    RetryExhausted,
    SpanFailure,
)
from gradcode.numerics import RESIDUAL_TOL, make_rng

# Three workers, one tolerated straggler, real coefficients. Any two
# rows combine to the all-ones row with the frozen coefficients below.
B3 = np.array([[0.5, 1.0, 0.0], [0.0, 1.0, -1.0], [0.5, 0.0, 1.0]])
B3_DECODE = {
    (0, 1): (2.0, -1.0),
    (0, 2): (1.0, 1.0),
    (1, 2): (1.0, 2.0),
}

# Row densities match a frac header (s=1) but two partitions live on a
# single worker, so losing worker 3 is unrecoverable.
B_COLUMN_DEFICIENT = [
    [1.0, 1.0, 0.0, 0.0],
    [1.0, 1.0, 0.0, 0.0],
    [1.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 1.0],
]

# Four workers' rows over three partitions: a scheme file with k=3, n=4.
B_FOUR_BY_THREE = [
    [1.0, 1.0, 0.0],
    [0.0, 1.0, 1.0],
    [1.0, 0.0, 1.0],
    [1.0, 1.0, 0.0],
]
K_MISMATCH_MESSAGE = (
    "scheme violates its invariants: partition count k=3 must equal worker count n=4"
)


def spans_all_ones(B_I: np.ndarray) -> bool:
    """Rank-based oracle: is the all-ones row in the span of B_I's rows?"""
    ones = np.ones((1, B_I.shape[1]))
    return np.linalg.matrix_rank(B_I) == np.linalg.matrix_rank(np.vstack([B_I, ones]))


def brute_force_bspan(B: np.ndarray, s: int) -> list[tuple[int, ...]]:
    n = B.shape[0]
    return [
        I
        for I in combinations(range(n), n - s)
        if not spans_all_ones(B[list(I), :])
    ]


def test_worked_example_decodes_to_frozen_coefficients():
    code = codec.GradientCode(codec.CYC, 3, 1, B3)
    for I, expect in B3_DECODE.items():
        row = codec.decode_row(code, I)
        assert row.residual < 1e-12
        np.testing.assert_allclose(row.coeffs, expect, atol=1e-12)
        np.testing.assert_allclose(row.coeffs @ B3[list(I), :], np.ones(3), atol=1e-12)


def test_decode_is_the_same_bits_for_any_order_of_the_survivors():
    code = codec.build_frac(4, 1)
    first = codec.decode_row(code, (2, 0, 1))
    again = codec.decode_row(code, (1, 2, 0))
    assert first.survivors == again.survivors == (0, 1, 2)
    assert first.coeffs.tobytes() == again.coeffs.tobytes()


def test_decode_survivor_validation():
    code = codec.build_frac(4, 1)
    with pytest.raises(DimensionMismatch):
        codec.decode_row(code, (0, 1))  # too few
    with pytest.raises(DimensionMismatch):
        codec.decode_row(code, (0, 1, 2, 3))  # too many
    with pytest.raises(DimensionMismatch):
        codec.decode_row(code, (0, 1, 1))
    with pytest.raises(IndexOutOfRange):
        codec.decode_row(code, (0, 1, 4))


def test_build_frac_layout():
    code = codec.build_frac(6, 2)
    # Three replicas of two disjoint blocks, round-robin over workers.
    for w in (0, 2, 4):
        assert codec.assignment(code, w) == [0, 1, 2]
    for w in (1, 3, 5):
        assert codec.assignment(code, w) == [3, 4, 5]
    assert np.all((code.B == 0) | (code.B == 1))


def test_build_frac_divisibility():
    with pytest.raises(DivisibilityError):
        codec.build_frac(5, 1)
    with pytest.raises(DimensionMismatch):
        codec.build_frac(4, 0)
    with pytest.raises(DimensionMismatch):
        codec.build_frac(4, 4)


@pytest.mark.parametrize("n,s", [(4, 1), (6, 1), (6, 2), (8, 3), (9, 2), (12, 2)])
def test_frac_zero_one_decode_exists(n, s):
    # Constructive oracle: after any s losses each block keeps a holder,
    # and picking one holder per block with coefficient 1 sums to the
    # all-ones row exactly. Checks the layout, not the solver.
    code = codec.build_frac(n, s)
    groups = n // (s + 1)
    rng = make_rng(n * 31 + s)
    for _ in range(20):
        lost = set(rng.choice(n, size=s, replace=False).tolist())
        survivors = [w for w in range(n) if w not in lost]
        picks = []
        for g in range(groups):
            holders = [w for w in survivors if w % groups == g]
            assert holders, "a block lost all of its s+1 replicas"
            picks.append(holders[0])
        combo = code.B[picks, :].sum(axis=0)
        np.testing.assert_array_equal(combo, np.ones(n))


@pytest.mark.parametrize("n,s", [(2, 1), (4, 1), (5, 2), (6, 2), (8, 3), (10, 4), (12, 2)])
def test_cyc_rows_annihilate_reconstructed_h(n, s):
    code = codec.build_cyc(n, s, seed=1000 + n * 10 + s)
    assert code.h_seed is not None
    H = make_rng(code.h_seed).standard_normal((s, n))
    H[:, n - 1] = -np.sum(H[:, : n - 1], axis=1)
    assert float(np.max(np.abs(H @ code.B.T))) < 1e-8
    for i in range(n):
        assert code.B[i, i] == 1.0
        assert codec.assignment(code, i) == sorted((i + t) % n for t in range(s + 1))


def test_build_cyc_deterministic_per_seed():
    a = codec.build_cyc(7, 2, seed=5)
    b = codec.build_cyc(7, 2, seed=5)
    c = codec.build_cyc(7, 2, seed=6)
    assert np.array_equal(a.B, b.B)
    assert a.h_seed == b.h_seed
    assert not np.array_equal(a.B, c.B)


def test_build_cyc_needs_a_seed():
    with pytest.raises(ConfigError, match="needs an explicit seed"):
        codec.build_cyc(4, 1, None)


def test_build_cyc_gives_up_after_its_draw_budget(monkeypatch):
    # Equal rows that vanish on columns 1..s: row 0's support cannot
    # reach H[:, 0] from them, whatever the seed.
    seeds = []

    def rank_one(n, s, h_seed):
        seeds.append(h_seed)
        return np.tile(np.r_[1.0, np.zeros(n - 2), -1.0], (s, 1))

    monkeypatch.setattr(codec, "cyc_h_matrix", rank_one)
    with pytest.raises(RetryExhausted, match="in 5 attempts starting at seed 7"):
        codec.build_cyc(6, 2, seed=7)
    assert seeds == list(range(7, 7 + codec.MAX_CONSTRUCTION_DRAWS))


@pytest.mark.parametrize("above_scaled_tol, builds", [(False, True), (True, False)])
def test_cyc_rows_judge_the_solve_residual_by_the_scaled_rule(
    monkeypatch, above_scaled_tol, builds
):
    # The solver returns the true coefficients with a made-up residual,
    # so only the acceptance rule decides. The unscaled RESIDUAL_TOL
    # would reject both residuals; RESIDUAL_TOL * max|H| accepts the
    # lower one.
    n, s = 6, 2
    H = codec.cyc_h_matrix(n, s, 3)
    scale = float(np.max(np.abs(H)))
    assert scale > 1.5
    residual = RESIDUAL_TOL * (2 * scale if above_scaled_tol else (1 + scale) / 2)
    assert residual > RESIDUAL_TOL

    def reported(M, target):
        return np.linalg.solve(M.T, target), residual

    monkeypatch.setattr(codec, "cyc_h_matrix", lambda n, s, h_seed: H)
    monkeypatch.setattr(codec, "solve_right", reported)
    if builds:
        code = codec.build_cyc(n, s, seed=3)
        assert code.h_seed == 3
        assert float(np.max(np.abs(H @ code.B.T))) < 1e-12 * scale
    else:
        with pytest.raises(RetryExhausted, match="null-space residual"):
            codec.build_cyc(n, s, seed=3)


@pytest.mark.parametrize("n,s", [(4, 1), (6, 2), (8, 3)])
def test_frac_decode_splits_each_block_over_its_surviving_holders(n, s):
    # decode_row returns the minimum-norm row, which gives each of the h
    # surviving holders of a block the coefficient 1/h.
    code = codec.build_frac(n, s)
    groups = n // (s + 1)
    for I in combinations(range(n), n - s):
        holders = [sum(1 for v in I if v % groups == w % groups) for w in I]
        row = codec.decode_row(code, I)
        np.testing.assert_allclose(row.coeffs, 1.0 / np.array(holders), rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "make,args",
    [
        (codec.build_frac, (6, 2)),
        (codec.build_frac, (9, 2)),
        (codec.build_cyc, (6, 2, 11)),
        (codec.build_cyc, (7, 3, 12)),
    ],
)
def test_verify_bspan_matches_rank_oracle(make, args):
    code = make(*args)
    report = codec.verify_bspan(code)
    assert report.ok
    assert report.checked == math.comb(code.n, code.s)
    assert report.max_residual < 1e-8
    assert brute_force_bspan(code.B, code.s) == []


def test_column_deficient_matrix_fails_exactly_where_oracle_says():
    B = np.array(B_COLUMN_DEFICIENT)
    code = codec.GradientCode(codec.FRAC, 4, 1, B)
    report = codec.verify_bspan(code)
    assert not report.ok
    assert report.checked == 4
    assert report.failures == ((0, 1, 2),)
    assert brute_force_bspan(B, 1) == [(0, 1, 2)]
    with pytest.raises(SpanFailure) as exc:
        codec.decode_row(code, (0, 1, 2))
    assert exc.value.survivors == (0, 1, 2)


def test_span_verdict_judges_by_the_residual_tolerance_itself():
    # This draw's worst survivor sets leave lstsq residuals of about 3.4e-8
    # and 1.2e-8: over RESIDUAL_TOL, but within ten times it, so a verdict
    # judged by a looser threshold passes the code. The count of failing
    # sets is not pinned: the 1.2e-8 set may pass on another BLAS build.
    code = codec.build_cyc(19, 3, 6)
    report = codec.verify_bspan(code)
    assert not report.ok
    assert RESIDUAL_TOL < report.max_residual < 10 * RESIDUAL_TOL
    for I in report.failures:
        with pytest.raises(SpanFailure):
            codec.decode_row(code, I)


def test_verify_budget():
    code = codec.build_frac(12, 2)
    with pytest.raises(BudgetExceeded):
        codec.verify_bspan(code, budget=10)
    # The budget is keyword-only, so no positional number is taken for one.
    with pytest.raises(TypeError):
        codec.verify_bspan(code, 10)


@pytest.mark.parametrize(
    "code,bound",
    [
        (codec.build_frac(4, 1), 2),
        (codec.build_frac(6, 2), 3),
        (codec.build_cyc(5, 2, 3), 3),
        (codec.build_cyc(10, 4, 4), 5),
    ],
)
def test_every_row_and_column_holds_s_plus_1_nonzeros(code, bound):
    # The paper's bound ceil(k(s+1)/n) with k = n partitions, met with
    # equality by every worker's row and every partition's column.
    assert code.B.shape == (code.n, code.n)
    assert bound == code.s + 1 == -(-code.n * (code.s + 1) // code.n)
    assert np.count_nonzero(code.B, axis=1).tolist() == [bound] * code.n
    assert np.count_nonzero(code.B, axis=0).tolist() == [bound] * code.n
    # A row with s or with s + 2 non-zeros is refused.
    held, free = np.flatnonzero(code.B[0]), np.flatnonzero(code.B[0] == 0)
    for col, value in ((held[0], 0.0), (free[0], 1.0)):
        B = code.B.copy()
        B[0, col] = value
        with pytest.raises(DimensionMismatch, match="non-zero"):
            codec.GradientCode(code.kind, code.n, code.s, B, h_seed=code.h_seed)


def test_assignment_range_check():
    code = codec.build_frac(6, 2)
    with pytest.raises(IndexOutOfRange):
        codec.assignment(code, 6)
    with pytest.raises(IndexOutOfRange):
        codec.assignment(code, -1)


@pytest.mark.parametrize("seed", range(6))
def test_recovery_from_random_partial_gradients(seed):
    # Independent oracle: the column sum of G exists before decoding.
    rng = make_rng(200 + seed)
    n, s = 9, 2
    code = codec.build_cyc(n, s, seed=300 + seed) if seed % 2 else codec.build_frac(n, s)
    G = rng.standard_normal((n, 13))
    total = G.sum(axis=0)
    lost = rng.choice(n, size=s, replace=False)
    I = tuple(sorted(set(range(n)) - set(lost.tolist())))
    row = codec.decode_row(code, I)
    messages = code.B[list(I), :] @ G
    recovered = row.coeffs @ messages
    err = float(np.max(np.abs(recovered - total))) / max(1.0, float(np.max(np.abs(total))))
    assert err < 1e-6


def test_invariant_validation_at_construction(tmp_path):
    # The uncoded baseline (B = I, s = 0) is the simulator's Naive, not a code.
    with pytest.raises(DimensionMismatch, match="unknown scheme kind 'naive'"):
        codec.GradientCode("naive", 3, 1, np.eye(3))
    with pytest.raises(DimensionMismatch, match="need 1 <= s < n"):
        codec.GradientCode(codec.FRAC, 3, 0, np.eye(3))
    with pytest.raises(DimensionMismatch):
        codec.GradientCode(codec.CYC, 3, 1, np.array(B_COLUMN_DEFICIENT)[:3, :3])
    with pytest.raises(DimensionMismatch, match=r"expected \(4, 4\)"):
        codec.GradientCode(codec.FRAC, 4, 1, np.array(B_FOUR_BY_THREE))  # B must be n x n
    # A file's partition count k must equal n.
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(
        {"version": 1, "kind": "frac", "n": 4, "k": 3, "s": 1, "B": B_FOUR_BY_THREE}
    ))
    with pytest.raises(ParseError) as exc:
        codec.import_code(path)
    assert str(exc.value) == K_MISMATCH_MESSAGE
    bad_density = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    with pytest.raises(DimensionMismatch):
        codec.GradientCode(codec.FRAC, 3, 1, bad_density)


def test_code_matrix_is_read_only():
    code = codec.build_frac(4, 1)
    with pytest.raises(ValueError):
        code.B[0, 0] = 5.0


def test_export_import_round_trip(tmp_path):
    for code in (codec.build_frac(6, 2), codec.build_cyc(7, 3, 21)):
        path = tmp_path / f"{code.kind}.json"
        codec.export_code(code, path)
        loaded = codec.import_code(path)
        assert (loaded.kind, loaded.n, loaded.s, loaded.h_seed) == (
            code.kind,
            code.n,
            code.s,
            code.h_seed,
        )
        assert json.loads(path.read_text())["k"] == code.n
        assert np.array_equal(loaded.B, code.B)
        # Re-export must be byte-identical: float text round-trips.
        codec.export_code(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_text() == path.read_text()


def test_scheme_file_field_order(tmp_path):
    path = tmp_path / "scheme.json"
    codec.export_code(codec.build_cyc(5, 2, 9), path)
    pairs = json.loads(path.read_text(), object_pairs_hook=lambda p: p)
    assert [k for k, _ in pairs] == ["version", "kind", "n", "k", "s", "h_seed", "B"]
    codec.export_code(codec.build_frac(4, 1), path)
    pairs = json.loads(path.read_text(), object_pairs_hook=lambda p: p)
    assert [k for k, _ in pairs] == ["version", "kind", "n", "k", "s", "B"]


def test_import_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.json"

    def dump(obj):
        path.write_text(json.dumps(obj))
        return path

    good = codec.code_to_dict(codec.build_frac(4, 1))
    with pytest.raises(ParseError, match="not valid JSON"):
        path.write_text("{nope")
        codec.import_code(path)
    with pytest.raises(ParseError, match="unknown fields"):
        codec.import_code(dump({**good, "surprise": 1}))
    with pytest.raises(ParseError, match="missing fields"):
        codec.import_code(dump({k: v for k, v in good.items() if k != "s"}))
    with pytest.raises(ParseError, match="version"):
        codec.import_code(dump({**good, "version": 2}))
    with pytest.raises(ParseError, match="kind"):
        codec.import_code(dump({**good, "kind": "rs"}))
    with pytest.raises(ParseError, match="integer"):
        codec.import_code(dump({**good, "n": "4"}))
    with pytest.raises(ParseError, match="row 0"):
        codec.import_code(dump({**good, "B": [["x", 1, 0, 0]] + good["B"][1:]}))
    # Header says one straggler (density 2) but a row has a single non-zero.
    broken = [row[:] for row in good["B"]]
    broken[2] = [1.0, 0.0, 0.0, 0.0]
    with pytest.raises(ParseError, match="invariants"):
        codec.import_code(dump({**good, "B": broken}))
    with pytest.raises(ParseError, match="cannot read"):
        codec.import_code(tmp_path / "missing.json")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_B_is_refused_where_it_enters(tmp_path, bad):
    # The solver trusts the codec's arrays, so a code refuses them when
    # it is built or read, before any solve.
    B = codec.build_frac(4, 1).B.copy()
    B[2, 1] = bad
    with pytest.raises(NonFinite, match="non-finite"):
        codec.GradientCode(codec.FRAC, 4, 1, B)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**codec.code_to_dict(codec.build_frac(4, 1)), "B": B.tolist()}))
    with pytest.raises(ParseError, match="non-finite"):
        codec.import_code(path)


def test_import_accepts_column_deficient_but_valid_rows(tmp_path):
    # Densities satisfy the header, so import succeeds; only the
    # exhaustive span check can catch the weak column.
    raw = {
        "version": 1,
        "kind": "frac",
        "n": 4,
        "k": 4,
        "s": 1,
        "B": B_COLUMN_DEFICIENT,
    }
    path = tmp_path / "sneaky.json"
    path.write_text(json.dumps(raw))
    code = codec.import_code(path)
    assert not codec.verify_bspan(code).ok


# ---------------------------------------------------------------------------
# H reconstruction and the column-independence property


def test_cyc_h_matrix_rows_sum_to_zero():
    H = codec.cyc_h_matrix(9, 3, h_seed=17)
    assert H.shape == (3, 9)
    assert np.max(np.abs(H.sum(axis=1))) < 1e-12


def test_cyc_h_matrix_annihilates_built_rows():
    code = codec.build_cyc(8, 2, seed=4)
    H = codec.cyc_h_matrix(8, 2, code.h_seed)
    scale = max(1.0, float(np.max(np.abs(H))))
    assert float(np.max(np.abs(H @ code.B.T))) < 1e-8 * scale


@pytest.mark.parametrize("n,s", [(6, 2), (9, 3), (12, 3)])
def test_mds_check_accepts_recorded_draws(n, s):
    code = codec.build_cyc(n, s, seed=1)
    report = codec.mds_check(codec.cyc_h_matrix(n, s, code.h_seed))
    assert report.ok
    assert report.checked == math.comb(n, s)
    assert report.failures == ()
    assert report.min_singular > 1e-8


def test_mds_check_flags_dependent_columns():
    H = codec.cyc_h_matrix(6, 2, h_seed=3).copy()
    H[:, 4] = 2.5 * H[:, 1]
    report = codec.mds_check(H)
    assert not report.ok
    assert (1, 4) in report.failures
    # determinant oracle for the flagged 2x2 submatrix
    det = H[0, 1] * H[1, 4] - H[0, 4] * H[1, 1]
    assert abs(det) < 1e-12


def test_mds_check_validation():
    with pytest.raises(DimensionMismatch):
        codec.mds_check(np.ones(5))
    with pytest.raises(DimensionMismatch):
        codec.mds_check(np.ones((3, 3)))
    with pytest.raises(NonFinite):
        codec.mds_check(np.array([[1.0, np.nan, 2.0]]))
    with pytest.raises(BudgetExceeded):
        codec.mds_check(np.ones((10, 40)), budget=100)
