"""Solver and RNG contracts.

Expected values come from independent constructions: round-trip targets
are built from a known solution before the solver sees them, and the
one hardcoded coefficient pair was derived by hand from the 2x3 system
(x1/2, x1 + x2, -x2) = (1, 1, 1).
"""

from __future__ import annotations

import numpy as np
import pytest

from gradcode.numerics import RESIDUAL_TOL, make_rng, solve_right


def test_solve_right_known_coefficients():
    M = np.array([[0.5, 1.0, 0.0], [0.0, 1.0, -1.0]])
    x, res = solve_right(M, np.ones(3))
    assert res < 1e-12
    np.testing.assert_allclose(x, [2.0, -1.0], atol=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_solve_right_round_trip(seed):
    rng = make_rng(seed)
    rows = int(rng.integers(1, 7))
    cols = int(rng.integers(rows, rows + 6))
    M = rng.standard_normal((rows, cols))
    x0 = rng.standard_normal(rows)
    target = x0 @ M
    x, res = solve_right(M, target)
    assert res < RESIDUAL_TOL
    # Random Gaussian M has full row rank, so the solution is unique.
    np.testing.assert_allclose(x, x0, atol=1e-8)


def test_solve_right_reports_inconsistency_without_raising():
    M = np.array([[1.0, 0.0], [1.0, 0.0]])
    x, res = solve_right(M, np.array([0.0, 1.0]))
    assert res == pytest.approx(1.0)
    assert np.all(np.isfinite(x))


@pytest.mark.parametrize("seed", range(8))
def test_solve_left_square_round_trip(seed):
    # A left system M @ y = target is solve_right of the transpose.
    rng = make_rng(100 + seed)
    m = int(rng.integers(1, 8))
    M = rng.standard_normal((m, m))
    y0 = rng.standard_normal(m)
    y, res = solve_right(M.T, M @ y0)
    assert res < RESIDUAL_TOL
    np.testing.assert_allclose(y, y0, atol=1e-7)


def test_make_rng_is_deterministic():
    a = make_rng(42).standard_normal(16)
    b = make_rng(42).standard_normal(16)
    c = make_rng(43).standard_normal(16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
