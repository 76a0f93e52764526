"""Dense linear algebra and random-number helpers.

Conventions used throughout the package:

* matrices and vectors are float64 numpy arrays;
* random numbers come from ``numpy.random.Generator`` backed by PCG64,
  created through :func:`make_rng` so the bit stream is a pure function
  of the integer seed (normal variates use numpy's ziggurat sampler);
* linear systems are solved by SVD-based least squares and judged by
  the infinity norm of the residual against a tolerance, never by
  matching floats exactly.

``RESIDUAL_TOL`` (1e-8) is the one acceptance threshold of every square
solve, decode, construction and verification step; the cyclic
construction and the MDS check scale it by their matrix's largest entry.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonFinite, SingularSystem

RESIDUAL_TOL = 1e-8


def make_rng(seed: int) -> np.random.Generator:
    """Return a PCG64 generator seeded with ``seed``.

    Identical seeds give identical streams for the lifetime of the
    package; results are bit-exact across runs on the same numpy.
    """
    return np.random.Generator(np.random.PCG64(seed))


def _check_system(M: np.ndarray, target: np.ndarray, left: bool) -> None:
    if M.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={M.ndim}")
    if M.shape[0] < 1 or M.shape[1] < 1:
        raise DimensionMismatch(f"matrix must be non-empty, got shape {M.shape}")
    if target.ndim != 1:
        raise DimensionMismatch(f"expected a vector target, got ndim={target.ndim}")
    target_len = M.shape[0] if left else M.shape[1]
    if target.shape[0] != target_len:
        raise DimensionMismatch(
            f"target length {target.shape[0]} does not match system size {target_len}"
        )
    if not np.all(np.isfinite(M)):
        raise NonFinite("matrix contains non-finite entries")
    if not np.all(np.isfinite(target)):
        raise NonFinite("target contains non-finite entries")


def residual_inf(M: np.ndarray, x: np.ndarray, target: np.ndarray, left: bool) -> float:
    """Infinity norm of the residual of x against the system."""
    r = (M @ x if left else x @ M) - target
    return float(np.max(np.abs(r))) if r.size else 0.0


def solve_right(M: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve ``x @ M = target`` for a row vector ``x`` in least squares.

    Returns ``(x, residual)`` where ``residual`` is the infinity norm of
    ``x @ M - target``. The residual is reported, not judged: callers
    decide whether it exceeds ``RESIDUAL_TOL`` (the codec raises
    SpanFailure, for example).
    """
    M = np.asarray(M, dtype=float)
    target = np.asarray(target, dtype=float)
    _check_system(M, target, left=False)
    x, *_ = np.linalg.lstsq(M.T, target, rcond=None)
    return x, residual_inf(M, x, target, left=False)


def solve_left(M: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve ``M @ y = target`` in least squares, returning ``(y, residual)``.

    For a square system a residual above ``RESIDUAL_TOL`` means the
    matrix is singular (or numerically so) and SingularSystem is raised;
    rectangular systems just report their least-squares residual.
    """
    M = np.asarray(M, dtype=float)
    target = np.asarray(target, dtype=float)
    _check_system(M, target, left=True)
    y, *_ = np.linalg.lstsq(M, target, rcond=None)
    res = residual_inf(M, y, target, left=True)
    if M.shape[0] == M.shape[1] and res > RESIDUAL_TOL:
        raise SingularSystem(
            f"square {M.shape[0]}x{M.shape[1]} system unsolved, "
            f"residual {res:.3e} > tol {RESIDUAL_TOL:.3e}"
        )
    return y, res
