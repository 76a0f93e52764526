"""Dense linear algebra and random-number helpers.

Conventions used throughout the package:

* matrices and vectors are float64 numpy arrays;
* random numbers come from ``numpy.random.Generator`` backed by PCG64,
  created through :func:`make_rng` so the bit stream is a pure function
  of the integer seed (normal variates use numpy's ziggurat sampler);
* linear systems are solved by SVD-based least squares; a solve
  reports the infinity norm of its residual and never judges it. The
  caller (the codec) decides against a tolerance, never by matching
  floats exactly.

``RESIDUAL_TOL`` (1e-8) is the one acceptance threshold of every decode,
construction and verification step; the cyclic construction and the MDS
check scale it by their matrix's largest entry.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonFinite

RESIDUAL_TOL = 1e-8


def make_rng(seed: int) -> np.random.Generator:
    """Return a PCG64 generator seeded with ``seed``.

    Identical seeds give identical streams for the lifetime of the
    package. A run's results are bit-exact across reruns with the same
    seeds and settings on the same numpy version, BLAS build and BLAS
    thread count; the matrix products may round differently when any of
    the last three changes.
    """
    return np.random.Generator(np.random.PCG64(seed))


def _check_system(M: np.ndarray, target: np.ndarray) -> None:
    if M.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={M.ndim}")
    if M.shape[0] < 1 or M.shape[1] < 1:
        raise DimensionMismatch(f"matrix must be non-empty, got shape {M.shape}")
    if target.ndim != 1:
        raise DimensionMismatch(f"expected a vector target, got ndim={target.ndim}")
    if target.shape[0] != M.shape[1]:
        raise DimensionMismatch(
            f"target length {target.shape[0]} does not match system size {M.shape[1]}"
        )
    if not np.isfinite(M).all():
        raise NonFinite("matrix contains non-finite entries")
    if not np.isfinite(target).all():
        raise NonFinite("target contains non-finite entries")


def solve_right(M: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve ``x @ M = target`` for a row vector ``x`` in least squares.

    Returns ``(x, residual)`` where ``residual`` is the infinity norm of
    ``x @ M - target``. The residual is reported, not judged: callers
    decide whether it is acceptable (the codec raises SpanFailure, for
    example). A column system ``A @ y = b`` is ``solve_right(A.T, b)``.
    """
    M = np.asarray(M, dtype=float)
    target = np.asarray(target, dtype=float)
    _check_system(M, target)
    x, *_ = np.linalg.lstsq(M.T, target, rcond=None)
    return x, float(np.abs(x @ M - target).max())
