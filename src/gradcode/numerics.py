"""Dense linear algebra and random-number helpers.

Conventions used throughout the package:

* matrices and vectors are float64 numpy arrays;
* random numbers come from ``numpy.random.Generator`` backed by PCG64,
  created through :func:`make_rng` so the bit stream is a pure function
  of the integer seed (normal variates use numpy's ziggurat sampler);
* linear systems are solved by SVD-based least squares; a solve
  reports the infinity norm of its residual and never judges it. The
  caller (the codec) decides against a tolerance, never by matching
  floats exactly;
* the solver checks nothing: its arrays are the codec's, validated where
  they enter (``GradientCode``, ``normalize_survivors``) or drawn finite.

``RESIDUAL_TOL`` (1e-8) is the one acceptance threshold of every decode,
construction and verification step; the cyclic construction and the MDS
check scale it by their matrix's largest entry.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError

RESIDUAL_TOL = 1e-8


def check_indexable(what: str, *shape: int) -> None:
    """Raise ConfigError, naming ``what``, unless numpy can lay out a
    float64 array of ``shape``: its size in bytes must fit an intp."""
    if 8 * math.prod(shape) > np.iinfo(np.intp).max:
        raise ConfigError(f"{what} is too large to index")


def make_rng(seed: int) -> np.random.Generator:
    """Return a PCG64 generator seeded with ``seed``.

    Identical seeds give identical streams for the lifetime of the
    package. A run's results are bit-exact across reruns with the same
    seeds and settings on the same numpy version, BLAS build and BLAS
    thread count; the matrix products may round differently when any of
    the last three changes.
    """
    return np.random.Generator(np.random.PCG64(seed))


def solve_right(M: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve ``x @ M = target`` for a row vector ``x`` in least squares.

    Returns ``(x, residual)`` where ``residual`` is the infinity norm of
    ``x @ M - target``. The residual is reported, not judged: callers
    decide whether it is acceptable (the codec raises SpanFailure, for
    example). A column system ``A @ y = b`` is ``solve_right(A.T, b)``.
    """
    x, *_ = np.linalg.lstsq(M.T, target, rcond=None)
    return x, float(np.abs(x @ M - target).max())
