"""Gradient coding schemes for straggler-tolerant aggregation.

A scheme assigns each of n workers a sparse row b_i over the data
partitions. The paper writes B as n x k; this package fixes k = n, one
partition per worker. Worker i sends the single vector sum(B[i, j] * g_j)
over its support, and the aggregator recovers the full gradient sum from
any n - s of those messages by solving, afresh for each survivor set I,
for coefficients x with x @ B[I, :] = all-ones (``decode_row``).
Robustness to every straggler pattern is exactly the requirement that the
all-ones row lies in the span of every (n - s)-row submatrix of B.

The paper's lower bound: to survive any s stragglers, every partition
must be held by at least s + 1 workers, so B has at least n(s + 1)
non-zeros. ``_validate_code`` requires 1 <= s < n and exactly s + 1
non-zeros in every row, so an accepted code meets the bound with
equality; the uncoded baseline, s = 0, is the simulator's ``Naive``
strategy, not a code. It does not count columns: a file whose partition
has fewer holders imports, and only ``verify_bspan`` finds the survivor
sets it fails. Both constructions hold every partition exactly s + 1
times:

* ``build_frac``: 0/1 scheme from s + 1 stacked copies of a disjoint
  block layout; needs (s + 1) | n. Its decode splits each block's
  weight evenly: each of a block's h surviving holders gets 1/h.
* ``build_cyc``: support pattern {i, ..., i + s} (mod n) with real
  coefficients from the null space of a random Gaussian matrix whose
  columns sum to zero; works for any s < n.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .errors import (
    BudgetExceeded,
    ConfigError,
    DimensionMismatch,
    DivisibilityError,
    GradientCodingError,
    IndexOutOfRange,
    NonFinite,
    ParseError,
    RetryExhausted,
    SpanFailure,
)
from .numerics import RESIDUAL_TOL, check_indexable, make_rng, solve_right

FRAC = "frac"
CYC = "cyc"
KINDS = (FRAC, CYC)

SCHEME_FORMAT_VERSION = 1
MAX_CONSTRUCTION_DRAWS = 5
DEFAULT_ENUMERATION_BUDGET = 10**6

SurvivorSet = tuple[int, ...]


@dataclass(frozen=True, eq=False)
class GradientCode:
    """An (n, s) scheme with its n x n coefficient matrix B.

    Immutable after construction; B is stored as a read-only copy.
    ``h_seed`` records the accepted draw for cyclic codes so a scheme
    file identifies the exact matrix it shipped with.
    """

    kind: str
    n: int
    s: int
    B: np.ndarray
    h_seed: int | None = None

    def __post_init__(self):
        B = np.array(self.B, dtype=float)
        B.setflags(write=False)
        object.__setattr__(self, "B", B)
        _validate_code(self)

    @property
    def survivors_needed(self) -> int:
        return self.n - self.s


@dataclass(frozen=True, eq=False)
class DecodeRow:
    """Combination coefficients for one survivor set, aligned index-wise."""

    survivors: SurvivorSet
    coeffs: np.ndarray
    residual: float

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)


@dataclass(frozen=True)
class BspanReport:
    ok: bool
    checked: int
    failures: tuple[SurvivorSet, ...]
    max_residual: float


@dataclass(frozen=True)
class MdsReport:
    ok: bool
    checked: int
    failures: tuple[tuple[int, ...], ...]
    min_singular: float


def _check_shape(n: int, s: int) -> None:
    """Refuse an s outside [1, n) and an n whose n x n B numpy cannot lay out."""
    if not 1 <= s < n:
        raise DimensionMismatch(f"need 1 <= s < n, got s={s}, n={n}")
    check_indexable(f"an n={n} by n={n} code matrix", n, n)


def _validate_code(code: GradientCode) -> None:
    if code.kind not in KINDS:
        raise DimensionMismatch(f"unknown scheme kind {code.kind!r}")
    _check_shape(code.n, code.s)
    if code.B.shape != (code.n, code.n):
        raise DimensionMismatch(f"B has shape {code.B.shape}, expected ({code.n}, {code.n})")
    if not np.all(np.isfinite(code.B)):
        raise NonFinite("B contains non-finite entries")
    dens = np.count_nonzero(code.B, axis=1)
    bad = np.flatnonzero(dens != code.s + 1)
    if bad.size:
        raise DimensionMismatch(
            f"coded rows must have exactly s+1={code.s + 1} non-zeros, "
            f"row {bad[0]} has {dens[bad[0]]}"
        )
    if code.kind == FRAC and code.n % (code.s + 1) != 0:
        raise DivisibilityError(
            f"fractional repetition needs (s+1) | n, got n={code.n}, s={code.s}"
        )
    if code.kind == CYC:
        for i in range(code.n):
            want = {(i + t) % code.n for t in range(code.s + 1)}
            got = set(np.flatnonzero(code.B[i]).tolist())
            if got != want:
                raise DimensionMismatch(
                    f"cyclic row {i} has support {sorted(got)}, expected {sorted(want)}"
                )


def build_frac(n: int, s: int) -> GradientCode:
    """Fractional repetition code: s + 1 disjoint replicas of the data.

    Workers are s + 1 groups of n/(s+1); within a group, worker j holds
    partitions j(s+1) .. (j+1)(s+1) - 1 with coefficient 1. Any s
    removals leave every block a holder; ``decode_row``'s minimum-norm
    row gives each of a block's h surviving holders the coefficient 1/h.
    """
    _check_shape(n, s)
    if n % (s + 1) != 0:
        raise DivisibilityError(
            f"fractional repetition needs (s+1) | n, got n={n}, s={s}"
        )
    groups = n // (s + 1)
    block = np.zeros((groups, n))
    for j in range(groups):
        block[j, j * (s + 1) : (j + 1) * (s + 1)] = 1.0
    return GradientCode(FRAC, n, s, np.tile(block, (s + 1, 1)))


def _cyc_rows(H: np.ndarray, n: int, s: int) -> np.ndarray:
    """Fill each cyclic-support row so that H @ b_i = 0 with leading 1.

    A row whose solve leaves max|H @ b_i| above ``RESIDUAL_TOL`` times
    max(1, max|H|) raises SpanFailure.
    """
    B = np.zeros((n, n))
    threshold = RESIDUAL_TOL * max(1.0, float(np.max(np.abs(H))))
    for i in range(n):
        supp = [(i + t) % n for t in range(s + 1)]
        B[i, supp[0]] = 1.0
        rest = supp[1:]
        y, res = solve_right(H[:, rest].T, -H[:, supp[0]])
        if res > threshold:
            raise SpanFailure(
                f"cyclic row {i} leaves null-space residual {res:.3e}", (i,), res
            )
        B[i, rest] = y
    return B


def cyc_h_matrix(n: int, s: int, h_seed: int) -> np.ndarray:
    """The s x n constraint matrix for one seed: Gaussian, rows sum to 0.

    Deterministic in ``h_seed``, so the draw a scheme file records can
    be reconstructed exactly for later property checks.
    """
    H = make_rng(h_seed).standard_normal((s, n))
    H[:, n - 1] = -np.sum(H[:, : n - 1], axis=1)
    return H


def build_cyc(n: int, s: int, seed: int | None) -> GradientCode:
    """Cyclic repetition code from a random Gaussian null-space basis.

    H is s x n standard normal with the last column overwritten so every
    row sums to zero; row i of B is supported on {i, ..., i + s} (mod n)
    with leading coefficient 1 and the rest solving H[:, rest] y = -H[:, i].
    A draw with a numerically singular s x s subsystem, which
    ``_cyc_rows`` rejects, is retried with seed + 1, at most 5 draws in
    total; ``h_seed`` records the accepted draw's seed. Raises
    ConfigError when ``seed`` is None.
    """
    _check_shape(n, s)
    if seed is None:
        raise ConfigError("a cyclic code draws H at random and needs an explicit seed")
    last: GradientCodingError | None = None
    for attempt in range(MAX_CONSTRUCTION_DRAWS):
        h_seed = seed + attempt
        H = cyc_h_matrix(n, s, h_seed)
        try:
            B = _cyc_rows(H, n, s)
        except SpanFailure as err:
            last = err
            continue
        return GradientCode(CYC, n, s, B, h_seed=h_seed)
    raise RetryExhausted(
        f"no acceptable H draw for n={n}, s={s} in {MAX_CONSTRUCTION_DRAWS} "
        f"attempts starting at seed {seed}: {last}"
    )


def normalize_survivors(survivors, n: int, size: int) -> SurvivorSet:
    """Sort, deduplicate-check, and range-check a survivor index set."""
    idx = tuple(sorted(map(int, survivors)))
    if len(set(idx)) != len(idx):
        raise DimensionMismatch(f"survivor set has duplicates: {idx}")
    if len(idx) != size:
        raise DimensionMismatch(f"need exactly {size} survivors, got {len(idx)}")
    if idx and (idx[0] < 0 or idx[-1] >= n):
        raise IndexOutOfRange(f"survivor indices must lie in [0, {n}), got {idx}")
    return idx


def decode_row(code: GradientCode, survivors) -> DecodeRow:
    """Coefficients x with x @ B[I, :] = all-ones for survivor set I.

    One least-squares solve on every call. Raises SpanFailure when its
    residual exceeds ``RESIDUAL_TOL``, which is how an unservable
    straggler pattern announces itself.
    """
    I = normalize_survivors(survivors, code.n, code.survivors_needed)
    x, res = solve_right(code.B.take(I, axis=0), np.ones(code.n))
    if res > RESIDUAL_TOL:
        raise SpanFailure(
            f"survivors {I} cannot reconstruct the full gradient "
            f"(residual {res:.3e} > tol {RESIDUAL_TOL:.3e})",
            I,
            res,
        )
    return DecodeRow(I, x, res)


def verify_bspan(code: GradientCode, *, budget: int = DEFAULT_ENUMERATION_BUDGET) -> BspanReport:
    """Exhaustively check every (n - s)-subset of rows for decodability."""
    n, s = code.n, code.s
    total = math.comb(n, s)
    if total > budget:
        raise BudgetExceeded(
            f"checking all C({n},{s}) = {total} survivor sets exceeds budget {budget}"
        )
    ones = np.ones(code.n)
    failures: list[SurvivorSet] = []
    max_res = 0.0
    for I in combinations(range(n), n - s):
        x, res = solve_right(code.B.take(I, axis=0), ones)
        max_res = max(max_res, res)
        if res > RESIDUAL_TOL:
            failures.append(I)
    return BspanReport(not failures, total, tuple(failures), max_res)


def mds_check(H: np.ndarray, *, budget: int = DEFAULT_ENUMERATION_BUDGET) -> MdsReport:
    """Every s-column submatrix of H must be invertible.

    This is what makes every cyclic support realizable: row i's trailing
    coefficients solve an s x s system in s chosen columns of H.
    Invertibility is judged by the smallest singular value relative to
    the matrix scale.
    """
    H = np.asarray(H, dtype=float)
    if H.ndim != 2:
        raise DimensionMismatch(f"H must be 2-D, got {H.ndim}-D")
    s, n = H.shape
    if not 1 <= s < n:
        raise DimensionMismatch(f"need an s x n matrix with s < n, got {s} x {n}")
    if not np.all(np.isfinite(H)):
        raise NonFinite("H contains non-finite entries")
    total = math.comb(n, s)
    if total > budget:
        raise BudgetExceeded(
            f"{total} column subsets exceed the enumeration budget {budget}"
        )
    threshold = RESIDUAL_TOL * max(1.0, float(np.max(np.abs(H))))
    failures: list[tuple[int, ...]] = []
    min_singular = math.inf
    for cols in combinations(range(n), s):
        sigma = float(np.linalg.svd(H[:, cols], compute_uv=False)[-1])
        min_singular = min(min_singular, sigma)
        if sigma <= threshold:
            failures.append(cols)
    return MdsReport(not failures, total, tuple(failures), min_singular)


def assignment(code: GradientCode, worker: int) -> list[int]:
    """Partition indices worker must process: the support of its row."""
    if not 0 <= worker < code.n:
        raise IndexOutOfRange(f"worker {worker} not in [0, {code.n})")
    return np.flatnonzero(code.B[worker]).tolist()


# ---------------------------------------------------------------------------
# Scheme files: JSON with fixed field order (version, kind, n, k, s,
# h_seed when present, B); k is the partition count, written as n and
# refused on import unless it equals n. Floats are written in Python
# repr form, the shortest text that round-trips the exact binary value.


def code_to_dict(code: GradientCode) -> dict:
    out: dict = {
        "version": SCHEME_FORMAT_VERSION,
        "kind": code.kind,
        "n": code.n,
        "k": code.n,
        "s": code.s,
    }
    if code.h_seed is not None:
        out["h_seed"] = code.h_seed
    out["B"] = [[float(v) for v in row] for row in code.B]
    return out


def export_code(code: GradientCode, path) -> None:
    Path(path).write_text(json.dumps(code_to_dict(code), indent=1) + "\n")


def code_from_dict(raw: dict) -> GradientCode:
    """Build a validated GradientCode from parsed JSON; an unknown field
    is an error."""
    if not isinstance(raw, dict):
        raise ParseError(f"scheme file must hold a JSON object, got {type(raw).__name__}")
    known = {"version", "kind", "n", "k", "s", "h_seed", "B"}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ParseError(f"unknown fields: {', '.join(unknown)}")
    missing = sorted({"version", "kind", "n", "k", "s", "B"} - set(raw))
    if missing:
        raise ParseError(f"missing fields: {', '.join(missing)}")
    version = json_value(raw["version"], int, "field 'version'")
    if version != SCHEME_FORMAT_VERSION:
        raise ParseError(
            f"unsupported format version {version!r}, expected {SCHEME_FORMAT_VERSION}"
        )
    kind = json_value(raw["kind"], str, "field 'kind'")
    if kind not in KINDS:
        raise ParseError(f"unknown kind {kind!r}, expected one of {list(KINDS)}")
    n, k, s = (json_value(raw[name], int, f"field {name!r}") for name in ("n", "k", "s"))
    if k != n:
        raise ParseError(
            f"scheme violates its invariants: partition count k={k} must equal worker count n={n}"
        )
    h_seed = raw.get("h_seed")
    if h_seed is not None and json_value(h_seed, int, "field 'h_seed'") < 0:
        raise ParseError(f"field 'h_seed' must be non-negative, got {h_seed}")
    B = raw["B"]
    if not isinstance(B, list) or len(B) != n:
        raise ParseError(f"field 'B' must be a list of {n} rows")
    for i, r in enumerate(B):
        if not isinstance(r, list) or len(r) != n:
            raise ParseError(f"B row {i} must be a list of {n} numbers")
        for v in r:
            if not is_json(v, float):
                raise ParseError(f"B row {i} contains a non-numeric entry {v!r}")
    try:
        return GradientCode(kind, n, s, np.array(B, dtype=float), h_seed=h_seed)
    except GradientCodingError as err:
        raise ParseError(f"scheme violates its invariants: {err}") from err
    except OverflowError:
        raise ParseError("field 'B' has an entry too large for a float") from None


_JSON_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}


def is_json(value, want: type) -> bool:
    """Whether a parsed JSON value is of type ``want`` (int, float, str or
    bool): a bool is only a bool, and an integer is also a number."""
    if isinstance(value, bool):
        return want is bool
    return isinstance(value, (int, float) if want is float else want)


def json_value(value, want: type, what: str, error: type[GradientCodingError] = ParseError):
    """``value`` as ``want`` (int, float, str or bool), the type rule of every
    scheme, plan and config file field; ``error``, naming ``what``, if it is
    not of that type or is a number too large for a float."""
    if not is_json(value, want):
        raise error(f"{what} must be {_JSON_TYPE_NAMES[want]}, got {value!r}")
    if want is not float:
        return value
    try:
        return float(value)
    except OverflowError:
        raise error(f"{what} is too large for a float") from None


def read_json_object(path) -> dict:
    """Parse a JSON file that must hold one object; ParseError otherwise."""
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}") from err
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"{path} is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ParseError(f"{path} must hold a JSON object")
    return raw


def import_code(path) -> GradientCode:
    """Load and fully re-validate a scheme file."""
    return code_from_dict(read_json_object(path))
