"""Two-stage plans for workers that are slow but not dead.

Full gradient codes pay an (s + 1)-fold replication factor to survive
workers that never answer. When stragglers are merely alpha times
slower (alpha > 1), far less redundancy suffices: split the training
rows into n(1 + r) equal partitions with r = ceil((s+1)/(alpha-1)).
Each worker first processes r dedicated naive partitions and sends
their plain gradient sum, then processes its rows of an (n, s) code
over the remaining n partitions and sends the coded combination. The
aggregator needs every naive message but only the first n - s coded
ones, whoever sent them.

The arithmetic works out so that by the time an alpha-slow worker has
finished just its naive partitions, a full-speed worker has finished
everything; when (s+1)/(alpha-1) is an integer the two instants
coincide exactly and no compute is wasted. The per-worker share of the
data is then (s+1)/n * alpha/(s+alpha) instead of (s+1)/n.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codec import (
    CYC,
    DEFAULT_ENUMERATION_BUDGET,
    FRAC,
    GradientCode,
    build_cyc,
    build_frac,
    code_from_dict,
    code_to_dict,
    read_json_object,
)
from .errors import (
    BudgetExceeded,
    ConfigError,
    DimensionMismatch,
    GradientCodingError,
    InvalidAlpha,
    ParseError,
)

# Relative slop under which (s+1)/(alpha-1) is treated as the integer it
# would be in exact arithmetic (e.g. alpha = 1.2 makes the float ratio
# 15.000000000000002, which must plan as 15 naive partitions, not 16).
RATIO_SNAP = 1e-9

PLAN_FIELDS = ("alpha", "naive_per_worker", "naive_assignment")


def check_alpha(alpha: float) -> float:
    """``alpha`` as a float; InvalidAlpha unless it is finite and > 1."""
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 1.0:
        raise InvalidAlpha(f"slowdown factor must be finite and > 1, got {alpha}")
    return alpha


def naive_partition_count(s: int, alpha: float) -> int:
    """r = ceil((s+1)/(alpha-1)), snapping near-integer float ratios."""
    alpha = check_alpha(alpha)
    ratio = (s + 1) / (alpha - 1.0)
    nearest = round(ratio)
    if nearest >= 1 and abs(ratio - nearest) <= RATIO_SNAP * max(1.0, abs(ratio)):
        return int(nearest)
    return int(math.ceil(ratio))


def load_fraction(n: int, s: int, alpha: float) -> float:
    """Fraction of the data a full-speed worker processes under the plan."""
    if not 1 <= s < n:
        raise DimensionMismatch(f"need 1 <= s < n, got s={s}, n={n}")
    alpha = check_alpha(alpha)
    return (s + 1) * alpha / (n * (s + alpha))


@dataclass(frozen=True, eq=False)
class TwoStagePlan:
    """A validated two-stage layout for n workers and s slow ones.

    The slowdown factor and the stage-two code determine everything
    else: n and s are the code's, and the naive stage is r contiguous
    partitions per worker with r = ceil((s+1)/(alpha-1)). Raises
    BudgetExceeded when the naive stage would hold more than
    ``DEFAULT_ENUMERATION_BUDGET`` partitions, as alpha close to 1 gives.
    """

    alpha: float
    code: GradientCode

    def __post_init__(self):
        object.__setattr__(self, "alpha", check_alpha(self.alpha))
        naive = self.n * self.naive_per_worker
        if naive > DEFAULT_ENUMERATION_BUDGET:
            raise BudgetExceeded(
                f"alpha={self.alpha} gives {naive} naive partitions, "
                f"more than the budget of {DEFAULT_ENUMERATION_BUDGET}"
            )

    @property
    def n(self) -> int:
        return self.code.n

    @property
    def s(self) -> int:
        return self.code.s

    @property
    def naive_per_worker(self) -> int:
        return naive_partition_count(self.s, self.alpha)

    @property
    def naive_stage(self) -> np.ndarray:
        """The (n, r) naive partition indices: worker w's are w*r, ...,
        (w+1)*r - 1, and the code's n partitions follow them."""
        r = self.naive_per_worker
        return np.arange(self.n * r).reshape(self.n, r)

    @property
    def total_partitions(self) -> int:
        return self.n * (self.naive_per_worker + 1)


def plan_partial(
    n: int,
    s: int,
    alpha: float,
    kind: str = FRAC,
    seed: int | None = None,
) -> TwoStagePlan:
    """Lay out naive and coded partitions for alpha-partial stragglers.

    ``kind`` picks the stage-two code; cyclic codes need ``seed``. The
    code's construction refuses its (n, s) and seed, and ``TwoStagePlan``
    refuses alpha with InvalidAlpha.
    """
    if kind == FRAC:
        code = build_frac(n, s)
    elif kind == CYC:
        code = build_cyc(n, s, seed)
    else:
        raise ConfigError(f"stage-two kind must be {FRAC!r} or {CYC!r}, got {kind!r}")
    return TwoStagePlan(alpha=alpha, code=code)


def timing_slack(plan: TwoStagePlan) -> float:
    """alpha * r - (r + s + 1), in units of one partition's compute time.

    Non-negative by the ceiling; zero exactly when (s+1)/(alpha-1) is an
    integer, and always below alpha - 1. Positive slack means a slow
    worker's naive stage outlasts a fast worker's whole iteration by
    that much, the price of rounding r up.
    """
    r = plan.naive_per_worker
    return plan.alpha * r - (r + plan.s + 1)


def realized_load_fraction(plan: TwoStagePlan) -> float:
    """Share of rows a full-speed worker actually touches under the plan."""
    return (plan.naive_per_worker + plan.s + 1) / plan.total_partitions


def export_plan(plan: TwoStagePlan, path) -> None:
    out = code_to_dict(plan.code)
    out["alpha"] = float(plan.alpha)
    out["naive_per_worker"] = plan.naive_per_worker
    out["naive_assignment"] = plan.naive_stage.tolist()
    Path(path).write_text(json.dumps(out, indent=1) + "\n")


def import_scheme(path) -> GradientCode | TwoStagePlan:
    """A scheme or plan file, read once: a plan is the object with ``alpha``."""
    raw = read_json_object(path)
    return _plan_from_dict(raw) if "alpha" in raw else code_from_dict(raw)


def import_plan(path) -> TwoStagePlan:
    """Load and fully re-validate a plan file.

    The stored ``naive_per_worker`` and ``naive_assignment`` must equal
    what ``alpha`` and the code determine.
    """
    return _plan_from_dict(read_json_object(path))


def _plan_from_dict(raw: dict) -> TwoStagePlan:
    missing = sorted(set(PLAN_FIELDS) - set(raw))
    if missing:
        raise ParseError(f"missing plan fields: {', '.join(missing)}")
    code = code_from_dict({k: v for k, v in raw.items() if k not in PLAN_FIELDS})
    alpha = raw["alpha"]
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float)):
        raise ParseError(f"field 'alpha' must be a number, got {alpha!r}")
    r = raw["naive_per_worker"]
    if isinstance(r, bool) or not isinstance(r, int):
        raise ParseError(f"field 'naive_per_worker' must be an integer, got {r!r}")
    rows = raw["naive_assignment"]
    if not isinstance(rows, list) or any(not isinstance(row, list) for row in rows):
        raise ParseError("field 'naive_assignment' must be a list of index lists")
    try:
        plan = TwoStagePlan(alpha=float(alpha), code=code)
    except GradientCodingError as err:
        raise ParseError(f"plan violates its invariants: {err}") from err
    except OverflowError:
        raise ParseError("field 'alpha' is too large for a float") from None
    if r != plan.naive_per_worker:
        raise ParseError(
            f"plan violates its invariants: naive_per_worker={r} inconsistent with "
            f"ceil((s+1)/(alpha-1))={plan.naive_per_worker}"
        )
    if rows != plan.naive_stage.tolist():
        raise ParseError(
            "plan violates its invariants: naive assignment must be contiguous by worker"
        )
    return plan
