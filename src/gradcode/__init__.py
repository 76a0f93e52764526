"""Straggler-tolerant distributed gradient descent.

Coding schemes that let a synchronous gradient aggregator ignore up to
s slow workers without biasing the update, a two-stage planner for
workers that are slow but not dead, and a deterministic simulator for
comparing strategies on synthetic logistic-regression workloads.
"""

from .codec import (
    CYC,
    FRAC,
    GradientCode,
    build_cyc,
    build_frac,
    cyc_h_matrix,
    decode_row,
    export_code,
    import_code,
    mds_check,
    verify_bspan,
)
from .errors import GradientCodingError
from .learn import (
    GD_DECAY,
    NAG,
    Dataset,
    OptimizerConfig,
    gen_synthetic,
    make_optimizer,
)
from .partial import (
    TwoStagePlan,
    export_plan,
    import_plan,
    load_fraction,
    plan_partial,
    realized_load_fraction,
    timing_slack,
)
from .sim import (
    NO_STRAGGLERS,
    Coded,
    IgnoreStragglers,
    LatencyModel,
    Naive,
    PartialCoded,
    RunResult,
    SeedBundle,
    StragglerPolicy,
    TrainingConfig,
    compare_runs,
    run_training,
    write_comparison_csvs,
    write_run_csv,
)

__version__ = "0.1.0"

__all__ = [
    "CYC",
    "FRAC",
    "GD_DECAY",
    "NAG",
    "NO_STRAGGLERS",
    "Coded",
    "Dataset",
    "GradientCode",
    "GradientCodingError",
    "IgnoreStragglers",
    "LatencyModel",
    "Naive",
    "OptimizerConfig",
    "PartialCoded",
    "RunResult",
    "SeedBundle",
    "StragglerPolicy",
    "TrainingConfig",
    "TwoStagePlan",
    "build_cyc",
    "build_frac",
    "compare_runs",
    "cyc_h_matrix",
    "decode_row",
    "export_code",
    "export_plan",
    "gen_synthetic",
    "import_code",
    "import_plan",
    "load_fraction",
    "make_optimizer",
    "mds_check",
    "plan_partial",
    "realized_load_fraction",
    "run_training",
    "timing_slack",
    "verify_bspan",
    "write_comparison_csvs",
    "write_run_csv",
]
