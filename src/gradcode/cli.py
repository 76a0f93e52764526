"""Command-line interface: build and verify schemes, run simulations.

Exit codes: 0 success, 2 usage (bad flags, missing seeds), 3 validation
(violated preconditions, bad configuration values), 4 numerical (span
or decode failures, divergence, starved rounds), 5 I/O (unreadable or
malformed files).

Run parameters resolve as defaults < config file (a compare config's
``shared`` block) < command-line flags < a compare run entry's own fields.
Every simulation must be explicitly seeded: give the four sub-seeds or
``--seed-all N``, which derives scheme, data, latency, and straggler
seeds as N, N+1, N+2, N+3 (individual flags still override). The
effective merged configuration is echoed next to each output file so a
run can be reproduced from its artifacts alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import codec, learn, partial, sim
from .errors import (
    ConfigError,
    IO_ERRORS,
    NUMERICAL_ERRORS,
    VALIDATION_ERRORS,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4
EXIT_IO = 5


class _UsageError(Exception):
    """Bad or missing command-line input; maps to EXIT_USAGE."""


_SEED_NAMES = ("seed_scheme", "seed_data", "seed_latency", "seed_straggler")


class _Field(NamedTuple):
    """One run setting: its type in a config file, its resolved default,
    and how its flag reads (``parse`` turns flag text into the value
    when the type alone cannot)."""

    type: type
    default: object
    choices: tuple | None = None
    help: str | None = None
    parse: Callable[[str], object] | None = None


def _parse_workers(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"wants comma-separated integers: {err}")


def _parse_jitter(text: str) -> float | None:
    if text.lower() in ("none", "null", "off"):
        return None
    try:
        return float(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"wants a number or 'none': {err}")


# Everything a run can configure, one flag each, with the library's
# defaults and choices. Paths are flag-only so config files stay
# relocatable.
_RUN_SCHEMA: dict[str, _Field] = {
    "strategy": _Field(str, None, ("naive", "ignore", "coded", "partial")),
    "scheme_file": _Field(str, None),
    "kind": _Field(str, None, codec.KINDS),
    "n": _Field(int, None),
    "s": _Field(int, None),
    "alpha": _Field(float, None),
    "d": _Field(int, sim.TrainingConfig.d),
    "p": _Field(int, sim.TrainingConfig.p),
    "iterations": _Field(int, sim.TrainingConfig.iterations),
    "optimizer": _Field(str, learn.OptimizerConfig.method, learn.METHODS),
    "eta": _Field(float, learn.OptimizerConfig.eta),
    "c1": _Field(float, learn.OptimizerConfig.c1),
    "c2": _Field(float, learn.OptimizerConfig.c2),
    "compute_time": _Field(float, sim.LatencyModel.compute_time_per_partition),
    "comm_time": _Field(float, sim.LatencyModel.comm_time),
    # Like every field whose default is None, this one may be null in a
    # config file: no jitter.
    "jitter_sigma": _Field(float, sim.LatencyModel.jitter_sigma, None,
                           "number or 'none'", _parse_jitter),
    "straggler_mode": _Field(str, sim.StragglerPolicy.mode, sim.STRAGGLER_MODES),
    "straggler_workers": _Field(tuple, sim.StragglerPolicy.workers, None,
                                "comma-separated worker indices", _parse_workers),
    "straggler_count": _Field(int, sim.StragglerPolicy.count),
    "straggler_kind": _Field(str, sim.StragglerPolicy.kind, sim.STRAGGLER_KINDS),
    "straggler_extra": _Field(float, sim.StragglerPolicy.extra, None,
                              "seconds added per message (inf allowed)"),
    "straggler_alpha": _Field(float, sim.StragglerPolicy.alpha),
    "holdout_frac": _Field(float, sim.TrainingConfig.holdout_frac),
    "auc_interval": _Field(int, sim.TrainingConfig.auc_interval),
    "seed_all": _Field(int, None, None, "derive the four sub-seeds as N, N+1, N+2, N+3"),
    "seed_scheme": _Field(int, None),
    "seed_data": _Field(int, None),
    "seed_latency": _Field(int, None),
    "seed_straggler": _Field(int, None),
    "label": _Field(str, sim.TrainingConfig.label),
    "verify_decode": _Field(bool, sim.TrainingConfig.verify_decode),
}
# What tells a compare's runs apart: compare reads these from its run
# entries only, never from flags.
_PER_RUN_KEYS = ("strategy", "scheme_file", "kind", "alpha", "label")
_RUN_DEFAULTS = {key: field.default for key, field in _RUN_SCHEMA.items()}
# Settings a run reads only under some strategies, optimizers or
# straggler settings: key -> (the setting that decides, the values under
# which the key is read). A key is read only if its decider is read too.
_READ_ONLY_UNDER = {
    "alpha": ("strategy", ("partial",)),
    "s": ("strategy", ("ignore", "coded", "partial")),
    "kind": ("strategy", ("coded", "partial")),
    "scheme_file": ("strategy", ("coded", "partial")),
    "verify_decode": ("strategy", ("coded", "partial")),
    "eta": ("optimizer", (learn.NAG,)),
    "c1": ("optimizer", (learn.GD_DECAY,)),
    "c2": ("optimizer", (learn.GD_DECAY,)),
    "straggler_kind": ("straggler_mode", ("fixed", "random")),
    "straggler_extra": ("straggler_kind", ("delay",)),
    "straggler_alpha": ("straggler_kind", ("slowdown",)),
}


def _coerce(key: str, value):
    """Type-check one config-file value, JSON natives in, run types out."""
    if key not in _RUN_SCHEMA:
        raise ConfigError(f"unknown config field {key!r}")
    want, default = _RUN_SCHEMA[key][:2]
    if value is None:
        if default is None or key == "jitter_sigma":
            return None
        raise ConfigError(f"config field {key!r} must not be null")
    if want is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"config field {key!r} must be an integer, got {value!r}")
        return value
    if want is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config field {key!r} must be a number, got {value!r}")
        return float(value)
    if want is str:
        if not isinstance(value, str):
            raise ConfigError(f"config field {key!r} must be a string, got {value!r}")
        return value
    if want is tuple:
        if not isinstance(value, list) or not all(
            isinstance(w, int) and not isinstance(w, bool) for w in value
        ):
            raise ConfigError(f"config field {key!r} must be a list of integers")
        return tuple(value)
    if not isinstance(value, bool):
        raise ConfigError(f"config field {key!r} must be true or false")
    return value


def _flag_overrides(args: argparse.Namespace) -> dict:
    """Run keys given on the command line, in schema order so that a
    compare echo's ``shared`` block keeps the schema's key order."""
    given = vars(args)
    return {key: given[key] for key in _RUN_SCHEMA if key in given}


def _merge_run(config: dict, overrides: dict) -> dict:
    merged = dict(_RUN_DEFAULTS)
    for key, value in config.items():
        merged[key] = _coerce(key, value)
    merged.update(overrides)
    return merged


def _resolve_seeds(merged: dict) -> None:
    base = merged["seed_all"]
    if base is not None:
        for offset, name in enumerate(_SEED_NAMES):
            if merged[name] is None:
                merged[name] = base + offset
    missing = [name for name in _SEED_NAMES if merged[name] is None]
    if missing:
        flags = ", ".join("--" + name.replace("_", "-") for name in missing)
        raise _UsageError(
            f"explicit seeds are required for reproducible runs; give --seed-all or {flags}"
        )


def _need(merged: dict, key: str, why: str):
    if merged[key] is None:
        raise _UsageError(f"--{key.replace('_', '-')} is required {why}")
    return merged[key]


def _load_scheme_or_plan(path):
    raw = codec.read_json_object(path)
    if "alpha" in raw:
        return partial.import_plan(path)
    return codec.import_code(path)


def _build_strategy(merged: dict) -> sim.Strategy:
    name = _need(merged, "strategy", "(naive, ignore, coded, or partial)")
    why = f"for the {name} strategy"
    if name == "naive":
        return sim.Naive(_need(merged, "n", why))
    if name == "ignore":
        return sim.IgnoreStragglers(_need(merged, "n", why), _need(merged, "s", why))
    path = merged["scheme_file"]
    if path is not None:
        loaded = _load_scheme_or_plan(path)
        is_plan = isinstance(loaded, partial.TwoStagePlan)
        if is_plan and name == "coded":
            raise ConfigError(f"{path} holds a two-stage plan; use --strategy partial")
        if not is_plan and name == "partial":
            raise ConfigError(f"{path} holds a plain scheme; the partial strategy needs a plan file")
        code = loaded.code if is_plan else loaded
        held = {"n": code.n, "s": code.s, "kind": code.kind}
        if is_plan:
            held["alpha"] = loaded.alpha
        for key, value in held.items():
            if merged[key] not in (None, value):
                raise ConfigError(
                    f"{key}={merged[key]!r} contradicts {path}, which holds {key}={value!r}"
                )
        return sim.PartialCoded(loaded) if is_plan else sim.Coded(loaded)
    kind = _need(merged, "kind", "to build a scheme inline (or give --scheme-file)")
    if kind not in (codec.FRAC, codec.CYC):
        raise ConfigError(f"coded and partial strategies need kind frac or cyc, got {kind!r}")
    n = _need(merged, "n", "to build a scheme inline")
    s = _need(merged, "s", "to build a scheme inline")
    if name == "partial":
        alpha = _need(merged, "alpha", "for a two-stage plan")
        return sim.PartialCoded(
            partial.plan_partial(n, s, alpha, kind=kind, seed=merged["seed_scheme"])
        )
    if kind == codec.FRAC:
        return sim.Coded(codec.build_frac(n, s))
    return sim.Coded(codec.build_cyc(n, s, merged["seed_scheme"]))


def _check_read(merged: dict, given: set[str]) -> None:
    """Raise ConfigError for a key in ``given`` that the run never reads.

    A key left at its default counts as not set, so a run's own config
    echo, which holds every key, reruns it. The error names the topmost
    decider, along the key's chain of them, that rules the key out.
    """
    for key in _READ_ONLY_UNDER:
        if key not in given or merged[key] == _RUN_DEFAULTS[key]:
            continue
        unread, by = None, key
        while by in _READ_ONLY_UNDER:
            by, readers = _READ_ONLY_UNDER[by]
            if merged[by] not in (None, *readers):
                unread = by
        if unread is not None:
            raise ConfigError(
                f"the {merged[unread]} {unread} does not read {key}, given {merged[key]!r}"
            )


def _training_config(merged: dict, given: set[str]) -> sim.TrainingConfig:
    """The run ``merged`` describes; ``given`` names the settings set
    for this run alone, each of which the run must read."""
    for key, field in _RUN_SCHEMA.items():
        if field.choices and merged[key] not in (None, *field.choices):
            raise ConfigError(f"config field {key!r} must be one of {field.choices}, "
                              f"got {merged[key]!r}")
    _check_read(merged, given)
    _resolve_seeds(merged)
    strategy = _build_strategy(merged)
    optimizer = learn.OptimizerConfig(
        method=merged["optimizer"],
        eta=merged["eta"],
        c1=merged["c1"],
        c2=merged["c2"],
    )
    latency = sim.LatencyModel(
        compute_time_per_partition=merged["compute_time"],
        comm_time=merged["comm_time"],
        jitter_sigma=merged["jitter_sigma"],
    )
    policy = sim.StragglerPolicy(
        mode=merged["straggler_mode"],
        workers=merged["straggler_workers"],
        count=merged["straggler_count"],
        kind=merged["straggler_kind"],
        extra=merged["straggler_extra"],
        alpha=merged["straggler_alpha"],
    )
    seeds = sim.SeedBundle(*(merged[name] for name in _SEED_NAMES))
    return sim.TrainingConfig(
        strategy=strategy,
        optimizer=optimizer,
        seeds=seeds,
        d=merged["d"],
        p=merged["p"],
        iterations=merged["iterations"],
        latency=latency,
        policy=policy,
        holdout_frac=merged["holdout_frac"],
        auc_interval=merged["auc_interval"],
        verify_decode=merged["verify_decode"],
        label=merged["label"],
    )


def _echo_config(merged: dict, path) -> None:
    echo = {k: (list(v) if isinstance(v, tuple) else v) for k, v in merged.items()}
    Path(path).write_text(json.dumps(echo, indent=1) + "\n")


def _fmt(value) -> str:
    if value is None:
        return "na"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# scheme


def cmd_scheme_build(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind in (codec.FRAC, codec.CYC) and args.s is None:
        raise _UsageError(f"--s is required for kind {kind!r}")
    if kind == codec.CYC and args.seed is None:
        raise _UsageError("cyclic schemes draw H at random; give an explicit --seed")
    if kind != codec.CYC and args.seed is not None:
        raise _UsageError(f"{kind} schemes draw nothing at random; drop --seed")
    if args.alpha is not None:
        if kind == codec.NAIVE:
            raise _UsageError("two-stage plans need a frac or cyc stage-two code")
        plan = partial.plan_partial(args.n, args.s, args.alpha, kind=kind, seed=args.seed)
        partial.export_plan(plan, args.out)
        print(
            f"wrote {args.out}: two-stage kind={kind} n={plan.n} s={plan.s} "
            f"alpha={_fmt(plan.alpha)} naive_per_worker={plan.naive_per_worker} "
            f"partitions={plan.total_partitions} "
            f"load_fraction={_fmt(partial.load_fraction(plan.n, plan.s, plan.alpha))} "
            f"slack={_fmt(partial.timing_slack(plan))}"
        )
        return EXIT_OK
    if kind == codec.NAIVE:
        if args.s not in (None, 0):
            raise _UsageError("the naive scheme has no straggler tolerance; drop --s")
        code = codec.build_naive(args.n)
    elif kind == codec.FRAC:
        code = codec.build_frac(args.n, args.s)
    else:
        code = codec.build_cyc(args.n, args.s, args.seed)
    codec.export_code(code, args.out)
    report = codec.density_check(code)
    print(
        f"wrote {args.out}: kind={code.kind} n={code.n} k={code.k} s={code.s} "
        f"density_bound={report.bound} equality={report.meets_bound_with_equality}"
    )
    return EXIT_OK


def _verify_code(code: codec.GradientCode, budget: int) -> bool:
    ok = True
    span = codec.verify_bspan(code, budget=budget)
    if span.ok:
        print(f"bspan: ok checked={span.checked} max_residual={_fmt(span.max_residual)}")
    else:
        ok = False
        print(
            f"bspan: FAIL failures={len(span.failures)}/{span.checked} "
            f"first={span.failures[0]} max_residual={_fmt(span.max_residual)}"
        )
    dens = codec.density_check(code)
    print(
        f"density: bound={dens.bound} equality={dens.meets_bound_with_equality} "
        f"min={dens.min_row_density}"
    )
    if code.kind == codec.CYC:
        if code.h_seed is None:
            print("mds: skipped (no recorded h_seed)")
        else:
            H = codec.cyc_h_matrix(code.n, code.s, code.h_seed)
            mds = codec.mds_check(H, budget=budget)
            if mds.ok:
                print(
                    f"mds: ok checked={mds.checked} min_singular={_fmt(mds.min_singular)}"
                )
            else:
                ok = False
                print(
                    f"mds: FAIL failures={len(mds.failures)}/{mds.checked} "
                    f"first={mds.failures[0]}"
                )
    return ok


def cmd_scheme_verify(args: argparse.Namespace) -> int:
    loaded = _load_scheme_or_plan(args.file)
    if isinstance(loaded, partial.TwoStagePlan):
        print(
            f"plan: alpha={_fmt(loaded.alpha)} naive_per_worker={loaded.naive_per_worker} "
            f"slack={_fmt(partial.timing_slack(loaded))} "
            f"load_fraction={_fmt(partial.load_fraction(loaded.n, loaded.s, loaded.alpha))}"
        )
        code = loaded.code
    else:
        code = loaded
    ok = _verify_code(code, args.budget)
    print("verify: ok" if ok else "verify: FAIL")
    return EXIT_OK if ok else EXIT_NUMERICAL


def cmd_scheme_inspect(args: argparse.Namespace) -> int:
    loaded = _load_scheme_or_plan(args.file)
    if isinstance(loaded, partial.TwoStagePlan):
        plan = loaded
        print(f"two-stage plan: n={plan.n} s={plan.s} alpha={_fmt(plan.alpha)}")
        print(
            f"partitions: naive={plan.naive_partitions_total} "
            f"coded={plan.coded_partitions_total} total={plan.total_partitions}"
        )
        print(
            f"per-worker load: naive={plan.naive_per_worker} "
            f"coded={plan.code.s + 1} "
            f"fraction={_fmt(partial.realized_load_fraction(plan))} "
            f"(formula {_fmt(partial.load_fraction(plan.n, plan.s, plan.alpha))})"
        )
        print(f"timing slack: {_fmt(partial.timing_slack(plan))}")
        code = plan.code
        print(f"stage-two code: kind={code.kind} n={code.n} k={code.k} s={code.s}")
        return EXIT_OK
    code = loaded
    dens = codec.density_check(code)
    print(f"scheme: kind={code.kind} n={code.n} k={code.k} s={code.s}")
    if code.h_seed is not None:
        print(f"h_seed: {code.h_seed}")
    print(f"survivors needed: {code.survivors_needed}")
    print(
        f"row density: bound={dens.bound} min={dens.min_row_density} "
        f"equality={dens.meets_bound_with_equality}"
    )
    for w in range(code.n):
        supp = codec.assignment(code, w)
        print(f"worker {w}: partitions={supp}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate and compare


def _summary_line(result: sim.RunResult) -> str:
    return (
        f"run {result.label}: iterations={len(result.loss)} "
        f"total_sim_time_s={_fmt(result.total_time)} "
        f"final_loss={_fmt(result.final_loss)} final_auc={_fmt(result.final_auc)}"
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    config = codec.read_json_object(args.config) if args.config else {}
    overrides = _flag_overrides(args)
    merged = _merge_run(config, overrides)
    run_config = _training_config(merged, {*config, *overrides})
    result = sim.run_training(run_config)
    sim.write_run_csv(result, args.out)
    echo_path = str(args.out) + ".config.json"
    _echo_config(merged, echo_path)
    print(_summary_line(result))
    print(f"wrote {args.out}")
    print(f"wrote {echo_path}")
    return EXIT_OK


def _bundle_entries(merged: dict) -> list[dict]:
    """The four-strategy lineup on one cluster: naive, ignore, frac, cyc."""
    n = _need(merged, "n", "for --bundle")
    s = _need(merged, "s", "for --bundle")
    return [
        {"strategy": "naive", "n": n, "s": None, "kind": None},
        {"strategy": "ignore", "n": n, "s": s, "kind": None},
        {"strategy": "coded", "n": n, "s": s, "kind": codec.FRAC},
        {"strategy": "coded", "n": n, "s": s, "kind": codec.CYC},
    ]


def cmd_compare(args: argparse.Namespace) -> int:
    overrides = _flag_overrides(args)
    if args.bundle and args.config:
        raise _UsageError("give either --bundle or --config, not both")
    if args.bundle:
        shared: dict = {}
        entries = _bundle_entries(_merge_run({}, overrides))
    elif args.config:
        raw = codec.read_json_object(args.config)
        unknown = set(raw) - {"shared", "runs"}
        if unknown:
            raise ConfigError(f"unknown compare config fields {sorted(unknown)}")
        shared = raw.get("shared", {})
        entries = raw.get("runs", [])
        if not isinstance(shared, dict):
            raise ConfigError("'shared' must be a JSON object")
        if not isinstance(entries, list) or not entries:
            raise ConfigError("'runs' must be a non-empty JSON array")
        if not all(isinstance(e, dict) for e in entries):
            raise ConfigError("every entry in 'runs' must be a JSON object")
    else:
        raise _UsageError("compare needs --bundle or --config FILE")

    merged_runs = []
    for entry in entries:
        merged = _merge_run(shared, overrides)
        merged.update((key, _coerce(key, value)) for key, value in entry.items())
        merged_runs.append(merged)

    run_configs = []
    seen_labels = set()
    # Flags and shared values apply to the runs that read them; a run
    # entry's own settings must be read by that run.
    for merged, entry in zip(merged_runs, entries):
        run_config = _training_config(merged, set(entry))
        if run_config.run_label in seen_labels:
            raise ConfigError(
                f"duplicate run label {run_config.run_label!r}; set distinct --label values"
            )
        seen_labels.add(run_config.run_label)
        run_configs.append(run_config)
    # Every run trains on one build of the data, so a mismatch is
    # rejected before any of them starts.
    sim.check_shared_data(run_configs)
    data = sim.prepare_data(run_configs[0])

    results = []
    for run_config in run_configs:
        result = sim.run_training(run_config, data)
        results.append(result)
        print(_summary_line(result))

    comparison = sim.compare_runs(results)
    prefix = str(args.out_prefix)
    for result in results:
        path = f"{prefix}_{result.label}.csv"
        sim.write_run_csv(result, path)
        print(f"wrote {path}")
    it_path, th_path = f"{prefix}_iterations.csv", f"{prefix}_thresholds.csv"
    sim.write_comparison_csvs(comparison, it_path, th_path)
    echo_path = f"{prefix}.config.json"
    _echo_config(
        {"shared": {**shared, **overrides}, "runs": [dict(e) for e in entries]},
        echo_path,
    )
    print(f"wrote {it_path}")
    print(f"wrote {th_path}")
    print(f"wrote {echo_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def _add_run_flags(p: argparse.ArgumentParser, omit: tuple[str, ...] = ()) -> None:
    """One flag per run field; a flag not given leaves no attribute."""
    for key, field in _RUN_SCHEMA.items():
        if key in omit:
            continue
        if field.type is bool:
            how = {"action": "store_true"}
        else:
            how = {"type": field.parse or field.type, "choices": field.choices}
        p.add_argument("--" + key.replace("_", "-"), default=argparse.SUPPRESS,
                       help=field.help, **how)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradcode",
        description="Straggler-tolerant gradient aggregation schemes and simulation.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    scheme = top.add_parser("scheme", help="build, verify, or inspect scheme files")
    sub = scheme.add_subparsers(dest="scheme_command", required=True)

    build = sub.add_parser("build", help="construct a scheme or two-stage plan")
    build.add_argument("--kind", required=True, choices=list(codec.KINDS))
    build.add_argument("--n", required=True, type=int)
    build.add_argument("--s", type=int)
    build.add_argument("--seed", type=int, help="H draw seed (cyc only, and required there)")
    build.add_argument("--alpha", type=float,
                       help="build a two-stage plan for this slowdown factor")
    build.add_argument("--out", required=True)
    build.set_defaults(func=cmd_scheme_build)

    verify = sub.add_parser("verify", help="exhaustively check a scheme file")
    verify.add_argument("file")
    verify.add_argument("--budget", type=int, default=codec.DEFAULT_ENUMERATION_BUDGET)
    verify.set_defaults(func=cmd_scheme_verify)

    inspect = sub.add_parser("inspect", help="print a scheme file's layout")
    inspect.add_argument("file")
    inspect.set_defaults(func=cmd_scheme_inspect)

    simulate = top.add_parser("simulate", help="run one training simulation")
    simulate.add_argument("--config", help="JSON file of run parameters")
    _add_run_flags(simulate)
    simulate.add_argument("--out", required=True, help="per-iteration CSV path")
    simulate.set_defaults(func=cmd_simulate)

    compare = top.add_parser("compare", help="run and align multiple simulations")
    compare.add_argument("--config", help="JSON with 'shared' and 'runs'")
    compare.add_argument("--bundle", action="store_true",
                         help="naive, ignore, frac, cyc on one cluster")
    _add_run_flags(compare, omit=_PER_RUN_KEYS)
    compare.add_argument("--out-prefix", dest="out_prefix", required=True)
    compare.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except VALIDATION_ERRORS as err:
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except NUMERICAL_ERRORS as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (*IO_ERRORS, OSError) as err:
        print(f"file error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
