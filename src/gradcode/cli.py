"""Command-line interface: build and verify schemes, run simulations.

Exit codes: 0 success, 2 usage (bad flags, missing or negative seeds),
3 validation (violated preconditions, bad configuration values),
4 numerical (span or decode failures, divergence, starved rounds), 5 I/O
(unreadable or malformed files).

A run setting is one ``_RUN_SCHEMA`` entry: its type, target, choices,
help, read rule and per-run scope. Run parameters resolve as defaults <
config file (a compare config's ``shared`` block) < command-line flags <
a compare run entry's own fields.
Every simulation must be explicitly seeded, with non-negative seeds: give
the data, latency and straggler seeds, which every run draws from, and
the scheme seed when the run builds a cyclic code inline, alone or as a
plan's stage two; or give ``--seed-all N``, which derives scheme, data,
latency, and straggler seeds as N, N+1, N+2, N+3 (individual flags still
override). A scheme seed the run does not read is accepted, so that a
run's echo, which holds all four, reruns it.
The effective merged configuration is echoed next to each output file
so a run can be reproduced from its artifacts alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import codec, learn, partial, sim
from .errors import ConfigError, NumericalError, ParseError, ValidationError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4
EXIT_IO = 5


class _UsageError(Exception):
    """Bad or missing command-line input; maps to EXIT_USAGE."""


_SEED_NAMES = ("seed_scheme", "seed_data", "seed_latency", "seed_straggler")


class _Field(NamedTuple):
    """One run setting. ``target`` is the config class and field it fills,
    whose default is the setting's; a setting without one is read by
    ``_build_strategy`` or ``_resolve_seeds`` and defaults to None.
    ``parse`` turns flag text into the value when ``type`` alone cannot.
    ``read_under`` is (the setting that decides, the values under which
    this one is read); a setting is read only if its decider is read
    too. A ``per_run`` setting tells a compare's runs apart, so compare
    reads it from its run entries only, never from flags. ``null_ok``
    lets a config file set null despite a non-None default."""

    type: type
    target: tuple[type, str] | None = None
    choices: tuple | None = None
    help: str | None = None
    parse: Callable[[str], object] | None = None
    read_under: tuple[str, tuple] | None = None
    per_run: bool = False
    null_ok: bool = False

    @property
    def default(self):
        if self.target is None:
            return None
        owner, name = self.target
        default = owner.__dataclass_fields__[name].default
        return None if default is dataclasses.MISSING else default


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
# defaults and choices. A config file may set any of them: the output
# paths and --config are flag-only, but scheme_file is not, and a
# relative scheme_file resolves against the working directory, not the
# config file's.
_CODED = ("strategy", ("coded", "partial"))
_RUN_SCHEMA: dict[str, _Field] = {
    "strategy": _Field(str, None, ("naive", "ignore", "coded", "partial"), per_run=True),
    "scheme_file": _Field(str, read_under=_CODED, per_run=True),
    "kind": _Field(str, None, codec.KINDS, read_under=_CODED, per_run=True),
    "n": _Field(int),
    "s": _Field(int, read_under=("strategy", ("ignore", "coded", "partial"))),
    "alpha": _Field(float, read_under=("strategy", ("partial",)), per_run=True),
    "d": _Field(int, (sim.TrainingConfig, "d")),
    "p": _Field(int, (sim.TrainingConfig, "p")),
    "iterations": _Field(int, (sim.TrainingConfig, "iterations")),
    "optimizer": _Field(str, (learn.OptimizerConfig, "method"), learn.METHODS),
    "eta": _Field(float, (learn.OptimizerConfig, "eta"), read_under=("optimizer", (learn.NAG,))),
    "c1": _Field(float, (learn.OptimizerConfig, "c1"), read_under=("optimizer", (learn.GD_DECAY,))),
    "c2": _Field(float, (learn.OptimizerConfig, "c2"), read_under=("optimizer", (learn.GD_DECAY,))),
    "compute_time": _Field(float, (sim.LatencyModel, "compute_time_per_partition")),
    "comm_time": _Field(float, (sim.LatencyModel, "comm_time")),
    # null in a config file means no jitter.
    "jitter_sigma": _Field(float, (sim.LatencyModel, "jitter_sigma"), None, "number or 'none'",
                           _parse_jitter, null_ok=True),
    "straggler_mode": _Field(str, (sim.StragglerPolicy, "mode"), sim.STRAGGLER_MODES),
    "straggler_workers": _Field(tuple, (sim.StragglerPolicy, "workers"), None,
                                "comma-separated worker indices", _parse_workers),
    "straggler_count": _Field(int, (sim.StragglerPolicy, "count")),
    "straggler_kind": _Field(str, (sim.StragglerPolicy, "kind"), sim.STRAGGLER_KINDS,
                             read_under=("straggler_mode", ("fixed", "random"))),
    "straggler_extra": _Field(float, (sim.StragglerPolicy, "extra"), None,
                              "seconds added per message (inf allowed)",
                              read_under=("straggler_kind", ("delay",))),
    "straggler_alpha": _Field(float, (sim.StragglerPolicy, "alpha"),
                              read_under=("straggler_kind", ("slowdown",))),
    "holdout_frac": _Field(float, (sim.TrainingConfig, "holdout_frac")),
    "auc_interval": _Field(int, (sim.TrainingConfig, "auc_interval")),
    "seed_all": _Field(int, help="derive the four sub-seeds as N, N+1, N+2, N+3"),
    "seed_scheme": _Field(int),
    "seed_data": _Field(int, (sim.SeedBundle, "data")),
    "seed_latency": _Field(int, (sim.SeedBundle, "latency")),
    "seed_straggler": _Field(int, (sim.SeedBundle, "straggler")),
    "label": _Field(str, (sim.TrainingConfig, "label"), per_run=True),
    "verify_decode": _Field(bool, (sim.TrainingConfig, "verify_decode"), read_under=_CODED),
}
_RUN_DEFAULTS = {key: field.default for key, field in _RUN_SCHEMA.items()}


def _coerce(key: str, value):
    """Type-check one config-file value, JSON natives in, run types out."""
    if key not in _RUN_SCHEMA:
        raise ConfigError(f"unknown config field {key!r}")
    field = _RUN_SCHEMA[key]
    want = field.type
    if value is None:
        if field.default is None or field.null_ok:
            return None
        raise ConfigError(f"config field {key!r} must not be null")
    if want is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"config field {key!r} must be an integer, got {value!r}")
        return value
    if want is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config field {key!r} must be a number, got {value!r}")
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"config field {key!r} is too large for a float") from None
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


def _seed_flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _check_seed(flag: str, seed: int | None) -> None:
    # numpy's generators take no negative seed.
    if seed is not None and seed < 0:
        raise _UsageError(f"seeds must be non-negative integers; got {flag} {seed}")


def _resolve_seeds(merged: dict) -> None:
    """Derive the four seeds from ``seed_all`` and demand the three that
    every run draws from; ``_build_scheme`` demands the scheme seed."""
    base = merged["seed_all"]
    _check_seed("--seed-all", base)
    if base is not None:
        for offset, name in enumerate(_SEED_NAMES):
            if merged[name] is None:
                merged[name] = base + offset
    for name in _SEED_NAMES:
        _check_seed(_seed_flag(name), merged[name])
    missing = [name for name in _SEED_NAMES[1:] if merged[name] is None]
    if missing:
        flags = ", ".join(_seed_flag(name) for name in missing)
        raise _UsageError(
            f"explicit seeds are required for reproducible runs; give --seed-all or {flags}"
        )


def _need(merged: dict, key: str, why: str):
    if merged[key] is None:
        raise _UsageError(f"--{key.replace('_', '-')} is required {why}")
    return merged[key]


def _build_scheme(kind: str, n: int, s: int, alpha: float | None, seed: int | None,
                  seed_flag: str) -> codec.GradientCode | partial.TwoStagePlan:
    """The (n, s) code of ``kind``, or the two-stage plan over it when
    ``alpha`` is given. A cyclic code needs ``seed``, which the command
    takes as ``seed_flag``."""
    if kind == codec.CYC and seed is None:
        raise _UsageError(f"cyclic schemes draw H at random; give an explicit {seed_flag}")
    if alpha is not None:
        return partial.plan_partial(n, s, alpha, kind=kind, seed=seed)
    if kind == codec.FRAC:
        return codec.build_frac(n, s)
    return codec.build_cyc(n, s, seed)


def _build_strategy(merged: dict) -> sim.Strategy:
    name = _need(merged, "strategy", "(naive, ignore, coded, or partial)")
    why = f"for the {name} strategy"
    if name == "naive":
        return sim.Naive(_need(merged, "n", why))
    if name == "ignore":
        return sim.IgnoreStragglers(_need(merged, "n", why), _need(merged, "s", why))
    path = merged["scheme_file"]
    if path is not None:
        scheme = partial.import_scheme(path)
        is_plan = isinstance(scheme, partial.TwoStagePlan)
        if is_plan and name == "coded":
            raise ConfigError(f"{path} holds a two-stage plan; use --strategy partial")
        if not is_plan and name == "partial":
            raise ConfigError(f"{path} holds a plain scheme; the partial strategy needs a plan file")
        code = scheme.code if is_plan else scheme
        held = {"n": code.n, "s": code.s, "kind": code.kind}
        if is_plan:
            held["alpha"] = scheme.alpha
        for key, value in held.items():
            if merged[key] not in (None, value):
                raise ConfigError(
                    f"{key}={merged[key]!r} contradicts {path}, which holds {key}={value!r}"
                )
    else:
        inline = "to build a scheme inline"
        scheme = _build_scheme(
            _need(merged, "kind", f"{inline} (or give --scheme-file)"),
            _need(merged, "n", inline), _need(merged, "s", inline),
            _need(merged, "alpha", "for a two-stage plan") if name == "partial" else None,
            merged["seed_scheme"], "--seed-scheme")
    if isinstance(scheme, partial.TwoStagePlan):
        return sim.PartialCoded(scheme)
    return sim.Coded(scheme)


def _check_read(merged: dict, given: set[str]) -> None:
    """Raise ConfigError for a key in ``given`` that the run never reads.

    A key left at its default counts as not set, so a run's own config
    echo, which holds every key, reruns it. The error names the topmost
    decider, along the key's chain of them, that rules the key out.
    """
    for key, field in _RUN_SCHEMA.items():
        if field.read_under is None or key not in given or merged[key] == field.default:
            continue
        unread, rule = None, field.read_under
        while rule is not None:
            by, readers = rule
            if merged[by] not in (None, *readers):
                unread = by
            rule = _RUN_SCHEMA[by].read_under
        if unread is not None:
            raise ConfigError(
                f"the {merged[unread]} {unread} does not read {key}, given {merged[key]!r}"
            )


def _filled(owner: type, merged: dict) -> dict:
    """The fields of ``owner`` that run settings fill, by field name."""
    return {field.target[1]: merged[key] for key, field in _RUN_SCHEMA.items()
            if field.target and field.target[0] is owner}


def _training_config(merged: dict, given: set[str]) -> sim.TrainingConfig:
    """The run ``merged`` describes; ``given`` names the settings set
    for this run alone, each of which the run must read."""
    for key, field in _RUN_SCHEMA.items():
        if field.choices and merged[key] not in (None, *field.choices):
            raise ConfigError(f"config field {key!r} must be one of {field.choices}, "
                              f"got {merged[key]!r}")
    _check_read(merged, given)
    _resolve_seeds(merged)
    parts = {"strategy": _build_strategy(merged)}
    for name, owner in (("optimizer", learn.OptimizerConfig), ("latency", sim.LatencyModel),
                        ("policy", sim.StragglerPolicy), ("seeds", sim.SeedBundle)):
        parts[name] = owner(**_filled(owner, merged))
    return sim.TrainingConfig(**parts, **_filled(sim.TrainingConfig, merged))


def _check_out_dirs(*paths) -> None:
    """Refuse, before any run trains, an output path whose directory is
    missing."""
    for path in paths:
        if not Path(path).parent.is_dir():
            raise FileNotFoundError(f"no directory for output file {path}")


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
    if args.kind != codec.CYC and args.seed is not None:
        raise _UsageError(f"{args.kind} schemes draw nothing at random; drop --seed")
    _check_seed("--seed", args.seed)
    scheme = _build_scheme(args.kind, args.n, args.s, args.alpha, args.seed, "--seed")
    if isinstance(scheme, partial.TwoStagePlan):
        plan = scheme
        partial.export_plan(plan, args.out)
        print(
            f"wrote {args.out}: two-stage kind={plan.code.kind} n={plan.n} s={plan.s} "
            f"alpha={_fmt(plan.alpha)} naive_per_worker={plan.naive_per_worker} "
            f"partitions={plan.total_partitions} "
            f"load_fraction={_fmt(partial.load_fraction(plan.n, plan.s, plan.alpha))} "
            f"slack={_fmt(partial.timing_slack(plan))}"
        )
        return EXIT_OK
    codec.export_code(scheme, args.out)
    print(f"wrote {args.out}: kind={scheme.kind} n={scheme.n} s={scheme.s}")
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
    loaded = partial.import_scheme(args.file)
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
    loaded = partial.import_scheme(args.file)
    if isinstance(loaded, partial.TwoStagePlan):
        plan = loaded
        print(f"two-stage plan: n={plan.n} s={plan.s} alpha={_fmt(plan.alpha)}")
        print(
            f"partitions: naive={plan.naive_stage.size} "
            f"coded={plan.n} total={plan.total_partitions}"
        )
        print(
            f"per-worker load: naive={plan.naive_per_worker} "
            f"coded={plan.code.s + 1} "
            f"fraction={_fmt(partial.realized_load_fraction(plan))} "
            f"(formula {_fmt(partial.load_fraction(plan.n, plan.s, plan.alpha))})"
        )
        print(f"timing slack: {_fmt(partial.timing_slack(plan))}")
        code = plan.code
        print(f"stage-two code: kind={code.kind} n={code.n} s={code.s}")
        return EXIT_OK
    code = loaded
    print(f"scheme: kind={code.kind} n={code.n} s={code.s}")
    if code.h_seed is not None:
        print(f"h_seed: {code.h_seed}")
    print(f"survivors needed: {code.survivors_needed}")
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
    _check_out_dirs(args.out)
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

    # Flags and shared values apply to the runs that read them; a run
    # entry's own settings must be read by that run.
    run_configs = [_training_config(merged, set(entry))
                   for merged, entry in zip(merged_runs, entries)]
    # Every run trains on one build of the data, so a comparison that
    # cannot be aligned is rejected before any of them starts.
    sim.check_comparison(run_configs)
    prefix = str(args.out_prefix)
    paths = [f"{prefix}_{run_config.run_label}.csv" for run_config in run_configs]
    it_path, th_path = f"{prefix}_iterations.csv", f"{prefix}_thresholds.csv"
    echo_path = f"{prefix}.config.json"
    _check_out_dirs(echo_path, *paths)
    data = sim.prepare_data(run_configs[0])

    results = []
    for run_config in run_configs:
        result = sim.run_training(run_config, data)
        results.append(result)
        print(_summary_line(result))

    comparison = sim.compare_runs(results)
    for result, path in zip(results, paths):
        sim.write_run_csv(result, path)
        print(f"wrote {path}")
    sim.write_comparison_csvs(comparison, it_path, th_path)
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


def _add_run_flags(p: argparse.ArgumentParser, per_run: bool = True) -> None:
    """One flag per run field, the per-run ones only if ``per_run``; a
    flag not given leaves no attribute."""
    for key, field in _RUN_SCHEMA.items():
        if field.per_run and not per_run:
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
    build.add_argument("--s", required=True, type=int)
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
    _add_run_flags(compare, per_run=False)
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
    except ValidationError as err:
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as err:
        detail = f" ({err})" if str(err) else ""
        print(f"validation error: the run's arrays do not fit in memory{detail}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ParseError, OSError) as err:
        print(f"file error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
