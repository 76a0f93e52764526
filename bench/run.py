"""Benchmark of the gradcode CLI: host time of simulate, compare and scheme verify.

Usage, from the repository root:

    python3 bench/run.py --workload desk_bundle --seed 0 --seconds 45 --trace 0

The command drives ``gradcode.cli.main(argv)`` in-process, closed loop
with one caller: each invocation starts when the previous one returns.
A pass is one fixed sequence of invocations whose argv and seeds come
from ``--seed``; passes repeat until the next one would end after
``--seconds`` (at least two run, so a rerun of the seed can be compared
byte for byte). Every pass repeats the same work, so each segment of it
(an invocation's set-up and output, each round) is timed once per pass;
the end-to-end timings use each segment's fastest repetition, the noise
floor, which the host's drifting speed moves far less than a median. On
the CPU-bound workloads they are also scaled to the speed at which a fixed
reference kernel, timed between passes, takes REF_KERNEL_S.

``--trace 0`` probes only the round boundaries and prints the
end-to-end metrics. ``--trace 1`` alternates passes with every layer
probe installed (first) and passes with round probes only, and prints
the per-layer metrics and the tracing overhead. Outputs of every pass
are checked; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A failed check exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import math
import os
import platform
import shutil
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NPROC = len(os.sched_getaffinity(0))
# BLAS threads are capped at the cores this process may use; this must
# happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import metrics as M  # noqa: E402
from spans import LAYER_PROBES, ROUND_PROBES, Probes, Tracer, peak_rss_mb  # noqa: E402

MIN_PASSES = 2
LOSS_RTOL = 1e-6  # the trajectory-equivalence tolerance of the acceptance suite
RESIDUAL_TOL = 1e-8  # gradcode's decode acceptance threshold

# Metric names and units come from BENCHMARK.json, the benchmark's contract.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
# Layers of the scheme checkers, which only verify_cyc runs; printed, but
# not BENCHMARK.json metrics since that workload is not in the benchmark.
LAYER_UNITS = {**PER_LAYER, "codec.verify_bspan.s": "s", "codec.verify_bspan.sets": "count",
               "codec.mds_check.s": "s", "codec.mds_check.subsets": "count", "codec.io.s": "s"}


# ---------------------------------------------------------------------------
# Workloads: each pass is a list of invocations built from the seed.


@dataclass
class RunCsv:
    """A per-run CSV the pass must write, and what it must hold."""

    name: str
    survivors: int
    exact: bool
    data: tuple[int, int, int, int]  # data seed, d, p, iterations


@dataclass
class Invocation:
    command: str  # simulate, compare, build or verify
    argv: list[str]
    csvs: list[RunCsv] = field(default_factory=list)
    # Invocations of a pass with one work name do the same work on other
    # data, so their rounds are timed as repetitions of each other.
    work: str | None = None


def _stragglers(count: int, kind: str, amount: str) -> list[str]:
    flag = "--straggler-extra" if kind == "delay" else "--straggler-alpha"
    return ["--straggler-mode", "random", "--straggler-count", str(count),
            "--straggler-kind", kind, flag, amount]


def _bundle(prefix: str, n: int, s: int, d: int, p: int, T: int, seed: int) -> Invocation:
    argv = ["compare", "--bundle", "--n", str(n), "--s", str(s), "--d", str(d),
            "--p", str(p), "--iterations", str(T), *_stragglers(s, "delay", "5"),
            "--seed-all", str(seed), "--out-prefix", prefix]
    data = (seed + 1, d, p, T)
    csvs = [
        RunCsv(f"{prefix}_naive.csv", n, True, data),
        RunCsv(f"{prefix}_ignore_s{s}.csv", n - s, False, data),
        RunCsv(f"{prefix}_frac_n{n}_s{s}.csv", n - s, True, data),
        RunCsv(f"{prefix}_cyc_n{n}_s{s}.csv", n - s, True, data),
    ]
    return Invocation("compare", argv, csvs)


def desk_bundle(seed: int, out: Path) -> list[Invocation]:
    n, s, d, p, T = 24, 3, 10_000, 100, 100
    partial_csv = str(out / "partial.csv")
    simulate = ["simulate", "--strategy", "partial", "--kind", "cyc", "--n", str(n),
                "--s", str(s), "--alpha", "2", "--d", str(d), "--p", str(p),
                "--iterations", str(T), *_stragglers(s, "slowdown", "2"),
                "--seed-all", str(seed), "--out", partial_csv]
    return [
        _bundle(str(out / "desk"), n, s, d, p, T, seed),
        Invocation("simulate", simulate, [RunCsv(partial_csv, n - s, True, (seed + 1, d, p, T))]),
    ]


def paper_bundle(seed: int, out: Path) -> list[Invocation]:
    return [_bundle(str(out / "paper"), 12, 2, 554_400, 100, 25, seed)]


def verify_cyc(seed: int, out: Path) -> list[Invocation]:
    codes = [("cyc", 4, seed + k) for k in range(5)] + [("frac", 3, None)]
    invocations = []
    for i, (kind, s, code_seed) in enumerate(codes):
        path = str(out / f"{kind}{i}.json")
        build = ["scheme", "build", "--kind", kind, "--n", "24", "--s", str(s), "--out", path]
        if code_seed is not None:
            build += ["--seed", str(code_seed)]
        invocations += [Invocation("build", build, work=f"build {kind}"),
                        Invocation("verify", ["scheme", "verify", path], work=f"verify {kind}")]
    return invocations


# name: (passes, round probes, reference kernel runs before each pass, 0 to
# leave the timings unscaled). The kernel runs a few hundred times in a run.
WORKLOADS = {
    "desk_bundle": (desk_bundle, "bundle", 10),
    "paper_bundle": (paper_bundle, "bundle", 0),
    "verify_cyc": (verify_cyc, "verify", 50),
}


# ---------------------------------------------------------------------------
# Reference kernel
#
# The host's cores switch between a fast and a slow state, and the share of
# time in the slow one drifts over minutes, so even the noise floor of a
# workload moves by a fifth from one run to the next. The kernel
# does the kind of work a desk_bundle round does (small matrix-vector
# products, a logistic map, interpreter work) on fixed data, between passes.
# Its fastest time in a run says how fast the cores ran in that run, and
# the end-to-end timings are scaled to the speed at which the kernel's
# fastest time is REF_KERNEL_S. paper_bundle is not scaled: its rounds wait
# on memory, and scaling it by the kernel did not narrow its spread.

REF_KERNEL_S = 0.70e-3  # the kernel's fastest time on the 2-vCPU host the bounds were set on


def reference_kernel(np):
    """A function timing one run of the kernel, in host seconds."""
    rng = np.random.default_rng(0)
    X, beta, y = rng.standard_normal((333, 100)), rng.standard_normal(100), rng.random(333)

    def run() -> float:
        t0 = time.perf_counter()
        for _ in range(40):
            p = 1.0 / (1.0 + np.exp(-(X @ beta)))
            X.T @ (p - y)
            {i: 2 * i for i in range(50)}
        return time.perf_counter() - t0

    return run


# ---------------------------------------------------------------------------
# Passes


@dataclass
class Outcome:
    invocation: Invocation
    code: int | None
    stdout: str
    stderr: str

    @property
    def ok(self) -> bool:
        allowed = (0, 4) if self.invocation.command == "verify" else (0,)
        return self.code in allowed


@dataclass
class Pass:
    traced: bool
    outcomes: list[Outcome]
    parts: list[M.Partition]
    roots: list[M.Span]
    bspans: list[dict]  # attributes of each verify_bspan span
    spans: list[M.Span]  # every span, kept for traced passes only
    out: Path

    @property
    def wall(self) -> float:
        return sum(root.duration for root in self.roots)

    @property
    def setup(self) -> float:
        return sum(p.setup for p in self.parts)

    @property
    def rounds(self) -> list[float]:
        return [r for p in self.parts for r in p.rounds]

    @property
    def output(self) -> float:
        return sum(p.output for p in self.parts)


def _round_bounds(spans: list[M.Span]) -> dict[int, tuple[list[float], list[float]]]:
    """Per run id, the round starts and run ends.

    A round is a simulated training round (``run_iteration`` to the next
    one, or to the ``run_training`` return) or, in ``scheme verify``, one
    survivor-set check (``solve_right`` called by ``verify_bspan``).
    """
    bounds: dict[int, tuple[list[float], list[float]]] = {}
    for span in spans:
        starts, ends = bounds.setdefault(span.run, ([], []))
        if span.name == "sim.run_iteration":
            starts.append(span.start)
        elif span.name in ("sim.run_training", "codec.verify_bspan"):
            ends.append(span.end)
        elif (span.name == "numerics.solve_right" and span.parent is not None
              and spans[span.parent].name == "codec.verify_bspan"):
            starts.append(span.start)
    return bounds


def run_pass(mods, workload: str, seed: int, traced: bool, out: Path) -> Pass:
    build, kind, _ = WORKLOADS[workload]
    out.mkdir(parents=True)
    invocations = build(seed, out)
    tracer = Tracer()
    main = tracer.wrap("cli.main", mods["cli"].main)
    table = LAYER_PROBES if traced else ROUND_PROBES[kind]
    outcomes = []
    with Probes(tracer, mods, table):
        for inv in invocations:
            tracer.run += 1
            stdout, stderr = io.StringIO(), io.StringIO()
            code = None
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = main(inv.argv)
                except Exception:  # a crash is counted as a failed invocation
                    traceback.print_exc()
            outcomes.append(Outcome(inv, code, stdout.getvalue(), stderr.getvalue()))
    spans = tracer.spans
    roots = [span for span in spans if span.parent is None]
    bounds = _round_bounds(spans)
    parts = [M.partition(root.start, root.end, *bounds[root.run]) for root in roots]
    for part in parts:
        part.rounds = array("d", part.rounds)
    bspans = [span.attrs for span in spans if span.name == "codec.verify_bspan"]
    # Untraced spans are dropped here so the harness's memory stays the
    # same however many passes run; peak_rss_mb would count it otherwise.
    return Pass(traced, outcomes, parts, roots, bspans, spans if traced else [], out)


# ---------------------------------------------------------------------------
# Output checks


class Checks:
    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.results)


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_pass(checks: Checks, p: Pass, final_losses: dict) -> None:
    for o in p.outcomes:
        if not o.ok:
            checks.add(f"exit {' '.join(o.invocation.argv[:2])}", False,
                       f"code {o.code}: {o.stderr.strip()[-300:]}")
            continue
        for spec in o.invocation.csvs:
            name = Path(spec.name).name
            rows = _read_csv(spec.name)
            T = spec.data[3]
            counts = {len(r["survivors"].split(";")) for r in rows}
            checks.add(f"survivors {name}", len(rows) == T and counts == {spec.survivors},
                       f"{len(rows)} rows, survivor counts {sorted(counts)}, want {spec.survivors}")
            clock = [float(r["sim_time_s"]) for r in rows]
            checks.add(f"clock {name}", all(math.isfinite(t) for t in clock)
                       and all(b >= a for a, b in zip(clock, clock[1:])),
                       "simulated clock must never decrease")
            if spec.exact:
                final_losses.setdefault((spec.data, name), []).append(float(rows[-1]["loss"]))


def check_verify(checks: Checks, p: Pass, np) -> list[tuple[int, int]]:
    """Checks each scheme verify; returns (failures, checked) per code."""
    reports = []
    bspans = p.bspans
    verifies = [o for o in p.outcomes if o.invocation.command == "verify"]
    checks.add("verify reports", len(bspans) == len(verifies),
               f"{len(bspans)} B-span reports for {len(verifies)} verify invocations")
    for a, o in zip(bspans, verifies):
        name = Path(o.invocation.argv[-1]).name
        want = math.comb(a["n"], a["s"])
        checks.add(f"checked {name}", a["checked"] == want, f"{a['checked']} of C(n,s)={want}")
        B = np.array(a["B"])
        confirmed = 0
        for I in a["failures"]:
            rows = B[I, :]
            x = np.linalg.lstsq(rows.T, np.ones(B.shape[1]), rcond=None)[0]
            confirmed += float(np.max(np.abs(x @ rows - 1.0))) > RESIDUAL_TOL
        checks.add(f"failures {name}", confirmed == len(a["failures"]),
                   f"{confirmed} of {len(a['failures'])} reported failing sets confirmed by lstsq")
        lines = o.stdout.strip().splitlines()
        printed_fail = any(line.startswith("bspan: FAIL") for line in lines)
        said_fail = bool(lines) and lines[-1] == "verify: FAIL"
        checks.add(f"exit {name}", printed_fail == bool(a["failures"])
                   and o.code == (4 if said_fail else 0),
                   f"exit {o.code}, last line {lines[-1] if lines else ''!r}")
        reports.append((len(a["failures"]), a["checked"]))
    return reports


def _columns(path: Path) -> list[tuple[str, str]]:
    return [(r["sim_time_s"], r["survivors"]) for r in _read_csv(str(path))]


def check_rerun(checks: Checks, first: Pass, second: Pass) -> None:
    for o in first.outcomes:
        for spec in o.invocation.csvs:
            a = Path(spec.name)
            b = second.out / a.relative_to(first.out)
            same = a.exists() and b.exists() and _columns(a) == _columns(b)
            checks.add(f"rerun {a.name}", same,
                       "sim_time_s and survivors columns identical across two runs of the seed")


def oracle_final_loss(mods, data_seed: int, d: int, p: int, T: int) -> float:
    """Final loss of a single-node run: whole-matrix gradients and NAG."""
    learn = mods["learn"]
    rng = mods["numerics"].make_rng(data_seed)
    dataset, _ = learn.gen_synthetic(rng, d, p)
    train, _ = learn.holdout_split(dataset, 0.2, rng)
    del dataset
    opt = learn.make_optimizer(learn.OptimizerConfig(), p, learn.lipschitz_bound(train.X))
    for _ in range(T):
        opt.step(learn.full_gradient(train, opt.eval_point()))
    return learn.log_loss(train, opt.beta)


def check_oracle(checks: Checks, mods, final_losses: dict) -> None:
    oracles = {}
    for (data, name), losses in sorted(final_losses.items()):
        if data not in oracles:
            oracles[data] = oracle_final_loss(mods, *data)
        want = oracles[data]
        worst = max(abs(x - want) for x in losses) / max(1.0, abs(want))
        checks.add(f"oracle {name}", worst <= LOSS_RTOL,
                   f"final loss off the single-node oracle by {worst:.3e} relative")


# ---------------------------------------------------------------------------
# Metrics


def _shape(p: Pass) -> tuple[int, ...]:
    return tuple(len(part.rounds) for part in p.parts)


def floor_of(passes: list[Pass]) -> M.Partition:
    """Noise floor of the passes shaped like the first; a check reports the rest."""
    groups = [o.invocation.work or i for i, o in enumerate(passes[0].outcomes)]
    return M.noise_floor([p.parts for p in passes if _shape(p) == _shape(passes[0])], groups)


def end_to_end(passes: list[Pass], rss: float, scale: float) -> tuple[dict, M.Partition]:
    """Timings of the noise floor, each segment's fastest repetition, times ``scale``."""
    floor = floor_of(passes)
    values = {
        "wall_s": scale * floor.total,
        "setup_s": scale * floor.setup,
        "rounds_per_s": len(floor.rounds) / (scale * sum(floor.rounds)),
        "round_ms_p50": scale * 1e3 * M.percentile(floor.rounds, 50),
        "round_ms_p90": scale * 1e3 * M.percentile(floor.rounds, 90),
        "peak_rss_mb": rss,
    }
    return values, floor


def layer_values(p: Pass) -> dict:
    """Per-layer totals of one traced pass."""
    spans = p.spans
    selfs = M.self_times(spans)
    dur, self_, calls = {}, {}, {}
    for span, st in zip(spans, selfs):
        dur[span.name] = dur.get(span.name, 0.0) + span.duration
        self_[span.name] = self_.get(span.name, 0.0) + st
        calls[span.name] = calls.get(span.name, 0) + 1

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in spans if s.name == name and s.attrs and key in s.attrs)

    grad_rows = attr_sum("learn.partial_gradient", "rows")
    loss_rows = attr_sum("learn.log_loss", "rows")
    round_rows = attr_sum("sim.run_iteration", "rows")
    sent = attr_sum("sim.run_iteration", "sent")
    decodes = calls.get("codec.decode_row", 0)
    v = {
        "learn.partial_gradient.s": dur.get("learn.partial_gradient", 0.0),
        "learn.partial_gradient.calls": calls.get("learn.partial_gradient", 0),
        "learn.partial_gradient.rows": grad_rows,
        "learn.log_loss.s": dur.get("learn.log_loss", 0.0),
        "learn.log_loss.calls": calls.get("learn.log_loss", 0),
        "learn.train_passes_per_round": (2 * grad_rows + loss_rows) / round_rows if round_rows else 0.0,
        "learn.auc.s": dur.get("learn.auc", 0.0),
        "learn.auc.calls": calls.get("learn.auc", 0),
        "learn.step.s": dur.get("learn.step", 0.0),
        "learn.gen_synthetic.s": dur.get("learn.gen_synthetic", 0.0),
        "learn.gen_synthetic.calls": calls.get("learn.gen_synthetic", 0),
        "learn.holdout_split.s": dur.get("learn.holdout_split", 0.0),
        "learn.lipschitz_bound.s": dur.get("learn.lipschitz_bound", 0.0),
        "learn.gen_synthetic.rss_mb": attr_sum("learn.gen_synthetic", "rss_mb"),
        "learn.holdout_split.rss_mb": attr_sum("learn.holdout_split", "rss_mb"),
        "sim.run_iteration.self_s": self_.get("sim.run_iteration", 0.0),
        "sim.run_training.self_s": self_.get("sim.run_training", 0.0),
        "sim.rounds": calls.get("sim.run_iteration", 0),
        "sim.messages_sent": sent,
        "sim.useful_message_share": attr_sum("sim.run_iteration", "used") / sent if sent else 0.0,
        "sim.csv.s": dur.get("sim.csv", 0.0),
        "sim.compare_runs.s": dur.get("sim.compare_runs", 0.0),
        "codec.decode_row.s": dur.get("codec.decode_row", 0.0),
        "codec.decode_row.calls": decodes,
        "codec.decode_row.hit_share": attr_sum("codec.decode_row", "hit") / decodes if decodes else 0.0,
        "codec.build.s": dur.get("codec.build", 0.0),
        "partial.plan_partial.s": dur.get("partial.plan_partial", 0.0),
        "codec.verify_bspan.s": dur.get("codec.verify_bspan", 0.0),
        "codec.verify_bspan.sets": attr_sum("codec.verify_bspan", "checked"),
        "codec.mds_check.s": dur.get("codec.mds_check", 0.0),
        "codec.mds_check.subsets": attr_sum("codec.mds_check", "checked"),
        "numerics.solve_right.s": dur.get("numerics.solve_right", 0.0),
        "numerics.solve_right.calls": calls.get("numerics.solve_right", 0),
        "codec.io.s": dur.get("codec.io", 0.0),
        "cli.main.self_s": self_.get("cli.main", 0.0),
    }
    v["_self_sum"] = sum(selfs)
    return v


def per_layer(passes: list[Pass], checks: Checks) -> dict:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    per_pass = [layer_values(p) for p in traced]
    for p, v in zip(traced, per_pass):
        # wall_s is the time inside cli.main, so no time is left unattributed
        # and the self times of all spans must add up to it.
        checks.add("trace self-time partition",
                   abs(v["_self_sum"] - p.wall) <= 1e-9 * max(1.0, p.wall),
                   f"self times {v['_self_sum']:.6f} s vs traced wall {p.wall:.6f} s")
    out = {}
    # Every layer is printed; the result line keeps those BENCHMARK.json lists.
    for name in per_pass[0]:
        if name == "_self_sum":
            continue
        series = [v[name] for v in per_pass]
        # Peak-RSS growth shows only while the high-water mark is still
        # rising, so it is summed over the run rather than taken per pass.
        out[name] = sum(series) if name.endswith(".rss_mb") else M.median(series)
    out["trace.overhead_s"] = floor_of(traced).total - floor_of(plain).total
    return out


# ---------------------------------------------------------------------------
# Host manifest


def _git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    head_path = root / ".git" / "HEAD"
    try:
        head = head_path.read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = root / ".git" / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def manifest(mods, np, args, passes: list[Pass], samples: int, kernel_times: list[float]) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "gradcode": getattr(mods["package"], "__version__", "unknown"),
        "commit": _git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(np),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": NPROC,
        "loop": "closed, one caller",
        "passes": len(passes),
        "traced_passes": sum(p.traced for p in passes),
        "round_samples": samples,
        "round_samples_beyond_p90": M.beyond(90, samples) if samples else 0,
        "highest_tail_percentile": M.tail_percentile(samples),
        "reference_kernel_samples": len(kernel_times),
        "reference_kernel_fastest_ms": 1e3 * min(kernel_times) if kernel_times else None,
        "reference_kernel_median_ms": 1e3 * M.median(kernel_times) if kernel_times else None,
    }


# ---------------------------------------------------------------------------


def load_gradcode() -> dict:
    """Import gradcode from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import gradcode
    from gradcode import cli, codec, learn, numerics, partial, sim

    if src.resolve() not in Path(gradcode.__file__).resolve().parents:
        raise ImportError(f"gradcode was imported from {gradcode.__file__}, not {src}")
    return {"package": gradcode, "cli": cli, "codec": codec, "learn": learn,
            "numerics": numerics, "partial": partial, "sim": sim}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def measure(mods, args, work: Path, kernel) -> tuple[list[Pass], list[float]]:
    """Run passes until the next one would end after ``args.seconds``.

    Before each pass the reference ``kernel`` is timed as often as the
    workload asks; those times are returned with the passes.
    """
    passes: list[Pass] = []
    durations, samples = [], []
    start = time.perf_counter()
    while True:
        samples += [kernel() for _ in range(WORKLOADS[args.workload][2])]
        traced = bool(args.trace) and len(passes) % 2 == 0
        # Records of earlier passes stay alive; keep the collector from
        # rescanning them, as a fresh gradcode process would not have them.
        gc.collect()
        gc.freeze()
        t0 = time.perf_counter()
        passes.append(run_pass(mods, args.workload, args.seed, traced, work / f"pass{len(passes)}"))
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + M.median(durations) > args.seconds:
            return passes, samples


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        mods = load_gradcode()
    except ImportError as err:
        print(f"cannot import gradcode from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    import numpy as np

    out_root = ROOT / ".bench_out"
    work = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    checks = Checks()
    final_losses: dict = {}
    span_reports: list[tuple[int, int]] = []
    try:
        passes, kernel_times = measure(mods, args, work, reference_kernel(np))
        rss = peak_rss_mb()
        for p in passes:
            check_pass(checks, p, final_losses)
            span_reports += check_verify(checks, p, np)
        check_rerun(checks, passes[0], passes[1])
        check_oracle(checks, mods, final_losses)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [p for p in passes if not p.traced]
    scale = REF_KERNEL_S / min(kernel_times) if kernel_times else 1.0
    values, floor = end_to_end(plain, rss, scale)
    samples = len(floor.rounds)
    checks.add("same rounds in every pass", len({_shape(p) for p in passes}) == 1,
               f"rounds per invocation: {sorted({_shape(p) for p in passes})}")
    checks.add("p90 sample count", M.beyond(90, samples) >= M.TAIL_MIN,
               f"{samples} rounds, {M.beyond(90, samples)} beyond p90")
    for p in passes:
        for part, root in zip(p.parts, p.roots):
            checks.add("wall partition", abs(part.total - root.duration) <= 1e-9 * max(1.0, root.duration),
                       "setup + rounds + output must equal the invocation's wall time")
    layers = per_layer(passes, checks) if args.trace else {}

    outcomes = [o for p in passes for o in p.outcomes]
    failed = sum(not o.ok for o in outcomes)
    run_share = M.run_fail_share([(o.invocation.command, o.ok) for o in outcomes])
    span_share = M.span_fail_share(span_reports)
    verify_time = sum(root.duration for p in passes for root, o in zip(p.roots, p.outcomes)
                      if o.invocation.command == "verify")
    host = manifest(mods, np, args, passes, samples, kernel_times)
    floored = f"fastest of {len(plain)} passes"
    if kernel_times:
        floored += f", scaled by {scale:.4f} to the reference kernel's speed"

    def fmt(v):
        return "n/a" if v is None else f"{v:.6g}"

    print(f"gradcode benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for key, value in host.items():
        print(f"manifest {key}: {value}")
    for i, p in enumerate(passes):
        print(f"pass {i} {'traced' if p.traced else 'untraced'}: wall {p.wall:.4f} s, "
              f"setup {p.setup:.4f} s, {len(p.rounds)} rounds, "
              f"round p50 {1e3 * M.percentile(p.rounds, 50):.4f} ms")
    q = host["highest_tail_percentile"]
    print(f"metric wall_s: {fmt(values['wall_s'])} s (each segment's {floored})")
    print(f"metric setup_s: {fmt(values['setup_s'])} s (each invocation's {floored})")
    print(f"metric output_s: {fmt(scale * floor.output)} s (each invocation's {floored})")
    print(f"metric wall_s_unscaled: {fmt(floor.total)} s (each segment's fastest of {len(plain)} passes)")
    print(f"metric wall_s_median: {fmt(M.median([p.wall for p in plain]))} s "
          f"(median of {len(plain)} passes, neither floored nor scaled)")
    print(f"metric rounds_per_s: {fmt(values['rounds_per_s'])} 1/s (each round's {floored})")
    for name in ("round_ms_p50", "round_ms_p90"):
        print(f"metric {name}: {fmt(values[name])} ms ({samples} rounds, each the {floored})")
    if q is not None:
        print(f"metric round_ms_p{q:g}: {fmt(scale * 1e3 * M.percentile(floor.rounds, q))} ms "
              f"(highest percentile with {M.TAIL_MIN}+ of {samples} rounds beyond)")
    print(f"metric peak_rss_mb: {fmt(values['peak_rss_mb'])} MB")
    print(f"metric run_fail_share: {fmt(run_share)} (failed simulate/compare over attempted)")
    print(f"metric span_fail_share: {fmt(span_share)} "
          f"({sum(f for f, _ in span_reports)} of {sum(c for _, c in span_reports)} survivor sets)")
    print(f"metric verify_sets_per_s: "
          f"{fmt(sum(c for _, c in span_reports) / verify_time if verify_time else None)} 1/s")
    for name, value in layers.items():
        print(f"layer {name}: {fmt(value)} {LAYER_UNITS[name]}")
    for name, ok, detail in checks.results:
        if not ok:
            print(f"check FAILED {name}: {detail}")
    print(f"checks: {sum(ok for _, ok, _ in checks.results)} of {len(checks.results)} passed")

    chosen, units = (layers, PER_LAYER) if args.trace else (values, END_TO_END)
    result = {
        "correct": checks.ok,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": chosen[name], "unit": unit} for name, unit in units.items()},
    }
    record = {**result, "manifest": host, "end_to_end": values,
              "run_fail_share": run_share, "span_fail_share": span_share,
              "passes": [{"traced": p.traced, "wall_s": p.wall, "setup_s": p.setup,
                          "output_s": p.output, "rounds": len(p.rounds)} for p in passes],
              "checks": checks.results}
    out_root.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_root / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with open(out_root / f"spans-{stem}.jsonl", "w") as fh:
            for i, p in enumerate(passes):
                for s in p.spans:
                    fh.write(json.dumps({"pass": i, "traced": p.traced, "name": s.name,
                                         "start": s.start, "end": s.end,
                                         "parent": s.parent, "run": s.run}) + "\n")
    print(json.dumps(result))
    return 0 if checks.ok else 1


if __name__ == "__main__":
    sys.exit(main())
