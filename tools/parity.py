"""Compare two gradcode source trees output for output.

Usage, from the repository root:

    python3 tools/parity.py OLD_SRC NEW_SRC [--small] [--seed N]

OLD_SRC and NEW_SRC are directories that hold the ``gradcode`` package
(a checkout's ``src``). Each tree runs one fixed list of CLI invocations
through ``gradcode.cli.main``, in its own Python subprocess and a fresh
directory:

* a 24-worker desk bundle (``compare --bundle``, d=10,000, p=100, T=100,
  three random delay stragglers);
* a partial-cyc ``gd_decay --verify-decode`` simulate with three random
  slowdown stragglers;
* a p=1 bundle, where numpy's pairwise summation would differ from a
  left-to-right one;
* ``scheme build``, ``verify`` and ``inspect`` of a cyclic scheme and of
  a two-stage plan, each followed by a simulate of the strategy that
  ``--scheme-file`` loads from the file just built;
* a paper-scale bundle (d=554,400, split 12 ways) at T=5;
* one simulate for each way the aggregation rule can end a round or a
  run: naive under fixed finite delays, naive starved by an infinite one
  (exit 4), a two-stage plan whose naive stage it starves (exit 4),
  ignore-stragglers over its tolerance (exit 3), ignore-stragglers whose
  fixed stragglers 1, 10 and 22 never arrive, leaving unread partitions
  inside runs of equal partitions, and frac under infinite delays within
  its tolerance;
* a p=1 bundle without jitter, where arrival ties are common;
* a ``compare --config`` of three runs with their own labels and
  different iteration counts, so the comparison pads the shorter runs;
  each tree's directory gets the config file (``UNEVEN``) first;
* ``scheme build`` of cyclic schemes at (n, s) = (24, 4), seeds 0-9, and
  (30, 5), seeds 0-4, of a frac and a naive scheme and of a cyclic
  two-stage plan, each file compared byte for byte. These keep their
  sizes under ``--small``: each takes milliseconds.

Each subprocess runs with ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``
and ``MKL_NUM_THREADS`` set to the number of cores this process may use,
whatever the caller's environment, as ``bench/run.py`` sets them: the
output bits depend on the BLAS thread count, so a verdict holds at the
thread count the benchmark measures.

Then it prints every CSV, config echo, exit code or output line that
differs between the two trees, output paths stripped, and exits 1 if
any does (0 if none). A differing CSV whose header is unchanged is
reported with the header name of every column that has a differing cell,
then its first differing line. ``--small`` runs the same invocations at sizes
that finish in about a second; ``--seed`` (default 0) moves every seed.
The full run holds the paper-scale data, about 450 MB, in one
subprocess at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

MANIFEST = "parity-manifest.json"
UNEVEN = "uneven.json"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def invocations(small: bool, seed: int) -> list[tuple[str, list[str]]]:
    """(name, argv after ``gradcode``) of each invocation, in run order."""
    desk = ["--d", "2400", "--p", "10", "--iterations", "8"] if small else \
        ["--d", "10000", "--p", "100", "--iterations", "100"]
    thin = ["--d", "1200", "--p", "1", "--iterations", "8"] if small else \
        ["--d", "4800", "--p", "1", "--iterations", "60"]
    paper = ["--d", "6000", "--p", "20", "--iterations", "3"] if small else \
        ["--d", "554400", "--p", "100", "--iterations", "5"]

    def stragglers(count, kind, amount):
        flag = "--straggler-extra" if kind == "delay" else "--straggler-alpha"
        return ["--straggler-mode", "random", "--straggler-count", str(count),
                "--straggler-kind", kind, flag, amount]

    def bundle(prefix, n, s, size, offset):
        return ["compare", "--bundle", "--n", str(n), "--s", str(s), *size,
                *stragglers(s, "delay", "5"), "--seed-all", str(seed + offset),
                "--out-prefix", prefix]

    partial = ["simulate", "--strategy", "partial", "--kind", "cyc", "--n", "24", "--s", "3",
               "--alpha", "2", "--optimizer", "gd_decay", "--verify-decode", *desk,
               *stragglers(3, "slowdown", "2"), "--seed-all", str(seed + 10),
               "--out", "partial.csv"]

    def delayed(strategy, mode, extra, offset, out, workers="2,5"):
        chosen = ["--straggler-workers", workers] if mode == "fixed" else \
            ["--straggler-count", "3"]
        return ["simulate", "--strategy", *strategy, "--n", "24", *desk,
                "--straggler-mode", mode, *chosen, "--straggler-kind", "delay",
                "--straggler-extra", extra, "--seed-all", str(seed + offset), "--out", out]

    def build(name, kind, n, *flags):
        return name, ["scheme", "build", "--kind", kind, "--n", str(n), *flags,
                      "--out", name + ".json"]

    return [
        ("desk bundle", bundle("desk", 24, 3, desk, 0)),
        ("partial simulate", partial),
        ("p=1 bundle", bundle("thin", 12, 2, thin, 20)),
        ("scheme build", ["scheme", "build", "--kind", "cyc", "--n", "24", "--s", "3",
                          "--seed", str(seed + 30), "--out", "cyc.json"]),
        ("scheme verify", ["scheme", "verify", "cyc.json"]),
        ("scheme inspect", ["scheme", "inspect", "cyc.json"]),
        ("cyc from file", ["simulate", "--strategy", "coded", "--scheme-file", "cyc.json", *desk,
                           *stragglers(3, "delay", "5"), "--seed-all", str(seed + 35),
                           "--out", "cyc-file.csv"]),
        ("plan build", ["scheme", "build", "--kind", "frac", "--n", "4", "--s", "1",
                        "--alpha", "2", "--out", "plan.json"]),
        ("plan verify", ["scheme", "verify", "plan.json"]),
        ("plan inspect", ["scheme", "inspect", "plan.json"]),
        ("plan from file", ["simulate", "--strategy", "partial", "--scheme-file", "plan.json",
                            *desk, *stragglers(1, "slowdown", "2"), "--seed-all",
                            str(seed + 37), "--out", "plan-file.csv"]),
        ("paper bundle", bundle("paper", 12, 2, paper, 40)),
        ("naive delayed", delayed(["naive"], "fixed", "5", 50, "naive.csv")),
        ("naive starved", delayed(["naive"], "fixed", "inf", 50, "starved.csv")),
        ("partial starved", delayed(["partial", "--kind", "frac", "--s", "3", "--alpha", "2"],
                                    "fixed", "inf", 55, "partial-starved.csv")),
        ("ignore over tolerance", delayed(["ignore", "--s", "2"], "random", "5", 60,
                                          "over.csv")),
        ("ignore with holes", delayed(["ignore", "--s", "3"], "fixed", "inf", 65, "holes.csv",
                                      workers="1,10,22")),
        ("frac infinite delay", delayed(["coded", "--kind", "frac", "--s", "3"], "random",
                                        "inf", 70, "frac.csv")),
        ("p=1 bundle without jitter", [*bundle("still", 12, 2, thin, 80),
                                       "--jitter-sigma", "none"]),
        ("uneven compare", ["compare", "--config", UNEVEN, "--out-prefix", "uneven"]),
        *(build(f"cyc{n}-{s}-seed{seed + i}", "cyc", n, "--s", str(s), "--seed", str(seed + i))
          for n, s, draws in ((24, 4, 10), (30, 5, 5)) for i in range(draws)),
        build("frac12-2", "frac", 12, "--s", "2"),
        build("naive8", "naive", 8),
        build("cyc12-2-plan", "cyc", 12, "--s", "2", "--seed", str(seed + 90),
              "--alpha", "1.5"),
    ]


def uneven_config(small: bool, seed: int) -> dict:
    """The ``compare --config`` file whose runs differ in length."""
    size, lengths = ({"d": 1200, "p": 4}, (5, 9, 7)) if small else \
        ({"d": 4800, "p": 20}, (40, 60, 50))
    runs = [{"strategy": "naive", "label": "short"},
            {"strategy": "coded", "kind": "frac", "s": 2, "label": "long"},
            {"strategy": "ignore", "s": 2, "label": "middle"}]
    return {
        "shared": {"n": 12, **size, "straggler_mode": "random", "straggler_count": 2,
                   "straggler_kind": "delay", "straggler_extra": 5.0, "auc_interval": 3,
                   "seed_all": seed + 100},
        "runs": [{**run, "iterations": length} for run, length in zip(runs, lengths)],
    }


def run_tree(src: str, workdir: str, small: bool, seed: int) -> None:
    """Run every invocation with ``src``'s gradcode, in ``workdir``.

    Writes each one's exit code and output lines to ``MANIFEST`` there,
    next to the files the invocations wrote.
    """
    sys.path.insert(0, os.path.abspath(src))
    from gradcode import cli

    os.chdir(workdir)
    Path(UNEVEN).write_text(json.dumps(uneven_config(small, seed)) + "\n")
    records = []
    for name, argv in invocations(small, seed):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        text = out.getvalue() + err.getvalue()
        lines = [line.replace(workdir, "") for line in text.splitlines()]
        records.append({"name": name, "exit": code, "lines": lines})
    Path(MANIFEST).write_text(json.dumps(records, indent=1) + "\n")


def _first_difference(old: list[str], new: list[str]) -> str:
    for i, (a, b) in enumerate(zip(old, new)):
        if a != b:
            return f"line {i + 1}: {a!r} != {b!r}"
    return f"{len(old)} lines != {len(new)} lines"


def differences(old_dir: Path, new_dir: Path) -> list[str]:
    """One line per exit code, output line or written file that differs."""
    found = []
    old_runs = json.loads((old_dir / MANIFEST).read_text())
    new_runs = json.loads((new_dir / MANIFEST).read_text())
    for old, new in zip(old_runs, new_runs):
        if old["exit"] != new["exit"]:
            found.append(f"{old['name']}: exit {old['exit']} != {new['exit']}")
        if old["lines"] != new["lines"]:
            found.append(f"{old['name']} output: "
                         f"{_first_difference(old['lines'], new['lines'])}")
    old_files = {p.name for p in old_dir.iterdir()} - {MANIFEST}
    new_files = {p.name for p in new_dir.iterdir()} - {MANIFEST}
    for name in sorted(old_files ^ new_files):
        found.append(f"{name}: written by {'OLD' if name in old_files else 'NEW'} only")
    for name in sorted(old_files & new_files):
        old_text = (old_dir / name).read_text().splitlines()
        new_text = (new_dir / name).read_text().splitlines()
        if old_text != new_text:
            columns = _differing_columns(old_text, new_text) if name.endswith(".csv") else []
            where = f"columns {', '.join(columns)} differ; " if columns else ""
            found.append(f"{name}: {where}{_first_difference(old_text, new_text)}")
    return found


def _differing_columns(old: list[str], new: list[str]) -> list[str]:
    """The header names of the CSV columns with a differing cell, or none
    when the headers themselves differ."""
    old_rows, new_rows = list(csv.reader(old)), list(csv.reader(new))
    if old_rows[:1] != new_rows[:1]:
        return []

    def column(rows, i):
        return [row[i] if i < len(row) else None for row in rows[1:]]

    return [name for i, name in enumerate(old_rows[0])
            if column(old_rows, i) != column(new_rows, i)]


def subprocess_env() -> dict[str, str]:
    """This process's environment with every BLAS thread count set to
    the number of cores it may use."""
    threads = str(len(os.sched_getaffinity(0)))
    return {**os.environ, **{var: threads for var in BLAS_THREAD_VARS}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--small", action="store_true",
                        help="run every invocation at test sizes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--run", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run:  # one tree's subprocess: old_src is the tree, new_src the directory
        run_tree(args.old_src, args.new_src, args.small, args.seed)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        dirs = []
        for tag, src in (("old", args.old_src), ("new", args.new_src)):
            workdir = Path(tmp) / tag
            workdir.mkdir()
            cmd = [sys.executable, __file__, "--run", src, str(workdir), "--seed", str(args.seed)]
            if args.small:
                cmd.append("--small")
            subprocess.run(cmd, check=True, env=subprocess_env())
            dirs.append(workdir)
        found = differences(*dirs)
    for line in found:
        print(line)
    count = len(invocations(args.small, args.seed))
    print(f"parity: {len(found)} differences over {count} invocations")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
