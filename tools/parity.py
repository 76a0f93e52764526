"""Compare two gradcode source trees output for output.

Usage, from the repository root:

    python3 tools/parity.py OLD_SRC NEW_SRC [--small] [--seed N]
    python3 tools/parity.py SRC --write-golden

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
* a desk-size simulate with ``--auc-interval 1``, so that every round's
  holdout AUC is compared, not every tenth;
* a ``compare --config`` of three runs with their own labels and
  different iteration counts, so the comparison pads the shorter runs;
  each tree's directory gets the config file (``UNEVEN``) first;
* ``scheme build`` of cyclic schemes at (n, s) = (24, 4), seeds 0-9, and
  (30, 5), seeds 0-4, of a frac scheme and of a cyclic two-stage plan,
  each file compared byte for byte. These keep their sizes under
  ``--small``: each takes milliseconds;
* a naive simulate given only the data, latency and straggler seeds, at
  one size under ``--small`` too;
* three runs refused before any training (exit 3), at one size under
  ``--small`` too: a two-stage simulate whose plan has more partitions
  than training rows, one whose naive stage is over the 10^6 partition
  budget, and a ``compare --config`` whose runs share a label (the
  config file ``DUPLICATE``);
* two hand-written scheme files, each written to the tree's directory
  first, at one size under ``--small`` too: a ``scheme verify`` of one
  whose partition count k is not its worker count n (``K_MISMATCH``,
  exit 5), and a ``simulate`` of a column-deficient one (``WEAK``) whose
  fixed straggler 3 leaves a survivor set it cannot decode (exit 4);
* ``simulate --help`` and ``compare --help``, and two simulates refused
  before any training (exit 3): a naive run given an ``--s`` it never
  reads, and one given ``--eta -1``. These keep their sizes under
  ``--small`` too;
* a naive simulate whose fixed stragglers are delayed by 1e308 seconds,
  so that its total simulated time overflows in round 2 (exit 4);
* a naive simulate of a 401-digit ``--iterations``, whose clock numpy
  cannot index (exit 3), and a ``scheme verify`` of a cyclic scheme file
  whose ``h_seed`` is -1 (``NEGATIVE_H_SEED``), written to the tree's
  directory first (exit 5). These keep their sizes under ``--small`` too;
* a desk-size cyc ``--verify-decode`` simulate whose fixed stragglers 2,
  9 and 17 never arrive, so that every round decodes the same survivor
  set, their complement.
* a ``scheme verify`` of three hand-written files, each written to the
  tree's directory first, at one size under ``--small`` too: a frac scheme
  whose ``version`` is ``true`` (``VERSION_TRUE``), a frac plan whose
  ``naive_assignment`` holds floats (``FLOAT_ASSIGNMENT``), both exit 5,
  and that plan with integer indices but no ``alpha`` (``NO_ALPHA``,
  exit 5, naming the missing plan field).

Each subprocess runs with ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``
and ``MKL_NUM_THREADS`` set to the number of cores this process may use,
whatever the caller's environment, as ``bench/run.py`` sets them: the
output bits depend on the BLAS thread count, so a verdict holds at the
thread count the benchmark measures. ``COLUMNS`` is set to
``HELP_COLUMNS``, so that argparse wraps help text alike in both trees.

An error that escapes ``cli.main`` is recorded as exit 1 and one line,
its type and message. Then it prints every exit code and output line
that differs between the two trees, output paths stripped, and each
written file that differs, and exits 1 if any does (0 if none). A
differing file is reported by its first differing line, after the header
name of every column with a differing cell when it is a CSV whose header
is unchanged. ``--small`` runs the same invocations at sizes that finish
in about a second; ``--seed`` (default 0) moves every seed. The full run
holds the paper-scale data, about 450 MB, in one subprocess at a time.

    python3 tools/parity.py SRC --write-golden

runs SRC's tree once at ``--small``, seed 0, and writes ``GOLDEN``: the
build the outputs depend on (``build``: Python, numpy, its BLAS build and
the BLAS thread count), each invocation's exit code and output lines, and
each written file, as its lines when it is at most ``GOLDEN_TEXT_BYTES``
long and as its sha256 otherwise. ``tests/test_parity.py`` checks the
package against it, so a change that moves an output rewrites the file in
the same diff.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

MANIFEST = "parity-manifest.json"
UNEVEN = "uneven.json"
DUPLICATE = "duplicate.json"
K_MISMATCH = "k-mismatch.json"
WEAK = "weak.json"
NEGATIVE_H_SEED = "negative-h-seed.json"
VERSION_TRUE = "version-true.json"
FLOAT_ASSIGNMENT = "float-assignment.json"
NO_ALPHA = "no-alpha.json"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HELP_COLUMNS = "100"
GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden" / "parity-small.json"
GOLDEN_TEXT_BYTES = 2048


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

    def refused_plan(alpha, out):
        return ["simulate", "--strategy", "partial", "--kind", "frac", "--n", "4", "--s", "1",
                "--alpha", alpha, "--d", "400", "--p", "5", "--seed-all", str(seed + 95),
                "--out", out]

    def refused_naive(*flags):
        return ["simulate", "--strategy", "naive", "--n", "4", *flags, "--d", "400",
                "--p", "5", "--seed-all", str(seed + 140), "--out", "refused.csv"]

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
        ("auc every round", ["simulate", "--strategy", "naive", "--n", "24", *desk,
                             "--auc-interval", "1", "--seed-all", str(seed + 85),
                             "--out", "auc.csv"]),
        ("uneven compare", ["compare", "--config", UNEVEN, "--out-prefix", "uneven"]),
        *(build(f"cyc{n}-{s}-seed{seed + i}", "cyc", n, "--s", str(s), "--seed", str(seed + i))
          for n, s, draws in ((24, 4, 10), (30, 5, 5)) for i in range(draws)),
        build("frac12-2", "frac", 12, "--s", "2"),
        build("cyc12-2-plan", "cyc", 12, "--s", "2", "--seed", str(seed + 90),
              "--alpha", "1.5"),
        ("naive without a scheme seed", ["simulate", "--strategy", "naive", "--n", "4",
                                         "--d", "400", "--p", "5", "--iterations", "3",
                                         "--seed-data", str(seed + 130),
                                         "--seed-latency", str(seed + 131),
                                         "--seed-straggler", str(seed + 132),
                                         "--out", "unseeded.csv"]),
        ("plan over the training rows", refused_plan("1.01", "rows.csv")),
        ("plan over the budget", refused_plan("1.0000000001", "budget.csv")),
        ("duplicate labels", ["compare", "--config", DUPLICATE, "--out-prefix", "duplicate"]),
        ("k not n", ["scheme", "verify", K_MISMATCH]),
        ("weak file", ["simulate", "--strategy", "coded", "--scheme-file", WEAK,
                       "--d", "400", "--p", "5", "--straggler-mode", "fixed",
                       "--straggler-workers", "3", "--straggler-kind", "delay",
                       "--straggler-extra", "inf", "--seed-all", str(seed + 120),
                       "--out", "weak.csv"]),
        ("simulate help", ["simulate", "--help"]),
        ("compare help", ["compare", "--help"]),
        ("unread setting", refused_naive("--s", "2")),
        ("refused optimizer constant", refused_naive("--eta", "-1")),
        ("naive overflowing delay", delayed(["naive"], "fixed", "1e308", 150, "overflow.csv")),
        ("iterations too large to index", ["simulate", "--strategy", "naive", "--n", "4",
                                           "--d", "300", "--p", "3",
                                           "--iterations", str(10**400),
                                           "--seed-all", str(seed + 160), "--out", "huge.csv"]),
        ("negative h_seed", ["scheme", "verify", NEGATIVE_H_SEED]),
        ("cyc fixed complement", ["simulate", "--strategy", "coded", "--kind", "cyc",
                                  "--n", "24", "--s", "3", *desk, "--straggler-mode", "fixed",
                                  "--straggler-workers", "2,9,17", "--straggler-kind", "delay",
                                  "--straggler-extra", "inf", "--verify-decode",
                                  "--seed-all", str(seed + 170), "--out", "complement.csv"]),
        ("version true", ["scheme", "verify", VERSION_TRUE]),
        ("float naive assignment", ["scheme", "verify", FLOAT_ASSIGNMENT]),
        ("plan without alpha", ["scheme", "verify", NO_ALPHA]),
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


def duplicate_config(seed: int) -> dict:
    """The ``compare --config`` file whose two runs share a label."""
    runs = [{"strategy": "naive", "label": "same"},
            {"strategy": "ignore", "s": 1, "label": "same"}]
    return {"shared": {"n": 4, "d": 480, "p": 6, "iterations": 3, "seed_all": seed + 110},
            "runs": runs}


def hand_written_schemes() -> dict[str, dict]:
    """``K_MISMATCH`` (n=4 rows over k=3 partitions), ``WEAK`` (two
    partitions held by one worker only), ``NEGATIVE_H_SEED`` (the n=2,
    s=1 cyclic code, which every draw gives, recorded with h_seed -1),
    ``VERSION_TRUE`` (the n=4, s=1 frac scheme at version ``true``), and
    that scheme's alpha=3 plan with the naive assignment as floats
    (``FLOAT_ASSIGNMENT``) or without ``alpha`` (``NO_ALPHA``), by file
    name."""
    four_by_three = [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    weak = [[1.0, 1.0, 0.0, 0.0]] * 3 + [[0.0, 0.0, 1.0, 1.0]]
    head = {"version": 1, "kind": "frac", "n": 4, "s": 1}
    frac = {**head, "k": 4, "B": [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]] * 2}
    return {K_MISMATCH: {**head, "k": 3, "B": four_by_three},
            WEAK: {**head, "k": 4, "B": weak},
            NEGATIVE_H_SEED: {"version": 1, "kind": "cyc", "n": 2, "k": 2, "s": 1,
                              "h_seed": -1, "B": [[1.0, 1.0], [1.0, 1.0]]},
            VERSION_TRUE: {**frac, "version": True},
            FLOAT_ASSIGNMENT: {**frac, "alpha": 3.0, "naive_per_worker": 1,
                               "naive_assignment": [[0.0], [1.0], [2.0], [3.0]]},
            NO_ALPHA: {**frac, "naive_per_worker": 1, "naive_assignment": [[0], [1], [2], [3]]}}


def run_tree(src: str, workdir: str, small: bool, seed: int) -> None:
    """Run every invocation with ``src``'s gradcode, in ``workdir``.

    Writes each one's exit code and output lines to ``MANIFEST`` there,
    next to the files the invocations wrote.
    """
    sys.path.insert(0, os.path.abspath(src))
    from gradcode import cli

    os.chdir(workdir)
    Path(UNEVEN).write_text(json.dumps(uneven_config(small, seed)) + "\n")
    Path(DUPLICATE).write_text(json.dumps(duplicate_config(seed)) + "\n")
    for name, raw in hand_written_schemes().items():
        Path(name).write_text(json.dumps(raw) + "\n")
    records = []
    for name, argv in invocations(small, seed):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as escaped:  # Python would exit 1 with a traceback
                code = 1
                print(f"{type(escaped).__name__}: {escaped}", file=sys.stderr)
        text = out.getvalue() + err.getvalue()
        lines = [line.replace(workdir, "") for line in text.splitlines()]
        records.append({"name": name, "exit": code, "lines": lines})
    Path(MANIFEST).write_text(json.dumps(records, indent=1) + "\n")


def _line_differences(old: list[str], new: list[str]) -> list[str]:
    """Each line that differs, then the line counts if those differ."""
    found = [f"line {i + 1}: {a!r} != {b!r}"
             for i, (a, b) in enumerate(zip(old, new)) if a != b]
    if len(old) != len(new):
        found.append(f"{len(old)} lines != {len(new)} lines")
    return found


def snapshot(workdir: Path, text_bytes: int | None = None) -> dict:
    """One tree's outputs in ``workdir``: ``runs``, the manifest's records,
    and ``files``, each written file's lines by name, or ``{"sha256": ...}``
    for a file over ``text_bytes`` long (None keeps every file's lines)."""
    files = {}
    for path in sorted(workdir.iterdir()):
        if path.name == MANIFEST:
            continue
        data = path.read_bytes()
        files[path.name] = data.decode().splitlines() \
            if text_bytes is None or len(data) <= text_bytes \
            else {"sha256": hashlib.sha256(data).hexdigest()}
    return {"runs": json.loads((workdir / MANIFEST).read_text()), "files": files}


def differences(old_dir: Path, new_dir: Path) -> list[str]:
    """One line per exit code, output line or written file that differs."""
    return snapshot_differences(snapshot(old_dir), snapshot(new_dir))


def snapshot_differences(old: dict, new: dict) -> list[str]:
    """``differences`` between two ``snapshot``s."""
    found = []
    for a, b in zip(old["runs"], new["runs"]):
        if a["exit"] != b["exit"]:
            found.append(f"{a['name']}: exit {a['exit']} != {b['exit']}")
        found.extend(f"{a['name']} output: {line}"
                     for line in _line_differences(a["lines"], b["lines"]))
    old_files, new_files = old["files"], new["files"]
    for name in sorted(old_files.keys() ^ new_files.keys()):
        found.append(f"{name}: written by {'OLD' if name in old_files else 'NEW'} only")
    for name in sorted(old_files.keys() & new_files.keys()):
        a, b = old_files[name], new_files[name]
        if a == b:
            continue
        if isinstance(a, dict) or isinstance(b, dict):
            found.append(f"{name}: sha256 differs")
            continue
        columns = _differing_columns(a, b) if name.endswith(".csv") else []
        where = f"columns {', '.join(columns)} differ; " if columns else ""
        found.append(f"{name}: {where}{_line_differences(a, b)[0]}")
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


def cores() -> int:
    """The cores this process may use, or the machine's where the OS
    reports no affinity (macOS, Windows)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def subprocess_env() -> dict[str, str]:
    """This process's environment with every BLAS thread count set to
    the number of cores it may use, and ``COLUMNS`` to ``HELP_COLUMNS``."""
    threads = str(cores())
    return {**os.environ, **{var: threads for var in BLAS_THREAD_VARS},
            "COLUMNS": HELP_COLUMNS}


def build() -> dict[str, str]:
    """What the outputs depend on besides the source: the numpy version,
    the BLAS build numpy uses, the BLAS thread count that
    ``subprocess_env`` sets, and the Python version, whose argparse
    formats the help text."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": "{}.{}".format(*sys.version_info),
            "numpy": numpy.__version__,
            "blas": " ".join(str(blas.get(key)) for key in
                             ("name", "version", "openblas configuration")),
            "threads": subprocess_env()[BLAS_THREAD_VARS[0]]}


def run_subprocess(src: str, workdir: Path, small: bool, seed: int) -> None:
    """``run_tree`` in a fresh Python, with ``subprocess_env()``."""
    cmd = [sys.executable, __file__, "--run", src, str(workdir), "--seed", str(seed)]
    if small:
        cmd.append("--small")
    subprocess.run(cmd, check=True, env=subprocess_env())


def golden_snapshot(workdir: Path) -> dict:
    """The ``GOLDEN`` record of a ``--small``, seed 0 run in ``workdir``."""
    return {"build": build(), **snapshot(workdir, GOLDEN_TEXT_BYTES)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src", nargs="?")
    parser.add_argument("--small", action="store_true",
                        help="run every invocation at test sizes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="run OLD_SRC alone at --small, seed 0, and write "
                             "tests/golden/parity-small.json")
    parser.add_argument("--run", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run:  # one tree's subprocess: old_src is the tree, new_src the directory
        run_tree(args.old_src, args.new_src, args.small, args.seed)
        return 0
    if args.write_golden:
        if args.new_src is not None or args.small or args.seed:
            parser.error("--write-golden takes one tree and no --small or --seed")
        with tempfile.TemporaryDirectory() as tmp:
            run_subprocess(args.old_src, Path(tmp), True, 0)
            golden = golden_snapshot(Path(tmp))
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
        print(f"wrote {GOLDEN.name}: {len(golden['runs'])} invocations, "
              f"{len(golden['files'])} files")
        return 0
    if args.new_src is None:
        parser.error("comparing needs OLD_SRC and NEW_SRC")
    with tempfile.TemporaryDirectory() as tmp:
        dirs = []
        for tag, src in (("old", args.old_src), ("new", args.new_src)):
            workdir = Path(tmp) / tag
            workdir.mkdir()
            run_subprocess(src, workdir, args.small, args.seed)
            dirs.append(workdir)
        found = differences(*dirs)
    for line in found:
        print(line)
    count = len(invocations(args.small, args.seed))
    print(f"parity: {len(found)} differences over {count} invocations")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
