"""Run tier-1 against a fixed list of hand-written mutants of the package.

Usage, from the repository root:

    python3 tools/mutants.py

Each entry of ``MUTANTS`` is (file, anchor, replacement, why): a file of
the tree, a text that occurs exactly once in it (it may span several
lines), the text that replaces it, and one line on why the change
matters. For each entry, the tool copies ``COPIED`` to a temporary
directory, applies the mutant there and runs tier-1 with
``-x -p no:cacheprovider``, all but ``tests/test_mutants.py``, whose
anchor check every mutant breaks. A mutant is killed when a test fails
(pytest exit 1) and survives when every test passes (exit 0); any other
ending, such as a collection error, is an error, not a verdict.
The unmutated copy runs first, since a suite that fails without a mutant
kills every mutant; if it does not pass, the tool exits 2.

It prints one line per mutant, its verdict and the seconds it took, then
a count, and exits 1 if any mutant survived or ended in an error (0 if
all were killed). Never weaken a mutant or drop it from the list to make
the report clean: a survivor gets a test that kills it, or stays in the
list marked as an equivalent mutant with the reason.

``tests/test_mutants.py`` checks, in tier-1, that every anchor occurs
exactly once in its file, so a change that moves an anchor updates this
list in the same diff. The tool is not part of tier-1: a killed mutant
takes a few seconds, a survivor the whole suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# What tier-1 reads: the package, both test directories, the tools that
# tests load, and the files that tests and bench/run.py open.
COPIED = ("src", "tests", "bench", "tools", "pyproject.toml", "README.md", "BENCHMARK.json")
# The anchor test is left out: a mutant has replaced one of the anchors it checks.
PYTEST = ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--ignore=tests/test_mutants.py")
TIMEOUT_S = 900


class Mutant(NamedTuple):
    file: str
    anchor: str
    replacement: str
    why: str


MUTANTS = (
    Mutant("src/gradcode/sim.py",
           "    need = n - strategy.s\n",
           "    need = n - strategy.s + (strategy.s > 1)\n",
           "the aggregator waits for one message too many when s > 1"),
    Mutant("src/gradcode/sim.py",
           "return np.add.accumulate(parts, axis=0)[-1] + 0.0",
           "return np.add.accumulate(parts, axis=0)[-1]",
           "a one-entry sum starts from its first row, not +0.0, and keeps -0.0"),
    Mutant("src/gradcode/sim.py",
           "multiplier[rounds, stragglers] *= policy.alpha",
           "multiplier[rounds, stragglers] *= policy.alpha ** 0.5",
           "a slowdown straggler is slowed by sqrt(alpha), not alpha"),
    Mutant("src/gradcode/sim.py",
           'first = np.argsort(times, axis=1, kind="stable")[:, :need]',
           'first = np.argsort(times, axis=1, kind="quicksort")[:, :need]',
           "arrival ties among the first n - s messages are not broken by worker index"),
    Mutant("src/gradcode/sim.py",
           "            carried *= b  # free to scale",
           "            carried *= b * (1 + 1e-15)  # free to scale",
           "the carried logits, and so every loss after round 1, drift by one ulp"),
    Mutant("src/gradcode/codec.py",
           "        max_res = max(max_res, res)\n        if res > RESIDUAL_TOL:\n",
           "        max_res = max(max_res, res)\n        if res > 10 * RESIDUAL_TOL:\n",
           "verify_bspan passes codes whose worst residual is within 10 tolerances"),
    Mutant("src/gradcode/codec.py",
           "np.ones(code.n))\n    if res > RESIDUAL_TOL:\n",
           "np.ones(code.n))\n    if res > 10 * RESIDUAL_TOL:\n",
           "decode_row serves survivor sets whose residual is within 10 tolerances"),
    Mutant("src/gradcode/codec.py",
           "    if isinstance(value, bool):\n        return want is bool\n",
           "",
           "a JSON true passes as the integer 1 and false as 0 in every input file"),
)


def copy_tree(dest: Path) -> None:
    """Copy ``COPIED`` from the repository root into ``dest``."""
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(src, dest / name)


def apply(tree: Path, mutant: Mutant) -> None:
    """Replace the mutant's anchor in ``tree``; ValueError unless it
    occurs exactly once."""
    path = tree / mutant.file
    text = path.read_text()
    if text.count(mutant.anchor) != 1:
        raise ValueError(f"{mutant.file}: the anchor occurs {text.count(mutant.anchor)} times: "
                         f"{mutant.anchor!r}")
    path.write_text(text.replace(mutant.anchor, mutant.replacement))


def run_suite(mutant: Mutant | None) -> tuple[int, float]:
    """Tier-1's pytest exit code on a fresh copy with ``mutant`` applied
    (None runs it unmutated), and the seconds the run took."""
    with tempfile.TemporaryDirectory(prefix="gradcode-mutant-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        if mutant is not None:
            apply(tree, mutant)
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": "src" + (os.pathsep + path if path else "")}
        start = time.perf_counter()
        try:
            code = subprocess.run([sys.executable, *PYTEST], cwd=tree, env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                  timeout=TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            code = None
        return code, time.perf_counter() - start


def verdict(code: int | None) -> str:
    if code == 1:
        return "killed"
    if code == 0:
        return "survived"
    return "timeout" if code is None else f"error (pytest exit {code})"


def main() -> int:
    code, seconds = run_suite(None)
    print(f"unmutated: pytest exit {code} in {seconds:.1f} s")
    if code != 0:
        return 2
    counts: dict[str, int] = {}
    for i, mutant in enumerate(MUTANTS):
        code, seconds = run_suite(mutant)
        outcome = verdict(code)
        counts[outcome] = counts.get(outcome, 0) + 1
        print(f"{i:2d} {outcome:<8} {seconds:5.1f} s  {mutant.file}: {mutant.why}", flush=True)
    print("mutants: " + ", ".join(f"{n} {outcome}" for outcome, n in counts.items())
          + f" of {len(MUTANTS)}")
    return 0 if counts.get("killed", 0) == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
