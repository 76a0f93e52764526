"""tools/parity.py: two source trees compared output for output."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "parity.py"

_spec = importlib.util.spec_from_file_location("parity", TOOL)
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


def test_one_tree_twice_shows_no_difference():
    src = str(ROOT / "src")
    done = subprocess.run([sys.executable, str(TOOL), src, src, "--small"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines() == ["parity: 0 differences over 38 invocations"]


def _tree(path, exit_code, line, csv_rows):
    path.mkdir()
    records = [{"name": "run", "exit": exit_code, "lines": [line]}]
    (path / parity.MANIFEST).write_text(json.dumps(records))
    (path / "run.csv").write_text("\n".join(csv_rows) + "\n")
    return path


def test_each_differing_exit_code_line_and_file_is_reported(tmp_path):
    old = _tree(tmp_path / "old", 0, "run naive: loss=1.5", ["a,b,c", "1,2.5,x", "2,3,y"])
    new = _tree(tmp_path / "new", 3, "run naive: loss=1.25", ["a,b,c", "1,2.25,x", "2,3,z"])
    (new / "extra.csv").write_text("x\n")
    for tree, header in ((old, "a,b"), (new, "a,c")):
        (tree / "other.csv").write_text(header + "\n1,2\n")
    assert parity.differences(old, new) == [
        "run: exit 0 != 3",
        "run output: line 1: 'run naive: loss=1.5' != 'run naive: loss=1.25'",
        "extra.csv: written by NEW only",
        "other.csv: line 1: 'a,b' != 'a,c'",
        "run.csv: columns b, c differ; line 2: '1,2.5,x' != '1,2.25,x'",
    ]
    assert parity.differences(old, old) == []


def test_each_tree_runs_at_the_benchmarks_blas_thread_count(monkeypatch):
    envs = []

    def run(cmd, check, env):
        envs.append(env)
        (Path(cmd[4]) / parity.MANIFEST).write_text("[]")

    monkeypatch.setattr(parity.subprocess, "run", run)
    for var in parity.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "7")
    monkeypatch.setenv("GRADCODE_PARITY_PROBE", "kept")
    src = str(ROOT / "src")
    assert parity.main([src, src, "--small"]) == 0
    threads = str(len(os.sched_getaffinity(0)))
    assert len(envs) == 2
    for env in envs:
        assert [env[var] for var in parity.BLAS_THREAD_VARS] == [threads] * 3
        assert env["GRADCODE_PARITY_PROBE"] == "kept"
