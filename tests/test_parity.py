"""tools/parity.py: two source trees compared output for output."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    assert done.stdout.splitlines() == ["parity: 0 differences over 52 invocations"]


def _tree(path, exit_code, lines, csv_rows):
    path.mkdir()
    records = [{"name": "run", "exit": exit_code, "lines": lines}]
    (path / parity.MANIFEST).write_text(json.dumps(records))
    (path / "run.csv").write_text("\n".join(csv_rows) + "\n")
    return path


def test_each_differing_exit_code_line_and_file_is_reported(tmp_path):
    old = _tree(tmp_path / "old", 0, ["run naive: loss=1.5"], ["a,b,c", "1,2.5,x", "2,3,y"])
    new = _tree(tmp_path / "new", 3, ["run naive: loss=1.25"], ["a,b,c", "1,2.25,x", "2,3,z"])
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


def test_a_file_over_the_text_size_is_kept_as_its_sha256(tmp_path):
    old = _tree(tmp_path / "old", 0, [], ["a", "1"])
    new = _tree(tmp_path / "new", 0, [], ["a", "2"])
    short, hashed = parity.snapshot(old, 4), parity.snapshot(old, 3)
    assert short["files"] == {"run.csv": ["a", "1"]}
    assert list(hashed["files"]["run.csv"]) == ["sha256"]
    assert parity.snapshot_differences(hashed, parity.snapshot(new, 3)) == [
        "run.csv: sha256 differs"]
    assert parity.snapshot_differences(hashed, parity.snapshot(old, 3)) == []


def test_every_differing_output_line_is_reported(tmp_path):
    rows = ["a", "1"]
    old = _tree(tmp_path / "old", 0, ["k=4", "same", "rows=2", "end"], rows)
    new = _tree(tmp_path / "new", 0, ["k=3", "same", "rows=1"], rows)
    assert parity.differences(old, new) == [
        "run output: line 1: 'k=4' != 'k=3'",
        "run output: line 3: 'rows=2' != 'rows=1'",
        "run output: 4 lines != 3 lines",
    ]


def test_each_tree_runs_at_the_benchmarks_blas_thread_count(monkeypatch):
    envs = []

    def run(cmd, check, env):
        envs.append(env)
        (Path(cmd[4]) / parity.MANIFEST).write_text("[]")

    monkeypatch.setattr(parity.subprocess, "run", run)
    for var in parity.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "7")
    monkeypatch.setenv("GRADCODE_PARITY_PROBE", "kept")
    monkeypatch.setenv("COLUMNS", "37")
    src = str(ROOT / "src")
    assert parity.main([src, src, "--small"]) == 0
    threads = str(parity.cores())
    assert len(envs) == 2
    for env in envs:
        assert [env[var] for var in parity.BLAS_THREAD_VARS] == [threads] * 3
        assert env["GRADCODE_PARITY_PROBE"] == "kept"
        assert env["COLUMNS"] == parity.HELP_COLUMNS


def test_cores_fall_back_to_the_machines_without_an_affinity_call(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert parity.cores() == 5
    assert parity.subprocess_env()[parity.BLAS_THREAD_VARS[0]] == "5"
    assert parity.build()["threads"] == "5"
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
    assert parity.cores() == 1


def test_the_package_writes_the_golden_outputs(tmp_path):
    # tests/golden/parity-small.json holds every --small, seed 0 output;
    # a change that moves one rewrites it (tools/parity.py src --write-golden).
    golden = json.loads(parity.GOLDEN.read_text())
    here = parity.build()
    if golden["build"] != here:
        pytest.skip(f"outputs unchecked: the golden file was written on {golden['build']}, "
                    f"this is {here}")
    parity.run_subprocess(str(ROOT / "src"), tmp_path, True, 0)
    found = parity.snapshot_differences(golden, parity.golden_snapshot(tmp_path))
    assert found == [], "\n".join(found)
