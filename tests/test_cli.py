"""Command-line interface tests, run in process through main(argv).

Covers the exit-code contract (0 ok, 2 usage, 3 validation,
4 numerical, 5 I/O), config-file merging with flag override, the
provenance echo, and that CLI runs reproduce the library runs bit for
bit from the same seeds.
"""

import csv
import json

import numpy as np
import pytest

from gradcode import cli, codec, learn, partial, sim
from gradcode.errors import ConfigError

WEAK_B = [
    [1.0, 1.0, 0.0, 0.0],
    [1.0, 1.0, 0.0, 0.0],
    [1.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 1.0],
]


def run(*argv):
    return cli.main([str(a) for a in argv])


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# scheme build / verify / inspect


def test_build_frac_and_verify(tmp_path, capsys):
    out = tmp_path / "frac62.json"
    assert run("scheme", "build", "--kind", "frac", "--n", 6, "--s", 2, "--out", out) == 0
    text = capsys.readouterr().out
    assert "density_bound=3 equality=True" in text
    code = codec.import_code(out)
    assert (code.kind, code.n, code.s) == (codec.FRAC, 6, 2)

    assert run("scheme", "verify", str(out)) == 0
    text = capsys.readouterr().out
    assert "bspan: ok checked=15" in text
    assert "density: bound=3 equality=True" in text
    assert "verify: ok" in text


def test_build_cyc_verify_prints_mds(tmp_path, capsys):
    out = tmp_path / "cyc.json"
    assert run("scheme", "build", "--kind", "cyc", "--n", 5, "--s", 2,
               "--seed", 9, "--out", out) == 0
    capsys.readouterr()
    assert run("scheme", "verify", str(out)) == 0
    text = capsys.readouterr().out
    assert "mds: ok checked=10" in text


def test_build_divisibility_failure_exit_code(tmp_path):
    out = tmp_path / "bad.json"
    assert run("scheme", "build", "--kind", "frac", "--n", 5, "--s", 1, "--out", out) == 3
    assert not out.exists()


def test_build_cyc_without_seed_is_usage_error(tmp_path):
    assert run("scheme", "build", "--kind", "cyc", "--n", 4, "--s", 1,
               "--out", tmp_path / "c.json") == 2


def test_build_plan_and_inspect(tmp_path, capsys):
    out = tmp_path / "plan.json"
    assert run("scheme", "build", "--kind", "cyc", "--seed", 5, "--n", 3, "--s", 1,
               "--alpha", 2.0, "--out", out) == 0
    text = capsys.readouterr().out
    assert "partitions=9" in text and "load_fraction=0.4444444444444444" in text
    plan = partial.import_plan(out)
    assert plan.total_partitions == 9

    assert run("scheme", "inspect", str(out)) == 0
    text = capsys.readouterr().out
    assert "fraction=0.4444444444444444" in text
    assert "timing slack: 0.0" in text

    assert run("scheme", "verify", str(out)) == 0
    assert "verify: ok" in capsys.readouterr().out


def test_verify_weak_scheme_fails_numerically(tmp_path, capsys):
    raw = {"version": 1, "kind": "frac", "n": 4, "k": 4, "s": 1, "B": WEAK_B}
    path = tmp_path / "weak.json"
    path.write_text(json.dumps(raw))
    assert run("scheme", "verify", str(path)) == 4
    text = capsys.readouterr().out
    assert "bspan: FAIL" in text and "verify: FAIL" in text


def test_malformed_scheme_file_is_io_error(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert run("scheme", "verify", str(path)) == 5
    assert run("scheme", "inspect", str(tmp_path / "missing.json")) == 5


def test_inspect_scheme_lists_assignments(tmp_path, capsys):
    out = tmp_path / "f.json"
    run("scheme", "build", "--kind", "frac", "--n", 4, "--s", 1, "--out", out)
    capsys.readouterr()
    assert run("scheme", "inspect", str(out)) == 0
    text = capsys.readouterr().out
    assert "worker 0: partitions=[0, 1]" in text
    assert "survivors needed: 3" in text


# ---------------------------------------------------------------------------
# simulate


def sim_args(tmp_path, *extra):
    return [
        "simulate", "--strategy", "naive", "--n", 4, "--d", 480, "--p", 6,
        "--iterations", 6, "--seed-all", 70,
        "--out", tmp_path / "run.csv", *extra,
    ]


def test_simulate_writes_csv_and_echo(tmp_path, capsys):
    assert run(*sim_args(tmp_path)) == 0
    text = capsys.readouterr().out
    assert "run naive:" in text and "total_sim_time_s=" in text
    rows = read_csv(tmp_path / "run.csv")
    assert len(rows) == 6
    assert list(rows[0].keys()) == [
        "iteration", "sim_time_s", "loss", "auc", "survivors", "strategy",
    ]
    echo = json.loads((tmp_path / "run.csv.config.json").read_text())
    assert [echo[k] for k in ("seed_scheme", "seed_data", "seed_latency",
                              "seed_straggler")] == [70, 71, 72, 73]
    assert echo["strategy"] == "naive" and echo["iterations"] == 6


def test_simulate_matches_library_run(tmp_path):
    assert run(*sim_args(tmp_path)) == 0
    cfg = sim.TrainingConfig(
        strategy=sim.Naive(4),
        optimizer=learn.OptimizerConfig(),
        seeds=sim.SeedBundle(70, 71, 72, 73),
        d=480,
        p=6,
        iterations=6,
    )
    expected = sim.run_training(cfg)
    rows = read_csv(tmp_path / "run.csv")
    for row, tr in zip(rows, expected.traces):
        assert float(row["loss"]) == tr.loss
        assert float(row["sim_time_s"]) == tr.sim_time_s


def test_simulate_is_idempotent(tmp_path):
    argv = sim_args(tmp_path)
    assert run(*argv) == 0
    first = (tmp_path / "run.csv").read_bytes()
    first_echo = (tmp_path / "run.csv.config.json").read_bytes()
    assert run(*argv) == 0
    assert (tmp_path / "run.csv").read_bytes() == first
    assert (tmp_path / "run.csv.config.json").read_bytes() == first_echo


def test_simulate_without_seeds_demands_them(tmp_path, capsys):
    code = run("simulate", "--strategy", "naive", "--n", 4, "--d", 480, "--p", 6,
               "--iterations", 3, "--out", tmp_path / "x.csv")
    assert code == 2
    assert "explicit seeds" in capsys.readouterr().err


def test_simulate_config_file_with_flag_override(tmp_path):
    config = {
        "strategy": "ignore", "n": 4, "s": 1, "d": 480, "p": 6,
        "iterations": 4, "seed_all": 11,
        "straggler_mode": "fixed", "straggler_workers": [2],
        "straggler_kind": "delay", "straggler_extra": 5.0,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "run.csv"
    assert run("simulate", "--config", cfg_path, "--iterations", 7, "--out", out) == 0
    rows = read_csv(out)
    assert len(rows) == 7  # flag beat the config file
    assert all(row["strategy"] == "ignore_s1" for row in rows)
    assert all(row["survivors"].count(";") == 2 for row in rows)  # 3 survivors
    echo = json.loads((out.with_suffix(".csv.config.json").name and
                       (tmp_path / "run.csv.config.json")).read_text())
    assert echo["iterations"] == 7 and echo["straggler_extra"] == 5.0


def test_simulate_rejects_unknown_config_field(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"strategy": "naive", "n": 4, "bogus": 1}))
    assert run("simulate", "--config", cfg_path, "--seed-all", 1,
               "--out", tmp_path / "x.csv") == 3
    assert "unknown config field" in capsys.readouterr().err


@pytest.mark.parametrize("key", sorted(cli._RUN_DEFAULTS))
def test_every_run_field_has_a_checked_type(key):
    good = {int: 3, float: 2, str: "x", tuple: [1, 2], bool: True}
    kind = cli._RUN_SCHEMA[key][0]
    value = cli._coerce(key, good[kind])
    assert type(value) is kind and value == (tuple(good[kind]) if kind is tuple else good[kind])
    with pytest.raises(ConfigError, match=f"config field '{key}' must"):
        cli._coerce(key, {})


def test_simulate_partial_from_plan_file(tmp_path):
    plan_path = tmp_path / "plan.json"
    run("scheme", "build", "--kind", "frac", "--n", 4, "--s", 1, "--alpha", 2.0,
        "--out", plan_path)
    out = tmp_path / "run.csv"
    assert run("simulate", "--strategy", "partial", "--scheme-file", plan_path,
               "--d", 960, "--p", 6, "--iterations", 4, "--seed-all", 3,
               "--verify-decode", "--out", out) == 0
    assert len(read_csv(out)) == 4


def test_simulate_strategy_file_kind_mismatch(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    scheme_path = tmp_path / "scheme.json"
    run("scheme", "build", "--kind", "frac", "--n", 4, "--s", 1, "--alpha", 2.0,
        "--out", plan_path)
    run("scheme", "build", "--kind", "frac", "--n", 4, "--s", 1, "--out", scheme_path)
    common = ["--d", 480, "--p", 6, "--iterations", 3, "--seed-all", 3,
              "--out", tmp_path / "x.csv"]
    assert run("simulate", "--strategy", "coded", "--scheme-file", plan_path, *common) == 3
    assert run("simulate", "--strategy", "partial", "--scheme-file", scheme_path, *common) == 3


def test_simulate_starved_iteration_exit_code(tmp_path, capsys):
    code = run("simulate", "--strategy", "naive", "--n", 4, "--d", 480, "--p", 6,
               "--iterations", 3, "--seed-all", 5,
               "--straggler-mode", "fixed", "--straggler-workers", "1",
               "--straggler-kind", "delay", "--straggler-extra", "inf",
               "--out", tmp_path / "x.csv")
    assert code == 4
    assert "numerical error" in capsys.readouterr().err


def test_simulate_policy_over_tolerance_is_validation_error(tmp_path):
    assert run("simulate", "--strategy", "ignore", "--n", 4, "--s", 1,
               "--d", 480, "--p", 6, "--iterations", 3, "--seed-all", 5,
               "--straggler-mode", "random", "--straggler-count", 2,
               "--straggler-kind", "delay", "--straggler-extra", 9.0,
               "--out", tmp_path / "x.csv") == 3


# ---------------------------------------------------------------------------
# compare


def test_compare_bundle_four_strategies(tmp_path, capsys):
    prefix = tmp_path / "cmp"
    assert run("compare", "--bundle", "--n", 6, "--s", 1, "--d", 480, "--p", 6,
               "--iterations", 5, "--seed-all", 40, "--out-prefix", prefix) == 0
    for label in ("naive", "ignore_s1", "frac_n6_s1", "cyc_n6_s1"):
        assert (tmp_path / f"cmp_{label}.csv").exists()
    rows = read_csv(tmp_path / "cmp_iterations.csv")
    assert len(rows) == 5
    # exact strategies share the model trajectory; ignore deviates
    assert rows[4]["naive_loss"] == rows[4]["frac_n6_s1_loss"]
    assert rows[4]["naive_loss"] == rows[4]["cyc_n6_s1_loss"]
    thresholds = read_csv(tmp_path / "cmp_thresholds.csv")
    assert thresholds and "naive_sim_time_s" in thresholds[0]
    echo = json.loads((tmp_path / "cmp.config.json").read_text())
    assert len(echo["runs"]) == 4


def test_compare_config_mode_and_degenerate_single(tmp_path):
    config = {
        "shared": {"d": 480, "p": 6, "iterations": 4, "seed_all": 8},
        "runs": [
            {"strategy": "naive", "n": 4},
            {"strategy": "ignore", "n": 4, "s": 1},
        ],
    }
    cfg_path = tmp_path / "cmp.json"
    cfg_path.write_text(json.dumps(config))
    assert run("compare", "--config", cfg_path, "--out-prefix", tmp_path / "two") == 0
    assert (tmp_path / "two_iterations.csv").exists()

    config["runs"] = config["runs"][:1]
    cfg_path.write_text(json.dumps(config))
    assert run("compare", "--config", cfg_path, "--out-prefix", tmp_path / "one") == 0
    rows = read_csv(tmp_path / "one_iterations.csv")
    assert len(rows) == 4 and "naive_loss" in rows[0]


def test_compare_mismatched_data_is_validation_error(tmp_path, capsys):
    config = {
        "shared": {"d": 480, "p": 6, "iterations": 3},
        "runs": [
            {"strategy": "naive", "n": 4, "seed_all": 1},
            {"strategy": "ignore", "n": 4, "s": 1, "seed_all": 2},
        ],
    }
    cfg_path = tmp_path / "cmp.json"
    cfg_path.write_text(json.dumps(config))
    assert run("compare", "--config", cfg_path, "--out-prefix", tmp_path / "x") == 3
    assert "validation error" in capsys.readouterr().err


def test_compare_mismatched_data_fails_before_training(tmp_path, capsys):
    config = {
        "shared": {"d": 480, "p": 6, "iterations": 3, "seed_all": 1},
        "runs": [
            {"strategy": "naive", "n": 4},
            {"strategy": "ignore", "n": 4, "s": 1, "seed_data": 9},
        ],
    }
    cfg_path = tmp_path / "cmp.json"
    cfg_path.write_text(json.dumps(config))
    assert run("compare", "--config", cfg_path, "--out-prefix", tmp_path / "x") == 3
    out = capsys.readouterr()
    assert "different data" in out.err
    assert not any(line.startswith("run ") for line in out.out.splitlines())
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("value", [None, 1])
def test_compare_rejects_unknown_run_field_whatever_its_value(tmp_path, capsys, value):
    config = {
        "shared": {"d": 480, "p": 6, "iterations": 3, "seed_all": 1},
        "runs": [{"strategy": "naive", "n": 4, "strategyy": value}],
    }
    cfg_path = tmp_path / "cmp.json"
    cfg_path.write_text(json.dumps(config))
    assert run("compare", "--config", cfg_path, "--out-prefix", tmp_path / "x") == 3
    assert "unknown config field 'strategyy'" in capsys.readouterr().err
    assert list(tmp_path.glob("x*")) == []


def test_compare_null_unsets_a_known_run_field(tmp_path):
    config = {
        "shared": {"d": 480, "p": 6, "iterations": 3, "seed_all": 1, "s": 1},
        "runs": [{"strategy": "naive", "n": 4, "s": None}],
    }
    cfg_path = tmp_path / "cmp.json"
    cfg_path.write_text(json.dumps(config))
    assert run("compare", "--config", cfg_path, "--out-prefix", tmp_path / "x") == 0
    assert (tmp_path / "x_naive.csv").exists()


def test_compare_bundle_matches_independent_runs(tmp_path):
    prefix = tmp_path / "cmp"
    assert run("compare", "--bundle", "--n", 6, "--s", 1, "--d", 480, "--p", 6,
               "--iterations", 5, "--straggler-mode", "random", "--straggler-count", 1,
               "--straggler-extra", 5, "--seed-all", 40, "--out-prefix", prefix) == 0
    policy = sim.StragglerPolicy(mode="random", count=1, kind="delay", extra=5.0)
    strategies = [
        sim.Naive(6),
        sim.IgnoreStragglers(6, 1),
        sim.Coded(codec.build_frac(6, 1)),
        sim.Coded(codec.build_cyc(6, 1, 40)),
    ]
    for strategy in strategies:
        cfg = sim.TrainingConfig(
            strategy=strategy,
            optimizer=learn.OptimizerConfig(),
            seeds=sim.SeedBundle(40, 41, 42, 43),
            d=480,
            p=6,
            iterations=5,
            policy=policy,
        )
        alone = tmp_path / f"alone_{cfg.run_label}.csv"
        sim.write_run_csv(sim.run_training(cfg), alone)
        assert alone.read_bytes() == (tmp_path / f"cmp_{cfg.run_label}.csv").read_bytes()


def test_compare_builds_data_once_per_invocation(tmp_path, monkeypatch):
    calls = []
    gen = learn.gen_synthetic
    monkeypatch.setattr(
        learn, "gen_synthetic", lambda *a, **kw: calls.append(1) or gen(*a, **kw)
    )
    argv = ["compare", "--bundle", "--n", 4, "--s", 1, "--d", 240, "--p", 4,
            "--iterations", 2, "--seed-all", 3, "--out-prefix", tmp_path / "cmp"]
    assert run(*argv) == 0
    assert len(calls) == 1
    # Nothing outlives an invocation: the next one draws its data again.
    assert run(*argv) == 0
    assert len(calls) == 2


def test_compare_duplicate_labels_rejected(tmp_path):
    config = {
        "shared": {"d": 480, "p": 6, "iterations": 3, "seed_all": 5},
        "runs": [{"strategy": "naive", "n": 4}, {"strategy": "naive", "n": 4}],
    }
    cfg_path = tmp_path / "cmp.json"
    cfg_path.write_text(json.dumps(config))
    assert run("compare", "--config", cfg_path, "--out-prefix", tmp_path / "x") == 3


def test_compare_needs_bundle_or_config(tmp_path):
    assert run("compare", "--out-prefix", tmp_path / "x") == 2


# ---------------------------------------------------------------------------
# top-level parser behavior


def test_usage_exit_codes():
    assert run() == 2
    assert run("no-such-command") == 2
    assert run("--help") == 0
    assert run("scheme") == 2
    assert run("simulate") == 2  # missing required --out
