"""Command-line interface tests, run in process through main(argv).

Covers the exit-code contract (0 ok, 2 usage, 3 validation,
4 numerical, 5 I/O), config-file merging with flag override, the
provenance echo, and that CLI runs reproduce the library runs bit for
bit from the same seeds.
"""

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

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


@pytest.mark.parametrize("argv, message", [
    (["--kind", "frac"], "--s is required for kind 'frac'"),
    (["--kind", "cyc", "--seed", 1], "--s is required for kind 'cyc'"),
    (["--kind", "naive", "--alpha", 2.0], "two-stage plans need a frac or cyc stage-two code"),
    (["--kind", "naive", "--s", 2], "the naive scheme has no straggler tolerance"),
    # Only a cyclic code draws from --seed; the other kinds would ignore it.
    (["--kind", "frac", "--s", 1, "--seed", 3], "frac schemes draw nothing at random"),
    (["--kind", "naive", "--seed", 3], "naive schemes draw nothing at random"),
    (["--kind", "frac", "--s", 1, "--alpha", 2.0, "--seed", 3],
     "frac schemes draw nothing at random"),
])
def test_build_usage_errors(tmp_path, capsys, argv, message):
    out = tmp_path / "s.json"
    assert run("scheme", "build", "--n", 4, *argv, "--out", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_build_naive_writes_the_identity(tmp_path, capsys):
    out = tmp_path / "naive.json"
    assert run("scheme", "build", "--kind", "naive", "--n", 4, "--out", out) == 0
    assert "kind=naive n=4 k=4 s=0" in capsys.readouterr().out
    code = codec.import_code(out)
    assert (code.kind, code.s) == ("naive", 0)
    assert np.array_equal(code.B, np.eye(4))


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
    for row, loss, elapsed in zip(rows, expected.loss, expected.sim_time_s.tolist()):
        assert float(row["loss"]) == loss
        assert float(row["sim_time_s"]) == elapsed


def test_simulate_is_idempotent(tmp_path):
    argv = sim_args(tmp_path)
    assert run(*argv) == 0
    first = (tmp_path / "run.csv").read_bytes()
    first_echo = (tmp_path / "run.csv.config.json").read_bytes()
    assert run(*argv) == 0
    assert (tmp_path / "run.csv").read_bytes() == first
    assert (tmp_path / "run.csv.config.json").read_bytes() == first_echo


@pytest.mark.parametrize("extra", [
    [],
    ["--strategy", "partial", "--kind", "cyc", "--s", 1, "--alpha", 2.0,
     "--optimizer", "gd_decay", "--c1", 0.5, "--c2", 5.0],
    ["--straggler-mode", "random", "--straggler-count", 1, "--straggler-kind", "slowdown",
     "--straggler-alpha", 2.0],
])
def test_simulate_reruns_from_its_own_config_echo(tmp_path, extra):
    assert run(*sim_args(tmp_path, *extra)) == 0
    echo = tmp_path / "run.csv.config.json"
    again = tmp_path / "again.csv"
    assert run("simulate", "--config", echo, "--out", again) == 0
    assert again.read_bytes() == (tmp_path / "run.csv").read_bytes()
    assert (tmp_path / "again.csv.config.json").read_bytes() == echo.read_bytes()


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


@pytest.mark.parametrize(
    "key", ["strategy", "kind", "optimizer", "straggler_mode", "straggler_kind"]
)
def test_config_value_outside_a_fields_choices_is_a_validation_error(tmp_path, capsys, key):
    assert cli._RUN_SCHEMA[key].choices
    run_fields = {"strategy": "coded", "kind": "frac", "n": 4, "s": 1, key: "bogus"}
    shared = {"d": 480, "p": 6, "iterations": 2, "seed_all": 1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**shared, **run_fields}))
    assert run("simulate", "--config", cfg_path, "--out", tmp_path / "x.csv") == 3
    assert f"config field '{key}' must be one of" in capsys.readouterr().err

    cfg_path.write_text(json.dumps({"shared": shared, "runs": [run_fields]}))
    assert run("compare", "--config", cfg_path, "--out-prefix", tmp_path / "cmp") == 3
    assert f"config field '{key}' must be one of" in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("key", sorted(cli._RUN_DEFAULTS))
def test_every_run_field_has_a_checked_type(key):
    good = {int: 3, float: 2, str: "x", tuple: [1, 2], bool: True}
    kind = cli._RUN_SCHEMA[key][0]
    value = cli._coerce(key, good[kind])
    assert type(value) is kind and value == (tuple(good[kind]) if kind is tuple else good[kind])
    with pytest.raises(ConfigError, match=f"config field '{key}' must"):
        cli._coerce(key, {})


# A config-file value different from every default, and a flag that
# gives a value different from it (bool flags can only turn a field on).
def _file_and_flag(key):
    field = cli._RUN_SCHEMA[key]
    if field.choices:
        return field.choices[-1], [field.choices[0]], field.choices[0]
    return {
        int: (3, ["5"], 5),
        float: (2.5, ["0.5"], 0.5),
        str: ("from-file", ["from-flag"], "from-flag"),
        tuple: ([1, 2], ["3"], (3,)),
        bool: (True, [], True),
    }[field.type]


@pytest.mark.parametrize("key", list(cli._RUN_SCHEMA))
def test_flags_beat_the_config_file_for_every_run_key(key):
    in_file, flag_args, from_flag = _file_and_flag(key)
    assert cli._coerce(key, in_file) != cli._RUN_DEFAULTS[key]
    parser = cli.build_parser()
    flag = "--" + key.replace("_", "-")
    absent = parser.parse_args(["simulate", "--out", "x.csv"])
    merged = cli._merge_run({key: in_file}, cli._flag_overrides(absent))
    assert merged[key] == cli._coerce(key, in_file)
    given = parser.parse_args(["simulate", "--out", "x.csv", flag, *flag_args])
    other = False if key == "verify_decode" else in_file
    merged = cli._merge_run({key: other}, cli._flag_overrides(given))
    assert merged[key] == from_flag


def test_verify_decode_from_a_config_file_turns_checking_on(tmp_path, monkeypatch):
    seen = []
    train = sim.run_training
    monkeypatch.setattr(
        sim, "run_training",
        lambda config, *a: seen.append(config.verify_decode) or train(config, *a),
    )
    run_fields = {"strategy": "coded", "kind": "frac", "n": 4, "s": 1}
    shared = {"d": 480, "p": 6, "iterations": 2, "seed_all": 4, "verify_decode": True}
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps({**shared, **run_fields}))
    assert run("simulate", "--config", cfg_path, "--out", tmp_path / "run.csv") == 0
    assert json.loads((tmp_path / "run.csv.config.json").read_text())["verify_decode"] is True

    cfg_path.write_text(json.dumps({"shared": shared, "runs": [run_fields]}))
    assert run("compare", "--config", cfg_path, "--out-prefix", tmp_path / "cmp") == 0
    echo = json.loads((tmp_path / "cmp.config.json").read_text())
    assert echo["shared"]["verify_decode"] is True
    assert seen == [True, True]


def test_compare_run_entry_beats_flag_beats_shared(tmp_path):
    config = {
        "shared": {"d": 480, "p": 6, "iterations": 5, "seed_all": 2, "strategy": "naive",
                   "n": 4},
        "runs": [{"label": "own", "iterations": 8}, {"label": "flagged"}],
    }
    cfg_path = tmp_path / "cmp.json"
    cfg_path.write_text(json.dumps(config))
    assert run("compare", "--config", cfg_path, "--iterations", 3,
               "--out-prefix", tmp_path / "x") == 0
    assert len(read_csv(tmp_path / "x_own.csv")) == 8
    assert len(read_csv(tmp_path / "x_flagged.csv")) == 3


@pytest.mark.parametrize(
    "field, flag", [("compute_time_per_partition", "--compute-time"),
                    ("comm_time", "--comm-time"), ("jitter_sigma", "--jitter-sigma")],
)
def test_non_finite_latency_is_a_validation_error(tmp_path, capsys, field, flag):
    with pytest.raises(ConfigError, match="finite"):
        sim.LatencyModel(**{field: float("inf")})
    assert run("simulate", "--strategy", "coded", "--kind", "frac", "--n", 6, "--s", 1,
               "--d", 480, "--p", 6, "--iterations", 2, "--seed-all", 1, flag, "inf",
               "--out", tmp_path / "x.csv") == 3
    assert "validation error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, text", [("--straggler-workers", "1,x"), ("--jitter-sigma", "wide")]
)
def test_unreadable_flag_value_is_a_usage_error(tmp_path, capsys, flag, text):
    assert run("simulate", "--strategy", "naive", "--n", 4, "--seed-all", 1,
               flag, text, "--out", tmp_path / "x.csv") == 2
    assert flag in capsys.readouterr().err


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


def scheme_files(tmp_path):
    """A frac n=4 s=1 alpha=2 plan file and a cyc n=6 s=1 scheme file."""
    plan_path, cyc_path = tmp_path / "plan4.json", tmp_path / "cyc6.json"
    partial.export_plan(partial.plan_partial(4, 1, 2.0), plan_path)
    codec.export_code(codec.build_cyc(6, 1, 5), cyc_path)
    return {
        "partial": (plan_path, {"n": 4, "s": 1, "kind": "frac", "alpha": 2.0}),
        "coded": (cyc_path, {"n": 6, "s": 1, "kind": "cyc"}),
    }


FILE_CONFLICTS = [
    ("partial", "n", 8), ("partial", "s", 2), ("partial", "kind", "cyc"),
    ("partial", "alpha", 3.0),
    ("coded", "n", 8), ("coded", "s", 2), ("coded", "kind", "frac"),
]


def run_entry(tmp_path, place, entry):
    """Run one strategy as simulate flags or as a compare run entry."""
    shared = {"d": 480, "p": 6, "iterations": 2, "seed_all": 3}
    if place == "simulate":
        argv = ["simulate", "--out", tmp_path / "x.csv"]
        for k, v in {**shared, **entry}.items():
            # A bool flag is given by name alone.
            argv += ["--" + k.replace("_", "-")] + ([] if v is True else [v])
    else:
        cfg_path = tmp_path / "cmp.json"
        cfg_path.write_text(json.dumps({"shared": shared, "runs": [entry]}))
        argv = ["compare", "--config", cfg_path, "--out-prefix", tmp_path / "x"]
    return run(*argv)


@pytest.mark.parametrize("strategy, key, value", FILE_CONFLICTS)
@pytest.mark.parametrize("place", ["simulate", "run"])
def test_setting_that_contradicts_the_scheme_file_is_a_validation_error(
    tmp_path, capsys, strategy, key, value, place
):
    path, held = scheme_files(tmp_path)[strategy]
    entry = {"strategy": strategy, "scheme_file": str(path), **held, key: value}
    assert run_entry(tmp_path, place, entry) == 3
    out, err = capsys.readouterr()
    assert f"{key}={value!r} contradicts {path}, which holds {key}={held[key]!r}" in err
    assert "run " not in out
    assert list(tmp_path.glob("x*")) == []


@pytest.mark.parametrize("strategy", ["partial", "coded"])
@pytest.mark.parametrize("place", ["simulate", "run"])
def test_settings_that_match_the_scheme_file_are_accepted(tmp_path, strategy, place):
    path, held = scheme_files(tmp_path)[strategy]
    entry = {"strategy": strategy, "scheme_file": str(path), **held}
    assert run_entry(tmp_path, place, entry) == 0


# (run settings, the one setting the run never reads); "FILE" stands for
# a scheme file the run would otherwise be valid with.
UNREAD = [
    ({"strategy": "coded", "kind": "frac", "n": 4, "s": 1, "alpha": 3.0}, "alpha"),
    ({"strategy": "ignore", "n": 4, "s": 1, "alpha": 3.0}, "alpha"),
    ({"strategy": "naive", "n": 4, "s": 2}, "s"),
    ({"strategy": "naive", "n": 4, "kind": "cyc"}, "kind"),
    ({"strategy": "naive", "n": 4, "scheme_file": "FILE"}, "scheme_file"),
    ({"strategy": "ignore", "n": 4, "s": 1, "kind": "cyc"}, "kind"),
    ({"strategy": "ignore", "n": 4, "s": 1, "scheme_file": "FILE"}, "scheme_file"),
    ({"strategy": "naive", "n": 4, "optimizer": "gd_decay", "eta": 0.01}, "eta"),
    ({"strategy": "naive", "n": 4, "c1": 0.5}, "c1"),
    ({"strategy": "naive", "n": 4, "c2": 5.0}, "c2"),
    ({"strategy": "naive", "n": 4, "straggler_mode": "random", "straggler_count": 1,
      "straggler_kind": "delay", "straggler_alpha": 3.0}, "straggler_alpha"),
    ({"strategy": "ignore", "n": 4, "s": 1, "straggler_mode": "random", "straggler_count": 1,
      "straggler_kind": "slowdown", "straggler_alpha": 2.0, "straggler_extra": 7.0},
     "straggler_extra"),
    ({"strategy": "naive", "n": 4, "straggler_extra": 7.0}, "straggler_extra"),
    ({"strategy": "naive", "n": 4, "straggler_kind": "slowdown"}, "straggler_kind"),
    ({"strategy": "naive", "n": 4, "verify_decode": True}, "verify_decode"),
    ({"strategy": "ignore", "n": 4, "s": 1, "verify_decode": True}, "verify_decode"),
]


@pytest.mark.parametrize("entry, key", UNREAD, ids=[f"{e['strategy']}-{k}" for e, k in UNREAD])
@pytest.mark.parametrize("place", ["simulate", "config", "run"])
def test_a_setting_the_run_never_reads_is_a_validation_error(
    tmp_path, capsys, entry, key, place
):
    path, _ = scheme_files(tmp_path)["coded"]
    entry = {k: str(path) if v == "FILE" else v for k, v in entry.items()}
    if place == "config":
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps({"d": 480, "p": 6, "iterations": 2, "seed_all": 3,
                                        **entry}))
        code = run("simulate", "--config", cfg_path, "--out", tmp_path / "x.csv")
    else:
        code = run_entry(tmp_path, place, entry)
    assert code == 3
    out, err = capsys.readouterr()
    assert f"does not read {key}, given" in err
    assert "run " not in out
    assert list(tmp_path.glob("x*")) == []


@pytest.mark.parametrize("flags, decider", [
    (["--straggler-extra", 7], "the none straggler_mode does not read straggler_extra"),
    (["--straggler-kind", "slowdown", "--straggler-extra", 7],
     "the none straggler_mode does not read straggler_kind"),
    (["--straggler-mode", "fixed", "--straggler-workers", "1", "--straggler-kind", "slowdown",
      "--straggler-alpha", 2, "--straggler-extra", 7],
     "the slowdown straggler_kind does not read straggler_extra"),
])
def test_an_unread_setting_names_the_topmost_decider_that_rules_it_out(
    tmp_path, capsys, flags, decider
):
    assert run(*sim_args(tmp_path, *flags)) == 3
    assert decider in capsys.readouterr().err


def test_compare_straggler_flags_and_shared_values_apply_to_the_runs_that_read_them(tmp_path):
    config = {
        "shared": {"d": 480, "p": 6, "iterations": 2, "seed_all": 3, "straggler_extra": 7.0},
        "runs": [{"strategy": "naive", "n": 4}],
    }
    cfg_path = tmp_path / "cmp.json"
    cfg_path.write_text(json.dumps(config))
    assert run("compare", "--config", cfg_path, "--straggler-kind", "slowdown",
               "--straggler-alpha", 3.0, "--out-prefix", tmp_path / "x") == 0


def test_compare_flags_and_shared_values_apply_to_the_runs_that_read_them(tmp_path):
    config = {
        "shared": {"d": 480, "p": 6, "iterations": 2, "seed_all": 3, "alpha": 2.0, "c1": 0.5},
        "runs": [{"strategy": "naive", "n": 4},
                 {"strategy": "partial", "kind": "frac", "n": 4, "s": 1, "label": "two"}],
    }
    cfg_path = tmp_path / "cmp.json"
    cfg_path.write_text(json.dumps(config))
    assert run("compare", "--config", cfg_path, "--s", 1, "--eta", 0.01, "--c2", 5.0,
               "--out-prefix", tmp_path / "x") == 0
    assert run("compare", "--bundle", "--n", 4, "--s", 1, "--d", 480, "--p", 6,
               "--iterations", 2, "--seed-all", 3, "--c1", 0.5,
               "--out-prefix", tmp_path / "b") == 0


@pytest.mark.parametrize("strategy", [["coded"], ["partial", "--alpha", 2.0]])
def test_naive_kind_for_a_coded_strategy_is_a_validation_error(tmp_path, capsys, strategy):
    assert run("simulate", "--strategy", *strategy, "--kind", "naive", "--n", 4, "--s", 1,
               "--d", 480, "--p", 6, "--iterations", 2, "--seed-all", 1,
               "--out", tmp_path / "x.csv") == 3
    err = capsys.readouterr().err
    assert "coded and partial strategies need kind frac or cyc, got 'naive'" in err
    assert not (tmp_path / "x.csv").exists()


def test_simulate_starved_iteration_exit_code(tmp_path, capsys):
    code = run("simulate", "--strategy", "naive", "--n", 4, "--d", 480, "--p", 6,
               "--iterations", 3, "--seed-all", 5,
               "--straggler-mode", "fixed", "--straggler-workers", "1",
               "--straggler-kind", "delay", "--straggler-extra", "inf",
               "--out", tmp_path / "x.csv")
    assert code == 4
    assert "numerical error" in capsys.readouterr().err


def test_an_overflowing_clock_is_reported_before_any_round(tmp_path, capsys, monkeypatch):
    # exp(300 Z) overflows in round 15 of this seed: no worker is starved,
    # and the run fails before its first gradient, warning nothing.
    calls = []
    monkeypatch.setattr(learn, "partition_gradients", lambda *args: calls.append(args))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run("simulate", "--strategy", "naive", "--n", 4, "--d", 400, "--p", 5,
                   "--iterations", 100, "--jitter-sigma", 300, "--seed-all", 0,
                   "--out", tmp_path / "x.csv")
    assert code == 4
    out, err = capsys.readouterr()
    assert err == ("numerical error: round 15: a worker's compute time overflows "
                   "at jitter_sigma=300.0\n")
    assert out == ""
    assert caught == []
    assert list(tmp_path.iterdir()) == []
    assert calls == []


def test_blas_thread_count_moves_only_the_loss_bits(tmp_path):
    # The partition products round differently at 1 and 2 BLAS threads
    # on some data. Measured on numpy 2.4.6 with scipy-openblas 0.3.31:
    # 20 of these 100 loss rows differed, by at most 2.4e-16 relative;
    # the clock, the survivors and the AUC did not move. At seeds 5, 6
    # and 8 no row differed.
    argv = ["simulate", "--strategy", "coded", "--kind", "frac", "--n", "24", "--s", "3",
            "--d", "10000", "--p", "100", "--iterations", "100",
            "--straggler-mode", "random", "--straggler-count", "3",
            "--straggler-kind", "delay", "--straggler-extra", "5", "--seed-all", "7"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    rows = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-m", "gradcode.cli", *argv, "--out", str(out)],
                       check=True, env=env, capture_output=True, timeout=300)
        rows.append(read_csv(out))
    one, two = rows
    assert len(one) == len(two) == 100
    for a, b in zip(one, two):
        assert {k: a[k] for k in a if k != "loss"} == {k: b[k] for k in b if k != "loss"}
        assert float(a["loss"]) == pytest.approx(float(b["loss"]), rel=1e-13, abs=0)


def test_a_code_of_zero_tolerance_runs_under_stragglers_like_naive(tmp_path):
    scheme = tmp_path / "naive.json"
    assert run("scheme", "build", "--kind", "naive", "--n", 4, "--out", scheme) == 0
    flags = ["--d", 480, "--p", 6, "--iterations", 4, "--seed-all", 5,
             "--straggler-mode", "random", "--straggler-count", 2,
             "--straggler-kind", "delay", "--straggler-extra", 9.0]
    assert run("simulate", "--strategy", "coded", "--scheme-file", scheme, *flags,
               "--out", tmp_path / "coded.csv") == 0
    assert run("simulate", "--strategy", "naive", "--n", 4, *flags,
               "--out", tmp_path / "naive.csv") == 0
    coded, naive = read_csv(tmp_path / "coded.csv"), read_csv(tmp_path / "naive.csv")
    assert [row["strategy"] for row in coded] == ["naive_n4_s0"] * 4
    for row in coded + naive:
        row.pop("strategy")
    assert coded == naive


@pytest.mark.parametrize("argv", [
    ["simulate", "--strategy", "naive", "--n", 2, "--out", "x.csv"],
    ["compare", "--bundle", "--n", 2, "--s", 1, "--out-prefix", "x"],
])
def test_a_one_class_holdout_fails_before_any_round(tmp_path, capsys, monkeypatch, argv):
    # d=10 holds out 2 rows; under data seed 1 both are positive.
    rounds = []
    monkeypatch.setattr(sim, "run_iteration", lambda *a, **kw: rounds.append(a))
    argv = [tmp_path / a if a.startswith("x") else a for a in map(str, argv)]
    assert run(*argv, "--d", 10, "--p", 2, "--iterations", 3, "--seed-all", 0) == 3
    out, err = capsys.readouterr()
    assert "need both classes, got 2 positives of 2" in err
    assert "run " not in out
    assert list(tmp_path.glob("x*")) == []
    assert rounds == []


def test_verify_decode_turns_a_wrong_decode_into_a_span_failure(tmp_path, capsys, monkeypatch):
    decode = sim.decode_row

    def off(code, survivors, cache=None):
        row = decode(code, survivors, cache)
        return codec.DecodeRow(row.survivors, row.coeffs * 1.01, row.residual)

    monkeypatch.setattr(sim, "decode_row", off)
    argv = ["simulate", "--strategy", "coded", "--kind", "frac", "--n", 4, "--s", 1,
            "--d", 480, "--p", 6, "--iterations", 3, "--seed-all", 5]
    assert run(*argv, "--out", tmp_path / "unchecked.csv") == 0
    assert run(*argv, "--verify-decode", "--out", tmp_path / "x.csv") == 4
    assert "numerical error: decoded gradient off by" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


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


def test_compare_reruns_from_its_own_config_echo(tmp_path):
    assert run("compare", "--bundle", "--n", 4, "--s", 1, "--d", 480, "--p", 6,
               "--iterations", 3, "--seed-all", 40, "--out-prefix", tmp_path / "a") == 0
    assert run("compare", "--config", tmp_path / "a.config.json",
               "--out-prefix", tmp_path / "b") == 0
    firsts = sorted(tmp_path.glob("a_*.csv"))
    assert len(firsts) == 6  # four runs, iterations and thresholds
    for first in firsts:
        again = tmp_path / ("b" + first.name[1:])
        assert again.read_bytes() == first.read_bytes()


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


@pytest.mark.parametrize(
    "key",
    [key for key, field in cli._RUN_SCHEMA.items()
     if field.default is not None and key != "jitter_sigma"],
)
def test_compare_null_for_a_field_with_a_default_is_a_validation_error(tmp_path, capsys, key):
    # jitter_sigma is the one such field whose null means something: no jitter.
    config = {
        "shared": {"d": 480, "p": 6, "iterations": 3, "seed_all": 1},
        "runs": [{"strategy": "naive", "n": 4, key: None}],
    }
    cfg_path = tmp_path / "cmp.json"
    cfg_path.write_text(json.dumps(config))
    assert run("compare", "--config", cfg_path, "--out-prefix", tmp_path / "x") == 3
    err = capsys.readouterr().err
    assert f"config field {key!r} must not be null" in err
    assert "Traceback" not in err
    assert list(tmp_path.glob("x*")) == []


@pytest.mark.parametrize("place", ["simulate", "shared", "run"])
@pytest.mark.parametrize("key, code", [("eta", 0), ("d", 3)])
def test_null_follows_one_rule_in_every_config_place(tmp_path, capsys, place, key, code):
    # eta's default is None, so null leaves it unset; d's is not.
    shared = {"d": 480, "p": 6, "iterations": 3, "seed_all": 1}
    entry = {"strategy": "naive", "n": 4}
    (entry if place == "run" else shared)[key] = None
    cfg_path = tmp_path / "cfg.json"
    if place == "simulate":
        cfg_path.write_text(json.dumps({**shared, **entry}))
        argv = ("simulate", "--config", cfg_path, "--out", tmp_path / "x.csv")
    else:
        cfg_path.write_text(json.dumps({"shared": shared, "runs": [entry]}))
        argv = ("compare", "--config", cfg_path, "--out-prefix", tmp_path / "x")
    assert run(*argv) == code
    err = capsys.readouterr().err
    if code:
        assert f"config field {key!r} must not be null" in err
        assert list(tmp_path.glob("x*")) == []
    else:
        assert err == ""


def test_compare_rejects_more_partitions_than_training_rows_before_any_run(tmp_path, capsys):
    # d=60 trains on 48 rows: the second run cannot be partitioned 50 ways.
    config = {
        "shared": {"d": 60, "p": 3, "iterations": 2, "seed_all": 1},
        "runs": [{"strategy": "naive", "n": 4, "label": "a"},
                 {"strategy": "naive", "n": 50, "label": "b"}],
    }
    cfg_path = tmp_path / "cmp.json"
    cfg_path.write_text(json.dumps(config))
    assert run("compare", "--config", cfg_path, "--out-prefix", tmp_path / "x") == 3
    out, err = capsys.readouterr()
    assert "run " not in out
    assert "48 training rows" in err
    assert list(tmp_path.glob("x*")) == []


@pytest.mark.parametrize(
    "extra, key",
    [({"eta": -1.0}, "eta"), ({"optimizer": "gd_decay", "c2": -20.0}, "c2")],
)
def test_bad_optimizer_constant_fails_a_compare_before_any_run(tmp_path, capsys, extra, key):
    config = {
        "shared": {"d": 600, "p": 5, "iterations": 3, "seed_all": 1},
        "runs": [{"strategy": "naive", "n": 4},
                 {"strategy": "naive", "n": 4, "label": "bad", **extra}],
    }
    cfg_path = tmp_path / "cmp.json"
    cfg_path.write_text(json.dumps(config))
    assert run("compare", "--config", cfg_path, "--out-prefix", tmp_path / "x") == 3
    out, err = capsys.readouterr()
    assert "run " not in out
    assert f"validation error: {key} must be finite" in err
    assert list(tmp_path.glob("x*")) == []


@pytest.mark.parametrize(
    "raw, message",
    [
        ({"runs": [{"strategy": "naive", "n": 4}], "extra": 1}, "unknown compare config fields"),
        ({"shared": [], "runs": [{"strategy": "naive", "n": 4}]}, "'shared' must be a JSON object"),
        ({"shared": {}, "runs": []}, "'runs' must be a non-empty JSON array"),
        ({"runs": [{"strategy": "naive", "n": 4}, 3]}, "every entry in 'runs' must be"),
    ],
)
def test_compare_config_shape_errors(tmp_path, capsys, raw, message):
    cfg_path = tmp_path / "cmp.json"
    cfg_path.write_text(json.dumps(raw))
    assert run("compare", "--config", cfg_path, "--out-prefix", tmp_path / "x") == 3
    assert message in capsys.readouterr().err
    assert list(tmp_path.glob("x*")) == []


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
