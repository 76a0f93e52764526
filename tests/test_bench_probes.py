"""The benchmark's probes must name functions gradcode still has.

``bench/spans.py`` patches gradcode's module attributes by name, so a
rename that the package's own tests never notice would crash
``bench/run.py``. This reads the probe table without running anything.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from gradcode import codec, learn, partial, sim
from gradcode.numerics import make_rng

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_probe_names_an_existing_attribute(monkeypatch):
    probes = _load_spans(monkeypatch).LAYER_PROBES
    assert len(probes) == 24
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in probes
        if not hasattr(importlib.import_module(f"gradcode.{module}"), attr)
    ]
    assert missing == []


def test_run_iteration_takes_train_as_parameter_3():
    # The round probe reads the training set's row count from argument 3.
    assert list(inspect.signature(sim.run_iteration).parameters)[3] == "train"


@pytest.mark.parametrize(
    "strategy, sent, used",
    [
        (sim.Naive(4), 4, 4),
        (sim.IgnoreStragglers(4, 1), 4, 3),
        (sim.Coded(codec.build_frac(4, 1)), 4, 3),
        (sim.PartialCoded(partial.plan_partial(4, 1, 2.0, kind=codec.FRAC)), 8, 7),
    ],
)
def test_round_probe_counts_sent_and_used_messages(monkeypatch, strategy, sent, used):
    # These counts feed sim.messages_sent and sim.useful_message_share.
    spans = _load_spans(monkeypatch)
    data, _ = learn.gen_synthetic(make_rng(0), 96, 3)
    train = learn.with_partitions(data, strategy.partition_count)
    policy = sim.StragglerPolicy(mode="random", count=1, kind="delay", extra=5.0)
    clock = sim.schedule(strategy, train, sim.LatencyModel(), policy,
                         sim.SeedBundle(scheme=0, data=0, latency=1, straggler=2), 1)
    args = (strategy, clock, 0, train, np.zeros(3), {})
    attrs = spans._iteration_after({}, args, {}, sim.run_iteration(*args))
    assert (attrs["sent"], attrs["used"]) == (sent, used)
