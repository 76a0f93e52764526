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

from gradcode import sim

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
