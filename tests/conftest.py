"""Shared fixtures."""

from dataclasses import dataclass, field

import pytest

from gradcode import learn, sim


@dataclass
class RecordedRun:
    kinds: list = field(default_factory=list)  # each round's gradient kind
    events: list = field(default_factory=list)  # each round's message events
    iterates: list = field(default_factory=list)  # a copy of each step's iterate


@pytest.fixture
def recorded(monkeypatch):
    """One ``RecordedRun`` per ``sim.run_training`` call in the test.

    Recorded from outside the simulator, as the benchmark's probes do: by
    patching ``sim.run_iteration`` (its fourth result is the round's
    gradient kind, its fifth the round's events) and the ``step`` of each
    optimizer ``learn.make_optimizer`` returns during a run, names the
    simulator looks up on every call.
    """
    runs: list[RecordedRun] = []
    active: list[RecordedRun] = []
    run_training, run_iteration = sim.run_training, sim.run_iteration
    make_optimizer = learn.make_optimizer

    def training(*args, **kwargs):
        runs.append(RecordedRun())
        active.append(runs[-1])
        try:
            return run_training(*args, **kwargs)
        finally:
            active.pop()

    def iteration(*args, **kwargs):
        result = run_iteration(*args, **kwargs)
        active[-1].kinds.append(result[3])
        active[-1].events.append(result[4])
        return result

    def optimizer(*args, **kwargs):
        opt = make_optimizer(*args, **kwargs)
        if active:
            run, step = active[-1], opt.step

            def recorded_step(g):
                beta = step(g)
                run.iterates.append(beta.copy())
                return beta

            opt.step = recorded_step
        return opt

    monkeypatch.setattr(sim, "run_training", training)
    monkeypatch.setattr(sim, "run_iteration", iteration)
    monkeypatch.setattr(learn, "make_optimizer", optimizer)
    return runs
