"""Arithmetic of the benchmark: percentiles, self time, round partition.

Pure functions over plain numbers and span records, kept apart from the
probes and the workloads so they can be tested without running gradcode.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

# Tail percentiles considered, highest first. A percentile is reported
# only when at least TAIL_MIN samples lie beyond it.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN = 10


@dataclass(slots=True)
class Span:
    """One timed call: name, host start and end, parent span index, run id."""

    name: str
    start: float
    end: float
    parent: int | None
    run: int
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def nearest_rank(q: float, count: int) -> int:
    """1-based rank of the q-th percentile among ``count`` sorted samples."""
    return max(1, math.ceil(q * count / 100.0 - 1e-9))


def beyond(q: float, count: int) -> int:
    """Samples strictly above the q-th percentile's rank."""
    return count - nearest_rank(q, count)


def tail_percentile(count: int, candidates=TAIL_CANDIDATES) -> float | None:
    """Highest candidate percentile with at least TAIL_MIN samples beyond it."""
    for q in candidates:
        if beyond(q, count) >= TAIL_MIN:
            return q
    return None


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    return ordered[nearest_rank(q, len(ordered)) - 1]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach, span.start), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def is_cache_hit(cache, survivors) -> bool:
    """Whether ``decode_row`` will answer from ``cache`` for this survivor set."""
    return cache is not None and tuple(sorted(int(w) for w in survivors)) in cache


@dataclass
class Partition:
    """One invocation split into set-up, rounds and output, in host seconds."""

    setup: float
    rounds: list[float]
    output: float

    @property
    def total(self) -> float:
        return self.setup + sum(self.rounds) + self.output


def partition(start: float, end: float, round_starts, run_ends) -> Partition:
    """Split the interval [start, end] at round boundaries.

    A round runs from one round start to the next, or to the end of the
    run it belongs to. Time before a run's first round is set-up. Time
    after the last run ends is output, unless no round happened at all,
    in which case the whole invocation is set-up.
    """
    events = sorted([(t, 0) for t in round_starts] + [(t, 1) for t in run_ends])
    setup, rounds = 0.0, []
    mark, in_round = start, False
    for t, is_end in events:
        if in_round:
            rounds.append(t - mark)
        else:
            setup += t - mark
        in_round = not is_end
        mark = t
    tail = end - mark
    if in_round:
        rounds.append(tail)
        return Partition(setup, rounds, 0.0)
    if rounds:
        return Partition(setup, rounds, tail)
    return Partition(setup + tail, rounds, 0.0)


def noise_floor(passes: list[list[Partition]], groups=None) -> Partition:
    """Each segment's lowest host time across its repetitions.

    ``passes`` holds, per pass, the partitions of its invocations; every
    pass runs the same invocations. ``groups`` names, per invocation, the
    work it repeats: invocations with one name do the same work on other
    data (the same survivor-set checks of codes of one shape, say), so
    they are repetitions of each other as well as across passes. By
    default each invocation is its own group.

    The result has the shape of one pass: its set-up is the sum over
    invocations of the fastest set-up of their group, its rounds are the
    fastest repetition of each round, and likewise its output.
    """
    groups = list(range(len(passes[0]))) if groups is None else list(groups)
    members: dict = {}
    for i, group in enumerate(groups):
        members.setdefault(group, []).append(i)
    setup, rounds, output = 0.0, [], 0.0
    for indices in members.values():
        reps = [parts[i] for parts in passes for i in indices]
        if len({len(r.rounds) for r in reps}) != 1:
            raise ValueError(f"repetitions differ in rounds: {sorted({len(r.rounds) for r in reps})}")
        setup += len(indices) * min(r.setup for r in reps)
        output += len(indices) * min(r.output for r in reps)
        rounds += len(indices) * [min(column) for column in zip(*(r.rounds for r in reps))]
    return Partition(setup, rounds, output)


def share(part: int, whole: int) -> float | None:
    """part / whole, or None when nothing was attempted."""
    return part / whole if whole else None


def run_fail_share(invocations) -> float | None:
    """Failed simulate/compare invocations over those attempted.

    ``invocations`` holds (command, ok) pairs; other commands are ignored.
    """
    runs = [ok for command, ok in invocations if command in ("simulate", "compare")]
    return share(sum(not ok for ok in runs), len(runs))


def span_fail_share(reports) -> float | None:
    """Survivor sets that failed to decode over sets checked.

    ``reports`` holds (failures, checked) pairs, one per verified code.
    """
    failed = sum(f for f, _ in reports)
    checked = sum(c for _, c in reports)
    return share(failed, checked)


def median(values) -> float:
    return float(statistics.median(values))
