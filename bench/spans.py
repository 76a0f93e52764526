"""Spans recorded from outside gradcode, by wrapping its public functions.

Each probe replaces a module attribute with a wrapper that records one
span per call and restores the original on exit. A probe patches the
name where the caller looks it up: ``sim`` imports ``decode_row`` by
name, ``codec`` imports ``solve_right`` by name and ``partial`` imports
``build_cyc``/``build_frac`` by name, so those names are patched in the
importing module as well as, or instead of, the defining one.
"""

from __future__ import annotations

import resource
import time

from metrics import Span, is_cache_hit

perf_counter = time.perf_counter


def peak_rss_mb() -> float:
    """High-water mark of this process's resident memory, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Keeps spans in memory; nesting follows the call stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.run = 0

    def wrap(self, name, fn, before=None, after=None):
        """A callable that runs ``fn`` inside a span called ``name``.

        ``before(args, kwargs)`` returns the span's attributes and
        ``after(attrs, args, kwargs, result)`` adds to them; both run
        outside the timed interval.
        """
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            attrs = before(args, kwargs) if before else None
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.run, attrs)
            spans.append(span)
            stack.append(index)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if after:
                span.attrs = after(span.attrs, args, kwargs, result)
            return result

        return wrapper


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


# -- attribute hooks --------------------------------------------------------


def _rows_of_partition(args, kwargs):
    lo, hi = _arg(args, kwargs, 0, "ds").partition_bounds[_arg(args, kwargs, 1, "j")]
    return {"rows": hi - lo}


def _rows_of_dataset(args, kwargs):
    return {"rows": _arg(args, kwargs, 0, "ds").rows}


def _rss_before(args, kwargs):
    return {"rss0": peak_rss_mb()}


def _rss_after(attrs, args, kwargs, result):
    attrs["rss_mb"] = peak_rss_mb() - attrs.pop("rss0")
    return attrs


def _decode_before(args, kwargs):
    cache = args[2] if len(args) > 2 else kwargs.get("cache")
    return {"hit": is_cache_hit(cache, _arg(args, kwargs, 1, "survivors"))}


def _iteration_before(args, kwargs):
    return {"rows": _arg(args, kwargs, 3, "train").rows}


def _iteration_after(attrs, args, kwargs, result):
    _, _, survivors, _, events = result
    kinds = [kind for _, _, kind in events]
    # Two-stage rounds aggregate every naive sum plus the coded survivors;
    # every other strategy aggregates exactly its survivors' messages.
    naive_used = kinds.count("naive") if "coded" in kinds else 0
    attrs["sent"] = len(events)
    attrs["used"] = naive_used + len(survivors)
    return attrs


def _bspan_after(attrs, args, kwargs, result):
    code = _arg(args, kwargs, 0, "code")
    return {
        "n": code.n,
        "s": code.s,
        "B": code.B.tolist(),
        "checked": result.checked,
        "failures": [list(f) for f in result.failures],
    }


def _mds_after(attrs, args, kwargs, result):
    return {"checked": result.checked}


# (module, attribute, span name, before, after). The bundle and verify
# workloads' untraced runs install only the round-boundary probes.
ROUND_PROBES = {
    "bundle": (
        ("sim", "run_training", "sim.run_training", None, None),
        ("sim", "run_iteration", "sim.run_iteration", _iteration_before, _iteration_after),
    ),
    "verify": (
        ("codec", "verify_bspan", "codec.verify_bspan", None, _bspan_after),
        ("codec", "solve_right", "numerics.solve_right", None, None),
    ),
}

# "step" marks the hook that wraps the returned optimizer's step method.
LAYER_PROBES = ROUND_PROBES["bundle"] + ROUND_PROBES["verify"] + (
    ("sim", "decode_row", "codec.decode_row", _decode_before, None),
    ("sim", "compare_runs", "sim.compare_runs", None, None),
    ("sim", "write_run_csv", "sim.csv", None, None),
    ("sim", "write_comparison_csvs", "sim.csv", None, None),
    ("learn", "gen_synthetic", "learn.gen_synthetic", _rss_before, _rss_after),
    ("learn", "holdout_split", "learn.holdout_split", _rss_before, _rss_after),
    ("learn", "lipschitz_bound", "learn.lipschitz_bound", None, None),
    ("learn", "partial_gradient", "learn.partial_gradient", _rows_of_partition, None),
    ("learn", "log_loss", "learn.log_loss", _rows_of_dataset, None),
    ("learn", "auc", "learn.auc", None, None),
    ("learn", "make_optimizer", "learn.make_optimizer", None, "step"),
    ("codec", "build_cyc", "codec.build", None, None),
    ("codec", "build_frac", "codec.build", None, None),
    ("partial", "build_cyc", "codec.build", None, None),
    ("partial", "build_frac", "codec.build", None, None),
    ("partial", "plan_partial", "partial.plan_partial", None, None),
    ("codec", "mds_check", "codec.mds_check", None, _mds_after),
    ("codec", "export_code", "codec.io", None, None),
    ("codec", "import_code", "codec.io", None, None),
    ("partial", "import_plan", "codec.io", None, None),
)


class Probes:
    """Context manager that installs probes on gradcode's modules."""

    def __init__(self, tracer: Tracer, modules: dict, table):
        self.tracer = tracer
        self.modules = modules
        self.table = table
        self._saved: list[tuple[object, str, object]] = []

    def _step_after(self, attrs, args, kwargs, optimizer):
        # The optimizer's step is a bound method; shadow it on the instance.
        optimizer.step = self.tracer.wrap("learn.step", optimizer.step)
        return attrs

    def __enter__(self):
        for module_name, attr, span_name, before, after in self.table:
            module = self.modules[module_name]
            original = getattr(module, attr)
            if after == "step":
                after = self._step_after
            self._saved.append((module, attr, original))
            setattr(module, attr, self.tracer.wrap(span_name, original, before, after))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False
