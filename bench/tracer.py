"""In-memory spans around dtq's functions, and the layer metrics they give.

The benchmark traces dtq from outside the package.  ``install`` replaces a
function by a wrapper wherever a dtq module binds it (``littles`` imports
``time_averages`` from ``observer``, so both names get the same wrapper) and
a method on its class.  Every wrapped call records a span ``[name, start,
end, parent]`` in the recorder; a few wrappers also add to exact counters.
A target that no longer exists is returned as missing instead of raising.

Layer metrics are derived from the spans afterwards:

- ``<span>.ms``: self time, the span's duration minus the part of it that
  its child spans cover, summed over calls, in milliseconds;
- ``<span>.calls``: the number of spans.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
import time


class Recorder:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = {}
        self.hook_errors: list[str] = []
        self.enabled = True
        self._stack: list[int] = []

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn, name, hook=None):
        """``fn`` recording one span per call.

        ``name`` is the span name, or a function of the call's arguments
        returning it; ``hook(recorder, result, args, kwargs)`` runs after
        the span has ended, to update counters.
        """
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            index = len(rec.spans)
            rec.spans.append([label, time.monotonic(), None, rec._stack[-1] if rec._stack else -1])
            rec._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._stack.pop()
                rec.spans[index][2] = time.monotonic()
            if hook is not None:
                try:
                    hook(rec, result, args, kwargs)
                except Exception as exc:  # a counter must never fail the traced call
                    rec.hook_errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return result

        return traced


# --- what the benchmark traces ----------------------------------------------

def _count_customers(rec, trace, args, kwargs):
    rec.add("engine.customers", trace.n)


def _count_csv_bytes(rec, result, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    rec.add("engine.trace_csv_bytes", os.path.getsize(path))


def _count_cycles(rec, stats, args, kwargs):
    rec.add("busy.cycles", stats.n_cycles)


def _check_span(args, kwargs):
    return f"cli.check.{args[0] if args else kwargs['name']}"


# (span name, module, attribute, counter hook); "Class.method" wraps a method
SPANS = (
    ("engine.gen_arrivals", "dtq.engine", "gen_arrivals", None),
    ("engine.sample_services", "dtq.engine", "sample_services", None),
    ("engine.run_discipline", "dtq.engine", "run_discipline", None),
    ("engine.simulate_finite_population", "dtq.engine", "simulate_finite_population", None),
    ("engine.build_trace", "dtq.engine", "build_trace", _count_customers),
    ("engine.Trace.queue_path", "dtq.engine", "Trace.queue_path", None),
    ("engine.write_trace_csv", "dtq.engine", "write_trace_csv", _count_csv_bytes),
    ("engine.read_trace_csv", "dtq.engine", "read_trace_csv", None),
    ("timebase.observation_span", "dtq.timebase", "observation_span", None),
    ("observer.time_averages", "dtq.observer", "time_averages", None),
    ("observer.observed_queue_path", "dtq.observer", "observed_queue_path", None),
    ("observer.observed_waits", "dtq.observer", "observed_waits", None),
    ("coherence.classify", "dtq.coherence", "classify", None),
    ("coherence.verify_on_trace", "dtq.coherence", "verify_on_trace", None),
    ("littles.check_little", "dtq.littles", "check_little", None),
    ("littles.check_little_observed", "dtq.littles", "check_little_observed", None),
    ("littles.workload_path", "dtq.littles", "workload_path", None),
    ("littles.verify_pk", "dtq.littles", "verify_pk", None),
    ("littles.basic_inequality_path", "dtq.littles", "basic_inequality_path", None),
    ("littles.utilization", "dtq.littles", "utilization", None),
    ("littles.check_h_lambda_g", "dtq.littles", "check_h_lambda_g", None),
    ("busy.detect_cycles", "dtq.busy", "detect_cycles", _count_cycles),
    ("busy.state_rates", "dtq.busy", "state_rates", None),
    ("birthdeath.occupancy_grid", "dtq.birthdeath", "occupancy_grid", None),
    ("birthdeath.bgeom1_pi", "dtq.birthdeath", "bgeom1_pi", None),
    ("cli.load_experiment", "dtq.cli", "load_experiment", None),
    ("cli.run_verify", "dtq.cli", "run_verify", None),
    ("cli.check", "dtq.cli", "_run_check", None),
)

# span names that depend on the call's arguments
SPAN_NAMERS = {"cli.check": _check_span}

# names of cli.check.<name> spans: the checks `dtq verify` knows
CHECKS = ("little", "little-observed", "pk", "workload", "busy", "dist", "table61", "utilization")


def install(rec: Recorder, spans=SPANS) -> list[str]:
    """Wrap every target in ``spans``; return the names of those not found."""
    missing = []
    for name, module_name, attr, hook in spans:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(name)
            continue
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        fn = vars(owner).get(leaf) if owner is not None else None
        if not callable(fn):
            missing.append(name)
            continue
        wrapper = rec.wrap(fn, SPAN_NAMERS.get(name, name), hook)
        if owner_name:
            setattr(owner, leaf, wrapper)
            continue
        bound = [m for key, m in list(sys.modules.items()) if key == "dtq" or key.startswith("dtq.")]
        for m in bound:
            for key, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, key, wrapper)
    return missing


# --- span arithmetic -------------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: self ms, inclusive ms and calls."""
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        entry = out.setdefault(name, {"self_ms": 0.0, "total_ms": 0.0, "calls": 0})
        entry["self_ms"] += 1000.0 * own
        entry["total_ms"] += 1000.0 * (end - start)
        entry["calls"] += 1
    return out
