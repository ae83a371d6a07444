"""The benchmark's workloads: their inputs, their unit of work and its checks.

A unit of work is what one user action costs: ``work`` makes the dtq calls
and is timed; ``check`` then verifies the outputs with the benchmark's own
code, untimed and untraced.  Both record operations in an ``Ops``: one per
report row or exact check.  An exception fails its operation and the unit
goes on.

This module imports no dtq code at import time, so the parent process can
write the inputs without loading numpy.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable

ALL_CHECKS = "little, little-observed, pk, workload, busy, dist, table61, utilization"
MODEL_FREE_CHECKS = "little, little-observed, busy"

# ROADMAP's reference configuration
REF_MODEL = """\
arrival = bernoulli
alpha = 0.3
service = geometric:0.5
discipline = fifo
servers = 1
"""

FIFO2_RANDOM_MODEL = """\
arrival = bernoulli
alpha = 0.6
service = geometric:0.5
discipline = fifo
servers = 2
assignment = random
"""

FINITE_POPULATION_MODEL = """\
arrival = finite-population
sources = 5
alpha = 0.05
service = geometric:0.5
"""


def config_text(model: str, horizon: int, checks: str) -> str:
    return (
        f"[model]\n{model}\n[sim]\nhorizon = {horizon}\nwarmup = {horizon // 10}\n\n"
        f"[checks]\nnames = {checks}\n"
    )


@dataclass
class Ops:
    """Operations attempted and failed in one unit of work."""

    attempted: int = 0
    failed: list[str] = field(default_factory=list)
    exact_violations: list[str] = field(default_factory=list)

    def record(self, name: str, ok: bool, exact: bool = False, note: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(f"{name}: {note}" if note else name)
            if exact:
                self.exact_violations.append(name)

    def call(self, name, fn, *args, judge=bool, exact=False):
        """Run one operation; ``judge(result)`` says whether it passed."""
        try:
            result = fn(*args)
        except Exception as exc:  # the run goes on; the operation failed
            self.record(name, False, exact, f"{type(exc).__name__}: {exc}")
            return None
        self.record(name, bool(judge(result)), exact)
        return result


def _passed(report) -> bool:
    return report.passed


@dataclass
class Context:
    """What a unit of work needs: dtq's modules, the inputs and its seed."""

    dtq: dict  # module name -> module
    seed: int
    configs: dict  # config name -> path
    experiments: dict  # config name -> loaded Experiment
    workdir: str
    hlg_slots: int = 0  # H = lambda G prefix of trace-roundtrip
    ops: Ops = field(default_factory=Ops)
    info: dict = field(default_factory=dict)


def _verify(ctx: Context, name: str):
    """`dtq verify` through cli.main with JSON out; returns the exit code
    or the exception it raised."""
    out = os.path.join(ctx.workdir, f"bundle-{name}.json")
    if os.path.exists(out):  # a crash must not leave the last unit's bundle to be checked
        os.remove(out)
    argv = ["--config", ctx.configs[name], "--seed", str(ctx.seed), "--format", "json", "--out", out]
    try:
        return ctx.dtq["cli"].main(argv + ["verify"])
    except Exception as exc:  # counted as a failed operation by _check_bundle
        return exc


def _check_bundle(ctx: Context, name: str, outcome) -> bytes | None:
    """One operation per report row; a run that produced no bundle is one
    failed operation."""
    path = os.path.join(ctx.workdir, f"bundle-{name}.json")
    if outcome not in (0, 1) or not os.path.exists(path):
        ctx.ops.record(f"verify {name}", False, note=f"outcome {outcome!r}")
        return None
    with open(path, "rb") as fh:
        raw = fh.read()
    bundle = json.loads(raw)
    for rep in bundle["replications"]:
        for row in rep["rows"]:
            ctx.ops.record(f"{name} {row['check']}: {row['quantity']}", row["pass"])
    return raw


def _check_grid(ctx: Context) -> None:
    coherence = ctx.dtq["coherence"]
    ctx.ops.call(
        "classification grid",
        lambda: coherence.classification_table() == coherence.GOLDEN_CLASS_GRID,
        exact=True,
    )


# --- verify-ref ----------------------------------------------------------------

def verify_ref_work(ctx: Context):
    return _verify(ctx, "ref")


def verify_ref_check(ctx: Context, outcome) -> None:
    raw = _check_bundle(ctx, "ref", outcome)
    ctx.info["bundle_sha256"] = hashlib.sha256(raw).hexdigest() if raw is not None else None
    _check_grid(ctx)


# --- verify-sequential -----------------------------------------------------------

def verify_sequential_work(ctx: Context):
    return [_verify(ctx, "fifo2-random"), _verify(ctx, "finite-population")]


def verify_sequential_check(ctx: Context, outcomes) -> None:
    for name, outcome in zip(("fifo2-random", "finite-population"), outcomes):
        _check_bundle(ctx, name, outcome)
    _check_grid(ctx)


# --- trace-roundtrip -------------------------------------------------------------

def trace_roundtrip_work(ctx: Context):
    """Write the reference trace with `dtq simulate`, import it, and run the
    library checks on the imported trace."""
    d, ops = ctx.dtq, ctx.ops
    littles, coherence, timebase = d["littles"], d["coherence"], d["timebase"]
    exp = ctx.experiments["ref"]
    csv_path = os.path.join(ctx.workdir, "trace.csv")
    argv = ["--config", ctx.configs["ref"], "--seed", str(ctx.seed), "--out", csv_path, "simulate"]
    trace = prefix = None
    try:
        rc = d["cli"].main(argv)
        trace = d["engine"].read_trace_csv(csv_path)
        keep = trace.arrivals <= ctx.hlg_slots
        prefix = d["engine"].Trace(
            trace.arrivals[keep], trace.services[keep], trace.starts[keep],
            trace.departures[keep], ctx.hlg_slots,
        )
    except Exception as exc:  # every operation on the missing trace fails below
        rc = exc
    warm = exp.warmup
    ops.call("little", littles.check_little, trace, warm, judge=_passed)
    ops.call("pk", littles.verify_pk, trace, warm, judge=_passed)
    ops.call("basic inequality", littles.basic_inequality_path, trace, exact=True)
    target = exp.alpha * exp.service.mean()
    ops.call(
        "utilization", littles.utilization, trace,
        judge=lambda rep: abs(rep.total - target) <= 0.02 * target,
    )
    for rule in timebase.RULES:
        for epoch in timebase.EPOCHS:
            ops.call(
                f"offsets {rule.label}/{epoch.label}",
                coherence.verify_on_trace, trace, rule, epoch, judge=_passed, exact=True,
            )
    for cost in (littles.indicator_cost(), littles.remaining_work_cost()):
        ops.call(f"H = lambda G ({cost.name})", littles.check_h_lambda_g, prefix, cost, judge=_passed)
    return rc, trace, csv_path


_TRACE_FIELDS = ("arrivals", "services", "starts", "departures")


def trace_roundtrip_check(ctx: Context, state) -> None:
    rc, imported, csv_path = state
    np = ctx.dtq["numpy"]
    exp = ctx.experiments["ref"]
    written = exp.make_trace(exp.seed)  # the trace `dtq simulate` wrote

    def same():
        if rc != 0:
            raise RuntimeError(f"dtq simulate returned {rc!r}")
        return all(
            getattr(imported, f).dtype == getattr(written, f).dtype
            and np.array_equal(getattr(imported, f), getattr(written, f))
            for f in _TRACE_FIELDS
        )

    ctx.ops.call("csv round trip", same, exact=True)
    ctx.info["customers"] = written.n
    ctx.info["csv_bytes"] = 0
    if os.path.exists(csv_path):  # the next unit must not import this file
        ctx.info["csv_bytes"] = os.path.getsize(csv_path)
        os.remove(csv_path)
    _check_grid(ctx)


# --- the table ---------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    configs: dict  # config name -> (model, checks)
    horizon: int  # slots per config
    smoke_horizon: int
    work: Callable[["Context"], Any]  # timed; returns what check needs
    check: Callable[["Context", Any], None]
    hlg_slots: int = 0  # H = lambda G prefix, trace-roundtrip only
    smoke_hlg_slots: int = 0

    def inputs(self, smoke: bool) -> dict[str, str]:
        """Config file texts, by config name."""
        horizon = self.smoke_horizon if smoke else self.horizon
        return {name: config_text(model, horizon, checks) for name, (model, checks) in self.configs.items()}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-ref",
            {"ref": (REF_MODEL, ALL_CHECKS)},
            horizon=1_000_000,
            smoke_horizon=50_000,
            work=verify_ref_work,
            check=verify_ref_check,
        ),
        Workload(
            "verify-sequential",
            {
                "fifo2-random": (FIFO2_RANDOM_MODEL, MODEL_FREE_CHECKS),
                "finite-population": (FINITE_POPULATION_MODEL, MODEL_FREE_CHECKS),
            },
            horizon=500_000,
            smoke_horizon=50_000,
            work=verify_sequential_work,
            check=verify_sequential_check,
        ),
        Workload(
            "trace-roundtrip",
            {"ref": (REF_MODEL, ALL_CHECKS)},
            horizon=1_000_000,
            smoke_horizon=50_000,
            work=trace_roundtrip_work,
            check=trace_roundtrip_check,
            hlg_slots=50_000,
            smoke_hlg_slots=5_000,
        ),
    )
}
