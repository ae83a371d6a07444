"""Command-line front end: experiments from config files, reports out.

Configs are sectioned key = value files ([model], [sim], [checks],
[output]).  Config errors, all raised before any simulation: any other
section or key; a [model] or [sim] value that does not parse or that its
engine spec rejects (a law below one slot, alpha outside (0, 1), no
source or server, sources * alpha > 1, an unknown assignment), named by
key and text; a horizon or warmup that is not a whole number of slots; a
negative seed; an output format other than text, json or csv; a FIFO
model with load rho = lambda E[S]/c >= 1.  Each check is one entry of
the CHECKS registry: a function of (experiment, trace) that yields
:class:`dtq.littles.Row` verdicts, the library's own rows where a library
check decides them, which _run_check turns into report rows with the
residual and a pass flag, and a precondition on the :class:`Model`: the
reason the check does not apply, or None.  Such a check is one skip row
(pass null, numbers 0) when [checks] names no list, else a config error.
Subcommands:

  classify   30-combo classification grid against the reference
  verify     every configured check on each replication's trace
  dist       analytic vs simulated distribution of one class
  busy, pk   the registered check of that name on one trace
  table61    nonempty-system probability grid
  simulate   write a generated trace as CSV (needs --out)

Every subcommand but simulate writes one table: its rows as JSON or CSV
(a header of field names, then strings as they are and numbers as repr),
or its own text.  Exit codes: 0 every row passes or is skipped, 1 a
check failed, 2 usage or config error.
"""
from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from typing import NamedTuple

import numpy as np

from . import birthdeath, busy, coherence, littles, observer
from .coherence import CoherenceClass
from .engine import (
    ArrivalSpec,
    Bernoulli,
    DisciplineSpec,
    DiscreteDist,
    Explicit,
    Fifo,
    FinitePopulation,
    InfiniteServer,
    Renewal,
    build_trace,
    write_trace_csv,
)
from .littles import Row
from .timebase import ObservationEpoch, SchedulingRule

# one representative rule/epoch combo per coherence class
_CLASS_COMBOS = {
    CoherenceClass.COHERENT: (SchedulingRule.LAS_IA, ObservationEpoch.RANDOM_OBSERVER),
    CoherenceClass.SUB_COHERENT: (SchedulingRule.EAS, ObservationEpoch.RANDOM_OBSERVER),
    CoherenceClass.SUPER_COHERENT: (SchedulingRule.LAS_DA, ObservationEpoch.RANDOM_OBSERVER),
}


class ConfigError(Exception):
    pass


def _parse_dist(text: str) -> tuple[DiscreteDist, float | None]:
    """The law a distribution spec names, and its beta if it is geometric."""
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind == "geometric":
        return DiscreteDist.geometric(beta := float(rest)), beta
    if kind == "point":
        return DiscreteDist.point(int(rest)), None
    if kind == "pmf":
        pmf = {}
        for item in rest.split(","):
            v, _, p = item.partition(":")
            if (v := int(v)) in pmf:
                raise ValueError(f"support point {v} is repeated")
            pmf[v] = float(p)
        return DiscreteDist.from_pmf(pmf), None
    raise ConfigError(f"unknown distribution spec {text!r}")


def _slot_count(text: str) -> int:
    """A whole number of slots, also when written as a float such as 1e6."""
    if (n := int(x := float(text))) != x:
        raise ValueError("not a whole number of slots")
    return n


def _read(section, key: str, parse, default: str | None = None, kind: str | None = None):
    """``parse`` of a [model] or [sim] value, or of ``default`` when ``key``
    is unset; a missing value, or one the parse or the spec it builds
    rejects, is a ConfigError naming the key, its text and the
    ``arrival = kind`` that needs it, if one does."""
    text = section.get(key, default)
    if kind and not text:
        raise ConfigError(f"arrival = {kind} needs {key}")
    try:
        return parse(text)
    except (ConfigError, ValueError, OverflowError) as exc:  # int(float("inf")) overflows
        needed_by = f" for arrival = {kind}" if kind else ""
        raise ConfigError(f"{key} = {text}{needed_by}: {exc}") from None


_FORMATS = ("text", "json", "csv")

# every key a config may set, by section
_CONFIG_KEYS = {
    "model": ("arrival", "alpha", "beta", "service", "interarrival", "sources", "slots",
              "discipline", "servers", "assignment"),
    "sim": ("horizon", "warmup", "seed", "replications"),
    "checks": ("names",),
    "output": ("format", "path"),
}


class Model(NamedTuple):
    """The engine specs a [model] section resolves to.  ``lam`` is alpha of
    Bernoulli input and 1/E[gap] of renewal input, ``beta`` the parameter of
    a ``geometric:beta`` service spec; each is None for any other spec."""

    arrival: ArrivalSpec
    service: DiscreteDist
    discipline: DisciplineSpec
    lam: float | None
    beta: float | None


class Experiment:
    """Validated settings.  ``model`` is the resolved :class:`Model`, and
    ``alpha`` (None where the arrivals have none) and ``service`` are read off
    it.  An unstable FIFO model or a named check that does not apply raises."""

    def __init__(self, cp: configparser.ConfigParser, seed_override=None):
        for section in cp.sections():
            known = _CONFIG_KEYS.get(section)
            if known is None:
                raise ConfigError(f"unknown section [{section}]; known: {', '.join(_CONFIG_KEYS)}")
            for key in cp.options(section):
                if key not in known:
                    raise ConfigError(
                        f"unknown key {key!r} in [{section}]; known: {', '.join(known)}"
                    )
        model = cp["model"] if cp.has_section("model") else {}
        sim = cp["sim"] if cp.has_section("sim") else {}
        out = cp["output"] if cp.has_section("output") else {}

        kind = model.get("arrival", "bernoulli").strip()
        alpha = _read(model, "alpha", float, "0.3")
        beta_key = _read(model, "beta", float, "0.5")
        service = model.get("service", f"geometric:{beta_key}")
        dist, beta = _read(model, "service", _parse_dist, service)
        if "beta" in model and beta_key != beta:
            raise ConfigError(f"beta = {model['beta']} is not the parameter of service = {service}")
        # each spec is built in the parse of the key its check is about
        lam = None
        if kind in ("bernoulli", "finite-population"):  # sources fire as Bernoulli streams
            arrival = _read(model, "alpha", lambda t: Bernoulli(float(t)), "0.3")
            if kind == "bernoulli":
                lam = alpha
            else:
                arrival = _read(model, "sources", lambda t: FinitePopulation(int(t), alpha), "1")
        elif kind == "renewal":
            arrival = _read(model, "interarrival", lambda t: Renewal(_parse_dist(t)[0]), kind=kind)
            lam = 1.0 / arrival.interarrival.mean()
        elif kind == "explicit":
            parse = lambda t: Explicit(tuple(int(x) for x in t.split(",")))
            arrival = _read(model, "slots", parse, kind=kind)
        else:
            raise ConfigError(f"unknown arrival kind {kind!r}")

        disc = model.get("discipline", "fifo").strip()
        if disc == "fifo":
            # servers checked at the default assignment, then the assignment
            servers = _read(model, "servers", lambda t: Fifo(int(t)), "1").servers
            discipline = _read(model, "assignment", lambda t: Fifo(servers, t), "lowest")
        elif disc == "infinite-server":
            servers = _read(model, "servers", int, "1")
            discipline = InfiniteServer()
        else:
            raise ConfigError(f"unknown discipline {disc!r}")
        self.model = Model(arrival, dist, discipline, lam, beta)
        self.alpha = getattr(arrival, "alpha", None)
        self.service = self.model.service
        # the config with its defaults, as the bundle records it
        self.recorded = {"alpha": alpha, "beta": beta_key, "service": service, "servers": servers}
        # an unstable FIFO queue is rejected before any simulation; a load of
        # 1 from a truncated service law or from decimals can round just below 1
        if lam is not None and isinstance(discipline, Fifo):
            rho = lam * self.service.mean() / servers
            if rho >= 1.0 - 1e-12:
                raise ConfigError(f"unstable configuration: utilization {rho:.3f} >= 1")

        self.horizon = _read(sim, "horizon", _slot_count, "100000")
        self.warmup = _read(sim, "warmup", _slot_count, str(self.horizon // 10))
        if not 0 <= self.warmup < self.horizon:
            raise ConfigError("need horizon > warmup >= 0")
        self.seed = int(seed_override) if seed_override is not None else _read(sim, "seed", int, "42")
        if self.seed < 0:
            raise ConfigError(f"seed = {self.seed}: seed must be >= 0")
        self.replications = _read(sim, "replications", int, "1")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")

        self.checks = CHECK_NAMES
        if cp.has_option("checks", "names"):
            names = cp.get("checks", "names").split(",")
            self.checks = tuple(n.strip() for n in names if n.strip())
            if not self.checks:
                raise ConfigError("[checks] names is empty: a verify must run at least one check")
            for n in self.checks:
                if n not in CHECK_NAMES:
                    raise ConfigError(f"unknown check {n!r}; known: {', '.join(CHECK_NAMES)}")
                self.require(n)

        self.format = out.get("format", "text")
        if self.format not in _FORMATS:
            raise ConfigError(f"unknown output format {self.format!r}; known: {', '.join(_FORMATS)}")
        self.out_path = out.get("path")

    def require(self, check: str) -> None:
        """Raise ConfigError when ``check`` does not apply to this model."""
        if reason := CHECKS[check][1](self.model):
            raise ConfigError(f"check {check!r} does not apply: {reason}")

    def make_trace(self, seed: int):
        return build_trace(self.model.arrival, self.service, self.model.discipline, seed, self.horizon)


def load_experiment(path: str | None, seed_override=None) -> Experiment:
    # no default section, so a [DEFAULT] header is an unknown section
    cp = configparser.ConfigParser(default_section="")
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        cp.read(path)
    return Experiment(cp, seed_override)


def _row(check: str, row: Row) -> dict:
    """One report row; numbers become Python floats, so CSV writes plain reprs."""
    row = Row(row.quantity, float(row.simulated), float(row.formula), float(row.tolerance))
    return {
        "check": check,
        "quantity": row.quantity,
        "simulated": row.simulated,
        "formula": row.formula,
        "residual": row.residual,
        "tolerance": row.tolerance,
        "pass": row.passed,
    }


def _class_pi(exp: Experiment, trace, klass: CoherenceClass):
    """Time averages of the class's representative combo, with its simulated
    and analytic pi zero-padded to one length."""
    rule, epoch = _CLASS_COMBOS[klass]
    est = observer.time_averages(trace, rule, epoch, exp.warmup)
    ana = birthdeath.bgeom1_pi(birthdeath.BGeom1Params(exp.model.lam, exp.model.beta, klass))
    width = max(len(ana), len(est.pi_obs))
    return est, np.pad(est.pi_obs, (0, width - len(est.pi_obs))), np.pad(ana, (0, width - len(ana)))


# --- checks: each yields Row verdicts ----------------------------------------

def _little(exp, trace):
    return littles.check_little(trace, exp.warmup)


def _little_observed(exp, trace):
    for rule, epoch in _CLASS_COMBOS.values():
        yield from littles.check_little_observed(trace, rule, epoch, exp.warmup)


def _pk(exp, trace):
    return littles.verify_pk(trace, exp.warmup)


def _workload(exp, trace):
    return littles.check_workload(trace, exp.warmup)


def _busy(exp, trace):
    stats = busy.detect_cycles(trace)
    sim = stats.means()
    means = busy.cycle_means_from_rates(*busy.empty_state_rates(trace))
    for field in ("idle", "cycle", "busy", "customers"):
        ref = getattr(means, field)
        yield Row(field, getattr(sim, field), ref, 0.01 * abs(ref) + 3.0 / np.sqrt(stats.n_cycles))


def _dist(exp, trace):
    tol = 3.0 / np.sqrt(exp.horizon - exp.warmup)
    for klass in _CLASS_COMBOS:
        _, sim, ana = _class_pi(exp, trace, klass)
        yield Row(f"max|pi_obs - pi| ({klass.label})", float(np.abs(sim - ana).max()), 0.0, tol)


def _table61(exp, trace):
    for (rule, epoch), ref in birthdeath.occupancy_grid(exp.model.lam, exp.model.beta).items():
        est = observer.time_averages(trace, rule, epoch, exp.warmup)
        sim = 1.0 - float(est.pi_obs[0])
        yield Row(f"1-pi_obs(0) [{rule.label}/{epoch.label}]", sim, ref, 0.01 * ref)


def _utilization(exp, trace):
    target = exp.model.lam * exp.model.service.mean()
    yield Row("busy servers", littles.utilization(trace).total, target, 0.02 * target)
    # the per-server busy fraction E[min(N, c)]/c, which is 1 - pi(0) when c = 1
    c = exp.model.discipline.servers
    pi = observer.time_averages(trace, warmup=exp.warmup).pi[:c]
    busy_fraction = (c - float((c - np.arange(len(pi))) @ pi)) / c
    name = "1-pi(0) vs rho" if c == 1 else "E[min(N;c)]/c vs rho/c"
    yield Row(name, busy_fraction, target / c, 0.01 * target)


# --- preconditions: what a check needs of the model, and the reason it gives --

_BERNOULLI = (lambda m: isinstance(m.arrival, Bernoulli), "needs Bernoulli input")
_ONE_FIFO = (
    lambda m: isinstance(m.discipline, Fifo) and m.discipline.servers == 1, "needs one FIFO server"
)
_GEOMETRIC = (lambda m: m.beta is not None, "needs geometric service")
# Experiment rejects lam E[S] >= 1, so Bernoulli input to one FIFO server
# already has alpha < beta
_BETA_BELOW_ONE = (lambda m: m.beta < 1.0, "needs beta < 1")
_FIFO = (lambda m: isinstance(m.discipline, Fifo), "needs a FIFO discipline")
_KNOWN_RATE = (lambda m: m.lam is not None, "needs a known arrival rate")


def _needs(*conditions):
    """A check's precondition: the reason of the first condition the model
    fails, tested in order, or None when the check applies."""
    return lambda m: next((reason for holds, reason in conditions if not holds(m)), None)


CHECKS = {
    "little": (_little, _needs()),
    "little-observed": (_little_observed, _needs()),
    "pk": (_pk, _needs(_BERNOULLI, _ONE_FIFO)),
    "workload": (_workload, _needs(_BERNOULLI, _ONE_FIFO)),
    "busy": (_busy, _needs()),
    "dist": (_dist, _needs(_BERNOULLI, _ONE_FIFO, _GEOMETRIC, _BETA_BELOW_ONE)),
    "table61": (_table61, _needs(_BERNOULLI, _ONE_FIFO, _GEOMETRIC, _BETA_BELOW_ONE)),
    "utilization": (_utilization, _needs(_FIFO, _KNOWN_RATE)),
}
CHECK_NAMES = tuple(CHECKS)


def _run_check(name: str, exp: Experiment, trace) -> list[dict]:
    """The check's rows, or one skip row if it does not apply (default list only)."""
    check, applies = CHECKS[name]
    if reason := applies(exp.model):
        return [{**_row(name, Row(f"skipped: {reason}", 0.0, 0.0, 0.0)), "pass": None}]
    return [_row(name, row) for row in check(exp, trace)]


def run_verify(exp: Experiment, trace_out: str | None = None) -> dict:
    replications = []
    for i in range(exp.replications):
        seed = exp.seed + i
        trace = exp.make_trace(seed)
        if i == 0 and trace_out:
            write_trace_csv(trace, trace_out)
        rows = [row for name in exp.checks for row in _run_check(name, exp, trace)]
        passed = all(r["pass"] is not False for r in rows)  # a skip row's pass is None
        replications.append({"seed": seed, "rows": rows, "pass": passed})
    return {
        "model": exp.recorded,
        "sim": {
            "horizon": exp.horizon,
            "warmup": exp.warmup,
            "seed": exp.seed,
            "replications": exp.replications,
        },
        "checks": list(exp.checks),
        "replications": replications,
        "overall_pass": all(r["pass"] for r in replications),
    }


# --- output -----------------------------------------------------------------

def _emit(rows: list[dict], text: str, fmt: str, path: str | None, doc=None) -> None:
    """Write ``doc`` (default: the rows) as JSON, the rows as CSV, or ``text``."""
    if fmt == "json":
        text = json.dumps(rows if doc is None else doc, indent=2) + "\n"
    elif fmt == "csv":
        lines = [rows[0]]
        lines += [(v if isinstance(v, str) else repr(v) for v in r.values()) for r in rows]
        text = "".join(",".join(cells) + "\n" for cells in lines)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_text(rows: list[dict]) -> str:
    lines = [
        f"{'check':<14}{'quantity':<44}{'simulated':>14}{'formula':>14}"
        f"{'residual':>12}{'tol':>10}  result"
    ]
    for r in rows:
        lines.append(
            f"{r['check']:<14}{r['quantity']:<44}{r['simulated']:>14.6g}"
            f"{r['formula']:>14.6g}{r['residual']:>12.3g}{r['tolerance']:>10.3g}"
            f"  {'SKIP' if r['pass'] is None else 'PASS' if r['pass'] else 'FAIL'}"
        )
    return "\n".join(lines) + "\n"


# --- subcommands ------------------------------------------------------------

def cmd_classify(args) -> int:
    table = coherence.classification_table()
    n_coh = sum(c is CoherenceClass.COHERENT for c in table.values())
    text = coherence.render_classification_text(table)
    text += f"\n\ncoherent combinations: {n_coh} of {len(table)}\n"
    _emit(coherence.classification_rows(table), text, args.format or "text", args.out)
    golden = coherence.GOLDEN_CLASS_GRID
    mismatches = [
        (r.label, e.label, got.short, golden[(r, e)].short)
        for (r, e), got in table.items()
        if got is not golden[(r, e)]
    ]
    if mismatches:
        for rule, epoch, got, want in mismatches:
            sys.stderr.write(f"cell ({rule}, {epoch}): computed {got};  reference {want}\n")
        return 1
    return 0


def cmd_verify(args) -> int:
    exp = load_experiment(args.config, args.seed)
    bundle = run_verify(exp, trace_out=args.trace)
    reps = bundle["replications"]
    chunks = [f"seed {rep['seed']}:\n{_rows_text(rep['rows'])}" for rep in reps]
    chunks.append(f"overall: {'PASS' if bundle['overall_pass'] else 'FAIL'}\n")
    rows = [r for rep in reps for r in rep["rows"]]
    _emit(rows, "\n".join(chunks), args.format or exp.format, args.out or exp.out_path, bundle)
    return 0 if bundle["overall_pass"] else 1


def cmd_check(args) -> int:
    """One registered check, named by the subcommand, on one trace."""
    exp = load_experiment(args.config, args.seed)
    exp.require(args.command)
    rows = _run_check(args.command, exp, exp.make_trace(exp.seed))
    _emit(rows, _rows_text(rows), args.format or "text", args.out)
    return 0 if all(r["pass"] for r in rows) else 1


def cmd_dist(args) -> int:
    exp = load_experiment(args.config, args.seed)
    klass = {s: k for k in CoherenceClass for s in (k.label, k.short)}.get(args.klass)
    if klass is None:
        raise ConfigError(f"unknown class {args.klass!r}")
    exp.require("dist")
    L_analytic = birthdeath.bgeom1_L(birthdeath.BGeom1Params(exp.model.lam, exp.model.beta, klass))
    est, sim, ana = _class_pi(exp, exp.make_trace(exp.seed), klass)
    rows = [
        {"n": n, "pi_analytic": float(a), "pi_simulated": float(s), "abs_diff": float(abs(a - s))}
        for n, (a, s) in enumerate(zip(ana, sim))
    ]
    summary = {
        "class": klass.label,
        "rule": est.rule.label,
        "epoch": est.epoch.label,
        "L_analytic": L_analytic,
        "L_simulated": est.L_obs,
        "rows": rows,
    }
    lines = [f"{'n':>4}{'analytic':>14}{'simulated':>14}{'abs diff':>12}"]
    for r in rows:
        lines.append(
            f"{r['n']:>4}{r['pi_analytic']:>14.8f}{r['pi_simulated']:>14.8f}{r['abs_diff']:>12.2e}"
        )
    lines.append(f"\nL analytic {L_analytic:.6f}   L simulated {est.L_obs:.6f}\n")
    _emit(rows, "\n".join(lines), args.format or "text", args.out, summary)
    return 0


def cmd_table61(args) -> int:
    exp = load_experiment(args.config, args.seed)
    exp.require("table61")
    grid = birthdeath.occupancy_grid(exp.model.lam, exp.model.beta)
    rows = [{"rule": r.label, "epoch": e.label, "value": v} for (r, e), v in grid.items()]
    text = birthdeath.render_occupancy_text(grid) + "\n"
    _emit(rows, text, args.format or "text", args.out)
    return 0


def cmd_simulate(args) -> int:
    exp = load_experiment(args.config, args.seed)
    if not args.out:
        raise ConfigError("simulate needs --out PATH for the trace file")
    write_trace_csv(exp.make_trace(exp.seed), args.out)
    return 0


_COMMANDS = {
    "classify": (cmd_classify, "classification grid against the reference"),
    "verify": (cmd_verify, "run the configured checks"),
    "dist": (cmd_dist, "analytic vs simulated distribution"),
    "busy": (cmd_check, "busy-period statistics against closed forms"),
    "pk": (cmd_check, "mean-delay and workload closed forms"),
    "table61": (cmd_table61, "nonempty-system probability grid"),
    "simulate": (cmd_simulate, "generate a trace file"),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dtq", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--config", help="experiment config file")
    ap.add_argument("--seed", type=int, help="override the config seed")
    ap.add_argument("--format", choices=_FORMATS)
    ap.add_argument("--out", help="write output to this path")
    sub = ap.add_subparsers(dest="command", required=True)
    parsers = {name: sub.add_parser(name, help=text) for name, (_, text) in _COMMANDS.items()}
    parsers["verify"].add_argument("--trace", help="also write the generated trace as CSV")
    parsers["dist"].add_argument("--class", dest="klass", default="coherent")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except (ConfigError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
