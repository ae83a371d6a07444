"""Command-line front end: experiments from config files, reports out.

Configs are sectioned key = value files ([model], [sim], [checks],
[output]); any other section or key is a config error.  Each check is
one entry of the CHECKS registry: a function of (experiment, trace) that
yields (quantity, simulated, formula, tolerance) tuples, which
_run_check turns into report rows with the residual and a pass flag.
Subcommands:

  classify   30-combo classification grid against the reference
  verify     every configured check on each replication's trace
  dist       analytic vs simulated distribution of one class
  busy, pk   the registered check of that name on one trace
  table61    nonempty-system probability grid
  simulate   write a generated trace as CSV (needs --out)

Every subcommand but simulate writes one table: its rows as JSON or CSV
(a header of field names, then strings as they are and numbers as repr),
or its own text.  Exit codes: 0 all checks pass, 1 a check failed, 2
usage or config error.
"""
from __future__ import annotations

import argparse
import configparser
import json
import os
import sys

import numpy as np

from . import birthdeath, busy, coherence, littles, observer
from .coherence import CoherenceClass
from .engine import (
    Bernoulli,
    DiscreteDist,
    Explicit,
    Fifo,
    FinitePopulation,
    InfiniteServer,
    Renewal,
    build_trace,
    write_trace_csv,
)
from .timebase import RULES, ObservationEpoch, SchedulingRule

# one representative rule/epoch combo per coherence class
_CLASS_COMBOS = {
    CoherenceClass.COHERENT: (SchedulingRule.LAS_IA, ObservationEpoch.RANDOM_OBSERVER),
    CoherenceClass.SUB_COHERENT: (SchedulingRule.EAS, ObservationEpoch.RANDOM_OBSERVER),
    CoherenceClass.SUPER_COHERENT: (SchedulingRule.LAS_DA, ObservationEpoch.RANDOM_OBSERVER),
}


class ConfigError(Exception):
    pass


def _parse_dist(text: str) -> DiscreteDist:
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind == "geometric":
        return DiscreteDist.geometric(float(rest))
    if kind == "point":
        return DiscreteDist.point(int(rest))
    if kind == "pmf":
        pmf = {}
        for item in rest.split(","):
            v, _, p = item.partition(":")
            pmf[int(v)] = float(p)
        return DiscreteDist.from_pmf(pmf)
    raise ConfigError(f"unknown distribution spec {text!r}")


# every key a config may set, by section
_CONFIG_KEYS = {
    "model": ("arrival", "alpha", "beta", "service", "interarrival", "sources", "slots",
              "discipline", "servers", "assignment"),
    "sim": ("horizon", "warmup", "seed", "replications"),
    "checks": ("names",),
    "output": ("format", "path"),
}


class Experiment:
    """Validated model/sim/checks/output settings."""

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
        self.alpha = float(model.get("alpha", "0.3"))
        self.beta = float(model.get("beta", "0.5"))
        self.service_spec = model.get("service", f"geometric:{self.beta}")
        self.service = _parse_dist(self.service_spec)
        if kind == "bernoulli":
            self.arrival = Bernoulli(self.alpha)
        elif kind == "renewal":
            self.arrival = Renewal(_parse_dist(model.get("interarrival", "")))
        elif kind == "finite-population":
            self.arrival = FinitePopulation(int(model.get("sources", "1")), self.alpha)
        elif kind == "explicit":
            slots = tuple(int(x) for x in model.get("slots", "").split(","))
            self.arrival = Explicit(slots)
        else:
            raise ConfigError(f"unknown arrival kind {kind!r}")

        disc = model.get("discipline", "fifo").strip()
        self.servers = int(model.get("servers", "1"))
        if disc == "fifo":
            self.discipline = Fifo(self.servers, model.get("assignment", "lowest"))
        elif disc == "infinite-server":
            self.discipline = InfiniteServer()
        else:
            raise ConfigError(f"unknown discipline {disc!r}")

        # stability is known from the specs alone, so reject before any simulation
        if isinstance(self.arrival, (Bernoulli, Renewal)) and isinstance(self.discipline, Fifo):
            if isinstance(self.arrival, Bernoulli):
                lam = self.alpha
            else:
                lam = 1.0 / self.arrival.interarrival.mean()
            rho = lam * self.service.mean() / self.servers
            if rho >= 1.0:
                raise ConfigError(f"unstable configuration: utilization {rho:.3f} >= 1")

        self.horizon = int(float(sim.get("horizon", "100000")))
        self.warmup = int(float(sim.get("warmup", str(self.horizon // 10))))
        if not 0 <= self.warmup < self.horizon:
            raise ConfigError("need horizon > warmup >= 0")
        env_seed = os.environ.get("DTQ_SEED")
        if seed_override is not None:
            self.seed = int(seed_override)
        elif env_seed is not None:
            self.seed = int(env_seed)
        else:
            self.seed = int(sim.get("seed", "42"))
        self.replications = int(sim.get("replications", "1"))
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")

        names = cp.get("checks", "names", fallback=", ".join(CHECK_NAMES))
        self.checks = tuple(n.strip() for n in names.split(",") if n.strip())
        if not self.checks:
            raise ConfigError("[checks] names is empty: a verify must run at least one check")
        for n in self.checks:
            if n not in CHECK_NAMES:
                raise ConfigError(f"unknown check {n!r}; known: {', '.join(CHECK_NAMES)}")

        self.format = out.get("format", "text")
        self.out_path = out.get("path")

    def make_trace(self, seed: int):
        return build_trace(self.arrival, self.service, self.discipline, seed, self.horizon)


def load_experiment(path: str | None, seed_override=None) -> Experiment:
    # no default section, so a [DEFAULT] header is an unknown section
    cp = configparser.ConfigParser(default_section="")
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        cp.read(path)
    return Experiment(cp, seed_override)


_ROW_FIELDS = ("check", "quantity", "simulated", "formula", "residual", "tolerance", "pass")


def _row(check, name, simulated, formula, tolerance):
    """One report row; numbers become Python floats, so CSV writes plain reprs."""
    simulated, formula, tolerance = float(simulated), float(formula), float(tolerance)
    residual = abs(simulated - formula)
    passed = residual <= tolerance
    return dict(zip(_ROW_FIELDS, (check, name, simulated, formula, residual, tolerance, passed)))


def _class_pi(exp: Experiment, trace, klass: CoherenceClass):
    """Time averages of the class's representative combo, with its simulated
    and analytic pi zero-padded to one length."""
    rule, epoch = _CLASS_COMBOS[klass]
    est = observer.time_averages(trace, rule, epoch, exp.warmup)
    ana = birthdeath.bgeom1_pi(birthdeath.BGeom1Params(exp.alpha, exp.beta, klass))
    width = max(len(ana), len(est.pi_obs))
    return est, np.pad(est.pi_obs, (0, width - len(est.pi_obs))), np.pad(ana, (0, width - len(ana)))


# --- checks: each yields (quantity, simulated, formula, tolerance) -----------

def _little(exp, trace):
    rep = littles.check_little(trace, exp.warmup)
    yield "L - lam*W", rep.L, rep.lam * rep.W, rep.tolerance


def _little_observed(exp, trace):
    for klass, (rule, epoch) in _CLASS_COMBOS.items():
        rep = littles.check_little_observed(trace, rule, epoch, exp.warmup)
        combo = f"{rule.label}/{epoch.label}"
        yield f"L_obs[{combo}] ({klass.label})", rep.L_obs, rep.class_target, rep.tolerance
        yield f"L_obs - lam*W_obs [{combo}]", rep.L_obs, rep.lam * rep.W_obs, rep.tolerance


def _pk(exp, trace):
    rep = littles.verify_pk(trace, exp.warmup)
    tol = rep.tolerance * max(abs(rep.EWq_formula), 1e-9) + 30.0 / np.sqrt(exp.horizon - exp.warmup)
    yield "EWq", rep.EWq_sim, rep.EWq_formula, tol
    yield "EV", rep.EV_sim, rep.EV_formula, tol


def _workload(exp, trace):
    # FIFO Bernoulli input: mean workload matches mean queueing delay
    m = littles.workload_moments(trace, exp.warmup)
    tol = 0.02 * max(abs(m.EWq), 1e-9) + 30.0 / np.sqrt(exp.horizon - exp.warmup)
    yield "EV vs EWq", m.EV, m.EWq, tol


def _busy(exp, trace):
    stats = busy.detect_cycles(trace)
    sim = stats.means()
    means = busy.cycle_means_from_rates(*busy.empty_state_rates(trace))
    for field in ("idle", "cycle", "busy", "customers"):
        ref = getattr(means, field)
        yield field, getattr(sim, field), ref, 0.01 * abs(ref) + 3.0 / np.sqrt(stats.n_cycles)


def _dist(exp, trace):
    tol = 3.0 / np.sqrt(exp.horizon - exp.warmup)
    for klass in _CLASS_COMBOS:
        _, sim, ana = _class_pi(exp, trace, klass)
        yield f"max|pi_obs - pi| ({klass.label})", float(np.abs(sim - ana).max()), 0.0, tol


def _table61(exp, trace):
    for (rule, epoch), ref in birthdeath.occupancy_grid(exp.alpha, exp.beta).items():
        est = observer.time_averages(trace, rule, epoch, exp.warmup)
        sim = 1.0 - float(est.pi_obs[0])
        yield f"1-pi_obs(0) [{rule.label}/{epoch.label}]", sim, ref, 0.01 * ref


def _utilization(exp, trace):
    target = exp.alpha * exp.service.mean()
    yield "busy servers", littles.utilization(trace).total, target, 0.02 * target
    # the per-server busy fraction E[min(N, c)]/c, which is 1 - pi(0) when c = 1
    c = exp.servers
    pi = observer.time_averages(trace, warmup=exp.warmup).pi[:c]
    busy_fraction = (c - float((c - np.arange(len(pi))) @ pi)) / c
    name = "1-pi(0) vs rho" if c == 1 else "E[min(N,c)]/c vs rho/c"
    yield name, busy_fraction, target / c, 0.01 * target


CHECKS = {
    "little": _little,
    "little-observed": _little_observed,
    "pk": _pk,
    "workload": _workload,
    "busy": _busy,
    "dist": _dist,
    "table61": _table61,
    "utilization": _utilization,
}
CHECK_NAMES = tuple(CHECKS)


def _run_check(name: str, exp: Experiment, trace) -> list[dict]:
    return [_row(name, *quantity) for quantity in CHECKS[name](exp, trace)]


def run_verify(exp: Experiment, trace_out: str | None = None) -> dict:
    replications = []
    for i in range(exp.replications):
        seed = exp.seed + i
        trace = exp.make_trace(seed)
        if i == 0 and trace_out:
            write_trace_csv(trace, trace_out)
        rows = [row for name in exp.checks for row in _run_check(name, exp, trace)]
        replications.append({"seed": seed, "rows": rows, "pass": all(r["pass"] for r in rows)})
    return {
        "model": {
            "alpha": exp.alpha,
            "beta": exp.beta,
            "service": exp.service_spec,
            "servers": exp.servers,
        },
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
            f"  {'PASS' if r['pass'] else 'FAIL'}"
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
    edge_center = {
        rule: (
            table[(rule, ObservationEpoch.RANDOM_OBSERVER)] is CoherenceClass.COHERENT,
            table[(rule, ObservationEpoch.OUTSIDE_OBSERVER)] is CoherenceClass.COHERENT,
        )
        for rule in RULES
    }
    if edge_center != coherence.GOLDEN_EDGE_CENTER_OK:
        sys.stderr.write("edge/center correctness summary does not match the reference\n")
        return 1
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
    rows = _run_check(args.command, exp, exp.make_trace(exp.seed))
    _emit(rows, _rows_text(rows), args.format or "text", args.out)
    return 0 if all(r["pass"] for r in rows) else 1


def cmd_dist(args) -> int:
    exp = load_experiment(args.config, args.seed)
    spellings = {k.label: k for k in CoherenceClass}
    spellings.update(sub=spellings["sub-coherent"], super=spellings["super-coherent"])
    klass = spellings.get(args.klass)
    if klass is None:
        raise ConfigError(f"unknown class {args.klass!r}")
    # BGeom1Params rejects a bad (alpha, beta) before any simulation
    L_analytic = birthdeath.bgeom1_L(birthdeath.BGeom1Params(exp.alpha, exp.beta, klass))
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
    grid = birthdeath.occupancy_grid(exp.alpha, exp.beta)
    rows = [{"rule": r.label, "epoch": e.label, "value": v} for (r, e), v in grid.items()]
    text = birthdeath.render_occupancy_text(exp.alpha, exp.beta) + "\n"
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
    ap.add_argument("--format", choices=("text", "json", "csv"))
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
