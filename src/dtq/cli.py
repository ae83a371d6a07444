"""Command-line front end: experiments from config files, reports out.

Configs are sectioned key = value files ([model], [sim], [checks],
[output]).  Every report row carries the simulated value, the predicted
value, the residual and the tolerance.  Exit codes: 0 all checks pass,
1 a check failed, 2 usage or config error.
"""
from __future__ import annotations

import argparse
import configparser
import json
import os
import sys

import numpy as np

from . import birthdeath, busy, coherence, littles, observer
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
from .timebase import EPOCHS, RULES, ObservationEpoch, SchedulingRule

CHECK_NAMES = (
    "little",
    "little-observed",
    "pk",
    "workload",
    "busy",
    "dist",
    "table61",
    "utilization",
)

# one representative rule/epoch combo per coherence class
_CLASS_COMBOS = {
    "coherent": (SchedulingRule.LAS_IA, ObservationEpoch.RANDOM_OBSERVER),
    "sub-coherent": (SchedulingRule.EAS, ObservationEpoch.RANDOM_OBSERVER),
    "super-coherent": (SchedulingRule.LAS_DA, ObservationEpoch.RANDOM_OBSERVER),
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


class Experiment:
    """Validated model/sim/checks/output settings."""

    def __init__(self, cp: configparser.ConfigParser, seed_override=None):
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
        for n in self.checks:
            if n not in CHECK_NAMES:
                raise ConfigError(f"unknown check {n!r}; known: {', '.join(CHECK_NAMES)}")

        self.format = out.get("format", "text")
        self.out_path = out.get("path")

    def make_trace(self, seed: int):
        return build_trace(self.arrival, self.service, self.discipline, seed, self.horizon)


def load_experiment(path: str | None, seed_override=None) -> Experiment:
    cp = configparser.ConfigParser()
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        cp.read(path)
    return Experiment(cp, seed_override)


def _row(check, name, simulated, formula, tolerance):
    residual = abs(simulated - formula)
    return {
        "check": check,
        "quantity": name,
        "simulated": simulated,
        "formula": formula,
        "residual": residual,
        "tolerance": tolerance,
        "pass": bool(residual <= tolerance),
    }


def _run_check(name: str, exp: Experiment, trace) -> list[dict]:
    alpha, beta, warm = exp.alpha, exp.beta, exp.warmup
    span = exp.horizon - warm
    rows: list[dict] = []
    if name == "little":
        rep = littles.check_little(trace, warm)
        rows.append(_row("little", "L - lam*W", rep.L, rep.lam * rep.W, rep.tolerance))
    elif name == "little-observed":
        for label, (rule, epoch) in _CLASS_COMBOS.items():
            rep = littles.check_little_observed(trace, rule, epoch, warm)
            rows.append(
                _row(
                    "little-observed",
                    f"L_obs[{rule.label}/{epoch.label}] ({label})",
                    rep.L_obs,
                    rep.class_target,
                    rep.tolerance,
                )
            )
            rows.append(
                _row(
                    "little-observed",
                    f"L_obs - lam*W_obs [{rule.label}/{epoch.label}]",
                    rep.L_obs,
                    rep.lam * rep.W_obs,
                    rep.tolerance,
                )
            )
    elif name == "pk":
        rep = littles.verify_pk(trace, warm)
        tol = rep.tolerance * max(abs(rep.EWq_formula), 1e-9) + 30.0 / np.sqrt(span)
        rows.append(_row("pk", "EWq", rep.EWq_sim, rep.EWq_formula, tol))
        rows.append(_row("pk", "EV", rep.EV_sim, rep.EV_formula, tol))
    elif name == "workload":
        m = littles.workload_moments(trace, warm)
        target = (
            trace.n and m.EWq
        )  # FIFO Bernoulli input: mean workload matches mean queueing delay
        tol = 0.02 * max(abs(m.EWq), 1e-9) + 30.0 / np.sqrt(span)
        rows.append(_row("workload", "EV vs EWq", m.EV, float(target), tol))
    elif name == "busy":
        stats = busy.detect_cycles(trace)
        rates = busy.state_rates(trace)
        means = busy.cycle_means_from_rates(
            float(rates.pi[0]), rates.alpha_n[0], rates.arrival_rate
        )
        sim = stats.means()
        for field in ("idle", "cycle", "busy", "customers"):
            ref = getattr(means, field)
            rows.append(_row("busy", field, getattr(sim, field), ref, 0.01 * abs(ref) + 3.0 / np.sqrt(stats.n_cycles)))
    elif name == "dist":
        for label, (rule, epoch) in _CLASS_COMBOS.items():
            est = observer.time_averages(trace, rule, epoch, warm)
            p = birthdeath.BGeom1Params(alpha, beta, coherence.classify(rule, epoch))
            ana = birthdeath.bgeom1_pi(p)
            width = max(len(ana), len(est.pi_obs))
            sim_pi = np.pad(est.pi_obs, (0, width - len(est.pi_obs)))
            ana_pi = np.pad(ana, (0, width - len(ana)))
            gap = float(np.abs(sim_pi - ana_pi).max())
            rows.append(
                {
                    "check": "dist",
                    "quantity": f"max|pi_obs - pi| ({label})",
                    "simulated": gap,
                    "formula": 0.0,
                    "residual": gap,
                    "tolerance": 3.0 / np.sqrt(span),
                    "pass": bool(gap <= 3.0 / np.sqrt(span)),
                }
            )
    elif name == "table61":
        grid = birthdeath.occupancy_grid(alpha, beta)
        for rule in RULES:
            for epoch in EPOCHS:
                est = observer.time_averages(trace, rule, epoch, warm)
                sim = 1.0 - float(est.pi_obs[0])
                ref = grid[(rule, epoch)]
                rows.append(
                    _row("table61", f"1-pi_obs(0) [{rule.label}/{epoch.label}]", sim, ref, 0.01 * ref)
                )
    elif name == "utilization":
        rep = littles.utilization(trace)
        target = exp.alpha * exp.service.mean()
        rows.append(_row("utilization", "busy servers", rep.total, target, 0.02 * target))
        est = observer.time_averages(trace, warmup=warm)
        rows.append(
            _row("utilization", "1-pi(0) vs rho", 1.0 - float(est.pi[0]), target / exp.servers, 0.01 * target)
        )
    else:
        raise ConfigError(f"unknown check {name!r}")
    return rows


def run_verify(exp: Experiment, trace_out: str | None = None) -> dict:
    replications = []
    for i in range(exp.replications):
        seed = exp.seed + i
        trace = exp.make_trace(seed)
        if i == 0 and trace_out:
            write_trace_csv(trace, trace_out)
        rows = []
        for name in exp.checks:
            rows.extend(_run_check(name, exp, trace))
        replications.append(
            {"seed": seed, "rows": rows, "pass": all(r["pass"] for r in rows)}
        )
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


# --- rendering --------------------------------------------------------------

def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render_rows_text(rows: list[dict]) -> str:
    lines = [
        f"{'check':<14}{'quantity':<44}{'simulated':>14}{'formula':>14}{'residual':>12}{'tol':>10}  result"
    ]
    for r in rows:
        lines.append(
            f"{r['check']:<14}{r['quantity']:<44}{r['simulated']:>14.6g}"
            f"{r['formula']:>14.6g}{r['residual']:>12.3g}{r['tolerance']:>10.3g}"
            f"  {'PASS' if r['pass'] else 'FAIL'}"
        )
    return "\n".join(lines) + "\n"


def _render_rows_csv(rows: list[dict]) -> str:
    out = ["check,quantity,simulated,formula,residual,tolerance,pass"]
    for r in rows:
        out.append(
            f"{r['check']},{r['quantity']},{r['simulated']!r},{r['formula']!r},"
            f"{r['residual']!r},{r['tolerance']!r},{r['pass']}"
        )
    return "\n".join(out) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"


# --- subcommands ------------------------------------------------------------

def cmd_classify(args) -> int:
    table = coherence.classification_table()
    fmt = args.format or "text"
    if fmt == "json":
        _emit(_json_text(coherence.classification_rows(table)), args.out)
    elif fmt == "csv":
        lines = ["rule,epoch,class"] + [
            f"{r['rule']},{r['epoch']},{r['class']}" for r in coherence.classification_rows(table)
        ]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(render_classification_with_summary(table), args.out)
    mismatches = [
        (r.label, e.label, table[(r, e)].short, coherence.GOLDEN_CLASS_GRID[(r, e)].short)
        for r in RULES
        for e in EPOCHS
        if table[(r, e)] is not coherence.GOLDEN_CLASS_GRID[(r, e)]
    ]
    edge_center = {
        rule: (
            table[(rule, ObservationEpoch.RANDOM_OBSERVER)] is coherence.CoherenceClass.COHERENT,
            table[(rule, ObservationEpoch.OUTSIDE_OBSERVER)] is coherence.CoherenceClass.COHERENT,
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


def render_classification_with_summary(table) -> str:
    n_coh = sum(1 for c in table.values() if c is coherence.CoherenceClass.COHERENT)
    return (
        coherence.render_classification_text(table)
        + f"\n\ncoherent combinations: {n_coh} of {len(table)}\n"
    )


def cmd_verify(args) -> int:
    exp = load_experiment(args.config, args.seed)
    bundle = run_verify(exp, trace_out=args.trace)
    fmt = args.format or exp.format
    if fmt == "json":
        _emit(_json_text(bundle), args.out or exp.out_path)
    elif fmt == "csv":
        rows = [r for rep in bundle["replications"] for r in rep["rows"]]
        _emit(_render_rows_csv(rows), args.out or exp.out_path)
    else:
        chunks = []
        for rep in bundle["replications"]:
            chunks.append(f"seed {rep['seed']}:")
            chunks.append(_render_rows_text(rep["rows"]))
        chunks.append(f"overall: {'PASS' if bundle['overall_pass'] else 'FAIL'}\n")
        _emit("\n".join(chunks), args.out or exp.out_path)
    return 0 if bundle["overall_pass"] else 1


def cmd_dist(args) -> int:
    exp = load_experiment(args.config, args.seed)
    klass = {
        "coherent": coherence.CoherenceClass.COHERENT,
        "sub": coherence.CoherenceClass.SUB_COHERENT,
        "sub-coherent": coherence.CoherenceClass.SUB_COHERENT,
        "super": coherence.CoherenceClass.SUPER_COHERENT,
        "super-coherent": coherence.CoherenceClass.SUPER_COHERENT,
    }.get(args.klass)
    if klass is None:
        raise ConfigError(f"unknown class {args.klass!r}")
    p = birthdeath.BGeom1Params(exp.alpha, exp.beta, klass)
    ana = birthdeath.bgeom1_pi(p)
    rule, epoch = _CLASS_COMBOS[klass.label]
    trace = exp.make_trace(exp.seed)
    est = observer.time_averages(trace, rule, epoch, exp.warmup)
    width = max(len(ana), len(est.pi_obs))
    sim = np.pad(est.pi_obs, (0, width - len(est.pi_obs)))
    anap = np.pad(ana, (0, width - len(ana)))
    rows = [
        {"n": n, "pi_analytic": float(anap[n]), "pi_simulated": float(sim[n]),
         "abs_diff": float(abs(anap[n] - sim[n]))}
        for n in range(width)
    ]
    summary = {
        "class": klass.label,
        "rule": rule.label,
        "epoch": epoch.label,
        "L_analytic": birthdeath.bgeom1_L(p),
        "L_simulated": est.L_obs,
        "rows": rows,
    }
    fmt = args.format or "text"
    if fmt == "json":
        _emit(_json_text(summary), args.out)
    elif fmt == "csv":
        lines = ["n,pi_analytic,pi_simulated,abs_diff"] + [
            f"{r['n']},{r['pi_analytic']!r},{r['pi_simulated']!r},{r['abs_diff']!r}" for r in rows
        ]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        lines = [f"{'n':>4}{'analytic':>14}{'simulated':>14}{'abs diff':>12}"]
        for r in rows:
            lines.append(
                f"{r['n']:>4}{r['pi_analytic']:>14.8f}{r['pi_simulated']:>14.8f}{r['abs_diff']:>12.2e}"
            )
        lines.append(
            f"\nL analytic {summary['L_analytic']:.6f}   L simulated {summary['L_simulated']:.6f}"
        )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_busy(args) -> int:
    exp = load_experiment(args.config, args.seed)
    trace = exp.make_trace(exp.seed)
    rows = _run_check("busy", exp, trace)
    return _finish_rows(rows, args)


def cmd_pk(args) -> int:
    exp = load_experiment(args.config, args.seed)
    trace = exp.make_trace(exp.seed)
    rows = _run_check("pk", exp, trace)
    return _finish_rows(rows, args)


def cmd_table61(args) -> int:
    exp = load_experiment(args.config, args.seed)
    fmt = args.format or "text"
    if fmt == "json":
        grid = birthdeath.occupancy_grid(exp.alpha, exp.beta)
        rows = [
            {"rule": r.label, "epoch": e.label, "value": grid[(r, e)]}
            for r in RULES
            for e in EPOCHS
        ]
        _emit(_json_text(rows), args.out)
    else:
        _emit(birthdeath.render_occupancy_text(exp.alpha, exp.beta) + "\n", args.out)
    return 0


def cmd_simulate(args) -> int:
    exp = load_experiment(args.config, args.seed)
    trace = exp.make_trace(exp.seed)
    if not args.out:
        raise ConfigError("simulate needs --out PATH for the trace file")
    write_trace_csv(trace, args.out)
    return 0


def _finish_rows(rows, args) -> int:
    fmt = args.format or "text"
    if fmt == "json":
        _emit(_json_text(rows), args.out)
    elif fmt == "csv":
        _emit(_render_rows_csv(rows), args.out)
    else:
        _emit(_render_rows_text(rows), args.out)
    return 0 if all(r["pass"] for r in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dtq", description=__doc__)
    ap.add_argument("--config", help="experiment config file")
    ap.add_argument("--seed", type=int, help="override the config seed")
    ap.add_argument("--format", choices=("text", "json", "csv"))
    ap.add_argument("--out", help="write output to this path")
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("classify", help="classification grid against the reference")
    vp = sub.add_parser("verify", help="run the configured checks")
    vp.add_argument("--trace", help="also write the generated trace as CSV")
    dp = sub.add_parser("dist", help="analytic vs simulated distribution")
    dp.add_argument("--class", dest="klass", default="coherent")
    sub.add_parser("busy", help="busy-period statistics against closed forms")
    sub.add_parser("pk", help="mean-delay and workload closed forms")
    sub.add_parser("table61", help="nonempty-system probability grid")
    sub.add_parser("simulate", help="generate a trace file")
    return ap


_COMMANDS = {
    "classify": cmd_classify,
    "verify": cmd_verify,
    "dist": cmd_dist,
    "busy": cmd_busy,
    "pk": cmd_pk,
    "table61": cmd_table61,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
