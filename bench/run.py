"""Benchmark of dtq: time to a verified answer, set-up time, memory, pass rate.

    python3 bench/run.py                      # every workload, untraced
    python3 bench/run.py --workload verify-ref --seed 42 --seconds 40 --trace 0
    python3 bench/run.py --workload trace-roundtrip --trace 1   # per-layer split
    python3 bench/run.py --smoke --trace 1    # every workload on tiny inputs

Closed loop, one client: each unit of work runs in a fresh Python process
(bench/worker.py), one process at a time, until --seconds have passed.  With
--trace 1 untraced and traced units alternate; the traced ones give the
per-layer metrics and the untraced ones the tracing overhead.

wall_s and setup_s are in reference-host seconds: the measured medians
scaled by REFERENCE_PROBE_S over the median time of a fixed probe that each
unit runs (bench/hostspeed.py), so that the host's drifting speed cancels.

The report lists every metric by name with its unit.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics that BENCHMARK.json names, or with
--trace 1 its per-layer ones.  The full results, environment included, go to
.dtqbench/results/.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from tracer import CHECKS, summarize
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".dtqbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

MIN_ROUNDS = 3  # units of work per mode, whatever --seconds says
MAX_SECONDS = 150.0  # a run must end within 180 s
CHILD_TIMEOUT = 120.0
# hostspeed.probe's median seconds on the 2-core x86_64 host where the
# benchmark was defined; a time t measured while the probe takes p seconds
# is reported as t * REFERENCE_PROBE_S / p
REFERENCE_PROBE_S = 0.4

# every per-layer metric the traced run measures, by layer
LAYER_METRICS = (
    ("engine.gen_arrivals.ms", "ms"),
    ("engine.sample_services.ms", "ms"),
    ("engine.run_discipline.ms", "ms"),
    ("engine.simulate_finite_population.ms", "ms"),
    ("engine.build_trace.ms", "ms"),
    ("engine.customers", "count"),
    ("engine.Trace.queue_path.ms", "ms"),
    ("engine.Trace.queue_path.calls", "count"),
    ("engine.write_trace_csv.ms", "ms"),
    ("engine.read_trace_csv.ms", "ms"),
    ("engine.trace_csv_bytes", "bytes"),
    ("timebase.observation_span.ms", "ms"),
    ("timebase.observation_span.calls", "count"),
    ("observer.time_averages.ms", "ms"),
    ("observer.time_averages.calls", "count"),
    ("observer.observed_queue_path.ms", "ms"),
    ("observer.observed_queue_path.calls", "count"),
    ("observer.observed_waits.ms", "ms"),
    ("coherence.classify.calls", "count"),
    ("coherence.verify_on_trace.ms", "ms"),
    ("littles.check_little.ms", "ms"),
    ("littles.check_little_observed.ms", "ms"),
    ("littles.workload_path.ms", "ms"),
    ("littles.workload_path.calls", "count"),
    ("littles.verify_pk.ms", "ms"),
    ("littles.basic_inequality_path.ms", "ms"),
    ("littles.utilization.ms", "ms"),
    ("littles.check_h_lambda_g.ms", "ms"),
    ("busy.detect_cycles.ms", "ms"),
    ("busy.state_rates.ms", "ms"),
    ("busy.cycles", "count"),
    ("birthdeath.occupancy_grid.ms", "ms"),
    ("birthdeath.bgeom1_pi.ms", "ms"),
    ("cli.load_experiment.ms", "ms"),
    ("cli.run_verify.ms", "ms"),
    *((f"cli.check.{name}.ms", "ms") for name in CHECKS),
    ("trace_overhead_frac", "ratio"),
)

# counters and the span whose wrapper updates them
COUNTER_SPANS = {
    "engine.customers": "engine.build_trace",
    "engine.trace_csv_bytes": "engine.write_trace_csv",
    "busy.cycles": "busy.detect_cycles",
}


# --- one unit of work ------------------------------------------------------

def run_unit(workload: str, args, workdir: str, traced: bool, index: int) -> dict:
    """Run one worker process to its end; a crash becomes a failed unit."""
    result_path = os.path.join(workdir, f"unit-{index}.json")
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(args.seed),
           "--workdir", workdir, "--result", result_path]
    cmd += ["--traced"] * traced + ["--smoke"] * args.smoke
    # one thread per process, and the seed reaches dtq only through --seed
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("DTQ_SEED", None)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"ok": False, "traced": traced, "error": f"timed out after {CHILD_TIMEOUT} s"}
    if proc.returncode != 0 or not os.path.exists(result_path):
        error = proc.stderr.strip()[-2000:] or f"exit code {proc.returncode}"
        return {"ok": False, "traced": traced, "error": error}
    with open(result_path) as fh:
        unit = json.load(fh)
    os.remove(result_path)
    unit.update(ok=True, spawned=spawned)
    return unit


def layer_values(unit: dict) -> tuple[dict, dict, set]:
    """Per-layer metrics, inclusive ms per span, and the missing metrics of
    one traced unit."""
    summary = summarize(unit["spans"])
    lost = set(unit["missing"])
    values, inclusive, missing = {}, {}, set()
    for name, _ in LAYER_METRICS:
        base, _, kind = name.rpartition(".")
        if name in COUNTER_SPANS:
            values[name] = unit["counts"].get(name, 0)
            span = COUNTER_SPANS[name]
        elif kind in ("ms", "calls"):
            entry = summary.get(base, {})
            values[name] = entry.get("self_ms" if kind == "ms" else "calls", 0)
            inclusive[name] = entry.get("total_ms", 0.0)
            span = "cli.check" if base.startswith("cli.check.") else base
        else:
            continue
        if span in lost:
            missing.add(name)
    return values, inclusive, missing


# --- one workload ----------------------------------------------------------

def measure(workload: str, args, workdir: str) -> dict:
    spec = WORKLOADS[workload]
    workdir = os.path.join(workdir, workload)
    os.makedirs(workdir)
    for name, text in spec.inputs(args.smoke).items():
        with open(os.path.join(workdir, f"{name}.ini"), "w") as fh:
            fh.write(text)

    modes = (False, True) if args.trace else (False,)
    units: list[dict] = []
    begin = time.monotonic()
    rounds = 0
    while True:
        for traced in modes:
            units.append(run_unit(workload, args, workdir, traced, len(units)))
        rounds += 1
        elapsed = time.monotonic() - begin
        # stop before a round that would end after the measuring time
        finish = elapsed * (rounds + 1) / rounds
        if args.smoke or finish > MAX_SECONDS or (rounds >= MIN_ROUNDS and finish > args.seconds):
            break

    done = [u for u in units if u["ok"]]
    plain = [u for u in done if not u["traced"]]
    traced_units = [u for u in done if u["traced"]]
    crashed = [u for u in units if not u["ok"]]
    attempted = sum(u["attempted"] for u in done) + len(crashed)
    failed = sum(len(u["failed"]) for u in done) + len(crashed)
    correct = not crashed and not any(u["exact_violations"] for u in done)

    walls = [u["work_end"] - u["work_start"] for u in plain]
    e2e, host = {}, {}
    if plain:
        host = {
            "wall_raw_s": statistics.median(walls),
            "setup_raw_s": statistics.median(u["setup_done"] - u["spawned"] for u in plain),
            "probe_s": statistics.median(u["probe_s"] for u in plain),
        }
        scale = REFERENCE_PROBE_S / host["probe_s"]
        e2e = {
            "wall_s": host["wall_raw_s"] * scale,
            "setup_s": host["setup_raw_s"] * scale,
            "peak_rss_mb": statistics.median(u["peak_rss_kb"] / 1024.0 for u in plain),
            "pass_frac": (attempted - failed) / attempted,
        }

    layers, inclusive, missing = {}, {}, set()
    if traced_units and plain:
        per_unit = [layer_values(u) for u in traced_units]
        for name, unit in LAYER_METRICS:
            if name == "trace_overhead_frac":
                continue
            middle = statistics.median if unit == "ms" else statistics.median_low
            layers[name] = middle(v[name] for v, _, _ in per_unit)
            if name in per_unit[0][1]:
                inclusive[name] = statistics.median(i[name] for _, i, _ in per_unit)
        missing = set().union(*(m for _, _, m in per_unit))
        traced_wall = statistics.median(u["work_end"] - u["work_start"] for u in traced_units)
        layers["trace_overhead_frac"] = (traced_wall - host["wall_raw_s"]) / host["wall_raw_s"]

    info = dict(done[0]["info"]) if done else {}
    info["slots"] = {name: spec.smoke_horizon if args.smoke else spec.horizon for name in spec.configs}
    if spec.hlg_slots:
        info["h_lambda_g_slots"] = spec.smoke_hlg_slots if args.smoke else spec.hlg_slots
    if layers:
        info["customers_built"] = layers["engine.customers"]
        info["cycles"] = layers["busy.cycles"]
        info["csv_bytes_written"] = layers["engine.trace_csv_bytes"]

    return {
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "units": len(units),
        "untraced_units": len(plain),
        "traced_units": len(traced_units),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failures": sorted({f for u in done for f in u["failed"]}),
        "crashes": [u["error"] for u in crashed],
        "end_to_end": e2e,
        "host": host,
        "wall_s_quartiles": statistics.quantiles(walls, n=4) if len(walls) > 1 else [],
        "per_layer": layers,
        "per_layer_inclusive_ms": inclusive,
        "missing": sorted(missing),
        "counter_errors": sorted({e for u in traced_units for e in u["hook_errors"]}),
        "info": info,
        "versions": done[0]["versions"] if done else {},
        "units_raw": [{k: v for k, v in u.items() if k != "spans"} for u in units],
        "spans": traced_units[-1]["spans"] if traced_units else [],
    }


# --- environment and report --------------------------------------------------

def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return None


def environment(result: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": result["versions"].get("numpy"),
        "dtq": result["versions"].get("dtq"),
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(result: dict, spec: dict) -> None:
    e2e, info = result["end_to_end"], result["info"]
    print(f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}"
          f"{'  smoke' if result['smoke'] else ''}  units {result['units']}"
          f" ({result['untraced_units']} untraced, {result['traced_units']} traced)")
    env = result["environment"]
    print("   " + "  ".join(f"{k} {v}" for k, v in env.items()))
    print("   inputs: " + "  ".join(f"{k} {v}" for k, v in info.items()))
    for metric in spec["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        if name in e2e:
            print(f"   {name:<40}{_fmt(e2e[name]):>16} {unit}")
    for name, value in result["host"].items():
        print(f"   {name:<40}{_fmt(value):>16} s")
    fail_frac = result["failed"] / result["attempted"]
    print(f"   {'fail_frac':<40}{_fmt(fail_frac):>16} ratio"
          f"  ({result['failed']} of {result['attempted']} operations failed)")
    if result["wall_s_quartiles"]:
        q1, q2, q3 = result["wall_s_quartiles"]
        print(f"   wall_s quartiles over {result['untraced_units']} units: {q1:.4f} / {q2:.4f} / {q3:.4f} s")
    for line in result["failures"]:
        print(f"   failed: {line}")
    for line in result["crashes"]:
        print(f"   crashed: {line}")
    layers = result["per_layer"]
    if layers:
        print(f"   {'per-layer metric (median of traced units)':<40}{'value':>16}      {'inclusive ms':>12}")
        for name, unit in LAYER_METRICS:
            incl = result["per_layer_inclusive_ms"].get(name)
            flag = "  MISSING" if name in result["missing"] else ""
            extra = f"{incl:>12.3f}" if incl is not None and unit == "ms" else " " * 12
            print(f"   {name:<40}{_fmt(layers[name]):>16} {unit:<5}{extra}{flag}")
    for line in result["counter_errors"]:
        print(f"   counter error: {line}")


def contract_line(result: dict, spec: dict) -> dict:
    values, kind = (result["per_layer"], "per_layer") if result["trace"] else (result["end_to_end"], "end_to_end")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=40.0, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one unit per mode on tiny inputs")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dtq", "__init__.py")):
        sys.stderr.write(f"error: no dtq package under {os.path.join(ROOT, 'src')}\n")
        return 2
    with open(SPEC) as fh:
        spec = json.load(fh)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        results = [measure(name, args, workdir) for name in names]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = []
    for result in results:
        result["environment"] = environment(result)
        report(result, spec)
        if not result["end_to_end"] or (args.trace and not result["per_layer"]):
            sys.stderr.write(f"error: no unit of {result['workload']} completed\n")
            return 1
        tag = f"{result['workload']}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
        path = os.path.join(OUT_DIR, "results", f"{tag}.json")
        with open(path, "w") as fh:
            json.dump(result, fh, indent=1)
        print(f"   results: {os.path.relpath(path, ROOT)}")
        lines.append(contract_line(result, spec))

    if len(lines) == 1:
        final = lines[0]
    else:
        final = {
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {f"{r['workload']}.{k}": v for r, line in zip(results, lines)
                        for k, v in line["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
