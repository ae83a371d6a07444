"""One unit of work of a benchmark workload, in a fresh Python process.

bench/run.py starts this script once per unit of work, one process at a time:

    python3 bench/worker.py --workload verify-ref --seed 42 \
        --workdir DIR --result FILE [--traced] [--smoke]

DIR holds the workload's config files.  FILE receives monotonic timestamps
(set-up done, work start, work end), the operations attempted and failed,
the peak RSS up to the end of the work, the host-speed probe's seconds, the
versions and, with --traced, the spans and counters recorded around dtq's
functions.
"""
import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    # --- set-up: imports and config validation --------------------------
    sys.path.insert(0, SRC)
    import numpy

    import dtq
    from dtq import cli, coherence, engine, littles, timebase

    if os.path.dirname(os.path.abspath(dtq.__file__)) != os.path.join(SRC, "dtq"):
        sys.stderr.write(f"error: imported dtq from {dtq.__file__}, not from {SRC}\n")
        return 2
    import hostspeed
    import workloads

    recorder, missing = None, []
    if args.traced:
        import tracer

        recorder = tracer.Recorder()
        missing = tracer.install(recorder)
    workload = workloads.WORKLOADS[args.workload]
    configs = {name: os.path.join(args.workdir, f"{name}.ini") for name in workload.configs}
    experiments = {name: cli.load_experiment(path, args.seed) for name, path in configs.items()}
    setup_done = time.monotonic()

    # --- the unit of work, then the benchmark's own checks --------------
    modules = {"numpy": numpy, "cli": cli, "coherence": coherence, "engine": engine,
               "littles": littles, "timebase": timebase}
    ctx = workloads.Context(
        modules, args.seed, configs, experiments, args.workdir,
        hlg_slots=workload.smoke_hlg_slots if args.smoke else workload.hlg_slots,
    )
    work_start = time.monotonic()
    state = workload.work(ctx)
    work_end = time.monotonic()
    # the peak of dtq's work, before the benchmark's own probe and checks
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None:
        recorder.enabled = False
    probe_s = hostspeed.probe(numpy)
    workload.check(ctx, state)

    result = {
        "setup_done": setup_done,
        "work_start": work_start,
        "work_end": work_end,
        "attempted": ctx.ops.attempted,
        "failed": ctx.ops.failed,
        "exact_violations": ctx.ops.exact_violations,
        "peak_rss_kb": peak_rss_kb,
        "probe_s": probe_s,
        "versions": {"numpy": numpy.__version__, "dtq": getattr(dtq, "__version__", None)},
        "info": ctx.info,
        "traced": args.traced,
    }
    if recorder is not None:
        result.update(spans=recorder.spans, counts=recorder.counts, missing=missing,
                      hook_errors=recorder.hook_errors)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
