"""The mutation table: faults the tests are known to kill, kept as data so
that a later change can run them again.

Each :class:`Mutant` is one edit of one file: ``old`` must occur exactly
once in it and is replaced by ``new``.  ``killer`` is the pytest node id of
a test that fails on the mutant, and ``origin`` the change, as CHANGES.md
describes it, whose guard the mutant breaks.  A change that rewrites the
guarded code updates its entries to the same fault in the new code.

    python tests/mutants.py [--only ID]

copies the repository to a temporary directory, checks that every killer
passes there, then per mutant writes the edited file, runs its killer and,
only when the killer passes, the whole tier-1 suite, and restores the
file.  It prints each mutant as killed or survived and exits 1 on a
survivor or on an entry whose snippet no longer occurs exactly once.
pytest does not collect this file: its name has no ``test_`` prefix.
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
_TIMEOUT = 900  # seconds per pytest run; a mutant that hangs counts as killed


class Mutant(NamedTuple):
    id: str
    file: str  # relative to the repository root
    old: str
    new: str
    killer: str  # pytest node id
    origin: str


_DECODER = "trace files read with a loop-free byte decoder"
_READER = "trace reader reads only what the writer writes"
_CONFIG = "config values read through one reader that names the key"
_ONCE = "each model value checked once, where it is built"
_REUSE = "the reference verify stops re-deriving what the trace already knows"
_ORACLES = "the little rows against the conftest oracles"
_MALFORMED = "tests/test_cli.py::TestVerify::test_malformed_value_names_its_key"
_ARRIVALS_ONLY = "the finite-population loop only decides arrivals"
_TABLE = "a bucket-table service sampler"
_SLOT_WALK = "tests/test_engine.py::TestFinitePopulation::test_bit_identical_to_slot_walk"
_KERNEL = "one Kiefer-Wolfowitz starts kernel for every c >= 2, its lanes repaired up to a clamped coupling"
_LANES = "tests/test_engine.py::TestFifoStarts::test_lanes"
_RECORDS = "records as NamedTuples, each check run by the record's __new__"
_RAISES = "tests/test_records.py::test_validating_records_raise_their_message"
_NO_SLOT_PATH = "no slot path in src: cycles checked against the conftest cycle oracle"
_CYCLES = "tests/test_busy.py::TestCycleStats::test_random_small_traces"
_ESTIMATORS = "the reference verify's estimators with one cumsum per slot block and no customer-length temporaries"
_RUNS = "tests/test_busy.py::TestCustomerKernel::test_random_small_traces_across_customer_blocks"
_WINDOWS = "tests/test_observer.py::TestTimeAveragesMemo::test_shared_windows_match_shift_paths"


def _skipped_check(id: str, file: str, first_check: str, killer: str) -> Mutant:
    """A record whose __new__ returns before its first check, and so runs none."""
    built = "super().__new__(cls, *args, **kwargs)\n        " + first_check
    return Mutant(id, file, "self = " + built, "return " + built, killer, _RECORDS)


MUTANTS = (
    Mutant(
        "reader-admits-k-A-S",
        "src/dtq/engine.py",
        "_CSV_HEADERS = (_CSV_HEADER, _CSV_HEADER + [_CSV_SERVER])",
        "_CSV_HEADERS = (_CSV_HEADER[:3], _CSV_HEADER, _CSV_HEADER + [_CSV_SERVER])",
        "tests/test_engine.py::TestTraceCsv::test_rejects_other_files",
        _READER,
    ),
    Mutant(
        "service-support-unchecked",
        "src/dtq/engine.py",
        "        if any(v < 1 for v in vals):\n",
        "        if any(v < 0 for v in vals):\n",
        "tests/test_engine.py::TestDiscreteDist::test_support_below_one_slot_rejected[point]",
        _ONCE,
    ),
    Mutant(
        "bernoulli-built-outside-read",
        "src/dtq/cli.py",
        'arrival = _read(model, "alpha", lambda t: Bernoulli(float(t)), "0.3")',
        "arrival = Bernoulli(alpha)",
        f"{_MALFORMED}[alpha-1.5]",
        _ONCE,
    ),
    Mutant(
        "sources-built-outside-read",
        "src/dtq/cli.py",
        'arrival = _read(model, "sources", lambda t: FinitePopulation(int(t), alpha), "1")',
        'arrival = FinitePopulation(_read(model, "sources", int, "1"), alpha)',
        f"{_MALFORMED}[sources-0]",
        _ONCE,
    ),
    Mutant(
        "servers-checked-under-assignment",
        "src/dtq/cli.py",
        'servers = _read(model, "servers", lambda t: Fifo(int(t)), "1").servers',
        'servers = _read(model, "servers", int, "1")',
        f"{_MALFORMED}[servers-0]",
        _ONCE,
    ),
    Mutant(
        "fifo-built-outside-read",
        "src/dtq/cli.py",
        'discipline = _read(model, "assignment", lambda t: Fifo(servers, t), "lowest")',
        'discipline = Fifo(servers, model.get("assignment", "lowest"))',
        f"{_MALFORMED}[assignment]",
        _ONCE,
    ),
    Mutant(
        "slot-count-truncated",
        "src/dtq/cli.py",
        "if (n := int(x := float(text))) != x:",
        "if (n := int(x := float(text))) != int(x):",
        f"{_MALFORMED}[horizon-fraction]",
        _ONCE,
    ),
    Mutant(
        "negative-seed-accepted",
        "src/dtq/cli.py",
        "        if self.seed < 0:\n",
        "        if False:\n",
        f"{_MALFORMED}[seed]",
        _CONFIG,
    ),
    Mutant(
        "error-without-key",
        "src/dtq/cli.py",
        'raise ConfigError(f"{key} = {text}{needed_by}: {exc}") from None',
        "raise ConfigError(str(exc)) from None",
        f"{_MALFORMED}[alpha]",
        _CONFIG,
    ),
    Mutant(
        "little-passes-without-data",
        "src/dtq/littles.py",
        "    est = time_averages(trace, warmup=warmup)\n    target = est.lam * est.W\n",
        '    if trace.n == 0:\n        return Rows([Row("L - lam*W", 0.0, 0.0, 0.0)])\n'
        "    est = time_averages(trace, warmup=warmup)\n    target = est.lam * est.W\n",
        "tests/test_littles.py::TestCheckLittle::test_empty_trace",
        "little raises where no customer completes",
    ),
    Mutant(
        "digit-mask-one-byte-wide",
        "src/dtq/engine.py",
        'w &= _DIGIT_MASKS.take(lengths, mode="clip")',
        'w &= _DIGIT_MASKS.take(lengths + 1, mode="clip")',
        "tests/test_engine.py::TestTraceCsvChunks::test_word_edges_read_back",
        _DECODER,
    ),
    Mutant(
        "digit-mask-one-byte-short",
        "src/dtq/engine.py",
        'w &= _DIGIT_MASKS.take(lengths, mode="clip")',
        'w &= _DIGIT_MASKS.take(lengths - 1, mode="clip")',
        "tests/test_engine.py::TestTraceCsv::test_roundtrip",
        _DECODER,
    ),
    Mutant(
        "second-word-scale-dropped",
        "src/dtq/engine.py",
        "lengths[long] - 8 * k) * 10 ** (8 * k)",
        "lengths[long] - 8 * k)",
        "tests/test_engine.py::TestTraceCsvChunks::test_word_edges_read_back",
        _DECODER,
    ),
    Mutant(
        "blank-line-ignores-preceding-end",
        "src/dtq/engine.py",
        "blank = empty & is_end[:-1] & ended",
        "blank = empty & ended",
        "tests/test_engine.py::TestTraceCsvChunks::test_rejects_what_the_writer_never_writes",
        _DECODER,
    ),
    Mutant(
        "carry-loses-last-byte",
        "src/dtq/engine.py",
        "        carry = len(data) - cut\n        buf[_PAD : _PAD + carry] = data[cut:]\n",
        "        carry = len(data) - cut - 1\n        buf[_PAD : _PAD + carry] = data[cut : cut + carry]\n",
        "tests/test_engine.py::TestTraceCsvChunks::test_blank_lines_at_every_edge",
        _DECODER,
    ),
    Mutant(
        "offset-histogram-plus-2",
        "src/dtq/coherence.py",
        "        offsets += 1\n        yield offsets\n",
        "        offsets += 2\n        yield offsets\n",
        "tests/test_coherence.py::TestOffsetMemo::test_histogram_is_the_bincount_of_the_offsets",
        _DECODER,
    ),
    Mutant(
        "class-offset-sign-flipped",
        "src/dtq/observer.py",
        "W_obs = (win.sojourn + n * (e0 + 1 - s0)) / n",
        "W_obs = (win.sojourn - n * (e0 + 1 - s0)) / n",
        "tests/test_acceptance.py::test_criterion_04_little_family",
        _REUSE,
    ),
    Mutant(
        "class-offset-shifts-swapped",
        "src/dtq/observer.py",
        "W_obs = (win.sojourn + n * (e0 + 1 - s0)) / n",
        "W_obs = (win.sojourn + n * (s0 + 1 - e0)) / n",
        "tests/test_acceptance.py::test_criterion_04_little_family",
        _REUSE,
    ),
    Mutant(
        "idle-sum-plus-1",
        "src/dtq/busy.py",
        "return CycleMeans((cycle - busy) / m,",
        "return CycleMeans((cycle - busy + 1) / m,",
        _CYCLES,
        _REUSE,
    ),
    Mutant(
        "customer-sum-plus-1",
        "src/dtq/busy.py",
        "customers = int(openers[-1]) - int(openers[0])",
        "customers = int(openers[-1]) - int(openers[0]) + 1",
        _CYCLES,
        _REUSE,
    ),
    Mutant(
        "in-order-sorts-ties",
        "src/dtq/observer.py",
        "if (d[1:] < d[:-1]).any() else d",
        "if (d[1:] <= d[:-1]).any() else d",
        "tests/test_observer.py::TestTimeAveragesMemo::test_departures_sorted_only_out_of_order",
        _REUSE,
    ),
    Mutant(
        "utilization-unclipped-at-horizon",
        "src/dtq/littles.py",
        "spans = np.minimum(trace.departures[i0:i1], T, out=buf[: i1 - i0])",
        "spans = np.add(trace.departures[i0:i1], 0, out=buf[: i1 - i0])",
        "tests/test_cli.py::TestGoldenBytes::test_verify_output_bytes[ref-42-json]",
        _REUSE,
    ),
    Mutant(
        "class-combos-swapped",
        "src/dtq/cli.py",
        "    CoherenceClass.COHERENT: (SchedulingRule.LAS_IA, ObservationEpoch.RANDOM_OBSERVER),\n"
        "    CoherenceClass.SUB_COHERENT: (SchedulingRule.EAS, ObservationEpoch.RANDOM_OBSERVER),\n",
        "    CoherenceClass.COHERENT: (SchedulingRule.EAS, ObservationEpoch.RANDOM_OBSERVER),\n"
        "    CoherenceClass.SUB_COHERENT: (SchedulingRule.LAS_IA, ObservationEpoch.RANDOM_OBSERVER),\n",
        "tests/test_cli.py::TestLittleRowsAgainstOracles::test_rows_are_the_oracle_values",
        _ORACLES,
    ),
    Mutant(
        "little-warmup-off-by-one",
        "src/dtq/cli.py",
        "return littles.check_little(trace, exp.warmup)",
        "return littles.check_little(trace, exp.warmup + 1)",
        "tests/test_cli.py::TestLittleRowsAgainstOracles::test_rows_are_the_oracle_values",
        _ORACLES,
    ),
    Mutant(
        "empty-system-at-free-slot",
        "src/dtq/engine.py",
        "            if t > last_free:",
        "            if t >= last_free:",
        f"{_SLOT_WALK}[3-0.2-4-40000]",
        _ARRIVALS_ONLY,
    ),
    Mutant(
        "departure-popped-at-its-slot",
        "src/dtq/engine.py",
        "while in_system[0] < t:",
        "while in_system[0] <= t:",
        f"{_SLOT_WALK}[3-0.2-4-40000]",
        _ARRIVALS_ONLY,
    ),
    Mutant(
        "full-system-guard-dropped",
        "src/dtq/engine.py",
        "if n >= n_sources or u_t >= p[n]:",
        "if u_t >= p[n]:",
        "tests/test_engine.py::TestFinitePopulation::test_population_cap",
        _ARRIVALS_ONLY,
    ),
    Mutant(
        "no-arrival-without-a-chunk",
        "src/dtq/engine.py",
        "    drawn = [np.empty(0, dtype=np.int64)]",
        "    drawn = []",
        "tests/test_engine.py::TestFinitePopulation::test_no_arrival_in_horizon[1-0.05-2-20]",
        _ARRIVALS_ONLY,
    ),
    Mutant(
        "bucket-split-at-left-edge",
        "src/dtq/engine.py",
        'below = np.searchsorted(cdf, edges[:-1], side="right")',
        'below = np.searchsorted(cdf, edges[:-1], side="left")',
        "tests/test_engine.py::TestStreams::test_table_leaves_exactly_the_split_buckets[three-points]",
        _TABLE,
    ),
    Mutant(
        "bucket-split-at-right-edge",
        "src/dtq/engine.py",
        'short = np.searchsorted(cdf, edges[1:], side="left")',
        'short = np.searchsorted(cdf, edges[1:], side="right")',
        "tests/test_engine.py::TestStreams::test_table_leaves_exactly_the_split_buckets[three-points]",
        _TABLE,
    ),
    Mutant(
        "split-draws-searched-left",
        "src/dtq/engine.py",
        'idx = np.searchsorted(cdf, u[split], side="right")',
        'idx = np.searchsorted(cdf, u[split], side="left")',
        "tests/test_engine.py::TestStreams::test_sample_at_cdf_points_and_bucket_edges[geometric-0.05]",
        _TABLE,
    ),
    Mutant(
        "repair-waits-for-the-latest",
        "src/dtq/engine.py",
        "        t = free[0]\n        if a > t:\n",
        "        t = top\n        if a > t:\n",
        f"{_LANES}[c2-lanes-32-7]",
        _KERNEL,
    ),
    Mutant(
        "bare-step-waits-for-the-latest",
        "src/dtq/engine.py",
        "            t = free[0]\n",
        "            t = max(free)\n",
        f"{_LANES}[c2-overloaded-32-512]",
        _KERNEL,
    ),
    Mutant(
        "repair-push-unsorted",
        "src/dtq/engine.py",
        "        replace(free, d)\n",
        "        free[0] = d\n",
        f"{_LANES}[c2-lanes-32-7]",
        _KERNEL,
    ),
    Mutant(
        "repair-top-untracked",
        "src/dtq/engine.py",
        "        if d > top:\n            top = d\n",
        "",
        f"{_LANES}[c2-lanes-32-512]",
        _KERNEL,
    ),
    Mutant(
        "repair-reset-per-lane",
        "src/dtq/engine.py",
        "        st_lane: list[int] = []\n",
        "        st_lane: list[int] = []\n        free = [0] * c\n",
        f"{_LANES}[c2-lanes-32-7]",
        _KERNEL,
    ),
    Mutant(
        "wavefront-wait-for-the-latest",
        "src/dtq/engine.py",
        "np.maximum(a, first, out=t)",
        "np.maximum(a, last, out=t)",
        f"{_LANES}[c2-lanes-32-512]",
        _KERNEL,
    ),
    Mutant(
        "wavefront-insert-dropped",
        "src/dtq/engine.py",
        "            np.minimum(d, second, out=first)\n"
        "            for f, g in middle:\n"
        "                np.maximum(f, d, out=f)\n"
        "                np.minimum(f, g, out=f)\n"
        "            np.maximum(last, d, out=last)\n",
        "            np.copyto(first, d)\n",
        f"{_LANES}[c2-lanes-32-512]",
        _KERNEL,
    ),
    Mutant(
        "wavefront-reset-per-tile",
        "src/dtq/engine.py",
        "        lanes_t[:, j0:j1] = t_tile[:w].T\n",
        "        lanes_t[:, j0:j1] = t_tile[:w].T\n        rows[:c] = 0\n",
        f"{_LANES}[c2-lanes-32-512]",
        _KERNEL,
    ),
    Mutant(
        "wavefront-f0-max",
        "src/dtq/engine.py",
        "np.minimum(d, second, out=first)",
        "np.maximum(d, second, out=first)",
        f"{_LANES}[c2-lanes-32-512]",
        _KERNEL,
    ),
    Mutant(
        "wavefront-middle-uncapped",
        "src/dtq/engine.py",
        "                np.minimum(f, g, out=f)\n",
        "",
        f"{_LANES}[c3-lanes-32-512]",
        _KERNEL,
    ),
    Mutant(
        "repair-skipped",
        "src/dtq/engine.py",
        "if a >= top and snaps is not None:",
        "if snaps is not None:",
        f"{_LANES}[c2-lanes-32-7]",
        _KERNEL,
    ),
    Mutant(
        "wave-end-carried-after-full-repair",
        "src/dtq/engine.py",
        "        if stopped:",
        "        if hi <= full:",
        f"{_LANES}[c2-overloaded-32-512]",
        _KERNEL,
    ),
    Mutant(
        "repaired-state-carried-after-stop",
        "src/dtq/engine.py",
        "            free = ends[lane].tolist()\n",
        "            pass\n",
        f"{_LANES}[c3-busy-32-512]",
        _KERNEL,
    ),
    Mutant(
        "coupling-clamped-at-tile-end",
        "src/dtq/engine.py",
        "bisect.bisect_right(f, a_rest[i])",
        "bisect.bisect_right(f, a_rest[min(i + _TILE, len(a_rest)) - 1])",
        f"{_LANES}[c4-busy-32-512]",
        _KERNEL,
    ),
    Mutant(
        "coupling-snapshot-one-tile-late",
        "src/dtq/engine.py",
        "g_lane[j][p:]",
        "g_lane[min(j + 1, len(g_lane) - 1)][p:]",
        f"{_LANES}[c4-busy-3-512]",
        _KERNEL,
    ),
    Mutant(
        "coupling-unclamped",
        "src/dtq/engine.py",
        "f[p:] == g_lane[j][p:]",
        "f == g_lane[j]",
        "tests/test_engine.py::TestFifoStarts::test_busy_lanes_stop_by_coupling[c8-1]",
        _KERNEL,
    ),
    _skipped_check(
        "dist-unchecked", "src/dtq/engine.py", "vals = self.values",
        "tests/test_engine.py::TestDiscreteDist::test_support_below_one_slot_rejected[point]",
    ),
    _skipped_check(
        "bernoulli-unchecked", "src/dtq/engine.py", "if not 0.0 < self.alpha < 1.0:", f"{_MALFORMED}[alpha-1.5]"
    ),
    _skipped_check(
        "population-unchecked", "src/dtq/engine.py", "if self.n_sources < 1:", f"{_MALFORMED}[sources-0]"
    ),
    _skipped_check(
        "explicit-unchecked", "src/dtq/engine.py", "if any(s < 1 for s in self.slots):", f"{_RAISES}[explicit-0]"
    ),
    _skipped_check("fifo-unchecked", "src/dtq/engine.py", "if self.servers < 1:", f"{_MALFORMED}[servers-0]"),
    _skipped_check(
        "bgeom1-unchecked", "src/dtq/birthdeath.py", "_check_stable(self.alpha, self.beta)",
        "tests/test_birthdeath.py::TestClassDistributions::test_unstable_rejected",
    ),
    Mutant(
        "nan-probability-accepted",
        "src/dtq/engine.py",
        "if any(not p >= 0 for p in self.probs):",
        "if any(p < 0 for p in self.probs):",
        f"{_MALFORMED}[service-pmf-nan]",
        "a NaN probability rejected where the law is built",
    ),
    Mutant(
        "pmf-repeated-point-accepted",
        "src/dtq/cli.py",
        "if (v := int(v)) in pmf:",
        "if (v := int(v)) in ():",
        f"{_MALFORMED}[service-pmf-repeated]",
        "a repeated pmf support point rejected",
    ),
    Mutant(
        "busy-opener-on-tie",
        "src/dtq/busy.py",
        "opens = np.flatnonzero(a[i0:i1] > before[:-1])",
        "opens = np.flatnonzero(a[i0:i1] >= before[:-1])",
        _CYCLES,
        _NO_SLOT_PATH,
    ),
    Mutant(
        "busy-clear-reads-next-opener",
        "src/dtq/busy.py",
        "lasts.append(before[opens])",
        "lasts.append(before[opens + 1])",
        _CYCLES,
        _NO_SLOT_PATH,
    ),
    Mutant(
        "busy-reach-reset-per-block",
        "src/dtq/busy.py",
        "before[0] = reach\n",
        "before[0] = -1\n",
        f"{_RUNS}[3]",
        _ESTIMATORS,
    ),
    Mutant(
        "empty-count-past-the-horizon",
        "src/dtq/busy.py",
        "for i0, i1 in _slot_blocks(0, arrived):",
        "for i0, i1 in _slot_blocks(0, trace.n):",
        f"{_RUNS}[7]",
        _ESTIMATORS,
    ),
    Mutant(
        "utilization-sum-reset-per-block",
        "src/dtq/littles.py",
        "busy += int(spans.sum())",
        "busy = int(spans.sum())",
        "tests/test_littles.py::TestUtilization::test_spans_summed_across_customer_blocks[1]",
        _ESTIMATORS,
    ),
    Mutant(
        "in-system-carry-dropped",
        "src/dtq/observer.py",
        "in_system = np.cumsum(arr, out=arr)[1:-1]",
        "in_system = np.cumsum(arr[1:], out=arr[1:])[:-1]",
        f"{_WINDOWS}[fifo3-departure-batches-3]",
        _ESTIMATORS,
    ),
    Mutant(
        "lead-window-reads-this-slot",
        "src/dtq/observer.py",
        "np.subtract(in_system, dep[2:], out=window)",
        "np.subtract(in_system, dep[1:-1], out=window)",
        f"{_WINDOWS}[fifo3-departure-batches-3]",
        _ESTIMATORS,
    ),
)


def _pytest(root: Path, *args: str) -> int:
    """pytest's exit code on ``args`` in the copy at ``root``, stopping at
    the first failure; -1 when the run times out."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(root / "src"), os.environ.get("PYTHONPATH"))))}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args]
    try:
        return subprocess.run(cmd, cwd=root, env=env, capture_output=True, timeout=_TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        return -1


def _verdict(root: Path, m: Mutant) -> str:
    code = _pytest(root, m.killer)
    if code in (4, 5):  # usage error or nothing collected: the node id is gone
        return f"STALE: no test {m.killer}"
    if code:
        return "killed"
    if _pytest(root, "--continue-on-collection-errors"):
        return "killed by tier-1 (its killer passed)"
    return "SURVIVED"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Apply each mutant and run the test that should kill it.")
    ap.add_argument("--only", metavar="ID", help="run this mutant alone")
    args = ap.parse_args(argv)
    mutants = [m for m in MUTANTS if args.only in (None, m.id)]
    if not mutants:
        ap.error(f"no mutant {args.only!r}; known: {', '.join(m.id for m in MUTANTS)}")
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(REPO, root, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        if _pytest(root, *dict.fromkeys(m.killer for m in mutants)):
            print("a killer test fails on the unmutated copy; fix it before reading verdicts")
            return 1
        for m in mutants:
            path = root / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                verdict = f"STALE: the old snippet occurs {text.count(m.old)} times in {m.file}"
            else:
                path.write_text(text.replace(m.old, m.new))
                try:
                    verdict = _verdict(root, m)
                finally:
                    path.write_text(text)
            failed += not verdict.startswith("killed")
            print(f"{m.id:<34} {verdict}", flush=True)
    print(f"{len(mutants) - failed} of {len(mutants)} killed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
