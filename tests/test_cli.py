import importlib.util
import json
import pathlib
import pkgutil
import sys

import pytest

from dtq import cli
from dtq.cli import main
from dtq.coherence import CoherenceClass, classify


SMALL_CONFIG = """\
[model]
arrival = bernoulli
alpha = 0.3
service = geometric:0.5
discipline = fifo
servers = 1

[sim]
horizon = 40000
warmup = 4000
seed = 42
replications = 1

[checks]
names = little, busy

[output]
format = json
"""


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(SMALL_CONFIG)
    return str(path)


class TestClassify:
    def test_exit_code_and_text(self, capsys):
        assert main(["classify"]) == 0
        out = capsys.readouterr().out
        grid_lines = [l for l in out.splitlines() if l[:6].strip() in
                      ("EAS", "LAS-IA", "LAS-DA", "LA-AF", "LA-DF")]
        cells = [c for l in grid_lines for c in l.split()[1:]]
        assert cells.count("coh") == 17
        assert "coherent combinations: 17 of 30" in out

    def test_json_rows(self, capsys):
        assert main(["--format", "json", "classify"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 30
        assert {"rule", "epoch", "class"} == set(rows[0])

    def test_csv(self, capsys):
        assert main(["--format", "csv", "classify"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "rule,epoch,class"
        assert len(out) == 31

    def test_golden_text(self, capsys):
        assert main(["classify"]) == 0
        assert capsys.readouterr().out == "\n".join([
            "        Random   Outside  Pre-Arr  Post-Arr Pre-Dep  Post-Dep ",
            "EAS     sub      coh      sub      coh      coh      sub      ",
            "LAS-IA  coh      sub      sub      coh      coh      sub      ",
            "LAS-DA  super    coh      coh      super    super    coh      ",
            "LA-AF   coh      coh      coh      super    super    coh      ",
            "LA-DF   coh      coh      sub      coh      coh      sub      ",
            "",
            "coherent combinations: 17 of 30",
            "",
        ])

    def test_corrupted_reference_detected(self, monkeypatch, capsys):
        from dtq.coherence import CoherenceClass, GOLDEN_CLASS_GRID
        from dtq.timebase import ObservationEpoch, SchedulingRule

        bad = dict(GOLDEN_CLASS_GRID)
        bad[(SchedulingRule.EAS, ObservationEpoch.RANDOM_OBSERVER)] = CoherenceClass.COHERENT
        monkeypatch.setattr(cli.coherence, "GOLDEN_CLASS_GRID", bad)
        assert main(["classify"]) == 1
        err = capsys.readouterr().err
        assert "EAS" in err and "random-observer" in err


class TestVerify:
    def test_small_run_passes(self, small_config, capsys):
        assert main(["--config", small_config, "verify"]) == 0
        bundle = json.loads(capsys.readouterr().out)
        assert bundle["overall_pass"] is True
        rows = bundle["replications"][0]["rows"]
        assert {"check", "quantity", "simulated", "formula", "residual", "tolerance", "pass"} <= set(rows[0])

    def test_deterministic_output(self, small_config, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["--config", small_config, "--out", str(out1), "verify"]) == 0
        assert main(["--config", small_config, "--out", str(out2), "verify"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_trace_export(self, small_config, tmp_path):
        trace_path = tmp_path / "trace.csv"
        assert main(["--config", small_config, "verify", "--trace", str(trace_path)]) == 0
        header = trace_path.read_text().splitlines()[0]
        assert header == "k,A,S,Astart,D,server"

    def test_simulate_round_trip(self, tmp_path):
        from dataclasses import fields

        import numpy as np
        from conftest import oracle_trace_csv

        from dtq.engine import Trace, read_trace_csv

        config = tmp_path / "fifo2.ini"
        config.write_text(
            SMALL_CONFIG.replace("alpha = 0.3", "alpha = 0.6")
            .replace("servers = 1", "servers = 2\nassignment = random")
            .replace("horizon = 40000", "horizon = 20000")
        )
        ours, ref = tmp_path / "trace.csv", tmp_path / "ref.csv"
        assert main(["--config", str(config), "--seed", "7", "--out", str(ours), "simulate"]) == 0
        exp = cli.load_experiment(str(config), 7)
        written = exp.make_trace(exp.seed)
        assert set(written.servers.tolist()) == {0, 1}
        oracle_trace_csv(written, ref)
        assert ours.read_bytes() == ref.read_bytes()
        back = read_trace_csv(ours, horizon=exp.horizon)
        for f in fields(Trace):
            got, want = getattr(back, f.name), getattr(written, f.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and np.array_equal(got, want), f.name
            else:
                assert got == want, f.name

    @pytest.mark.parametrize("servers", [1, 2])
    def test_utilization_row_is_the_per_server_busy_fraction(self, tmp_path, capsys, servers):
        import numpy as np
        from conftest import oracle_queue_path

        from dtq.observer import time_averages

        config = tmp_path / "util.ini"
        config.write_text(
            SMALL_CONFIG.replace("alpha = 0.3", f"alpha = {0.3 * servers}")
            .replace("servers = 1", f"servers = {servers}\nassignment = random")
            .replace("names = little, busy", "names = utilization")
        )
        assert main(["--config", str(config), "verify"]) in (0, 1)
        row = json.loads(capsys.readouterr().out)["replications"][0]["rows"][1]
        trace = cli.load_experiment(str(config)).make_trace(42)
        if servers == 1:  # the c = 1 row is 1 - pi(0), bit for bit
            assert row["quantity"] == "1-pi(0) vs rho"
            assert row["simulated"] == 1.0 - float(time_averages(trace, warmup=4000).pi[0])
        else:  # P(N > 0) read 0.81 here against the per-server load 0.6
            assert row["quantity"] == "E[min(N,c)]/c vs rho/c"
            assert row["pass"]
        busy = np.minimum(oracle_queue_path(trace)[4001:], servers).mean() / servers
        assert row["simulated"] == pytest.approx(busy, abs=1e-12)
        assert row["formula"] == pytest.approx(0.6)

    def test_unknown_check_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(SMALL_CONFIG.replace("little, busy", "little, nonsense"))
        assert main(["--config", str(path), "verify"]) == 2
        assert "unknown check" in capsys.readouterr().err

    def test_unstable_config_rejected(self, tmp_path, capsys):
        path = tmp_path / "unstable.ini"
        path.write_text(SMALL_CONFIG.replace("alpha = 0.3", "alpha = 0.6"))
        assert main(["--config", str(path), "verify"]) == 2
        assert "unstable" in capsys.readouterr().err

    def test_unstable_renewal_rejected_before_simulation(self, tmp_path, capsys, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("build_trace called for an unstable configuration")

        monkeypatch.setattr(cli, "build_trace", no_simulation)
        path = tmp_path / "unstable.ini"
        path.write_text(
            SMALL_CONFIG.replace("arrival = bernoulli", "arrival = renewal\ninterarrival = point:1")
        )
        assert main(["--config", str(path), "verify"]) == 2
        err = capsys.readouterr().err
        assert "unstable" in err and "utilization 2.000" in err

    def test_empty_check_list_rejected_before_simulation(self, tmp_path, capsys, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("build_trace called for a verify with no checks")

        monkeypatch.setattr(cli, "build_trace", no_simulation)
        path = tmp_path / "nochecks.ini"
        path.write_text(SMALL_CONFIG.replace("names = little, busy", "names ="))
        assert main(["--config", str(path), "verify"]) == 2
        assert "names is empty" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("alpha = 0.3", "alhpa = 0.6", "unknown key 'alhpa' in [model]; known: arrival, alpha,"),
            ("seed = 42", "seed = 42\nhorzion = 5", "unknown key 'horzion' in [sim]; known: horizon,"),
            ("[checks]", "[check]", "unknown section [check]; known: model, sim, checks, output"),
            ("[model]", "[DEFAULT]\nseed = 3\n\n[model]", "unknown section [DEFAULT]"),
        ],
    )
    def test_unknown_section_or_key_rejected_before_simulation(
        self, tmp_path, capsys, monkeypatch, old, new, message
    ):
        def no_simulation(*args, **kwargs):
            raise AssertionError("build_trace called for a config with an unknown key")

        monkeypatch.setattr(cli, "build_trace", no_simulation)
        path = tmp_path / "typo.ini"
        path.write_text(SMALL_CONFIG.replace(old, new))
        assert main(["--config", str(path), "verify"]) == 2
        assert message in capsys.readouterr().err

    def test_busy_without_complete_cycle_rejected(self, tmp_path, capsys):
        # one customer, never cleared inside the horizon: no cycle means exist
        path = tmp_path / "nocycle.ini"
        path.write_text(
            "[model]\narrival = explicit\nslots = 1\nservice = point:3\n\n"
            "[sim]\nhorizon = 20\n\n[checks]\nnames = busy\n"
        )
        assert main(["--format", "json", "--config", str(path), "verify"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no complete busy cycle" in captured.err

    def test_busy_on_a_system_that_never_empties_rejected(self, tmp_path, capsys):
        # the server stays busy past the horizon: the missing cycle is
        # reported before the empty-state rates find no empty slot
        path = tmp_path / "busy.ini"
        path.write_text(
            "[model]\narrival = explicit\nslots = 1, 2, 3\nservice = point:30\n\n"
            "[sim]\nhorizon = 20\n\n[checks]\nnames = busy\n"
        )
        assert main(["--config", str(path), "busy"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no complete busy cycle" in captured.err

    def test_missing_config_rejected(self, capsys):
        assert main(["--config", "/does/not/exist.ini", "verify"]) == 2

    def test_env_seed_override(self, small_config, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["--config", small_config, "--out", str(out1), "verify"]) == 0
        monkeypatch.setenv("DTQ_SEED", "77")
        assert main(["--config", small_config, "--out", str(out2), "verify"]) == 0
        b1, b2 = json.loads(out1.read_text()), json.loads(out2.read_text())
        assert b1["sim"]["seed"] == 42
        assert b2["sim"]["seed"] == 77
        assert b1["replications"][0]["rows"] != b2["replications"][0]["rows"]

    def test_replications_derive_seeds(self, tmp_path, capsys):
        path = tmp_path / "reps.ini"
        path.write_text(SMALL_CONFIG.replace("replications = 1", "replications = 3"))
        assert main(["--config", str(path), "verify"]) == 0
        bundle = json.loads(capsys.readouterr().out)
        assert [r["seed"] for r in bundle["replications"]] == [42, 43, 44]


class TestPathBuilds:
    """A reference verify takes every time average from one blocked pass
    over the slots, with no shift path built whole, the mean workload in
    closed form and the busy cycles from the customers."""

    def test_reference_verify_builds_no_slot_path(self, tmp_path, monkeypatch):
        from dtq import littles, observer
        from dtq.engine import Trace

        path = tmp_path / "ref.ini"
        path.write_text(
            SMALL_CONFIG.replace("horizon = 40000", "horizon = 20000")
            .replace("warmup = 4000", "warmup = 2000")
            .replace("names = little, busy", f"names = {', '.join(cli.CHECK_NAMES)}")
        )
        built = []

        def counted(name, real):
            return lambda *args, **kwargs: built.append(name) or real(*args, **kwargs)

        for owner, name in (
            (Trace, "shift_path"),
            (Trace, "queue_path"),
            (observer, "observed_queue_path"),
            (littles, "_remaining_work_pieces"),
        ):
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        exp = cli.load_experiment(str(path))
        assert len(exp.checks) == 8
        cli.run_verify(exp)
        assert built == []

    FIFO2_RANDOM = (
        SMALL_CONFIG.replace("alpha = 0.3", "alpha = 0.6")
        .replace("servers = 1", "servers = 2\nassignment = random")
        .replace("horizon = 40000", "horizon = 20000")
        .replace("warmup = 4000", "warmup = 2000")
    )

    @pytest.mark.parametrize(
        "checks,extra,replays",
        [
            ("little, little-observed, busy", [], 0),
            ("little, little-observed, busy, utilization", [], 1),
            ("little, little-observed, busy", ["--trace", "trace.csv"], 1),
        ],
        ids=["model-free", "utilization", "trace-out"],
    )
    def test_fifo2_verify_replays_labels_only_on_demand(
        self, tmp_path, monkeypatch, label_replays, checks, extra, replays
    ):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "fifo2.ini"
        path.write_text(self.FIFO2_RANDOM.replace("names = little, busy", f"names = {checks}"))
        # exit 1 is a failed statistical row
        assert main(["--config", str(path), "--out", "bundle.json", "verify", *extra]) in (0, 1)
        assert json.loads((tmp_path / "bundle.json").read_text())["checks"] == checks.split(", ")
        assert len(label_replays) == replays

    def test_fifo2_simulate_replays_labels_once(self, tmp_path, label_replays):
        path = tmp_path / "fifo2.ini"
        path.write_text(self.FIFO2_RANDOM)
        assert main(["--config", str(path), "--out", str(tmp_path / "trace.csv"), "simulate"]) == 0
        assert len(label_replays) == 1


class TestDist:
    @pytest.mark.parametrize(
        "klass,pi0",
        [("coherent", 0.4), ("sub", 4 / 7), ("super", 0.28)],
    )
    def test_first_row_analytic(self, small_config, capsys, klass, pi0):
        assert main(["--config", small_config, "--format", "json", "dist", "--class", klass]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["rows"][0]["pi_analytic"] == pytest.approx(pi0, abs=1e-12)
        assert blob["rows"][0]["pi_simulated"] == pytest.approx(pi0, abs=0.02)

    def test_super_second_row(self, small_config, capsys):
        assert main(["--config", small_config, "--format", "json", "dist", "--class", "super"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["rows"][1]["pi_analytic"] == pytest.approx(0.36, abs=1e-12)

    def test_bad_class_parameters_rejected_before_simulation(self, tmp_path, capsys, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("build_trace called for a bad (alpha, beta)")

        monkeypatch.setattr(cli, "build_trace", no_simulation)
        path = tmp_path / "beta.ini"
        path.write_text(SMALL_CONFIG.replace("alpha = 0.3", "alpha = 0.3\nbeta = 0.2"))
        assert main(["--config", str(path), "dist", "--class", "sub"]) == 2
        assert "unstable" in capsys.readouterr().err

    def test_text_mode(self, small_config, capsys):
        assert main(["--config", small_config, "dist"]) == 0
        out = capsys.readouterr().out
        assert "L analytic" in out


class TestOtherCommands:
    def test_busy(self, small_config, capsys):
        assert main(["--config", small_config, "busy"]) == 0
        assert "idle" in capsys.readouterr().out

    def test_pk(self, small_config, capsys):
        assert main(["--config", small_config, "pk"]) == 0
        assert "EWq" in capsys.readouterr().out

    def test_table61_text(self, capsys):
        assert main(["table61"]) == 0
        out = capsys.readouterr().out
        assert "0.720000" in out

    def test_table61_golden_text(self, capsys):
        assert main(["table61"]) == 0
        assert capsys.readouterr().out == "\n".join([
            "        Random    Outside   Pre-Arr   Post-Arr  Pre-Dep   Post-Dep  ",
            "EAS     0.428571  0.600000  0.428571  0.600000  0.600000  0.428571  ",
            "LAS-IA  0.600000  0.428571  0.428571  0.600000  0.600000  0.428571  ",
            "LAS-DA  0.720000  0.600000  0.600000  0.720000  0.720000  0.600000  ",
            "LA-AF   0.600000  0.600000  0.600000  0.720000  0.720000  0.600000  ",
            "LA-DF   0.600000  0.600000  0.428571  0.600000  0.600000  0.428571  ",
            "",
        ])

    def test_table61_csv(self, capsys):
        assert main(["--format", "csv", "table61"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "rule,epoch,value"
        assert len(lines) == 31
        assert lines[1] == "EAS,random-observer,0.4285714285714286"

    def test_table61_json(self, capsys):
        assert main(["--format", "json", "table61"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 30

    def test_simulate_writes_trace(self, small_config, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["--config", small_config, "--out", str(out), "simulate"]) == 0
        assert out.read_text().startswith("k,A,S,Astart,D")

    def test_simulate_requires_out(self, small_config, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "build_trace", lambda *args: built.append(args))
        assert main(["--config", small_config, "simulate"]) == 2
        assert "--out" in capsys.readouterr().err
        assert built == []  # rejected before any simulation


class TestOutputFormats:
    """Every table-writing subcommand in every format."""

    COMMANDS = (
        ["classify"], ["verify"], ["dist", "--class", "super"], ["busy"], ["pk"], ["table61"]
    )

    @staticmethod
    def _run(capsys, config, fmt, command):
        rc = main(["--config", config, "--format", fmt] + command)
        return rc, capsys.readouterr().out

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_format_matrix(self, small_config, capsys, command):
        outs = {}
        for fmt in ("text", "json", "csv"):
            rc, outs[fmt] = self._run(capsys, small_config, fmt, command)
            assert rc == 0, fmt
        doc = json.loads(outs["json"])
        if command[0] == "verify":
            rows = doc["replications"][0]["rows"]
        elif command[0] == "dist":
            rows = doc["rows"]
        else:
            rows = doc
        lines = outs["csv"].splitlines()
        assert lines[0] == ",".join(rows[0])
        assert len(lines) == len(rows) + 1
        assert outs["text"] and outs["text"] not in (outs["json"], outs["csv"])

    def test_verify_csv_cells_parse(self, tmp_path, capsys):
        path = tmp_path / "all.ini"
        path.write_text(SMALL_CONFIG.replace("little, busy", ", ".join(cli.CHECK_NAMES)))
        rc, out = self._run(capsys, str(path), "csv", ["verify"])
        assert rc in (0, 1)
        lines = out.splitlines()
        assert lines[0] == "check,quantity,simulated,formula,residual,tolerance,pass"
        assert {line.split(",")[0] for line in lines[1:]} == set(cli.CHECK_NAMES)
        for line in lines[1:]:
            *numbers, passed = line.split(",")[2:]
            assert passed in ("True", "False"), line
            for cell in numbers:
                float(cell)


def _bench_tracer():
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer_for_test", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


class TestCheckRegistry:
    def test_names_match_bench_tracer(self):
        # the benchmark names one cli.check.<name> span per entry of its CHECKS
        assert cli.CHECK_NAMES == _bench_tracer().CHECKS

    @pytest.mark.parametrize("klass", list(CoherenceClass))
    def test_class_combo_represents_its_class(self, klass):
        assert classify(*cli._CLASS_COMBOS[klass]) is klass


class TestPublicSurface:
    def test_bench_tracer_finds_every_target(self, monkeypatch):
        # every function the benchmark wraps still exists, but two deleted
        # slot-path layers that no check called: its span list names them
        # until its per-layer refresh; the wrappers are undone afterwards by
        # re-setting each original through monkeypatch
        tracer = _bench_tracer()
        for _, module_name, attr, _ in tracer.SPANS:
            module = importlib.import_module(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            if owner_name and leaf in vars(getattr(module, owner_name, object)):
                owner = getattr(module, owner_name)
                monkeypatch.setattr(owner, leaf, vars(owner)[leaf])
        for name, module in list(sys.modules.items()):
            if name == "dtq" or name.startswith("dtq."):
                for key, value in list(vars(module).items()):
                    if callable(value):
                        monkeypatch.setattr(module, key, value)
        assert tracer.install(tracer.Recorder()) == ["timebase.observation_span", "littles.workload_path"]

    def test_every_exported_name_resolves(self):
        import dtq

        for info in pkgutil.iter_modules(dtq.__path__):
            module = importlib.import_module(f"dtq.{info.name}")
            missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
            assert missing == [], info.name
