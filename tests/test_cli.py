import hashlib
import importlib.util
import json
import pathlib
import pkgutil
import sys

import configparser

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import oracle_observed_path, oracle_observed_wait, oracle_queue_path
from dtq import cli, littles
from dtq.cli import main
from dtq.coherence import CoherenceClass, classify
from dtq.observer import InsufficientDataError
from dtq.timebase import ObservationEpoch, SchedulingRule


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
            assert row["quantity"] == "E[min(N;c)]/c vs rho/c"
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

    # pk needs Bernoulli input to one FIFO server, dist and table61 also
    # geometric service: the model settles it before any simulation
    UNEVALUABLE = {
        "fifo2-random": "alpha = 0.6\nservice = geometric:0.5\nservers = 2\nassignment = random",
        "infinite-server": "alpha = 0.6\nservice = geometric:0.5\ndiscipline = infinite-server",
        "renewal-c2": "arrival = renewal\ninterarrival = pmf:1:0.5,2:0.5\nservice = geometric:0.5\nservers = 2",
        "finite-population": (
            "arrival = finite-population\nsources = 5\nalpha = 0.2\nservice = geometric:0.2"
        ),
        "explicit-infinite-server": (
            "arrival = explicit\nslots = 1,1,1,1,2,2,2,2,3,3,3,3\nservice = point:5\n"
            "discipline = infinite-server"
        ),
        "pmf-service": "alpha = 0.3\nservice = pmf:1:0.5,2:0.3,4:0.2",
    }

    @pytest.mark.parametrize(
        "model,check,message",
        [
            ("fifo2-random", "pk", "check 'pk' does not apply: needs one FIFO server"),
            ("fifo2-random", "dist", "check 'dist' does not apply: needs one FIFO server"),
            ("fifo2-random", "table61", "check 'table61' does not apply: needs one FIFO server"),
            ("infinite-server", "pk", "check 'pk' does not apply: needs one FIFO server"),
            ("renewal-c2", "pk", "check 'pk' does not apply: needs Bernoulli input"),
            ("finite-population", "pk", "check 'pk' does not apply: needs Bernoulli input"),
            ("explicit-infinite-server", "pk", "check 'pk' does not apply: needs Bernoulli input"),
            ("pmf-service", "dist", "check 'dist' does not apply: needs geometric service"),
            ("pmf-service", "table61", "check 'table61' does not apply: needs geometric service"),
        ],
    )
    def test_unevaluable_formula_rejected_before_simulation(
        self, tmp_path, capsys, monkeypatch, model, check, message
    ):
        built = []
        monkeypatch.setattr(cli, "build_trace", lambda *args: built.append(args))
        path = tmp_path / "model.ini"
        path.write_text(
            f"[model]\n{self.UNEVALUABLE[model]}\n\n[sim]\nhorizon = 20000\n\n"
            f"[checks]\nnames = little, {check}\n"
        )
        assert main(["--config", str(path), "verify"]) == 2
        assert message in capsys.readouterr().err
        assert built == []
        # the subcommand of the same name runs it whatever the config lists
        path.write_text(path.read_text().replace(f"little, {check}", "little"))
        assert main(["--config", str(path), "--out", str(tmp_path / "out"), check]) == 2
        assert message.partition(": ")[2] in capsys.readouterr().err
        assert built == []

    def test_utilization_on_infinite_server(self, tmp_path, capsys, monkeypatch):
        # an infinite-server model has no server count and no FIFO busy fraction
        model = "[model]\nalpha = 0.6\ndiscipline = infinite-server\n\n[sim]\nhorizon = 20000\n"
        path = tmp_path / "inf.ini"
        path.write_text(model + "\n[checks]\nnames = little, utilization\n")
        built = []
        with monkeypatch.context() as patch:
            patch.setattr(cli, "build_trace", lambda *args: built.append(args))
            assert main(["--config", str(path), "verify"]) == 2
        assert "check 'utilization' does not apply: needs a FIFO discipline" in capsys.readouterr().err
        assert built == []  # rejected before any simulation
        # the default list reports it as one skip row and still passes
        path.write_text(model)
        assert main(["--config", str(path), "--format", "json", "verify"]) == 0
        rows = json.loads(capsys.readouterr().out)["replications"][0]["rows"]
        assert [r for r in rows if r["check"] == "utilization"] == [
            _skip_row("utilization", "needs a FIFO discipline")
        ]

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
            ("format = json", "format = jsno", "unknown output format 'jsno'; known: text, json, csv"),
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

    @pytest.mark.parametrize(
        "edits,message",
        [
            # load exactly 1, though the truncated geometric's mean is below 1/beta
            ({"alpha = 0.3": "alpha = 0.5"}, "unstable configuration: utilization 1.000 >= 1"),
            (
                {"alpha = 0.3": "alpha = 0.6", "geometric:0.5": "geometric:0.3", "servers = 1": "servers = 2"},
                "unstable configuration: utilization 1.000 >= 1",
            ),
            # 0.6 / 0.2 / 3 rounds to 0.9999999999999999
            (
                {"alpha = 0.3": "alpha = 0.6", "geometric:0.5": "geometric:0.2", "servers = 1": "servers = 3"},
                "unstable configuration: utilization 1.000 >= 1",
            ),
            # the config, not the check's precondition, rejects it
            (
                {"alpha = 0.3": "alpha = 0.6", "little, busy": "pk"},
                "unstable configuration: utilization 1.200 >= 1",
            ),
            # beta = 1 is the one case that the load check leaves to dist's precondition
            (
                {"geometric:0.5": "geometric:1.0", "little, busy": "dist"},
                "check 'dist' does not apply: needs beta < 1",
            ),
            ({"arrival = bernoulli": "arrival = explicit"}, "arrival = explicit needs slots"),
            (
                {"arrival = bernoulli": "arrival = explicit\nslots = 1,,3"},
                "slots = 1,,3 for arrival = explicit: invalid literal",
            ),
            ({"arrival = bernoulli": "arrival = renewal"}, "arrival = renewal needs interarrival"),
            (
                {"arrival = bernoulli": "arrival = renewal\ninterarrival = gamma:2"},
                "interarrival = gamma:2 for arrival = renewal: unknown distribution spec 'gamma:2'",
            ),
        ],
        ids=[
            "rho-1", "fifo2-rho-1", "fifo3-rho-1-rounded", "pk-rho-1.2", "dist-beta-1",
            "explicit-no-slots", "explicit-empty-slot", "renewal-no-interarrival", "renewal-bad-interarrival",
        ],
    )
    def test_bad_model_rejected_before_simulation(self, tmp_path, capsys, monkeypatch, edits, message):
        built = []
        monkeypatch.setattr(cli, "build_trace", lambda *args: built.append(args))
        text = SMALL_CONFIG
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        path = tmp_path / "model.ini"
        path.write_text(text)
        assert main(["--config", str(path), "verify"]) == 2
        assert message in capsys.readouterr().err
        assert built == []

    @pytest.mark.parametrize(
        "line, argv, message",
        [
            ("alpha = abc", [], "alpha = abc: could not convert string to float: 'abc'"),
            ("service = pmf:1:0.5,2", [], "service = pmf:1:0.5,2: could not convert string to float: ''"),
            ("servers = two", [], "servers = two: invalid literal for int() with base 10: 'two'"),
            ("horizon = 1e3x", [], "horizon = 1e3x: could not convert string to float: '1e3x'"),
            ("horizon = inf", [], "horizon = inf: cannot convert float infinity to integer"),
            ("replications = 0.5", [], "replications = 0.5: invalid literal for int() with base 10: '0.5'"),
            ("seed = -1", [], "seed = -1: seed must be >= 0"),
            ("seed = 42", ["--seed", "-1"], "seed = -1: seed must be >= 0"),
            ("service = point:0", [], "service = point:0: support must be at least one slot"),
            ("service = pmf:0:0.5,1:0.5", [], "service = pmf:0:0.5,1:0.5: support must be at least one slot"),
            ("service = pmf:1:nan,2:1", [], "service = pmf:1:nan,2:1: probabilities must be nonnegative"),
            ("service = pmf:1:0.5,2:0.5,2:0.5", [], "service = pmf:1:0.5,2:0.5,2:0.5: support point 2 is repeated"),
            ("service = pmf:2:1,2:1", [], "service = pmf:2:1,2:1: support point 2 is repeated"),
            (
                "arrival = renewal\ninterarrival = point:0",
                [],
                "interarrival = point:0 for arrival = renewal: support must be at least one slot",
            ),
            (
                "arrival = renewal\ninterarrival = pmf:1:nan,2:1",
                [],
                "interarrival = pmf:1:nan,2:1 for arrival = renewal: probabilities must be nonnegative",
            ),
            (
                "arrival = renewal\ninterarrival = pmf:2:1,2:1",
                [],
                "interarrival = pmf:2:1,2:1 for arrival = renewal: support point 2 is repeated",
            ),
            ("alpha = 1.5", [], "alpha = 1.5: arrival probability must be in (0, 1), got 1.5"),
            (
                "arrival = finite-population\nalpha = 1.5",
                [],
                "alpha = 1.5: arrival probability must be in (0, 1), got 1.5",
            ),
            ("arrival = finite-population\nsources = 0", [], "sources = 0: need at least one source"),
            (
                "arrival = finite-population\nalpha = 0.05\nsources = 30",
                [],
                "sources = 30: n_sources * alpha must not exceed 1 for the single-arrival dynamics",
            ),
            ("servers = 0", [], "servers = 0: need at least one server"),
            ("assignment = rnd", [], "assignment = rnd: unknown assignment policy 'rnd'"),
            ("horizon = 20000.7", [], "horizon = 20000.7: not a whole number of slots"),
            ("warmup = 100.5", [], "warmup = 100.5: not a whole number of slots"),
        ],
        ids=["alpha", "service-pmf", "servers", "horizon", "horizon-inf", "replications", "seed", "seed-override",
             "service-point-0", "service-pmf-0", "service-pmf-nan", "service-pmf-repeated",
             "service-pmf-repeated-only", "interarrival-point-0", "interarrival-pmf-nan",
             "interarrival-pmf-repeated", "alpha-1.5",
             "alpha-1.5-finite-population", "sources-0", "sources-times-alpha", "servers-0", "assignment",
             "horizon-fraction", "warmup-fraction"],
    )
    def test_malformed_value_names_its_key(self, tmp_path, capsys, monkeypatch, line, argv, message):
        # each line replaces the line of its key, or joins [model] if the
        # config has none
        built = []
        monkeypatch.setattr(cli, "build_trace", lambda *args: built.append(args))
        lines = SMALL_CONFIG.splitlines()
        for new in line.splitlines():
            keys = [l.split(" = ")[0] for l in lines]
            key = new.split(" = ")[0]
            if key in keys:
                lines[keys.index(key)] = new
            else:
                lines.insert(lines.index("[model]") + 1, new)
        path = tmp_path / "value.ini"
        path.write_text("\n".join(lines) + "\n")
        assert main(["--config", str(path), *argv, "verify"]) == 2
        assert f"error: {message}\n" == capsys.readouterr().err
        assert built == []

    @pytest.mark.parametrize("check", ["little", "little-observed"])
    def test_no_completed_customer_rejected(self, tmp_path, capsys, check):
        # the only arrival falls after the horizon: no W to set against L
        path = tmp_path / "empty.ini"
        path.write_text(
            "[model]\narrival = explicit\nslots = 2000\n\n"
            f"[sim]\nhorizon = 1000\n\n[checks]\nnames = {check}\n"
        )
        assert main(["--config", str(path), "verify"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no customer arrives and departs inside (100, 1000]" in captured.err

    # seed 2 draws no uniform below alpha in slots 1..20: no one arrives
    NO_ARRIVAL = (
        "[model]\narrival = finite-population\nsources = 1\nalpha = 0.05\n\n"
        "[sim]\nhorizon = 20\n\n[checks]\nnames = little\n"
    )

    def test_no_arrival_rejected(self, tmp_path, capsys):
        path = tmp_path / "no_arrival.ini"
        path.write_text(self.NO_ARRIVAL)
        assert main(["--config", str(path), "--seed", "2", "verify"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no customer arrives and departs inside (2, 20]\n"

    def test_no_arrival_simulates_an_empty_trace(self, tmp_path):
        path, out = tmp_path / "no_arrival.ini", tmp_path / "trace.csv"
        path.write_text(self.NO_ARRIVAL)
        assert main(["--config", str(path), "--seed", "2", "--out", str(out), "simulate"]) == 0
        assert out.read_text() == "k,A,S,Astart,D,server\n"

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

    def test_seed_override(self, small_config, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["--config", small_config, "--out", str(out1), "verify"]) == 0
        assert main(["--config", small_config, "--seed", "77", "--out", str(out2), "verify"]) == 0
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


# every combination of arrival, service and discipline, and the checks that
# apply to it beyond little, little-observed and busy, which apply to every
# model: P pk, W workload, D dist, T table61, U utilization, - none of these
APPLICABILITY = """
    bernoulli          fifo1         PWDTU  PWU  PWU
    bernoulli          fifo2-lowest  U      U    U
    bernoulli          fifo2-random  U      U    U
    bernoulli          infinite      -      -    -
    renewal            fifo1         U      U    U
    renewal            fifo2-lowest  U      U    U
    renewal            fifo2-random  U      U    U
    renewal            infinite      -      -    -
    finite-population  fifo1         -      -    -
    finite-population  fifo2-lowest  -      -    -
    finite-population  fifo2-random  -      -    -
    finite-population  infinite      -      -    -
    explicit           fifo1         -      -    -
    explicit           fifo2-lowest  -      -    -
    explicit           fifo2-random  -      -    -
    explicit           infinite      -      -    -
"""
ARRIVALS = {
    "bernoulli": "arrival = bernoulli\nalpha = 0.3",
    "renewal": "arrival = renewal\ninterarrival = pmf:2:0.5,4:0.5",
    "finite-population": "arrival = finite-population\nsources = 5\nalpha = 0.1",
    "explicit": "arrival = explicit\nslots = " + ",".join(str(k) for k in range(1, 6000, 5)),
}
SERVICES = {"geometric": "geometric:0.5", "point": "point:2", "pmf": "pmf:1:0.5,2:0.3,4:0.2"}
DISCIPLINES = {
    "fifo1": "discipline = fifo\nservers = 1",
    "fifo2-lowest": "discipline = fifo\nservers = 2\nassignment = lowest",
    "fifo2-random": "discipline = fifo\nservers = 2\nassignment = random",
    "infinite": "discipline = infinite-server",
}
_LETTERS = {"P": "pk", "W": "workload", "D": "dist", "T": "table61", "U": "utilization"}


def _applicability():
    for line in APPLICABILITY.strip().splitlines():
        arrival, disc, *cells = line.split()
        for service, cell in zip(SERVICES, cells, strict=True):
            extra = {_LETTERS[c] for c in cell.strip("-")}
            yield arrival, service, disc, {"little", "little-observed", "busy"} | extra


def _skip_row(name, reason):
    return {
        "check": name, "quantity": f"skipped: {reason}", "simulated": 0.0, "formula": 0.0,
        "residual": 0.0, "tolerance": 0.0, "pass": None,
    }


@st.composite
def little_configs(draw):
    """A small config with the little checks: Bernoulli input to FIFO-1,
    FIFO-c with random assignment or an infinite server, or a finite
    population, a geometric service law and a random warmup."""
    T = draw(st.integers(20, 400))
    model = draw(st.sampled_from(["fifo-1", "fifo-c", "infinite-server", "finite-population"]))
    beta = draw(st.sampled_from([0.3, 0.5, 0.8, 1.0]))
    load = draw(st.floats(0.05, 0.9))
    lines = [f"service = geometric:{beta}"]
    if model == "finite-population":
        sources = draw(st.integers(1, 4))
        lines += ["arrival = finite-population", f"sources = {sources}", f"alpha = {load / sources!r}"]
    elif model == "fifo-c":
        c = draw(st.integers(2, 3))
        lines += [f"alpha = {load * min(0.99, c * beta)!r}", f"servers = {c}", "assignment = random"]
    elif model == "fifo-1":
        lines += [f"alpha = {load * beta!r}"]
    else:
        lines += [f"alpha = {load!r}", "discipline = infinite-server"]
    warmup, seed = draw(st.integers(0, T // 2)), draw(st.integers(0, 2**16))
    return (
        "[model]\n" + "\n".join(lines) + f"\n[sim]\nhorizon = {T}\nwarmup = {warmup}\nseed = {seed}\n"
        "[checks]\nnames = little, little-observed\n"
    )


class TestLittleRowsAgainstOracles:
    # the bundle's little-observed rows: one combo per coherence class, in
    # class order
    COMBOS = (
        (SchedulingRule.LAS_IA, ObservationEpoch.RANDOM_OBSERVER),
        (SchedulingRule.EAS, ObservationEpoch.RANDOM_OBSERVER),
        (SchedulingRule.LAS_DA, ObservationEpoch.RANDOM_OBSERVER),
    )

    @settings(max_examples=30, deadline=None)
    @given(little_configs())
    @example(  # a finite population with no arrival in its horizon
        "[model]\narrival = finite-population\nsources = 1\nalpha = 0.05\n"
        "[sim]\nhorizon = 20\nwarmup = 2\nseed = 2\n[checks]\nnames = little, little-observed\n"
    )
    def test_rows_are_the_oracle_values(self, text):
        cp = configparser.ConfigParser(default_section="")
        cp.read_string(text)
        exp = cli.Experiment(cp)
        trace = exp.make_trace(exp.seed)
        a, d, w, T = trace.arrivals, trace.departures, exp.warmup, exp.horizon
        completed = (a > w) & (d <= T)
        n, span = int(completed.sum()), T - w
        if n == 0:
            with pytest.raises(InsufficientDataError):
                cli.run_verify(exp)
            return
        lam = int(((a > w) & (a <= T)).sum()) / span
        sojourn = int(trace.waits[completed].sum())
        W = sojourn / n
        want = [(int(oracle_queue_path(trace)[w + 1 :].sum()) / span, lam * W)]
        for rule, epoch in self.COMBOS:
            L_obs = int(oracle_observed_path(trace, rule, epoch)[w + 1 :].sum()) / span
            k = oracle_observed_wait(rule, epoch, 1, 2) - 1  # every customer is seen W + k slots
            want += [(L_obs, lam * (W + k)), (L_obs, lam * ((sojourn + n * k) / n))]
        rows = cli.run_verify(exp)["replications"][0]["rows"]
        assert [(r["simulated"], r["formula"]) for r in rows] == want


class TestApplicability:
    """Each check's precondition against the hand-written table above."""

    def test_table_covers_every_combination(self):
        combos = [(a, s, d) for a, s, d, _ in _applicability()]
        every = [(a, s, d) for a in ARRIVALS for s in SERVICES for d in DISCIPLINES]
        assert sorted(combos) == sorted(every)

    @pytest.mark.parametrize(
        "arrival,service,disc,applies",
        list(_applicability()),
        ids=[f"{a}-{s}-{d}" for a, s, d, _ in _applicability()],
    )
    def test_precondition_matches_the_table(self, tmp_path, arrival, service, disc, applies):
        path = tmp_path / "model.ini"
        path.write_text(
            f"[model]\n{ARRIVALS[arrival]}\nservice = {SERVICES[service]}\n{DISCIPLINES[disc]}\n\n"
            "[sim]\nhorizon = 6000\nseed = 42\n"
        )
        exp = cli.load_experiment(str(path))
        assert exp.checks == cli.CHECK_NAMES
        reasons = {name: precondition(exp.model) for name, (_, precondition) in cli.CHECKS.items()}
        assert {name for name, reason in reasons.items() if reason is None} == applies
        for name, reason in reasons.items():
            if reason is not None:  # one CSV cell, and a config error when named
                assert isinstance(reason, str) and reason and "," not in reason
                with pytest.raises(cli.ConfigError) as err:
                    exp.require(name)
                assert str(err.value) == f"check {name!r} does not apply: {reason}"
        if arrival == "finite-population" and disc != "fifo1":
            with pytest.raises(ValueError, match="requires a single FIFO server"):
                exp.make_trace(exp.seed)
            return
        trace = exp.make_trace(exp.seed)
        for name, reason in reasons.items():
            rows = cli._run_check(name, exp, trace)
            if reason is None:  # the check runs to rows, each quantity one CSV cell
                assert rows, name
                assert all(r["pass"] in (True, False) and "," not in r["quantity"] for r in rows), name
            else:
                assert rows == [_skip_row(name, reason)]


class TestWrongModels:
    """Models whose Geo/Geo/1 rows used to be checked with defaulted
    parameters: with the default check list each row passes, or skips with
    its reason."""

    # name -> (model, horizon, the checks that skip)
    MODELS = {
        "pmf-service": ("alpha = 0.3\nservice = pmf:1:0.5,2:0.3,4:0.2", 300_000, "dist, table61"),
        "renewal": (
            "arrival = renewal\ninterarrival = pmf:2:0.5,4:0.5", 100_000, "pk, workload, dist, table61"
        ),
        "finite-population": (
            "arrival = finite-population\nsources = 5\nalpha = 0.1", 200_000,
            "pk, workload, dist, table61, utilization",
        ),
        "fifo2-random": (
            "alpha = 0.6\nservers = 2\nassignment = random", 100_000, "pk, workload, dist, table61"
        ),
        "infinite-server": (
            "alpha = 0.6\ndiscipline = infinite-server", 100_000, "pk, workload, dist, table61, utilization"
        ),
    }

    @pytest.mark.parametrize("name", list(MODELS))
    def test_default_list_passes_or_skips(self, tmp_path, name):
        model, horizon, skipped = self.MODELS[name]
        path, out = tmp_path / "model.ini", tmp_path / "bundle.json"
        path.write_text(f"[model]\n{model}\n\n[sim]\nhorizon = {horizon}\n")
        assert main(["--config", str(path), "--format", "json", "--out", str(out), "verify"]) == 0
        bundle = json.loads(out.read_text())
        assert bundle["overall_pass"] is True and bundle["checks"] == list(cli.CHECK_NAMES)
        rows = bundle["replications"][0]["rows"]
        assert [r["check"] for r in rows if r["pass"] is None] == skipped.split(", ")
        for r in rows:
            assert r["pass"] is True or r["quantity"].startswith("skipped: needs "), r


class TestPathBuilds:
    """A reference verify takes every time average from one blocked pass
    over the slots, the mean workload in closed form and the busy cycles
    from the customers; no function in dtq builds a slot path whole."""

    def test_reference_verify_builds_no_slot_path(self, tmp_path, monkeypatch):
        from dtq import littles, observer

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
            (observer, "_seen_slots"),
            (littles, "_cost_profile"),
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
            ("little, little-observed, busy, utilization", [], 0),
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
        assert "beta = 0.2 is not the parameter of service = geometric:0.5" in capsys.readouterr().err

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

    # the default check list on FIFO c = 2: pk, workload, dist and table61 skip
    FIFO2_DEFAULT = (
        "[model]\nalpha = 0.6\nservers = 2\nassignment = random\n\n"
        "[sim]\nhorizon = 20000\nwarmup = 2000\nseed = 42\n"
    )

    @pytest.mark.parametrize("skips", [False, True], ids=["named", "default-with-skips"])
    def test_verify_csv_cells_parse(self, tmp_path, capsys, skips):
        path = tmp_path / "all.ini"
        path.write_text(
            self.FIFO2_DEFAULT if skips else SMALL_CONFIG.replace("little, busy", ", ".join(cli.CHECK_NAMES))
        )
        rc, out = self._run(capsys, str(path), "csv", ["verify"])
        assert rc in (0, 1)
        lines = out.splitlines()
        assert lines[0] == "check,quantity,simulated,formula,residual,tolerance,pass"
        assert {line.split(",")[0] for line in lines[1:]} == set(cli.CHECK_NAMES)
        results = []
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 7, line
            *numbers, passed = cells[2:]
            assert passed in ("True", "False", "None"), line
            assert (passed == "None") == cells[1].startswith("skipped: "), line
            results.append(passed)
            for cell in numbers:
                float(cell)
        assert ("None" in results) == skips

    def test_skip_rows_in_every_format(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "fifo2.ini"
        path.write_text(self.FIFO2_DEFAULT)

        def no_constants(name):
            raise AssertionError(f"{name} in a bundle")

        outs = {}
        for fmt in ("json", "text"):
            rc, outs[fmt] = self._run(capsys, str(path), fmt, ["verify"])
            assert rc == 0, fmt  # only pass and skip rows
        bundle = json.loads(outs["json"], parse_constant=no_constants)
        rows = bundle["replications"][0]["rows"]
        skips = [r for r in rows if r["pass"] is None]
        assert [r["check"] for r in skips] == ["pk", "workload", "dist", "table61"]
        assert skips == [_skip_row(r["check"], "needs one FIFO server") for r in skips]
        assert all(list(r) == list(rows[0]) for r in rows)
        assert bundle["replications"][0]["pass"] is True and bundle["overall_pass"] is True
        lines = outs["text"].splitlines()
        assert [line.split()[0] for line in lines if line.endswith("  SKIP")] == [r["check"] for r in skips]
        assert lines[-1] == "overall: PASS"
        # one failing row beside the skip rows fails the run
        def failing(exp, trace):
            return [littles.Row("L", 1.0, 0.0, 0.0)]

        monkeypatch.setitem(cli.CHECKS, "little", (failing, cli.CHECKS["little"][1]))
        rc, out = self._run(capsys, str(path), "json", ["verify"])
        assert rc == 1
        bundle = json.loads(out, parse_constant=no_constants)
        assert bundle["replications"][0]["pass"] is False and bundle["overall_pass"] is False
        assert [r["check"] for r in bundle["replications"][0]["rows"] if r["pass"] is None] == [
            r["check"] for r in skips
        ]


def _bench_module(name):
    """bench/<name>.py, loaded by path; the module is registered while it
    runs, because dataclasses look their module up."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}_for_test", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


# sha256 of the `dtq verify` output on the benchmark's models at a tenth of
# their bench horizon.  A change that keeps every simulated number and every
# format keeps these; a change that moves them on purpose re-baselines them.
GOLDEN_VERIFY_SHA256 = {
    ("ref", 42, "json"): "37222e8e3182b7f446ba7899cac422da64074391327e9f7bb0bee727c232615f",
    ("ref", 42, "csv"): "ba904a3a6dfd1005bee49849e9075a9cdc2cb9223fc30ba3f8fba8601ea096b6",
    ("ref", 42, "text"): "01c6774723070df7bbfaaf7df4de5f6bb6889901e13b262db8f9af0bcadd8511",
    ("ref", 7, "json"): "b281070615dc357d26f49e3297567977fe73796e4ec33923f4805bc8027dab2c",
    ("ref", 7, "csv"): "6f737261e2b201d6f90746cdaf8ff0fbc59dfb332279e134c450a12dda9dbf7f",
    ("ref", 7, "text"): "fea49454990a8b0014f946a3f35e07ae160ab7fa92cc4ac513a88e79cf28ce09",
    ("ref", 99, "json"): "6404bf38f5625e39d7a3de5bd35b4d162181234dbce3fd374e195a156f063de1",
    ("ref", 99, "csv"): "9b116e06ac015ff7df11ed6a036d3749e927c708792b0d62f326c347d9427197",
    ("ref", 99, "text"): "49d0ccd6d1bd66a0b4e6a368e18d53ac650462f6fa3ed52155923455a1433053",
    ("fifo2-random", 42, "json"): "063c8a89f88b5e44a8e641e847eb945beb49b09d932e14956b0df27ba6d1a343",
    ("fifo2-random", 42, "csv"): "16aa8ae3ba4e663960ef2c54370970fa4fba04efe7536562fe81d632f95430d3",
    ("fifo2-random", 42, "text"): "c295574d4f62495748d896b754c8fcf8072cfb8cc2f3929b771e02cca26a613d",
    ("fifo2-random", 7, "json"): "5a28552808c83e49f28f00b12c8dfa2df340720795b5e4e8d2232d26b7a8e7ad",
    ("fifo2-random", 7, "csv"): "3f8e44d24554fe69e4b6a017b0412dd1e589fa3d97f5e3b62d0a4ba2457ece31",
    ("fifo2-random", 7, "text"): "c91f3ee2bb55e76bb0bfe25532eb40087988eefc9615c8a6afd8e34f8d18eb40",
    ("fifo2-random", 99, "json"): "af4292141e5faba7649fe072621a5939248e41e65a9e24697b0a052a197a8713",
    ("fifo2-random", 99, "csv"): "dfa8bdc4a56b49b479e14ec355a3d77f5f7c03dc69e27eb0b280243c2b1a547c",
    ("fifo2-random", 99, "text"): "540cba0ee83a797422552190f98396b2a8410f01421804375e40235ee51040d5",
    ("finite-population", 42, "json"): "2b9745aa9065aa8f8ca03fb56dd8213a321ac44b0f560ee7549e5e89cba83116",
    ("finite-population", 42, "csv"): "c43abd29176729bc4ffda9e9ef53f19c44e0c6208694a88ea2aa2137669f81d8",
    ("finite-population", 42, "text"): "029e7522a3a5e1f210ebb5c01fa596a01fb561547b37b1187c08e8402f10c6cb",
    ("finite-population", 7, "json"): "835ee0c8d6525e6fc80f8bfaae1480ce7b99663d291eb93327b1675988c80c98",
    ("finite-population", 7, "csv"): "cc5cd9eef0042781c9fe8a767e5cfdeefa86cb7521f487a64daa7f76cd3a4ecb",
    ("finite-population", 7, "text"): "b5c4a590f5cca735f860201aa0e664dc90980df00ad4ed5fdae9110e5685b96b",
    ("finite-population", 99, "json"): "0cf961e89f852eb8f90a297f8cd7cb3232b1dfbe3939f12c380bbf6dfbe153f4",
    ("finite-population", 99, "csv"): "3ef23fcb87e529205c44640dc32d11a431d524c9b249591d247fa14047864121",
    ("finite-population", 99, "text"): "6570ba1fe50b6bb5abf35c120566176e97e031a1f253f7bd497d8c973992d959",
}

# sha256 of the `dtq simulate --out` file on the same models and seeds: the
# trace writer's bytes, which the benchmark's trace-roundtrip reads back
GOLDEN_SIMULATE_SHA256 = {
    ("ref", 42): "4e7f2132c79885f9adae17d127b178237472ea06bec09f9eeb52488a1cb9f3c1",
    ("ref", 7): "d4f7e8125796b59d86dcd6fc229637b77e8fb239a307266e30afe66c314bfd8a",
    ("ref", 99): "239d7c631310ceadc4bad0e32bd4fc91de4c28ba0956bb9f07f217b3438ad4e5",
    ("fifo2-random", 42): "89fce3ca0cfe34e36d3dc73f3a3bf4a292996646954d98868b8509a42aa09dbb",
    ("fifo2-random", 7): "3e6fa59139fb0be4edb56913acf3dc0c1d29fda8260519e6170b8ac5805190f4",
    ("fifo2-random", 99): "d967f6981f612737f5d8790f375b36ddd385cab55c5637b925ad70c4b07d86d4",
    ("finite-population", 42): "2b6af58c23af67b6d8e067c6abc42c8fd6ac5a690bac47c386ce762f24406ac2",
    ("finite-population", 7): "5981021857da31048cd6898c4bd14fafd1ffbafb5cfb6dccff3f950c452e9c9f",
    ("finite-population", 99): "78550d8e1b00456af88c83b1e08ef515d8d324ed0e412c343f75e9376d9c955c",
}


class TestGoldenBytes:
    # config name -> (model, checks, horizon), by bench/workloads.py's names
    CONFIGS = {
        "ref": ("REF_MODEL", "ALL_CHECKS", 100_000),
        "fifo2-random": ("FIFO2_RANDOM_MODEL", "MODEL_FREE_CHECKS", 50_000),
        "finite-population": ("FINITE_POPULATION_MODEL", "MODEL_FREE_CHECKS", 50_000),
    }

    @pytest.fixture(scope="class")
    def configs(self, tmp_path_factory):
        workloads = _bench_module("workloads")
        folder = tmp_path_factory.mktemp("golden")
        paths = {}
        for name, (model, checks, horizon) in self.CONFIGS.items():
            path = folder / f"{name}.ini"
            path.write_text(
                workloads.config_text(getattr(workloads, model), horizon, getattr(workloads, checks))
            )
            paths[name] = str(path)
        return paths

    @pytest.mark.parametrize("name,seed,fmt", list(GOLDEN_VERIFY_SHA256))
    def test_verify_output_bytes(self, configs, capsys, name, seed, fmt):
        argv = ["--config", configs[name], "--seed", str(seed), "--format", fmt, "verify"]
        assert main(argv) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == GOLDEN_VERIFY_SHA256[name, seed, fmt]

    @pytest.mark.parametrize("name,seed", list(GOLDEN_SIMULATE_SHA256))
    def test_simulate_output_bytes(self, configs, tmp_path, name, seed):
        from dataclasses import fields

        import numpy as np

        from dtq.engine import Trace, read_trace_csv

        path = tmp_path / "trace.csv"
        assert main(["--config", configs[name], "--seed", str(seed), "--out", str(path), "simulate"]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SIMULATE_SHA256[name, seed]
        exp = cli.load_experiment(configs[name], seed)
        written = exp.make_trace(exp.seed)
        back = read_trace_csv(path, horizon=exp.horizon)
        for f in fields(Trace):
            got, want = getattr(back, f.name), getattr(written, f.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and np.array_equal(got, want), f.name
            else:
                assert got == want, f.name


    # what bench/workloads.py reads of an Experiment: alpha and service.mean()
    # (trace-roundtrip's utilization target), warmup and seed, at its horizons
    BENCH_READS = {"ref": 0.3, "fifo2-random": 0.6, "finite-population": 0.05}

    @pytest.mark.parametrize("name", list(CONFIGS))
    @pytest.mark.parametrize("seed", [None, 7])
    def test_bench_reads_of_the_experiment(self, configs, name, seed):
        from dtq.engine import DiscreteDist

        exp = cli.load_experiment(configs[name], seed)
        horizon = self.CONFIGS[name][2]
        assert exp.alpha == self.BENCH_READS[name]
        assert exp.service.mean() == DiscreteDist.geometric(0.5).mean()
        assert (exp.horizon, exp.warmup, exp.seed) == (horizon, horizon // 10, 42 if seed is None else seed)
        # every check the bench names applies, so none is a config error
        checks = getattr(_bench_module("workloads"), self.CONFIGS[name][1])
        assert exp.checks == tuple(checks.split(", "))
        assert [cli.CHECKS[n][1](exp.model) for n in exp.checks] == [None] * len(exp.checks)


class TestBenchWorkloads:
    @pytest.mark.parametrize("name", list(_bench_module("workloads").WORKLOADS))
    def test_smoke_unit_fails_no_operation(self, tmp_path, name):
        # one smoke-size unit of work of the benchmark, in process, as its
        # worker runs it: every dtq call it makes must still work
        import numpy

        from dtq import coherence, engine, timebase

        workloads = _bench_module("workloads")
        workload = workloads.WORKLOADS[name]
        configs = {}
        for config, text in workload.inputs(smoke=True).items():
            configs[config] = str(tmp_path / f"{config}.ini")
            pathlib.Path(configs[config]).write_text(text)
        # mirrors the modules and Context that bench/worker.py builds for a unit
        modules = {"numpy": numpy, "cli": cli, "coherence": coherence, "engine": engine,
                   "littles": littles, "timebase": timebase}
        experiments = {config: cli.load_experiment(path, 42) for config, path in configs.items()}
        ctx = workloads.Context(
            modules, 42, configs, experiments, str(tmp_path), hlg_slots=workload.smoke_hlg_slots
        )
        workload.check(ctx, workload.work(ctx))
        assert ctx.ops.attempted > 0
        assert ctx.ops.failed == []


class TestCheckRegistry:
    def test_names_match_bench_tracer(self):
        # the benchmark names one cli.check.<name> span per entry of its CHECKS
        assert cli.CHECK_NAMES == _bench_module("tracer").CHECKS

    @pytest.mark.parametrize("klass", list(CoherenceClass))
    def test_class_combo_represents_its_class(self, klass):
        assert classify(*cli._CLASS_COMBOS[klass]) is klass

    # the library calls whose rows a check reports, one Rows per call
    LIBRARY_ROWS = {
        "little": lambda trace, w: [littles.check_little(trace, w)],
        "little-observed": lambda trace, w: [
            littles.check_little_observed(trace, rule, epoch, w)
            for rule, epoch in cli._CLASS_COMBOS.values()
        ],
        "pk": lambda trace, w: [littles.verify_pk(trace, w)],
        "workload": lambda trace, w: [littles.check_workload(trace, w)],
    }

    @pytest.mark.parametrize("name", list(LIBRARY_ROWS))
    def test_bundle_rows_are_the_library_rows(self, small_config, name):
        # the library decides every verdict; the bundle only reports it
        exp = cli.load_experiment(small_config)
        trace = exp.make_trace(exp.seed)
        calls = self.LIBRARY_ROWS[name](trace, exp.warmup)
        library = [row for rows in calls for row in rows]
        got = cli._run_check(name, exp, trace)
        assert got == [cli._row(name, row) for row in library]
        for r, row in zip(got, library):
            assert (r["quantity"], r["simulated"], r["formula"], r["tolerance"]) == tuple(row)
            assert (r["residual"], r["pass"]) == (row.residual, row.passed)
        assert all(rows.passed for rows in calls) == all(r["pass"] for r in got)


class TestPublicSurface:
    def test_bench_tracer_finds_every_target(self, monkeypatch):
        # every function the benchmark wraps still exists, but five deleted
        # layers that no check called, three of them the slot-path forms:
        # its span list names them until its per-layer refresh; the
        # wrappers are undone afterwards by re-setting each original
        # through monkeypatch
        tracer = _bench_module("tracer")
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
        assert tracer.install(tracer.Recorder()) == [
            "engine.Trace.queue_path",
            "timebase.observation_span",
            "observer.observed_queue_path",
            "littles.workload_path",
            "busy.state_rates",
        ]

    def test_every_exported_name_resolves(self):
        import dtq

        for info in pkgutil.iter_modules(dtq.__path__):
            module = importlib.import_module(f"dtq.{info.name}")
            missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
            assert missing == [], info.name
