import json

import pytest

from dtq import cli
from dtq.cli import main


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
        assert header == "k,A,S,Astart,D"

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

    def test_table61_json(self, capsys):
        assert main(["--format", "json", "table61"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 30

    def test_simulate_writes_trace(self, small_config, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["--config", small_config, "--out", str(out), "simulate"]) == 0
        assert out.read_text().startswith("k,A,S,Astart,D")

    def test_simulate_requires_out(self, small_config, capsys):
        assert main(["--config", small_config, "simulate"]) == 2
