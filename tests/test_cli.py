import json

import numpy as np
import pytest
from click.testing import CliRunner

from optiqft import (DetectorTrace, ExperimentConfig, compose,
                     CircuitDescription, fourier_setpoints, qft_matrix)
from optiqft.cli import main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def config_file(tmp_path):
    cfg = ExperimentConfig.default()
    cfg = cfg.replace(x=fourier_setpoints(cfg))
    path = tmp_path / "config.json"
    path.write_text(cfg.to_json())
    return path


class TestCurves:
    def test_fixed_mode(self, runner, config_file, tmp_path):
        out = tmp_path / "curves.csv"
        result = runner.invoke(main, ["curves", "--config", str(config_file),
                                      "--out", str(out), "--mode", "fixed"])
        assert result.exit_code == 0, result.output
        trace = DetectorTrace.from_csv(out.read_text())
        assert len(trace.phi) == 720
        assert trace.intensities.max() < 1.0
        assert (tmp_path / "curves.csv.manifest.json").exists()

    def test_ideal_mode_winners(self, runner, config_file, tmp_path):
        out = tmp_path / "ideal.csv"
        result = runner.invoke(main, ["curves", "--config", str(config_file),
                                      "--out", str(out), "--mode", "ideal"])
        assert result.exit_code == 0
        trace = DetectorTrace.from_csv(out.read_text())
        for m in range(3):
            assert trace.intensities[240 * m, m] == pytest.approx(1.0, abs=1e-12)

    def test_malformed_config_names_key(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"chi0": 0.8, "t_glass": 0.9}))
        out = tmp_path / "out.csv"
        result = runner.invoke(main, ["curves", "--config", str(bad),
                                      "--out", str(out)])
        assert result.exit_code == 2
        assert "t_glass" in result.output

    def test_missing_config_file(self, runner, tmp_path):
        result = runner.invoke(main, ["curves", "--config",
                                      str(tmp_path / "none.json"),
                                      "--out", str(tmp_path / "o.csv")])
        assert result.exit_code == 2


class TestCalibrateCommand:
    def test_report(self, runner, config_file, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["calibrate", "--config", str(config_file),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        assert len(report["steps"]) == 4
        assert report["max_offset"] < 1e-6
        for step in report["steps"]:
            assert step["residual"] < 1e-9

    def test_report_has_fringe_margins(self, runner, config_file, tmp_path):
        out = tmp_path / "report.json"
        runner.invoke(main, ["calibrate", "--config", str(config_file),
                             "--out", str(out)])
        for step in json.loads(out.read_text())["steps"]:
            assert {"visibility", "slope", "root_gap"} <= set(step)
            assert 0.0 < step["visibility"] <= 1.0
            assert np.sign(step["slope"]) == step["branch"]

    def test_degenerate_exits_3(self, runner, tmp_path):
        cfg = ExperimentConfig.default().replace(t_2phi=0.0)
        path = tmp_path / "degenerate.json"
        path.write_text(cfg.to_json())
        result = runner.invoke(main, ["calibrate", "--config", str(path),
                                      "--out", str(tmp_path / "r.json")])
        assert result.exit_code == 3


class TestSynthFitRoundTrip:
    def test_synth_deterministic(self, runner, config_file, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["synth", "--config", str(config_file), "--seed", "7",
                "--noise", "0.01", "--grid", "120"]
        assert runner.invoke(main, args + ["--out", str(out1)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(out2)]).exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()
        m1 = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        m2 = json.loads((tmp_path / "b.csv.manifest.json").read_text())
        m1["outputs"], m2["outputs"] = None, None
        assert m1 == m2

    def test_round_trip_recovers_offsets(self, runner, config_file, tmp_path):
        trace_path = tmp_path / "trace.csv"
        fit_path = tmp_path / "fit.json"
        synth = runner.invoke(main, [
            "synth", "--config", str(config_file), "--out", str(trace_path),
            "--seed", "11", "--noise", "0.005", "--grid", "120",
            "--dx", "-0.25,0.16,-0.2,-0.28"])
        assert synth.exit_code == 0, synth.output
        fit_run = runner.invoke(main, [
            "fit", "--trace", str(trace_path), "--config", str(config_file),
            "--out", str(fit_path), "--no-multistart"])
        assert fit_run.exit_code == 0, fit_run.output
        payload = json.loads(fit_path.read_text())
        delta = np.asarray(payload["delta_x"])
        np.testing.assert_allclose(delta, [-0.25, 0.16, -0.2, -0.28], atol=0.05)
        assert abs(payload["model"]["phase_scale"] - 1.0) < 0.01
        assert "report" in payload

    def test_fit_deterministic(self, runner, config_file, tmp_path):
        trace_path = tmp_path / "trace.csv"
        runner.invoke(main, ["synth", "--config", str(config_file), "--out",
                             str(trace_path), "--seed", "3", "--noise", "0.01",
                             "--grid", "90"])
        f1, f2 = tmp_path / "f1.json", tmp_path / "f2.json"
        args = ["fit", "--trace", str(trace_path), "--config",
                str(config_file), "--no-multistart"]
        assert runner.invoke(main, args + ["--out", str(f1)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(f2)]).exit_code == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_malformed_trace(self, runner, config_file, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("phi,a,b\n0,1,2\n")
        result = runner.invoke(main, ["fit", "--trace", str(bad), "--config",
                                      str(config_file), "--out",
                                      str(tmp_path / "f.json")])
        assert result.exit_code == 2


class TestDecompose:
    def write_matrix(self, tmp_path, u):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"dim": u.shape[0], "real": u.real.tolist(),
                                    "imag": u.imag.tolist()}))
        return path

    def test_round_trip(self, runner, tmp_path):
        u = qft_matrix(3)
        path = self.write_matrix(tmp_path, u)
        out = tmp_path / "netlist.json"
        result = runner.invoke(main, ["decompose", "--matrix", str(path),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        circuit = CircuitDescription.from_json(out.read_text())
        assert np.max(np.abs(compose(circuit) - u)) < 1e-10

    def test_non_unitary_exits_4(self, runner, tmp_path):
        u = np.eye(3) * 1.05
        path = self.write_matrix(tmp_path, u)
        result = runner.invoke(main, ["decompose", "--matrix", str(path),
                                      "--out", str(tmp_path / "n.json")])
        assert result.exit_code == 4

    def test_malformed_matrix_exits_2(self, runner, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"dim": 3, "real": [[1, 0], [0, 1]]}))
        result = runner.invoke(main, ["decompose", "--matrix", str(path),
                                      "--out", str(tmp_path / "n.json")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_bad_tol_exits_2(self, runner, tmp_path, tol):
        path = self.write_matrix(tmp_path, qft_matrix(3))
        out = tmp_path / "n.json"
        result = runner.invoke(main, ["decompose", "--matrix", str(path),
                                      "--out", str(out), "--tol", tol])
        assert result.exit_code == 2, result.output
        assert "bad option value" in result.output
        assert not out.exists()


@pytest.mark.parametrize("args", [
    ["synth", "--scale", "1,-1,1"], ["synth", "--bias", "0,-0.1,0"],
    ["synth", "--noise", "-1"], ["synth", "--scale", "nan,1,1"],
    ["synth", "--phase-scale", "inf"], ["synth", "--grid", "-3"],
    ["synth", "--grid", "0"], ["curves", "--grid", "-3"],
    ["curves", "--grid", "0"]], ids=" ".join)
def test_bad_option_value_exits_2(runner, config_file, tmp_path, args):
    out = tmp_path / "out.csv"
    result = runner.invoke(main, args + ["--config", str(config_file),
                                         "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "bad option value" in result.output
    assert not out.exists()
