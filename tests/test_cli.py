import dataclasses
import gc
import json
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import random_config

from optiqft import (DetectorTrace, ExperimentConfig, FitOptions, Loss, Mirror,
                     Phase, Splitter, calibrate, compose, CircuitDescription,
                     default_phi_grid, detector_intensity_curves, fit,
                     fourier_setpoints, qft_matrix, reference_intensities,
                     synthesize_measured_trace, theoretical_curves)
from optiqft.cli import main
from optiqft.elements import _kind


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

    def test_report_has_tuned_setting_and_reruns_identically(self, runner,
                                                             config_file,
                                                             tmp_path):
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            assert runner.invoke(main, ["calibrate", "--config", str(config_file),
                                        "--out", str(out)]).exit_code == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        cfg = ExperimentConfig.from_json(config_file.read_text())
        x = json.loads(outs[0].read_text())["x"]
        assert x == list(calibrate(cfg).x)
        grid = default_phi_grid(120)
        got = detector_intensity_curves(x, grid, cfg, 1.0, np.pi)
        assert np.max(np.abs(got - reference_intensities(grid, cfg))) <= 1e-9

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

    def test_dark_subtracted_trace_fits(self, runner, config_file, tmp_path):
        # a trace with its dark level subtracted reads below 0
        trace_path = tmp_path / "trace.csv"
        runner.invoke(main, ["synth", "--config", str(config_file), "--out",
                             str(trace_path), "--seed", "3", "--noise", "0.01",
                             "--grid", "90"])
        trace = DetectorTrace.from_csv(trace_path.read_text())
        dark = DetectorTrace(trace.phi, trace.intensities - 0.05)
        assert dark.intensities.min() < 0.0
        trace_path.write_text(dark.to_csv())
        out = tmp_path / "f.json"
        result = runner.invoke(main, ["fit", "--trace", str(trace_path),
                                      "--config", str(config_file), "--out",
                                      str(out), "--no-multistart"])
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text())["model"]["bias"][0] < 0.0

    def test_negative_bias_round_trip(self, runner, config_file, tmp_path):
        # synth writes a dark-subtracted trace as it is, below 0 where the
        # noise takes it, and fit reads its biases back with their sign
        trace_path, out = tmp_path / "trace.csv", tmp_path / "f.json"
        synth = runner.invoke(main, ["synth", "--config", str(config_file), "--out",
                                     str(trace_path), "--bias", "-0.05,-0.05,-0.05",
                                     "--noise", "0.01", "--grid", "120"])
        assert synth.exit_code == 0, synth.output
        assert DetectorTrace.from_csv(trace_path.read_text()).intensities.min() < 0.0
        result = runner.invoke(main, ["fit", "--trace", str(trace_path),
                                      "--config", str(config_file), "--out",
                                      str(out), "--no-multistart"])
        assert result.exit_code == 0, result.output
        np.testing.assert_allclose(json.loads(out.read_text())["model"]["bias"],
                                   -0.05, atol=0.01)

    def test_undetermined_trace_exits_2(self, runner, tmp_path):
        cfg = ExperimentConfig.default().replace(t_phi=0.0)
        cfg = cfg.replace(x=fourier_setpoints(cfg))
        config, trace_path, out = (tmp_path / name for name in
                                   ("dead.json", "trace.csv", "f.json"))
        config.write_text(cfg.to_json())
        trace_path.write_text(synthesize_measured_trace(cfg, grid=120).to_csv())
        result = runner.invoke(main, ["fit", "--trace", str(trace_path), "--config",
                                      str(config), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "cannot fit trace" in result.output and "does not determine" in result.output
        assert not out.exists()

    def test_unreadable_trace_exits_2(self, runner, config_file, tmp_path):
        result = runner.invoke(main, ["fit", "--trace", str(tmp_path / "none.csv"),
                                      "--config", str(config_file), "--out",
                                      str(tmp_path / "f.json")])
        assert result.exit_code == 2
        assert "cannot read trace" in result.output

    def test_short_trace_exits_2(self, runner, config_file, tmp_path):
        trace_path = tmp_path / "trace.csv"
        runner.invoke(main, ["synth", "--config", str(config_file), "--out",
                             str(trace_path), "--grid", "20"])
        out = tmp_path / "f.json"
        result = runner.invoke(main, ["fit", "--trace", str(trace_path),
                                      "--config", str(config_file), "--out", str(out)])
        assert result.exit_code == 2
        assert "cannot fit trace" in result.output and ">= 30 points" in result.output
        assert not out.exists()

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

    @pytest.mark.parametrize("dim, u", [(2.9, np.eye(2)), (True, np.eye(1)),
                                        (3.0, np.eye(3)), ("3", np.eye(3))],
                             ids=["2.9", "true", "3.0", "string"])
    def test_non_integer_dim_exits_2(self, runner, tmp_path, dim, u):
        # dim used to be truncated: 2.9 read as 2, true as 1
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"dim": dim, "real": u.tolist(),
                                    "imag": np.zeros_like(u).tolist()}))
        out = tmp_path / "n.json"
        result = runner.invoke(main, ["decompose", "--matrix", str(path),
                                      "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "'dim' must be an integer" in result.output
        assert not out.exists()

    def test_shape_not_matching_dim_exits_2(self, runner, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"dim": 3, "real": np.eye(2).tolist(),
                                    "imag": np.zeros((2, 2)).tolist()}))
        result = runner.invoke(main, ["decompose", "--matrix", str(path),
                                      "--out", str(tmp_path / "n.json")])
        assert result.exit_code == 2
        assert "does not match dim" in result.output

    def test_unreadable_matrix_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["decompose", "--matrix",
                                      str(tmp_path / "none.json"),
                                      "--out", str(tmp_path / "n.json")])
        assert result.exit_code == 2
        assert "cannot read matrix" in result.output

    @pytest.mark.parametrize("part, bad", [("real", np.nan), ("real", np.inf),
                                           ("imag", -np.inf)])
    def test_non_finite_entry_exits_2(self, runner, tmp_path, part, bad):
        # malformed input, not a non-unitary matrix (exit 4); json writes
        # and reads NaN and Infinity
        u = qft_matrix(3)
        parts = {"real": u.real.copy(), "imag": u.imag.copy()}
        parts[part][1, 2] = bad
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"dim": 3, **{k: v.tolist() for k, v in parts.items()}}))
        out = tmp_path / "n.json"
        result = runner.invoke(main, ["decompose", "--matrix", str(path),
                                      "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert f"'{part}' must be finite" in result.output
        assert not out.exists()

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
    ["synth", "--scale", "1,-1,1"],
    ["synth", "--noise", "-1"], ["synth", "--scale", "nan,1,1"],
    ["synth", "--phase-scale", "inf"], ["synth", "--grid", "-3"],
    ["synth", "--grid", "0"], ["curves", "--grid", "-3"],
    ["curves", "--grid", "0"], ["synth", "--seed", "-1"],
    ["synth", "--seed", "-1", "--noise", "0.1"]], ids=" ".join)
def test_bad_option_value_exits_2(runner, config_file, tmp_path, args):
    out = tmp_path / "out.csv"
    result = runner.invoke(main, args + ["--config", str(config_file),
                                         "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "bad option value" in result.output
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    pytest.param(args, message, id=" ".join(args)) for args, message in [
        (["--scale", "1,1"], "'scale' needs 3 entries, got 2"),
        (["--bias", "0,0,0,0"], "'bias' needs 3 entries, got 4"),
        (["--dx", "0,0,0"], "comma-separated"),
        (["--dx", "0,0,0,0,0"], "comma-separated")]])
def test_wrong_value_count_exits_2(runner, config_file, tmp_path, args, message):
    # scale and bias are counted by FitModel's length rule alone
    out = tmp_path / "out.csv"
    result = runner.invoke(main, ["synth", *args, "--config", str(config_file),
                                  "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["curves", "calibrate"])
@pytest.mark.parametrize("text", ["null", "5", '{"chi0": 0.8, "alpha": "1234"}',
                                  '{"chi0": 0.8, "x": "0000"}', '{"chi0": true}'],
                         ids=["null", "5", "alpha-string", "x-string", "chi0-bool"])
def test_bad_config_exits_2(runner, tmp_path, command, text):
    # null and 5 used to end in a TypeError traceback; the strings and the
    # bool used to be read as (1, 2, 3, 4), (0, 0, 0, 0) and 1.0
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    out = tmp_path / "out"
    result = runner.invoke(main, [command, "--config", str(bad), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "malformed config" in result.output
    assert not out.exists()


@pytest.mark.parametrize("text", [None, "{not json", "[1, 2]"],
                         ids=["missing", "unparsable", "list"])
@pytest.mark.parametrize("what", ["config", "trace", "matrix"])
def test_unreadable_or_malformed_input_exits_2(runner, config_file, tmp_path, what,
                                               text):
    # one reader serves every input file: a missing file, text that does not
    # parse and JSON of the wrong shape each exit 2, naming the input
    path, out = tmp_path / "input", tmp_path / "out"
    if text is not None:
        path.write_text(text)
    args = {"config": ["curves", "--config", path],
            "trace": ["fit", "--trace", path, "--config", config_file],
            "matrix": ["decompose", "--matrix", path]}[what]
    result = runner.invoke(main, [*map(str, args), "--out", str(out)])
    assert result.exit_code == 2, result.output
    failure = "cannot read" if text is None else "malformed"
    assert f"error: {failure} {what} {path}: " in result.output
    assert not out.exists()


@pytest.mark.parametrize("blocked", ["directory", "manifest"])
@pytest.mark.parametrize("command", ["synth", "fit", "curves", "calibrate",
                                     "decompose"])
def test_unwritable_output_exits_2(runner, config_file, tmp_path, command,
                                   blocked):
    # a missing --out directory used to end in a FileNotFoundError traceback
    # and exit 1; a directory in the manifest's place blocks the manifest
    cfg = ExperimentConfig.from_json(config_file.read_text())
    trace, matrix = tmp_path / "trace.csv", tmp_path / "matrix.json"
    trace.write_text(theoretical_curves(cfg, grid=90).to_csv())
    u = qft_matrix(3)
    matrix.write_text(json.dumps({"dim": 3, "real": u.real.tolist(),
                                  "imag": u.imag.tolist()}))
    inputs = {"synth": ["--config", config_file, "--grid", "90"],
              "fit": ["--trace", trace, "--config", config_file, "--no-multistart"],
              "curves": ["--config", config_file, "--grid", "90"],
              "calibrate": ["--config", config_file],
              "decompose": ["--matrix", matrix]}[command]
    out = tmp_path / "missing" / "out"
    if blocked == "manifest":
        out = tmp_path / "out"
        (tmp_path / "out.manifest.json").mkdir()
    result = runner.invoke(main, [command, *map(str, inputs), "--out", str(out)])
    assert result.exit_code == 2, result.output
    unwritable = out if blocked == "directory" else tmp_path / "out.manifest.json"
    assert f"error: cannot write {unwritable}: " in result.output


def test_invocations_keep_no_memory(runner, config_file, tmp_path):
    # click.echo without a file caches a wrapper of each new sys.stdout in a
    # map that never drops an entry, so every CliRunner call used to keep its
    # streams and captured output: about 1.5 kB (calibrate) and 1.6 kB (a
    # failing fit) per call.  Each call writes a new --out file, since
    # overwriting one took about 50 ms on an ext4 host.
    calls = [(["calibrate", "--config", str(config_file)], 0),
             (["fit", "--trace", str(tmp_path / "missing.csv"), "--config",
               str(config_file)], 2)]

    def invoke(args, code, name):
        result = runner.invoke(main, [*args, "--out", str(tmp_path / name)])
        assert result.exit_code == code, result.output

    for args, code in calls:
        for i in range(10):
            invoke(args, code, f"warm{i}.json")
    tracemalloc.start()
    try:
        for args, code in calls:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for i in range(200):
                invoke(args, code, f"{i}.json")
            gc.collect()
            kept = (tracemalloc.get_traced_memory()[0] - before) / 200
            assert kept <= 256, f"{args[0]} keeps {kept:.0f} B per invocation"
    finally:
        tracemalloc.stop()


def _listed(data: dict) -> dict:
    return {key: list(value) if isinstance(value, tuple) else value
            for key, value in data.items()}


def _clear(value):
    """Empty every dict and list in a to_dict payload, depth first."""
    for item in value.values() if isinstance(value, dict) else value:
        if isinstance(item, (dict, list)):
            _clear(item)
    value.clear()


def _single_start_fit():
    cfg = ExperimentConfig.default()
    cfg = cfg.replace(x=fourier_setpoints(cfg))
    trace = synthesize_measured_trace(cfg, noise_sigma=0.01, seed=4, grid=90)
    return fit(trace, cfg, options=FitOptions(multistart_offsets=(0.0,)))


@pytest.mark.parametrize("build, reference", [
    (_single_start_fit, lambda r: _listed(dataclasses.asdict(r))),
    (lambda: calibrate(random_config(np.random.default_rng(26))),
     lambda r: {**dataclasses.asdict(r), "max_offset": r.max_offset}),
    (lambda: CircuitDescription(3, (Splitter(0, 2, 0.3, 1.2, -0.4), Phase(1, 2.5),
                                    Loss(2, 0.875), Mirror(0, np.float64(-1.5)))),
     lambda c: {"dim": c.dim, "elements": [{"kind": _kind(el)[0], **dataclasses.asdict(el)}
                                           for el in c.elements]}),
    (lambda: random_config(np.random.default_rng(7)),
     lambda c: _listed(dataclasses.asdict(c))),
], ids=["fit", "calibration", "circuit", "config"])
def test_to_dict_matches_asdict_and_is_a_copy(build, reference):
    # the JSON payloads equal those of the deep-copying dataclasses.asdict
    # formulas they replaced, and share no dict or list with the object
    obj = build()
    expected = json.dumps(reference(obj), sort_keys=True)
    payload = obj.to_dict()
    assert json.dumps(payload, sort_keys=True) == expected
    _clear(payload)
    assert json.dumps(obj.to_dict(), sort_keys=True) == expected
