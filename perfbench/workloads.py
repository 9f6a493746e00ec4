"""The perfbench workloads: inputs made from a seed, one operation through
optiqft's public API, and a check of that operation's result.

Each workload object offers:

- ``make(index)``: the inputs of operation ``index``, drawn from
  ``numpy.random.default_rng([seed, index])``, so a seed always gives the
  same inputs. Index 0 is the warm-up; measured operations start at 1.
- ``warm_up()``: one operation on the index-0 inputs, run during set-up.
- ``run(inputs)``: the timed operation.
- ``check(inputs, output)``: a dict with ``ok`` and what was observed.
- ``release(inputs)``: drops files the inputs own.

Only names and CLI flags that the repository's own tests already call are
used, so a change that keeps those tests green keeps this benchmark running.
"""

from __future__ import annotations

import contextlib
import json
import shutil
from pathlib import Path

import numpy as np

import optiqft

TWO_PI = 2.0 * np.pi

#: The CLI's default grid. fit() rejects endpoint-free grids of fewer than
#: 100 points (span check), so a failed_ratio of 0 here says nothing about
#: shorter grids.
GRID = 720
#: Gaussian noise sigma as a share of the clean trace's peak intensity.
#: On noiseless traces the fit's early stop fires after two starts, which
#: measured data never allow.
NOISE_SHARE = 0.01
#: Planted offsets from the nominal setpoints are uniform in +-OFFSET_RANGE.
OFFSET_RANGE = 0.3

PHASE_TOL = 0.05          # acceptance criterion 8
PHASE_SCALE_TOL = 0.01    # acceptance criterion 8
CALIBRATION_TOL = 1e-6    # acceptance criterion 6
CLOSED_LOOP_TOL = 1e-9
RECOMPOSE_TOL = 1e-10
MAX_OFFSET_TOL = 1e-6

#: The model is unchanged under (mu, x) -> (mu + d, x + d * (-1, -1, 0, 1)),
#: so only x + mu * GAUGE is identifiable from a trace.
GAUGE = np.array([1.0, 1.0, 0.0, -1.0])


def wrap_pi(angles) -> np.ndarray:
    return (np.asarray(angles, dtype=float) + np.pi) % TWO_PI - np.pi


def gauge_error(delta_x, mu: float, planted) -> float:
    """Largest gauge-invariant phase error of a fit: the fitted offsets
    moved to mu = 0, compared with the planted offsets, wrapped."""
    moved = np.asarray(delta_x, dtype=float) + mu * GAUGE
    return float(np.max(np.abs(wrap_pi(moved - np.asarray(planted)))))


def fit_check(delta_x, mu: float, phase_scale: float, planted,
              converged: bool) -> dict:
    err = gauge_error(delta_x, mu, planted)
    scale_err = abs(phase_scale - 1.0)
    return {"ok": bool(err <= PHASE_TOL and scale_err <= PHASE_SCALE_TOL),
            "phase_err": err, "phase_scale_err": scale_err,
            "mu": float(wrap_pi(mu)), "converged": bool(converged)}


def random_config(rng: np.random.Generator) -> optiqft.ExperimentConfig:
    """Random split angle, transmissions and incidental phases; the same
    distribution as the tests' random_config fixture helper."""
    return optiqft.ExperimentConfig(
        chi0=rng.uniform(0.5, 1.1),
        t_ps=rng.uniform(0.8, 1.0),
        t_phi=rng.uniform(0.8, 1.0),
        t_2phi=rng.uniform(0.8, 1.0),
        alpha=tuple(rng.uniform(0.0, TWO_PI, 4)),
        theta=tuple(rng.uniform(0.0, TWO_PI, 4)),
        psi=tuple(rng.uniform(0.0, TWO_PI, 6)),
        alpha_a=rng.uniform(0.0, TWO_PI),
        theta_a=rng.uniform(0.0, TWO_PI),
        alpha_b=rng.uniform(0.0, TWO_PI),
        theta_b=rng.uniform(0.0, TWO_PI),
        psi_a=rng.uniform(0.0, TWO_PI),
    )


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def planted_trace(cfg: optiqft.ExperimentConfig, rng: np.random.Generator):
    """Offsets uniform in +-OFFSET_RANGE, the planted config, the noise
    sigma (NOISE_SHARE of the clean peak) and a noise seed."""
    dx = rng.uniform(-OFFSET_RANGE, OFFSET_RANGE, 4)
    x_true = tuple(s + d for s, d in zip(optiqft.fourier_setpoints(cfg), dx))
    planted = cfg.replace(x=x_true)
    clean = optiqft.synthesize_measured_trace(planted, grid=GRID)
    sigma = NOISE_SHARE * float(clean.intensities.max())
    return dx, planted, sigma, int(rng.integers(2**31))


class Workload:
    name = ""
    why = ""
    #: operations run in each pass of the traced run
    trace_ops = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        #: context-manager factory for benchmark-side spans; the traced
        #: run replaces it with Tracer.span
        self.span = lambda name: contextlib.nullcontext()

    def rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, index])

    def warm_up(self):
        inputs = self.make(0)
        try:
            self.warm_up_op(inputs)
        finally:
            self.release(inputs)

    def warm_up_op(self, inputs):
        self.run(inputs)

    def release(self, inputs):
        pass


class FitDefault(Workload):
    name = "fit_default"
    why = ("default 81-start fit of a noisy 720-point trace, the CLI fit "
           "default and slowest user path: fitting's multistart over "
           "experiment's forward curves")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.cfg = optiqft.ExperimentConfig.default()

    def make(self, index):
        dx, planted, sigma, noise_seed = planted_trace(self.cfg, self.rng(index))
        trace = optiqft.synthesize_measured_trace(
            planted, noise_sigma=sigma, seed=noise_seed, grid=GRID)
        return {"trace": trace, "x_true": np.asarray(planted.x)}

    def warm_up_op(self, inputs):
        # A single start touches every code path of the default fit at
        # 1/81 of its cost.
        optiqft.fit(inputs["trace"], self.cfg,
                    options=optiqft.FitOptions(multistart_offsets=(0.0,)))

    def run(self, inputs):
        return optiqft.fit(inputs["trace"], self.cfg)

    def check(self, inputs, result):
        model = result.model
        return fit_check(np.asarray(model.x) - inputs["x_true"],
                         model.phase_offset, model.phase_scale,
                         np.zeros(4), result.converged)


class CalibrateRandom(Workload):
    name = "calibrate_random"
    why = ("four-step calibration of a random config, closed-form and "
           "driven by the simulated apparatus: calibration's scans fed by "
           "two signal sources, no fitting")
    trace_ops = 20

    def make(self, index):
        return {"cfg": random_config(self.rng(index))}

    def run(self, inputs):
        cfg = inputs["cfg"]
        closed_form = optiqft.calibrate(cfg)
        with self.span("calibration.closed_loop"):
            selected = []
            for step in (1, 2, 3, 4):
                prior = tuple(selected)
                signal = (lambda d, step=step, prior=prior:
                          optiqft.simulated_step_intensity(
                              step, d, optiqft.ADJUSTMENT_PHI, cfg,
                              prior_dx=prior))
                selected.append(
                    optiqft.solve_step(step, cfg, signal=signal).selected)
        return closed_form, selected

    def check(self, inputs, output):
        cfg = inputs["cfg"]
        closed_form, selected = output
        setpoint_err = float(np.max(np.abs(wrap_pi(
            np.asarray(closed_form.x) - optiqft.fourier_setpoints(cfg)))))
        tuned = [e + s + d for e, s, d in zip(
            optiqft.fourier_setpoints_exact(cfg),
            optiqft.NOMINAL_SETPOINT_SHIFT, selected)]
        grid = optiqft.default_phi_grid(GRID)
        curves = optiqft.detector_intensity_curves(tuned, grid, cfg, 1.0, np.pi)
        loop_err = float(np.max(np.abs(
            curves - optiqft.reference_intensities(grid, cfg))))
        return {"ok": bool(setpoint_err <= CALIBRATION_TOL
                           and loop_err <= CLOSED_LOOP_TOL),
                "setpoint_err": setpoint_err, "closed_loop_err": loop_err}


class CliPipeline(Workload):
    name = "cli_pipeline"
    why = ("one CLI session on files: synth, single-start fit, curves, "
           "calibrate, decompose of a Haar unitary; file formats, manifests "
           "and Reck, no multistart")
    trace_ops = 20

    COMMANDS = ("synth", "fit", "curves", "calibrate", "decompose")
    INPUT_FILES = ("config.json", "matrix.json")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        from click.testing import CliRunner
        from optiqft.cli import main
        self.main = main
        self.runner = CliRunner()
        cfg = optiqft.ExperimentConfig.default()
        self.cfg = cfg.replace(x=optiqft.fourier_setpoints(cfg))

    def make(self, index):
        rng = self.rng(index)
        dx, _, sigma, noise_seed = planted_trace(self.cfg, rng)
        u = haar_unitary(int(rng.integers(3, 9)), rng)
        d = self.workdir / f"session-{index}"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        (d / "config.json").write_text(self.cfg.to_json())
        (d / "matrix.json").write_text(json.dumps(
            {"dim": u.shape[0], "real": u.real.tolist(),
             "imag": u.imag.tolist()}))
        p = {name: str(d / name) for name in (
            "config.json", "matrix.json", "trace.csv", "fit.json",
            "curves.csv", "calibration.json", "netlist.json")}
        args = {
            "synth": ["synth", "--config", p["config.json"], "--out",
                      p["trace.csv"], "--seed", str(noise_seed), "--grid",
                      str(GRID), "--noise", repr(sigma), "--dx",
                      ",".join(repr(float(v)) for v in dx)],
            "fit": ["fit", "--trace", p["trace.csv"], "--config",
                    p["config.json"], "--out", p["fit.json"],
                    "--no-multistart"],
            "curves": ["curves", "--config", p["config.json"], "--out",
                       p["curves.csv"]],
            "calibrate": ["calibrate", "--config", p["config.json"], "--out",
                          p["calibration.json"]],
            "decompose": ["decompose", "--matrix", p["matrix.json"], "--out",
                          p["netlist.json"]],
        }
        return {"dir": d, "args": args, "dx": dx, "u": u}

    def run(self, inputs):
        codes = {}
        for name in self.COMMANDS:
            with self.span(f"cli.{name}"):
                result = self.runner.invoke(self.main, inputs["args"][name])
            codes[name] = (result.exit_code, result.output)
        return codes

    def check(self, inputs, codes):
        d = inputs["dir"]
        bad = {k: v for k, v in codes.items() if v[0] != 0}
        if bad:
            return {"ok": False, "exit_codes": bad}
        fit = json.loads((d / "fit.json").read_text())
        info = fit_check(fit["delta_x"], fit["model"]["phase_offset"],
                         fit["model"]["phase_scale"], inputs["dx"],
                         fit["converged"])
        report = json.loads((d / "calibration.json").read_text())
        circuit = optiqft.CircuitDescription.from_json(
            (d / "netlist.json").read_text())
        recompose_err = float(np.max(np.abs(optiqft.compose(circuit)
                                            - inputs["u"])))
        curve_rows = optiqft.DetectorTrace.from_csv(
            (d / "curves.csv").read_text()).phi.size
        written = sum(f.stat().st_size for f in d.iterdir()
                      if f.name not in self.INPUT_FILES)
        info.update({
            "ok": bool(info["ok"] and report["max_offset"] <= MAX_OFFSET_TOL
                       and recompose_err <= RECOMPOSE_TOL
                       and curve_rows == GRID),
            "max_offset": float(report["max_offset"]),
            "recompose_err": recompose_err,
            "bytes_written": written,
        })
        return info

    def release(self, inputs):
        shutil.rmtree(inputs["dir"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (FitDefault, CalibrateRandom, CliPipeline)}
