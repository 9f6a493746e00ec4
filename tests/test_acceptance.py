"""Acceptance suite: one test per acceptance criterion, printed pass lines.

Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 5 checks the published target fractions of the four adjustment
steps against the fractions implied by the model.  Steps 1-3 agree; the
published step-4 fraction (0.64) is inconsistent with the transfer-matrix
model, whose implied fraction at the calibrated point is 0.851 under the
default constants (no detector choice, phase convention or step ordering
reconciles it; the published step-4 fringe expression itself deviates from
the model, see tests/test_calibration.py).  That parametrized case fails
by design and documents the defect; every other criterion passes.
"""

import json

import numpy as np
import pytest
from click.testing import CliRunner
from closed_forms import published_setpoints, step_curve
from conftest import circular_distance, haar_unitary, random_config

from optiqft import (ADJUSTMENT_PHI, ExperimentConfig, FitOptions,
                     NOMINAL_SETPOINT_SHIFT, calibrate, compose,
                     default_phi_grid, detector_intensity_curves,
                     equal_up_to_global_phase, fit, fourier_setpoints,
                     fourier_setpoints_exact, mz_variable_splitter,
                     phase_estimation_outcome, qft3_circuit, qft_matrix,
                     reck_decompose, reconstruction_error,
                     reference_intensities, simulated_step_intensity,
                     splitter_matrix, synthesize_measured_trace,
                     target_intensity)
from optiqft.cli import main as cli_main

PI = np.pi
TWO_PI = 2 * PI


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_qft_factorization():
    got = compose(qft3_circuit())
    want = qft_matrix(3)
    assert equal_up_to_global_phase(got, want, 1e-12)
    idx = np.unravel_index(np.argmax(np.abs(want)), want.shape)
    gamma = got[idx] / want[idx]
    err = np.max(np.abs(got - (gamma / abs(gamma)) * want))
    assert err < 1e-12
    _report(1, f"four-splitter circuit matches the base-3 Fourier matrix "
               f"up to global phase, max error {err:.2e}")


def test_criterion_2_mz_identity():
    worst = 0.0
    for chi in np.linspace(0.0, PI / 2, 100):
        err = np.max(np.abs(compose(mz_variable_splitter(chi))
                            - splitter_matrix(3, 0, 1, chi)))
        worst = max(worst, err)
    assert worst < 1e-12
    _report(2, f"Mach-Zehnder variable splitter exact for 100 angles, "
               f"max error {worst:.2e}")


def test_criterion_3_phase_estimation():
    for d in (2, 3, 4, 5):
        f = qft_matrix(d)
        for m in range(d):
            assert phase_estimation_outcome(d, m) == m
            state = np.exp(2j * PI * m / d * np.arange(d)) / np.sqrt(d)
            assert abs((f @ state)[m]) ** 2 == pytest.approx(1.0, abs=1e-12)
    _report(3, "single-shot discrimination exact for bases 2..5 at "
               "phase ramp 2*pi*m/d (the pi*m/d normalization is documented "
               "in NOTES.md as non-discriminating)")


def test_criterion_4_closed_forms_match_block_simulation():
    cfg = ExperimentConfig.default()
    dxs = np.linspace(0.0, TWO_PI, 720, endpoint=False)
    worst = 0.0
    for phi in np.linspace(0.0, TWO_PI, 8, endpoint=False):
        for step in (1, 2, 3, 4):
            closed = np.asarray(step_curve(step, dxs, phi, cfg))
            sim = simulated_step_intensity(step, dxs, phi, cfg)
            worst = max(worst, float(np.max(np.abs(closed - sim))))
    assert worst < 1e-9
    _report(4, f"step fringes match the block simulation on a 720x8 grid, "
               f"max deviation {worst:.2e} (step 4 uses the reconstructed "
               f"closed form; the published one is pinned as deviating)")


@pytest.mark.parametrize("step,published", [(1, 0.75), (2, 0.0), (3, 0.60),
                                            (4, 0.64)])
def test_criterion_5_target_fractions(step, published):
    cfg = ExperimentConfig.default()
    info = target_intensity(step, cfg, ADJUSTMENT_PHI)
    print(f"ACCEPTANCE 5 step {step}: implied fraction {info.fraction:.4f}, "
          f"published {published:.2f}")
    assert abs(info.fraction - published) <= 0.02, (
        f"step {step}: implied fraction {info.fraction:.4f} vs published "
        f"{published:.2f}; the model contradicts the published step-4 value "
        f"(see module docstring and NOTES.md)")
    _report(5, f"step {step} fraction {info.fraction:.4f} within 0.02 of "
               f"{published:.2f}")


def test_criterion_6_calibration_recovery():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(25):
        cfg = random_config(rng)
        result = calibrate(cfg)
        worst = max(worst, float(np.max(circular_distance(
            result.x, fourier_setpoints(cfg)))))
    assert worst < 1e-6
    _report(6, f"calibration recovers the nominal setpoints for 25 random "
               f"configs, max offset {worst:.2e} rad")


def test_criterion_7_setpoint_consistency():
    rng = np.random.default_rng(31415)
    grid = default_phi_grid(720)
    worst_exact = 0.0
    worst_nominal = 0.0
    for _ in range(50):
        cfg = random_config(rng)
        ref = reference_intensities(grid, cfg)
        got = detector_intensity_curves(fourier_setpoints_exact(cfg), grid, cfg)
        worst_exact = max(worst_exact, float(np.max(np.abs(got - ref))))
        nom = detector_intensity_curves(published_setpoints(cfg), grid, cfg)
        worst_nominal = max(worst_nominal, float(np.max(np.abs(nom - ref))))
    assert worst_exact < 1e-9
    # pinned deviation: the published closed form does not satisfy the
    # property for random incidental phases (documented in NOTES.md)
    assert worst_nominal > 1e-2
    _report(7, f"curves at the exact setpoints match the canonical pipeline "
               f"for 50 random configs, max deviation {worst_exact:.2e} "
               f"(published formula deviates by up to {worst_nominal:.2f}, "
               f"pinned; shift at zero incidentals = "
               f"{tuple(round(s, 6) for s in NOMINAL_SETPOINT_SHIFT)})")


def test_criterion_8_fit_recovery():
    cfg = ExperimentConfig.default()
    planted = (-0.25, 0.16, -0.20, -0.28)
    x_true = tuple(s + d for s, d in zip(fourier_setpoints(cfg), planted))
    planted_cfg = cfg.replace(x=x_true)
    clean = synthesize_measured_trace(planted_cfg, grid=120)
    sigma = 0.01 * float(clean.intensities.max())
    opts = FitOptions(multistart_offsets=(0.0,))
    worst_dx, worst_lam = 0.0, 0.0
    for seed in range(20):
        trace = synthesize_measured_trace(planted_cfg, noise_sigma=sigma,
                                          seed=seed, grid=120)
        result = fit(trace, cfg, options=opts)
        worst_dx = max(worst_dx, float(np.max(circular_distance(
            result.model.x, x_true))))
        worst_lam = max(worst_lam, abs(result.model.phase_scale - 1.0))
    assert worst_dx < 0.05
    assert worst_lam < 0.01
    _report(8, f"planted offsets recovered over 20 seeds at 1% noise: "
               f"max phase error {worst_dx:.4f} rad, max scale error "
               f"{worst_lam * 100:.3f}%")


def test_criterion_9_decomposition_round_trip():
    rng = np.random.default_rng(1618)
    worst = reconstruction_error(qft_matrix(3), reck_decompose(qft_matrix(3)))
    for _ in range(20):
        d = int(rng.integers(2, 9))
        u = haar_unitary(d, rng)
        worst = max(worst, reconstruction_error(u, reck_decompose(u)))
    assert worst < 1e-10
    _report(9, f"triangular decomposition round trip for 20 random unitaries "
               f"(d <= 8) plus the Fourier matrix, max error {worst:.2e}")


def test_criterion_10_cli_determinism(tmp_path):
    runner = CliRunner()
    cfg = ExperimentConfig.default()
    cfg = cfg.replace(x=fourier_setpoints(cfg))
    config_path = tmp_path / "config.json"
    config_path.write_text(cfg.to_json())

    outputs = []
    for tag in ("one", "two"):
        trace_path = tmp_path / f"trace_{tag}.csv"
        fit_path = tmp_path / f"fit_{tag}.json"
        r1 = runner.invoke(cli_main, [
            "synth", "--config", str(config_path), "--out", str(trace_path),
            "--seed", "7", "--noise", "0.01", "--grid", "120",
            "--dx", "-0.25,0.16,-0.2,-0.28"])
        assert r1.exit_code == 0, r1.output
        r2 = runner.invoke(cli_main, [
            "fit", "--trace", str(trace_path), "--config", str(config_path),
            "--out", str(fit_path), "--no-multistart"])
        assert r2.exit_code == 0, r2.output
        outputs.append((trace_path.read_bytes(), fit_path.read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    payload = json.loads(outputs[0][1].decode())
    assert np.max(np.abs(np.asarray(payload["delta_x"])
                         - [-0.25, 0.16, -0.2, -0.28])) < 0.05
    _report(10, "synth -> fit round trip byte-identical for a fixed seed "
                "and recovers the planted offsets")
