import itertools
import json
import math

import numpy as np
import pytest
from closed_forms import published_setpoints
from conftest import circular_distance, random_config

from optiqft import (DegenerateConfigError, DetectorTrace, ExperimentConfig,
                     FitModel, FitOptions, calibrate, fit,
                     detector_intensity_curves, default_phi_grid,
                     fourier_setpoints, fourier_setpoints_exact,
                     model_predict, residual_report,
                     synthesize_measured_trace, without_incidental_phases)
from optiqft.experiment import fringe_basis
from optiqft import experiment, fitting
from optiqft.fitting import (GAIN_FLOOR, MU_GAUGE_X_DIRECTION,
                             STAGE_STEP_TOL, STAGE_THETA, STEP_TOL, _cost,
                             _curves_and_derivatives, _gauss_newton,
                             _inner_scale_bias, _lstsq, _network_deviation,
                             _phase_scale, _residual_jacobian)

PI = np.pi
TWO_PI = 2 * PI

SINGLE_START = FitOptions(multistart_offsets=(0.0,))

#: 72 points with each moved by up to 0.4 of a step
JITTERED_GRID = (default_phi_grid(72)
                 + np.random.default_rng(0).uniform(-0.4, 0.4, 72) * TWO_PI / 72)


def planted_trace(cfg, dx=(0.12, -0.3, 0.25, -0.1), scale=(1.1, 0.9, 1.3),
                  bias=(0.02, 0.05, 0.0), lam=1.0, mu=0.0, noise=0.0, seed=0,
                  grid=120):
    x = tuple(s + d for s, d in zip(fourier_setpoints(cfg), dx))
    planted = cfg.replace(x=x)
    trace = synthesize_measured_trace(planted, scale, bias, lam, mu, noise,
                                      seed, grid)
    return trace, FitModel(scale, bias, lam, mu, x)


class TestModelPredict:
    def test_identity_parameters(self, default_cfg):
        x = fourier_setpoints(default_cfg)
        model = FitModel(x=x)
        grid = default_phi_grid(13)
        np.testing.assert_allclose(model_predict(model, default_cfg, grid),
                                   detector_intensity_curves(x, grid, default_cfg),
                                   atol=1e-14)

    def test_bias_shifts_uniformly(self, default_cfg):
        x = fourier_setpoints(default_cfg)
        grid = default_phi_grid(13)
        base = model_predict(FitModel(x=x), default_cfg, grid)
        shifted = model_predict(FitModel(bias=(0.1, 0.1, 0.1), x=x),
                                default_cfg, grid)
        np.testing.assert_allclose(shifted - base, 0.1, atol=1e-14)

    def test_phase_scale_compresses(self, default_cfg):
        x = fourier_setpoints(default_cfg)
        grid = default_phi_grid(13)
        fast = model_predict(FitModel(x=x, phase_scale=2.0), default_cfg, grid)
        slow = model_predict(FitModel(x=x), default_cfg, 2.0 * grid)
        np.testing.assert_allclose(fast, slow, atol=1e-14)

    def test_mu_branch_symmetry(self, default_cfg):
        # (mu, x) and (mu + pi, x + (pi, -pi, 0, pi)) predict identically
        x = np.asarray(fourier_setpoints(default_cfg)) + 0.3
        grid = default_phi_grid(17)
        a = model_predict(FitModel(x=tuple(x), phase_offset=0.2),
                          default_cfg, grid)
        b = model_predict(FitModel(x=tuple(x + np.array([PI, -PI, 0.0, PI])),
                                   phase_offset=0.2 + PI), default_cfg, grid)
        np.testing.assert_allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("bias", [(0.0, 0.0, 0.0), (0.02, -0.05, 0.1),
                                      (-0.05, -0.05, -0.05)], ids=repr)
    @pytest.mark.parametrize("grid", [90, JITTERED_GRID], ids=["uniform", "jittered"])
    def test_generator_is_model_predict_plus_noise(self, default_cfg, bias, grid):
        # no rule of its own: no clip, a bias of either sign, the same grid
        x = np.asarray(fourier_setpoints(default_cfg)) + (0.1, -0.2, 0.05, 0.3)
        model = FitModel((1.1, 0.9, 1.3), bias, 1.02, 0.3, x)
        cfg = default_cfg.replace(x=model.x)
        trace = synthesize_measured_trace(cfg, model.scale, model.bias, model.phase_scale,
                                          model.phase_offset, 0.02, 5, grid)
        phi = default_phi_grid(grid)
        want = model_predict(model, cfg, phi) + np.random.default_rng(5).normal(
            0.0, 0.02, (phi.size, 3))
        np.testing.assert_array_equal(trace.phi, phi)
        np.testing.assert_array_equal(trace.intensities, want)
        assert trace.intensities.min() < 0.0


class TestGauge:
    """(mu, x) -> (mu + delta, x + delta * (-1, -1, 0, +1)) is exact for every
    delta, config and phase scale; fits report the mu = 0 member."""

    def test_continuous_gauge_symmetry(self):
        rng = np.random.default_rng(11)
        grid = default_phi_grid(37)
        for _ in range(20):
            cfg = random_config(rng)
            x = rng.uniform(0.0, TWO_PI, 4)
            lam, mu = rng.uniform(0.8, 1.2), rng.uniform(-PI, PI)
            a = model_predict(FitModel(x=tuple(x), phase_scale=lam,
                                       phase_offset=mu), cfg, grid)
            # delta = pi is the branch (mu + pi, x + (pi, pi, 0, pi) mod 2 pi)
            for delta in (PI, -PI, rng.uniform(-5.0, 5.0)):
                b = model_predict(
                    FitModel(x=tuple(x + delta * MU_GAUGE_X_DIRECTION),
                             phase_scale=lam, phase_offset=mu + delta), cfg, grid)
                np.testing.assert_allclose(a, b, atol=1e-12)

    def test_fit_reports_mu_zero(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            cfg = random_config(rng)
            x = np.asarray(fourier_setpoints(cfg)) + rng.uniform(-0.2, 0.2, 4)
            truth = FitModel((1.2, 0.8, 1.0), (0.01, 0.0, 0.02),
                             rng.uniform(0.95, 1.05), rng.uniform(-0.3, 0.3),
                             tuple(x))
            trace = synthesize_measured_trace(
                cfg.replace(x=truth.x), truth.scale, truth.bias,
                truth.phase_scale, truth.phase_offset, grid=90)
            result = fit(trace, cfg, options=SINGLE_START)
            assert result.model.phase_offset == 0.0
            np.testing.assert_allclose(
                model_predict(result.model, cfg, trace.phi),
                model_predict(truth, cfg, trace.phi), atol=1e-10)
            x_gauge = x - truth.phase_offset * MU_GAUGE_X_DIRECTION
            assert np.max(circular_distance(result.model.x, x_gauge)) < 1e-8
            want = np.mod(x_gauge - fourier_setpoints(cfg) + PI, TWO_PI) - PI
            np.testing.assert_allclose(result.delta_x, want, atol=1e-8)


    def test_init_moved_along_gauge(self):
        # an init at mu0 != 0 starts the search where the gauge-moved init does
        rng = np.random.default_rng(14)
        for _ in range(3):
            cfg = random_config(rng)
            x = np.asarray(fourier_setpoints(cfg)) + rng.uniform(-0.3, 0.3, 4)
            trace = synthesize_measured_trace(cfg.replace(x=tuple(x)), grid=60)
            mu0 = rng.uniform(-PI, PI)
            x_init = np.asarray(fourier_setpoints(cfg)) + rng.uniform(-0.5, 0.5, 4)
            moved = fit(trace, cfg, options=SINGLE_START, init=FitModel(
                x=tuple(x_init - mu0 * MU_GAUGE_X_DIRECTION)))
            result = fit(trace, cfg, options=SINGLE_START,
                         init=FitModel(x=tuple(x_init), phase_offset=mu0))
            assert result.model.phase_offset == 0.0
            assert result.model == moved.model
            assert result.iterations == moved.iterations


class TestIncidentalShift:
    """The incidental phases reach every intensity only as a shift of x by
    c = exact setpoints of the clean config - those of the full config
    (NOTES.md), so a trace fits as well without them."""

    def test_fit_without_incidental_phases_is_shifted(self):
        rng = np.random.default_rng(20261018)
        for seed in range(6):
            cfg = random_config(rng)
            clean = without_incidental_phases(cfg)
            shift = np.subtract(fourier_setpoints_exact(clean),
                                fourier_setpoints_exact(cfg))
            dx = tuple(rng.uniform(-0.5, 0.5, 4))
            peak = planted_trace(cfg, dx)[0].intensities.max()
            trace, _ = planted_trace(cfg, dx, noise=0.01 * peak, seed=seed)
            full, bare = fit(trace, cfg), fit(trace, clean)
            assert np.max(circular_distance(
                np.add(full.model.x, shift), bare.model.x)) <= 1e-8
            assert abs(bare.residual - full.residual) <= 1e-12 * full.residual


class TestNetworkDeviation:
    def test_planted_network_offsets(self):
        # (x3, x1 + x4, x2 + x4) are the coordinates free of the mu gauge
        rng = np.random.default_rng(20261019)
        for _ in range(3):
            cfg = random_config(rng)
            dx = rng.uniform(-0.3, 0.3, 4)
            planted = cfg.replace(x=tuple(np.add(fourier_setpoints_exact(cfg), dx)))
            trace = synthesize_measured_trace(planted, (1.1, 0.9, 1.3),
                                              (0.02, 0.05, 0.0), grid=120)
            result = fit(trace, cfg)
            np.testing.assert_allclose(result.network_deviation,
                                       (dx[2], dx[0] + dx[3], dx[1] + dx[3]),
                                       rtol=0.0, atol=1e-9)


class TestCoefficientTable:
    def test_one_core_call_per_config(self, monkeypatch):
        # the table is the fit's only reader of the forward core
        cfg = random_config(np.random.default_rng(77))
        trace, _ = planted_trace(cfg, noise=0.01)
        fitting._coefficient_table.cache_clear()
        calls = []
        walk = experiment.forward_matrix
        for module in (experiment, fitting):
            monkeypatch.setattr(module, "forward_matrix",
                                lambda *a, **k: calls.append(a) or walk(*a, **k))
        fit(trace, cfg)
        assert len(calls) == 1 and np.shape(calls[0][1]) == (81, 4)
        fit(trace, cfg)
        assert len(calls) == 1


class TestNoiselessRecovery:
    def test_round_trip(self, default_cfg):
        trace, truth = planted_trace(default_cfg)
        result = fit(trace, default_cfg, options=SINGLE_START)
        assert result.residual < 1e-10
        assert result.converged
        np.testing.assert_allclose(result.model.scale, truth.scale, atol=1e-6)
        np.testing.assert_allclose(result.model.bias, truth.bias, atol=1e-6)
        assert result.model.phase_scale == pytest.approx(1.0, abs=1e-6)
        assert abs(result.model.phase_offset) < 1e-6
        assert np.max(circular_distance(result.model.x, truth.x)) < 1e-6

    def test_regenerated_data_matches(self, default_cfg):
        trace, _ = planted_trace(default_cfg)
        result = fit(trace, default_cfg, options=SINGLE_START)
        pred = model_predict(result.model, default_cfg, trace.phi)
        assert np.max(np.abs(pred - trace.intensities)) < 1e-8

    def test_multistart_recovers_from_far_init(self, default_cfg):
        trace, truth = planted_trace(default_cfg, grid=72)
        init = FitModel(x=tuple(np.asarray(fourier_setpoints(default_cfg)) + 1.2))
        result = fit(trace, default_cfg, init=init)
        assert result.residual < 1e-8
        assert np.max(circular_distance(result.model.x, truth.x)) < 1e-5


class TestNoisyRecovery:
    def test_planted_offsets_with_noise(self, default_cfg):
        dx = (-0.25, 0.16, -0.20, -0.28)
        clean, truth = planted_trace(default_cfg, dx=dx, scale=(1, 1, 1),
                                     bias=(0, 0, 0), noise=0.0)
        sigma = 0.01 * clean.intensities.max()
        for seed in (0, 1, 2):
            noisy, _ = planted_trace(default_cfg, dx=dx, scale=(1, 1, 1),
                                     bias=(0, 0, 0), noise=sigma, seed=seed)
            result = fit(noisy, default_cfg, options=SINGLE_START)
            assert np.max(circular_distance(result.model.x, truth.x)) < 0.05
            assert abs(result.model.phase_scale - 1.0) < 0.01

    def test_no_start_runs_away(self, default_cfg):
        # every phase is 2 pi periodic, so steps are capped at pi: from every
        # start of the default grid the parameters stay near one period
        dx = (-0.25, 0.16, -0.20, -0.28)
        clean, _ = planted_trace(default_cfg, dx=dx, scale=(1, 1, 1),
                                 bias=(0, 0, 0))
        noisy, _ = planted_trace(default_cfg, dx=dx, scale=(1, 1, 1),
                                 bias=(0, 0, 0),
                                 noise=0.01 * clean.intensities.max())
        opts = FitOptions(max_iterations=20)
        x0 = np.asarray(fourier_setpoints(default_cfg))
        for offsets in itertools.product(opts.multistart_offsets, repeat=4):
            p0 = np.concatenate([[1.0], x0 + np.asarray(offsets)])
            p = _gauss_newton(p0, default_cfg, noisy.phi, noisy.intensities,
                              opts)[0]
            assert np.max(np.abs(p[1:])) <= 1e3 and abs(p[0]) <= 10.0, offsets

    def test_criterion_8_fits_are_unbiased(self, default_cfg):
        # criterion 8's setup on seeds 0-299, traces as generated: the bias
        # is free of sign, so a planted bias of 0 is no bound, and nothing
        # is clipped, so the mean error of every x_k is within two
        # standard errors of 0 (NOTES.md, "Bias of the criterion-8 fits")
        x_true = np.add(fourier_setpoints(default_cfg), (-0.25, 0.16, -0.20, -0.28))
        planted = default_cfg.replace(x=tuple(x_true))
        sigma = 0.01 * float(synthesize_measured_trace(planted, grid=120).intensities.max())
        errors = []
        for seed in range(300):
            trace = synthesize_measured_trace(planted, noise_sigma=sigma, seed=seed,
                                              grid=120)
            x = fit(trace, default_cfg, options=SINGLE_START).model.x
            errors.append(np.mod(np.subtract(x, x_true) + PI, TWO_PI) - PI)
        errors = np.array(errors)
        mean = errors.mean(axis=0)
        std_error = errors.std(axis=0, ddof=1) / np.sqrt(len(errors))
        assert np.all(np.abs(mean) <= 2.0 * std_error), (mean, std_error)

    def test_per_detector_residual_is_summed_accurately(self, default_cfg, monkeypatch):
        # each detector's sum of squared residuals is within 2 eps (relative)
        # of math.fsum over the fit's own final residual; summed row by row
        # over the (N, 3) array it drifted up to about 8 eps on these traces
        finals = []
        residual_jacobian = fitting._residual_jacobian
        monkeypatch.setattr(fitting, "_residual_jacobian",
                            lambda *args: finals.append(residual_jacobian(*args))
                            or finals[-1])
        eps = np.finfo(float).eps
        for seed in range(40):
            dx = tuple(np.random.default_rng(seed).uniform(-0.3, 0.3, 4))
            trace, _ = planted_trace(default_cfg, dx=dx, scale=(1, 1, 1),
                                     bias=(0, 0, 0), noise=0.01, seed=seed, grid=720)
            result = fit(trace, default_cfg, options=SINGLE_START)
            unit = int(np.frexp(np.max(np.abs(trace.intensities)))[1])
            resid = np.ldexp(finals[-1][0], unit)
            for i, got in enumerate(result.per_detector_residual):
                exact = math.fsum(v * v for v in resid[i::3])
                assert abs(got - exact) <= 2 * eps * exact, (seed, i, got, exact)

    def test_normalized_rms_tracks_noise(self, default_cfg):
        trace, _ = planted_trace(default_cfg, dx=(0, 0, 0, 0), scale=(1, 1, 1),
                                 bias=(0, 0, 0), noise=0.005, seed=3, grid=240)
        result = fit(trace, default_cfg, options=SINGLE_START)
        report = residual_report(result, trace)
        for i in range(3):
            spread = trace.intensities[:, i].max() - trace.intensities[:, i].min()
            assert report[f"d{i}"]["rms"] == pytest.approx(0.005, rel=0.5)
            assert report[f"d{i}"]["normalized_rms"] < 0.02
            assert spread > 0


class TestStructuralProperties:
    def test_analytic_jacobian_matches_central_differences(self, default_cfg):
        rng = np.random.default_rng(4)
        h = 1e-6
        cases = []
        for _ in range(6):
            cfg = random_config(rng)
            x_true = np.asarray(fourier_setpoints(cfg)) + rng.uniform(-0.3, 0.3, 4)
            trace = synthesize_measured_trace(
                cfg.replace(x=tuple(x_true)), (1.2, 0.8, 1.0), (0.01, 0.0, 0.02),
                noise_sigma=0.01, seed=1, grid=60)
            p = np.concatenate([[rng.uniform(0.95, 1.05)],
                                x_true + rng.uniform(-0.4, 0.4, 4)])
            cases.append((cfg, p, trace.phi, trace.intensities))
        # detector 0's best scale is negative: the scale is clamped at 1e-12
        # and the bias is solved at that scale
        trace, truth = planted_trace(default_cfg, grid=60)
        p = np.concatenate([[1.0], np.asarray(truth.x) + 0.1])
        data = trace.intensities.copy()
        curves = detector_intensity_curves(p[1:], trace.phi, default_cfg)
        data[:, 0] = 0.5 - curves[:, 0]
        cases.append((default_cfg, p, trace.phi, data))
        for cfg, p, phi, data in cases:
            curves, d_curves = _curves_and_derivatives(p, cfg, phi)
            np.testing.assert_allclose(
                curves.T, detector_intensity_curves(p[1:], phi, cfg, p[0]),
                atol=1e-14)
            resid, jac, _, _ = _residual_jacobian(p, cfg, phi, data)
            assert jac.shape == (phi.size * 3, 5)
            grad = 2.0 * jac.T @ resid
            for k in range(5):
                e = np.zeros(5)
                e[k] = h
                fd_curves = (
                    detector_intensity_curves(p[1:] + e[1:], phi, cfg, p[0] + e[0])
                    - detector_intensity_curves(p[1:] - e[1:], phi, cfg, p[0] - e[0])
                ) / (2 * h)
                assert (np.max(np.abs(d_curves[:, k].T - fd_curves))
                        < 1e-6 * np.max(np.abs(fd_curves)))
                rp = _residual_jacobian(p + e, cfg, phi, data)[0]
                rm = _residual_jacobian(p - e, cfg, phi, data)[0]
                fd_grad = (rp @ rp - rm @ rm) / (2 * h)
                assert abs(grad[k] - fd_grad) < 1e-6 * np.max(np.abs(grad))

    def test_scale_bias_solve_the_bounded_least_squares(self, default_cfg):
        # the least-squares line on [m, 1], the bias of either sign; a slope
        # below 1e-12 is clamped there and the bias solved at that scale
        trace, truth = planted_trace(default_cfg, grid=60)
        curves = detector_intensity_curves(np.asarray(truth.x) + 0.1, trace.phi,
                                           default_cfg)
        rng = np.random.default_rng(6)
        columns = [0.5 - curves[:, 0], 2.0 * curves[:, 1] - 0.05,
                   1.5 * curves[:, 2] + 0.1]
        for _ in range(30):
            i = rng.integers(3)
            columns.append(rng.uniform(-2.0, 2.0) * curves[:, i]
                           + rng.uniform(-0.3, 0.3)
                           + rng.normal(0.0, 0.05, trace.phi.size))
        clamped = negative = 0
        for k, y in enumerate(columns):
            m = curves[:, k % 3]
            a, b = np.linalg.lstsq(np.column_stack([m, np.ones_like(m)]), y,
                                   rcond=None)[0]
            if a < 1e-12:
                a, b = 1e-12, np.mean(y - 1e-12 * m)
            clamped += a == 1e-12
            negative += b < 0.0
            scale, bias, _, weight = _inner_scale_bias(np.stack([m] * 3),
                                                       np.column_stack([y] * 3))
            np.testing.assert_allclose((scale[0], bias[0]), (a, b), atol=1e-12)
            assert (weight[0] == 0.0) == (a == 1e-12)
        assert clamped >= 5 and negative >= 5

    def test_constant_curve_gets_unit_scale_and_no_weight(self):
        # a constant curve is flat to rounding relative to its mean: scale
        # 1, the bias the data's mean less the constant, and no column in
        # the projection, although its computed mean is off by rounding
        rng = np.random.default_rng(3)
        for c in (0.3, 0.7):
            for n in (60, 120, 720):
                data = rng.uniform(0.0, 1.0, (n, 3))
                scale, bias, centred, weight = _inner_scale_bias(np.full((3, n), c), data)
                np.testing.assert_array_equal(scale, 1.0)
                np.testing.assert_allclose(bias, data.mean(axis=0) - c, atol=1e-14)
                np.testing.assert_array_equal(weight, 0.0)
                assert np.max(np.abs(centred)) < n * np.finfo(float).eps * c

    def test_projection_keeps_only_active_columns(self, default_cfg):
        # detector i's Jacobian is orthogonal to its free linear columns:
        # always the constant, and the curve unless the scale is clamped
        trace, truth = planted_trace(default_cfg, grid=60)
        p = np.concatenate([[1.0], np.asarray(truth.x) + 0.1])
        curves = detector_intensity_curves(p[1:], trace.phi, default_cfg)
        wiggle = 1e-3 * np.sin(3.0 * trace.phi)
        data = np.column_stack([0.5 - curves[:, 0],        # scale clamped
                                2.0 * curves[:, 1] - 0.05,  # bias below 0
                                1.5 * curves[:, 2] + 0.1 + wiggle])
        _, jac, scale, bias = _residual_jacobian(p, default_cfg, trace.phi, data)
        jac = jac.reshape(-1, 3, 5)
        assert scale[0] == 1e-12 and bias[1] < 0.0 and bias[2] > 0.0
        np.testing.assert_allclose(jac[:, 0].sum(axis=0), 0.0, atol=1e-24)
        assert np.max(np.abs(curves[:, 0] @ jac[:, 0])) > 1e-14
        for i in (1, 2):
            np.testing.assert_allclose(jac[:, i].sum(axis=0), 0.0, atol=1e-12)
            np.testing.assert_allclose(curves[:, i] @ jac[:, i], 0.0, atol=1e-12)
        # a splitter that barely splits leaves every curve flat: no 0 / 0
        flat = default_cfg.replace(chi0=1e-17)
        curves, _ = _curves_and_derivatives(p, flat, trace.phi)
        assert np.all(curves.max(axis=1) - curves.min(axis=1) < 1e-15)
        _, jac, scale, _ = _residual_jacobian(p, flat, trace.phi, data)
        assert np.all(np.isfinite(jac))
        np.testing.assert_array_equal(scale, 1.0)

    def test_scale_bias_separable_at_true_phases(self, default_cfg):
        trace, truth = planted_trace(default_cfg)
        curves = detector_intensity_curves(truth.x, trace.phi, default_cfg)
        scale, bias, _, weight = _inner_scale_bias(curves.T, trace.intensities)
        assert np.all(weight > 0.0)
        np.testing.assert_allclose(scale, truth.scale, atol=1e-12)
        np.testing.assert_allclose(bias, truth.bias, atol=1e-12)
        result = fit(trace, default_cfg, init=truth, options=SINGLE_START)
        np.testing.assert_allclose(result.model.scale, scale, atol=1e-8)
        np.testing.assert_allclose(result.model.bias, bias, atol=1e-8)

    def test_intensity_rescaling_invariance(self, default_cfg):
        trace, _ = planted_trace(default_cfg)
        c = 3.7
        scaled = DetectorTrace(trace.phi, c * trace.intensities)
        r1 = fit(trace, default_cfg, options=SINGLE_START)
        r2 = fit(scaled, default_cfg, options=SINGLE_START)
        np.testing.assert_allclose(np.asarray(r2.model.scale),
                                   c * np.asarray(r1.model.scale), atol=1e-8)
        np.testing.assert_allclose(np.asarray(r2.model.bias),
                                   c * np.asarray(r1.model.bias), atol=1e-8)
        assert abs(r2.model.phase_scale - r1.model.phase_scale) < 1e-8
        assert abs(r2.model.phase_offset - r1.model.phase_offset) < 1e-8
        assert np.max(circular_distance(r2.model.x, r1.model.x)) < 1e-8

    def test_power_of_two_unit_is_exact(self, default_cfg):
        # the search runs on the data divided by the power of two at their
        # peak, so a power-of-two unit changes no bit of the phases
        trace, _ = planted_trace(default_cfg, noise=0.01)
        tiny = DetectorTrace(trace.phi, np.ldexp(trace.intensities, -45))
        r1, r2 = fit(trace, default_cfg), fit(tiny, default_cfg)
        assert r2.model.x == r1.model.x
        assert r2.model.phase_scale == r1.model.phase_scale
        assert r2.model.scale == tuple(np.ldexp(r1.model.scale, -45))
        assert r2.model.bias == tuple(np.ldexp(r1.model.bias, -45))
        assert r2.residual == np.ldexp(r1.residual, -90)
        np.testing.assert_allclose(r2.jacobian_singular_values,
                                   np.ldexp(r1.jacobian_singular_values, -45),
                                   rtol=1e-14, atol=0)

    def test_picowatt_unit(self, default_cfg):
        # a trace in watts at picowatt level fits as it does in picowatts
        trace, _ = planted_trace(default_cfg, noise=0.01)
        tiny = DetectorTrace(trace.phi, 1e-13 * trace.intensities)
        r1, r2 = fit(trace, default_cfg), fit(tiny, default_cfg)
        assert np.max(circular_distance(r2.model.x, r1.model.x)) < 1e-9
        np.testing.assert_allclose(r2.model.scale, 1e-13 * np.asarray(r1.model.scale),
                                   rtol=1e-8)

    def test_delta_x_wrapped(self, default_cfg):
        trace, _ = planted_trace(default_cfg, dx=(3.0, -3.0, 0.1, 0.0))
        result = fit(trace, default_cfg, options=SINGLE_START)
        assert all(-PI < d <= PI for d in result.delta_x)


    def test_jacobian_singular_values(self, default_cfg):
        trace, _ = planted_trace(default_cfg)
        result = fit(trace, default_cfg, options=SINGLE_START)
        sv = result.jacobian_singular_values
        assert len(sv) == 5 and list(sv) == sorted(sv, reverse=True)
        assert sv[-1] > 1e-4 * sv[0]
        assert result.to_dict()["jacobian_singular_values"] == list(sv)


TWO_PERIOD_GRID = np.linspace(0.0, 2 * TWO_PI, 72, endpoint=False)


def drawn_trace(seed, lam, grid, noise):
    """A random config with offsets up to 0.5 rad from the zero point r0,
    random scales and biases, and noise as a share of the peak."""
    rng = np.random.default_rng(seed)
    cfg = random_config(rng)
    x = np.asarray(fourier_setpoints(cfg)) + rng.uniform(-0.5, 0.5, 4)
    scale, bias = rng.uniform(0.8, 1.2, 3), rng.uniform(0.0, 0.05, 3)
    planted = cfg.replace(x=tuple(x))
    peak = synthesize_measured_trace(planted, scale, bias, lam,
                                     grid=grid).intensities.max()
    return cfg, synthesize_measured_trace(planted, scale, bias, lam, 0.0,
                                          noise * peak, seed, grid)


def benchmark_draw(cfg, key):
    """A 720-point trace drawn as the fit benchmark draws them: offsets
    uniform in +-0.3 rad from the zero point r0 and noise at 1% of the
    clean peak.  Returns the planted config and the trace."""
    rng = np.random.default_rng(key)
    dx = rng.uniform(-0.3, 0.3, 4)
    planted = cfg.replace(x=tuple(np.asarray(fourier_setpoints(cfg)) + dx))
    peak = synthesize_measured_trace(planted).intensities.max()
    return planted, synthesize_measured_trace(planted, noise_sigma=0.01 * peak,
                                              seed=int(rng.integers(2**31)))


class TestStagedMultistart:
    """The grid runs once, at the phase scale estimated from the trace's
    harmonics, in x alone on 5 samples of the trace's projection onto them,
    and the winner is polished on the full trace (NOTES.md, "Staged
    multistart")."""

    def test_stage_cost_is_the_in_band_full_cost(self):
        # on a uniform grid over whole periods: (N / 5) * the stage's cost of
        # rows of x on the projection = the full cost at lam = 1 - the
        # projection's out-of-band part
        rng = np.random.default_rng(21)
        for n in (60, 121):
            cfg, trace = drawn_trace(int(rng.integers(1000)), 1.0, n, 0.01)
            data = trace.intensities
            basis = fringe_basis(trace.phi)
            coef = np.linalg.lstsq(basis, data, rcond=None)[0]
            out_of_band = np.sum((data - basis @ coef) ** 2)
            p = np.column_stack([np.ones(6), rng.uniform(0.0, TWO_PI, (6, 4))])
            full = _cost(p, cfg, trace.phi, data)
            stage = _cost(p[:, 1:], cfg, STAGE_THETA, fringe_basis(STAGE_THETA) @ coef)
            np.testing.assert_allclose(n / 5 * stage, full - out_of_band,
                                       rtol=0, atol=1e-12 * full.max())

    @pytest.mark.parametrize("lam, grid, noise, seed, one_round_misses", [
        (1.0, 120, 0.01, 0, False),
        (0.97, 72, 0.01, 98, True),
        (1.03, 72, 0.02, 66, True),
        (0.97, JITTERED_GRID, 0.005, 98, True),
        (1.03, TWO_PERIOD_GRID, 0.01, 118, True),
    ], ids=["lam1", "lam0.97", "lam1.03", "jittered", "two-period"])
    def test_matches_exhaustive_search(self, lam, grid, noise, seed,
                                       one_round_misses):
        # the reference runs every start alone on the full trace, where no
        # stop rule can act, and keeps the cheapest
        cfg, trace = drawn_trace(seed, lam, grid, noise)
        opts = FitOptions()
        x0 = np.asarray(fourier_setpoints(cfg))
        starts = x0 + np.array(list(itertools.product(opts.multistart_offsets,
                                                      repeat=4)))
        reference = min((_gauss_newton(np.concatenate([[1.0], start]), cfg,
                                       trace.phi, trace.intensities, opts)
                         for start in starts), key=lambda outcome: outcome[1])
        p, cost = reference[:2]
        result = fit(trace, cfg)
        assert result.starts == 81 and 0 <= result.start < 81
        assert result.residual <= cost * (1 + 1e-9)
        if abs(result.residual - cost) <= 1e-9 * cost:
            assert np.max(circular_distance(result.model.x, p[1:])) < 1e-7
        # on the flagged traces, one round at lam0 = 1 ends in a worse basin:
        # the stage on the projection at lam0, then the polish of its winner
        coef = np.linalg.lstsq(fringe_basis(trace.phi), trace.intensities,
                               rcond=None)[0]
        staged, stage_cost = _gauss_newton(starts, cfg, STAGE_THETA,
                                           fringe_basis(STAGE_THETA) @ coef,
                                           opts, STAGE_STEP_TOL)[:2]
        one_round = _gauss_newton(np.concatenate([[1.0], staged[np.argmin(stage_cost)]]),
                                  cfg, trace.phi, trace.intensities, opts)
        assert (one_round[1] > cost * (1 + 1e-6)) == one_round_misses

    def test_coarse_stage_reaches_the_converged_minimum(self, default_cfg,
                                                        monkeypatch):
        # the stage stops at STAGE_STEP_TOL, since the polish moves its winner
        # by about 1e-3 rad anyway; run to STEP_TOL, it ranks the same basin
        # first, and the polish ends at the same minimum
        traces = [drawn_trace(seed, lam, grid, noise) for lam, grid, noise, seed in [
            (1.0, 120, 0.01, 0), (0.97, 72, 0.01, 95), (1.03, 72, 0.02, 8),
            (0.97, JITTERED_GRID, 0.005, 95), (1.03, TWO_PERIOD_GRID, 0.01, 34)]]
        traces += [(default_cfg, benchmark_draw(default_cfg, [2019, seed])[1])
                   for seed in range(5)]
        coarse = [fit(trace, cfg) for cfg, trace in traces]
        monkeypatch.setattr(fitting, "STAGE_STEP_TOL", STEP_TOL)
        for (cfg, trace), result in zip(traces, coarse):
            converged = fit(trace, cfg)
            assert abs(result.residual - converged.residual) <= 1e-12 * converged.residual
            assert np.max(circular_distance(result.model.x, converged.model.x)) < 1e-8

    def test_one_round_at_the_estimated_phase_scale(self, monkeypatch):
        # an 81-start fit estimates lam once from the trace's harmonics, runs
        # the stage at that estimate on its own projection, reports that
        # round's winner, and is the single-start fit from the estimate and
        # the winner
        cfg, trace = drawn_trace(8, 1.03, 72, 0.02)
        phase_scale, calls = fitting._phase_scale, []

        def recorded(*args):
            calls.append((args, phase_scale(*args)))
            return calls[-1][1]

        monkeypatch.setattr(fitting, "_phase_scale", recorded)
        result = fit(trace, cfg)
        assert len(calls) == 1
        (lam0, phi, data, opts), (lam_hat, coef) = calls[0]
        assert lam0 == 1.0 and abs(lam_hat - 1.03) < 5e-3
        np.testing.assert_array_equal(coef, np.linalg.lstsq(
            fringe_basis(lam_hat * phi), data, rcond=None)[0])
        starts = np.asarray(fourier_setpoints(cfg)) + np.array(list(
            itertools.product(opts.multistart_offsets, repeat=4)))
        staged, cost = _gauss_newton(starts, cfg, STAGE_THETA,
                                     fringe_basis(STAGE_THETA) @ coef, opts,
                                     STAGE_STEP_TOL)[:2]
        assert result.starts == 81 and result.start == np.argmin(cost)
        single = fit(trace, cfg, FitModel(x=staged[result.start], phase_scale=lam_hat),
                     SINGLE_START)
        assert {**result.to_dict(), "starts": 1, "start": 0} == single.to_dict()

    def test_single_start_reports_start_zero(self, default_cfg):
        trace, _ = planted_trace(default_cfg)
        result = fit(trace, default_cfg, options=SINGLE_START)
        assert result.starts == 1 and result.start == 0
        assert result.to_dict()["start"] == 0


class TestPhaseScaleEstimate:
    """lam minimises the trace's residual outside harmonics 0-2 of lam phi,
    which is 0 at the planted lam of a noiseless trace."""

    @pytest.mark.parametrize("grid", [120, JITTERED_GRID, TWO_PERIOD_GRID],
                             ids=["uniform", "jittered", "two-period"])
    @pytest.mark.parametrize("lam", [0.97, 1.0, 1.03])
    def test_recovers_noiseless_lam(self, lam, grid):
        for seed in range(3):
            _, trace = drawn_trace(seed, lam, grid, 0.0)
            estimate, coef = _phase_scale(1.0, trace.phi, trace.intensities,
                                          FitOptions())
            assert abs(estimate - lam) < 1e-9, seed
            np.testing.assert_array_equal(coef, np.linalg.lstsq(
                fringe_basis(estimate * trace.phi), trace.intensities,
                rcond=None)[0])

    def test_stops_where_the_jacobian_vanishes(self):
        # dark detectors have no harmonic for lam to move: J^T J = 0, where
        # the step would be 0 / 0
        estimate, coef = _phase_scale(0.9, default_phi_grid(40), np.zeros((40, 3)),
                                      FitOptions())
        assert estimate == 0.9 and not coef.any()

    def test_default_fit_does_not_depend_on_init_lam(self, default_cfg):
        # inits from 0.5 to 1.5 reach the cost of the nominal init, as drawn
        # for the fit benchmark: 720 points, 1% noise
        for seed in range(5):
            trace = benchmark_draw(default_cfg, [2025, seed])[1]
            nominal = fit(trace, default_cfg).residual
            for lam in (0.5, 0.8, 1.2, 1.5):
                init = FitModel(x=fourier_setpoints(default_cfg), phase_scale=lam)
                residual = fit(trace, default_cfg, init).residual
                assert abs(residual - nominal) <= 1e-12 * nominal, (seed, lam)

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: from init phase scale 2.0 _phase_scale settles in its "
        "second minimum, lam-hat near 2.24, and the fit ends there with about "
        "900 times the residual, reported as converged; ROADMAP item 11's "
        "misfit statistic would flag it"))
    def test_default_fit_from_init_lam_2(self, default_cfg):
        # the traces of the test above, from an init phase scale of 2.0
        init = FitModel(x=fourier_setpoints(default_cfg), phase_scale=2.0)
        for seed in range(5):
            trace = benchmark_draw(default_cfg, [2025, seed])[1]
            nominal = fit(trace, default_cfg).residual
            residual = fit(trace, default_cfg, init).residual
            assert abs(residual - nominal) <= 1e-12 * nominal, seed


class TestLstsq:
    """One solve path: batched Householder QR, with pinv's minimum-norm
    answer only for a rank-deficient matrix."""

    def test_full_rank_matches_pinv(self):
        rng = np.random.default_rng(5)
        for shape in [(72, 24, 5), (81, 24, 4), (3, 6, 6)]:
            a, b = rng.normal(size=shape), rng.normal(size=shape[:2])
            expected = (np.linalg.pinv(a) @ b[..., None])[..., 0]
            np.testing.assert_allclose(_lstsq(a, b), expected, rtol=1e-12,
                                       atol=1e-12 * np.abs(expected).max())

    def test_one_tall_matrix_matches_lstsq(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(2160, 5)) * np.array([1e3, 1.0, 1e-2, 1.0, 10.0])
        b = rng.normal(size=2160)
        expected = np.linalg.lstsq(a, b, rcond=None)[0]
        np.testing.assert_allclose(_lstsq(a[None], b[None])[0], expected,
                                   rtol=1e-12, atol=0)

    def test_rank_deficient_rows_get_minimum_norm(self):
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(6, 24, 5)), rng.normal(size=(6, 24))
        a[1, :, 2] = 0.0
        a[4, :, 3] = a[4, :, 0]
        z = _lstsq(a, b)
        expected = (np.linalg.pinv(a) @ b[..., None])[..., 0]
        np.testing.assert_allclose(z, expected, rtol=1e-10, atol=1e-12)
        # minimum norm: nothing on the zero column, the repeated one shared
        assert abs(z[1, 2]) < 1e-12 and abs(z[4, 0] - z[4, 3]) < 1e-12
        full = [0, 2, 3, 5]
        q, r = np.linalg.qr(a[full])
        qr_answer = np.linalg.solve(r, np.swapaxes(q, -1, -2) @ b[full, :, None])[..., 0]
        np.testing.assert_array_equal(z[full], qr_answer)

    def test_all_zero_matrix(self):
        assert not np.any(_lstsq(np.zeros((2, 8, 5)), np.ones((2, 8))))


class TestGaussNewton:
    @pytest.mark.parametrize("staged", [True, False], ids=["stage", "trace"])
    def test_halving_stops_at_the_step_tolerance(self, default_cfg, monkeypatch,
                                                 staged):
        # a cost that is 0 at p0 and 1 at every trial halves the step down
        # to the tolerance of the call: a staged round's rows of x on 5
        # samples of the projection pass STAGE_STEP_TOL, the trace's rows
        # (lam, x) keep the default STEP_TOL
        trace, truth = planted_trace(default_cfg)
        p0 = np.concatenate([[1.0], np.asarray(truth.x) + 0.3])
        phi, data, passed = trace.phi, trace.intensities, ()
        if staged:
            p0, phi, passed = p0[1:], STAGE_THETA, (STAGE_STEP_TOL,)
            data = fringe_basis(phi) @ np.linalg.lstsq(
                fringe_basis(trace.phi), data, rcond=None)[0]
        monkeypatch.setattr(fitting, "_cost", lambda p, cfg, phi, data:
                            np.any(p != p0, axis=-1).astype(float))
        _, _, iters, norm, converged = _gauss_newton(
            p0, default_cfg, phi, data, FitOptions(), *passed)
        tol = STAGE_STEP_TOL if staged else STEP_TOL
        assert iters == 1 and converged and tol / 2 <= norm < tol

    def test_stage_rows_end_below_the_stage_tolerance(self):
        # every row of a staged round ends on a step below STAGE_STEP_TOL, or
        # is pruned above the cost of a row that did; the polish from the
        # cheapest converges on a step below STEP_TOL, or on one whose
        # predicted fall at the returned p is within GAIN_FLOOR of its cost
        cfg, trace = drawn_trace(95, 0.97, 72, 0.01)
        lam, coef = _phase_scale(1.0, trace.phi, trace.intensities, FitOptions())
        x0 = np.asarray(fourier_setpoints(cfg))
        starts = x0 + np.array(list(itertools.product(
            FitOptions().multistart_offsets, repeat=4)))
        p, cost, iters, norm, converged = _gauss_newton(
            starts, cfg, STAGE_THETA, fringe_basis(STAGE_THETA) @ coef,
            FitOptions(), STAGE_STEP_TOL)
        assert p.shape == starts.shape
        assert converged.any() and np.all(iters < FitOptions().max_iterations)
        assert np.all(norm[converged] < STAGE_STEP_TOL)
        assert np.all(cost[~converged] > cost[converged].min())
        winner = np.argmin(cost)
        p_end, cost_end, _, norm_end, done = _gauss_newton(
            np.concatenate([[lam], p[winner]]), cfg, trace.phi,
            trace.intensities, FitOptions())
        resid, jac = _residual_jacobian(p_end, cfg, trace.phi, trace.intensities)[:2]
        fall = jac @ _lstsq(jac[None], -resid[None])[0]
        assert done and (norm_end < STEP_TOL or fall @ fall <= GAIN_FLOOR * cost_end)

    @pytest.mark.parametrize("options", [None, SINGLE_START], ids=["default", "single"])
    def test_gain_floor_only_drops_trials(self, default_cfg, monkeypatch, options):
        # with GAIN_FLOOR at 0 a row ends only on a short step or a tie: the
        # default floor gives the same fits to rounding, with fewer costs
        def fits(floor):
            monkeypatch.setattr(fitting, "GAIN_FLOOR", floor)
            calls = []

            def counted(*args):
                calls.append(1)
                return _cost(*args)

            monkeypatch.setattr(fitting, "_cost", counted)
            results = [fit(benchmark_draw(default_cfg, [2025, seed])[1], default_cfg,
                           options=options) for seed in range(6)]
            return results, len(calls)

        before, before_calls = fits(0.0)
        after, after_calls = fits(GAIN_FLOOR)
        for old, new in zip(before, after):
            assert np.max(circular_distance(new.model.x, old.model.x)) <= 3e-8
            assert abs(new.residual - old.residual) <= 1e-14 * old.residual
            assert new.converged and new.start == old.start
        assert after_calls < before_calls


class TestDefaultFitRecovery:
    def test_benchmark_draws(self, default_cfg):
        # the default 81-start fit on the fit benchmark's kind of trace.
        # Criterion 8 checks one start on 120 points only.
        for seed in range(10):
            planted, trace = benchmark_draw(default_cfg, [2024, seed])
            result = fit(trace, default_cfg)
            err = np.max(circular_distance(result.model.x, planted.x))
            assert err <= 0.05, (seed, err)
            assert abs(result.model.phase_scale - 1.0) <= 0.01, seed

    @pytest.mark.parametrize("offset", [0.05, 0.3])
    def test_constant_offset_moves_only_the_bias(self, default_cfg, offset):
        # a dark level subtracted from every detector: the bias is free of
        # sign, so the fit moves its bias by the offset and nothing else
        for seed in range(3):
            _, trace = benchmark_draw(default_cfg, [2222, seed])
            shifted = DetectorTrace(trace.phi, trace.intensities - offset)
            assert shifted.intensities.min() < 0.0
            ref, got = fit(trace, default_cfg), fit(shifted, default_cfg)
            assert np.max(circular_distance(got.model.x, ref.model.x)) <= 1e-8
            assert abs(got.model.phase_scale - ref.model.phase_scale) <= 1e-8
            np.testing.assert_allclose(np.add(got.model.bias, offset),
                                       ref.model.bias, atol=1e-8)
            np.testing.assert_allclose(got.model.scale, ref.model.scale,
                                       atol=1e-8)

    def test_near_alias_with_incidental_phases(self):
        # the one wrong fit among 78 determined noiseless traces of random
        # configs over the whole domain, planted at the published setpoints:
        # from a grid on them the fit ended at 5e-12 of |d|^2, converged but
        # 1.68 rad off.  The grid on r0 reaches the planted network
        cfg = ExperimentConfig(
            chi0=0.7735396672650873, t_ps=0.07813402167813699, t_phi=1.0,
            t_2phi=0.08289912595401605,
            alpha=(2.762765438958122, 3.7035961456916207, 1.9282765204999524,
                   2.080926916543573),
            theta=(2.1077449410365814, 6.001288408634171, 5.445657615927049,
                   2.041818021736359),
            psi=(4.640976271669032, 5.322215504918398, 4.237801646800543,
                 4.39623003826972, 0.5066413194008282, 5.074704331933297),
            alpha_a=0.3586625836352794, theta_a=6.196327649544155,
            alpha_b=1.2838154573412541, theta_b=1.4024658668151628,
            psi_a=2.9270078204601315)
        offsets = (-0.11470275610268754, -0.37806537280291197,
                   -0.33500303109507334, 0.4674729485228447)
        planted = cfg.replace(x=tuple(np.add(published_setpoints(cfg), offsets)))
        result = fit(synthesize_measured_trace(planted, grid=120), cfg)
        want = _network_deviation(np.asarray(planted.x), cfg)
        assert np.max(circular_distance(result.network_deviation, want)) <= 1e-6


class TestVisibility:
    def test_bias_lowers_raw_visibility(self, default_cfg):
        trace, _ = planted_trace(default_cfg, dx=(0, 0, 0, 0), scale=(1, 1, 1),
                                 bias=(0.1, 0.1, 0.1))
        result = fit(trace, default_cfg, options=SINGLE_START)
        report = residual_report(result, trace)
        for i in range(3):
            col = trace.intensities[:, i]
            raw = (col.max() - col.min()) / (col.max() + col.min())
            assert report[f"d{i}"]["visibility"] > raw


class TestValidation:
    def test_too_few_points(self, default_cfg):
        trace, _ = planted_trace(default_cfg, grid=10)
        with pytest.raises(ValueError, match="30"):
            fit(trace, default_cfg)

    def test_short_span(self, default_cfg):
        grid = np.linspace(0.0, PI, 50)
        cfg = default_cfg.replace(x=fourier_setpoints(default_cfg))
        trace = synthesize_measured_trace(cfg, grid=grid)
        with pytest.raises(ValueError, match="period"):
            fit(trace, default_cfg)

    @pytest.mark.parametrize("n", [30, 50, 99])
    def test_default_grid_covers_a_period(self, default_cfg, n):
        # an endpoint-free grid spans 2 pi (n - 1) / n; one more step closes it
        trace, _ = planted_trace(default_cfg, grid=n)
        assert trace.phi[-1] - trace.phi[0] < 0.99 * TWO_PI
        result = fit(trace, default_cfg, options=SINGLE_START)
        assert result.residual < 1e-10

    @pytest.mark.parametrize("options", [None, SINGLE_START])
    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_non_positive_init_phase_scale(self, default_cfg, options, lam):
        # -lam fits the mirrored trace as well as lam does, with other x
        trace, _ = planted_trace(default_cfg)
        init = FitModel(x=fourier_setpoints(default_cfg), phase_scale=lam)
        with pytest.raises(ValueError, match="phase_scale"):
            fit(trace, default_cfg, init, options)

    @pytest.mark.parametrize("grid", [720, 120])
    @pytest.mark.parametrize("dead, free", [
        ("t_phi", [0.0, 1.0, -1.0, 0.0, 1.0]), ("t_2phi", [0.0, 1.0, 0.0, 0.0, 0.0])])
    def test_undetermined_trace_refused(self, default_cfg, dead, free, grid):
        # a dead arm leaves x free along a direction in (lam, x1..x4): the
        # fit would report one point of that line as converged, at residual
        # 0, with network_deviation up to pi off
        cfg = default_cfg.replace(**{dead: 0.0})
        cfg = cfg.replace(x=fourier_setpoints(cfg))
        with pytest.raises(ValueError, match="does not determine") as info:
            fit(synthesize_measured_trace(cfg, grid=grid), cfg)
        named = np.array(json.loads(str(info.value).split("free along ")[1]))
        assert abs(named @ free) / np.linalg.norm(free) == pytest.approx(1.0, abs=2e-3)

    def test_trace_without_interference_refused(self, default_cfg):
        # a splitter that barely splits leaves every model curve flat: each
        # singular value of the Jacobian is below 1e-47 while their ratio is
        # about 3e-3, so only the floor on the data's norm refuses the fit
        cfg = default_cfg.replace(chi0=1e-17)
        cfg = cfg.replace(x=fourier_setpoints(cfg))
        peak = synthesize_measured_trace(cfg).intensities.max()
        trace = synthesize_measured_trace(cfg, noise_sigma=0.01 * peak, seed=1)
        with pytest.raises(ValueError, match="does not determine"):
            fit(trace, cfg)
        with pytest.raises(DegenerateConfigError):
            calibrate(cfg)

    def test_constant_trace(self, default_cfg):
        grid = default_phi_grid(50)
        trace = DetectorTrace(grid, np.full((50, 3), 0.25))
        with pytest.raises(ValueError, match="constant"):
            fit(trace, default_cfg)

    def test_all_zero_trace(self, default_cfg):
        trace = DetectorTrace(default_phi_grid(50), np.zeros((50, 3)))
        with pytest.raises(ValueError, match="constant"):
            fit(trace, default_cfg)

    @pytest.mark.parametrize("changes", [{"scale": (1.0, 1.0)},
                                         {"bias": (0.0,) * 4}, {"x": (0.0,) * 3}])
    def test_wrong_lengths_rejected(self, changes):
        with pytest.raises(ValueError, match=f"'{next(iter(changes))}' needs [34] entries"):
            FitModel(**changes)

    @pytest.mark.parametrize("field", ["scale", "bias", "phase_scale",
                                       "phase_offset", "x"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, None, "x", True])
    def test_non_finite_model_rejected(self, field, bad):
        value = {"scale": (1.0, bad, 1.0), "bias": (0.0, 0.0, bad),
                 "x": (bad,) * 4}.get(field, bad)
        with pytest.raises(ValueError, match=field):
            FitModel(**{field: value})

    @pytest.mark.parametrize("changes", [
        {"multistart_offsets": ()}, {"multistart_offsets": (0.0, np.nan)},
        {"multistart_offsets": (np.inf,)}, {"max_iterations": 0},
        {"max_iterations": np.nan}, {"max_iterations": 2.5},
        {"max_iterations": np.inf}, {"max_iterations": "3"},
        {"max_iterations": True}, {"multistart_offsets": None}])
    def test_bad_options_rejected(self, changes):
        with pytest.raises(ValueError):
            FitOptions(**changes)
