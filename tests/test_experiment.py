import numpy as np
import pytest
from conftest import circular_distance, random_config

from optiqft import (CHI_TILDE, NOMINAL_SETPOINT_SHIFT, CircuitDescription,
                     DetectorTrace, ExperimentConfig, Loss, Mirror, Phase,
                     Splitter, block_matrices, compose, default_phi_grid,
                     detector_intensities, detector_intensity_curves,
                     equal_up_to_output_phases, fourier_network_matrix,
                     fourier_setpoints, fourier_setpoints_exact, output_state,
                     prepare_state, primary_module_matrix, qft3_circuit,
                     qft_matrix, reference_intensities,
                     synthesize_measured_trace, theoretical_curves,
                     unitarity_defect, without_incidental_phases)

PI = np.pi
TWO_PI = 2 * PI


def ideal_cfg():
    return ExperimentConfig(chi0=PI / 4, t_ps=1.0, t_phi=1.0, t_2phi=1.0)


class TestConfig:
    def test_default_constants(self, default_cfg):
        assert default_cfg.t_ps == 0.935
        assert default_cfg.t_phi == 0.922
        assert default_cfg.t_2phi == 0.894
        assert np.cos(default_cfg.chi0) ** 2 == pytest.approx(0.445, abs=1e-12)

    def test_default_overrides_apply(self, default_cfg):
        # chi0 used to raise "got multiple values for keyword argument"
        cfg = ExperimentConfig.default(chi0=0.7, t_ps=0.9)
        assert cfg.chi0 == 0.7 and cfg.t_ps == 0.9
        assert cfg.t_phi == default_cfg.t_phi
        assert ExperimentConfig.default(t_ps=0.9).chi0 == default_cfg.chi0

    def test_json_roundtrip(self, default_cfg):
        cfg = default_cfg.replace(alpha=(0.1, 0.2, 0.3, 0.4), psi_a=1.5,
                                  x=(1.0, 2.0, 3.0, 4.0))
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg

    def test_unknown_key_named(self):
        with pytest.raises(ValueError, match="t_sp"):
            ExperimentConfig.from_dict({"chi0": 0.8, "t_sp": 0.9})

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(chi0=0.8, t_ps=1.2)
        with pytest.raises(ValueError):
            ExperimentConfig(chi0=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(chi0=0.8, psi=(0.0,) * 5)

    @pytest.mark.parametrize("changes", [
        {"alpha": (0.0, np.nan, 0.0, 0.0)}, {"theta": (np.inf, 0.0, 0.0, 0.0)},
        {"psi": (0.0,) * 5 + (np.nan,)}, {"x": (0.0, 0.0, -np.inf, 0.0)},
        {"alpha_a": np.nan}, {"psi_a": np.inf}], ids=lambda c: next(iter(c)))
    def test_non_finite_rejected(self, default_cfg, changes):
        (name,) = changes
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            default_cfg.replace(**changes)


class TestPrepareState:
    def test_phase_ramp_structure(self):
        cfg = ideal_cfg()
        for phi in (0.3, 1.7, 4.0):
            v = prepare_state(phi, cfg)
            ramp = np.exp(1j * phi * np.arange(3))
            np.testing.assert_allclose(np.imag(v / ramp), 0.0, atol=1e-12)

    def test_mode1_scaling_with_shifter_transmission(self, default_cfg):
        v1 = prepare_state(0.9, default_cfg)
        v2 = prepare_state(0.9, default_cfg.replace(t_phi=1.0))
        ratio = (abs(v1[1]) / abs(v1[0])) / (abs(v2[1]) / abs(v2[0]))
        assert ratio == pytest.approx(default_cfg.t_phi, abs=1e-12)

    def test_norm_bounded(self, default_cfg):
        for phi in default_phi_grid(37):
            assert np.linalg.norm(prepare_state(phi, default_cfg)) <= 1 + 1e-12


class TestPrimaryModule:
    def test_lossless_is_unitary(self):
        rng = np.random.default_rng(5)
        cfg = random_config(rng).replace(t_ps=1.0)
        u = primary_module_matrix(cfg, rng.uniform(0, TWO_PI, 4))
        assert unitarity_defect(u) < 1e-12

    def test_default_losses_subunitary(self, default_cfg):
        u = primary_module_matrix(default_cfg, (0.0, 0.0, 0.0, 0.0))
        assert np.linalg.svd(u, compute_uv=False).max() < 1.0

    def test_prefixes_accumulate_blocks(self, default_cfg):
        rng = np.random.default_rng(6)
        x = rng.uniform(0, TWO_PI, 4)
        acc = np.eye(3, dtype=complex)
        for b in block_matrices(default_cfg, x):
            acc = b @ acc
        np.testing.assert_allclose(primary_module_matrix(default_cfg, x),
                                   acc, atol=1e-14)

    def test_matches_element_netlist(self):
        # an oracle that does not go through block_pieces: every splitter,
        # loss, mirror and tunable phase of the four blocks in physical order
        rng = np.random.default_rng(21)
        for _ in range(20):
            cfg = random_config(rng)
            x = rng.uniform(0, TWO_PI, 4)
            c, al, th, psi, t = cfg.chi0, cfg.alpha, cfg.theta, cfg.psi, cfg.t_ps
            netlist = CircuitDescription(3, (
                Mirror(2, psi[0]), Phase(2, x[0]), Loss(2, t),
                Splitter(1, 2, c, al[0], th[0]),
                Mirror(1, psi[1]), Loss(1, t), Phase(1, x[1]),
                Splitter(0, 1, c, al[1], th[1]),
                Mirror(0, psi[2]), Loss(0, t), Phase(0, x[2]), Mirror(1, psi[3]),
                Splitter(0, 1, c, al[2], th[2]),
                Mirror(1, psi[4]), Loss(1, t), Phase(1, x[3]), Mirror(2, psi[5]),
                Splitter(1, 2, c, al[3], th[3])))
            np.testing.assert_allclose(primary_module_matrix(cfg, x),
                                       compose(netlist), rtol=0, atol=1e-14)


class TestSetpoints:
    def test_nominal_values_at_zero_incidentals(self, default_cfg):
        expected = np.mod([PI, -PI / 2, PI - 2 * CHI_TILDE, -PI + CHI_TILDE], TWO_PI)
        np.testing.assert_allclose(fourier_setpoints(default_cfg), expected,
                                   atol=1e-12)

    def test_exact_values_at_zero_incidentals(self, default_cfg):
        expected = np.mod([0.0, PI / 2, PI - 2 * CHI_TILDE, CHI_TILDE], TWO_PI)
        np.testing.assert_allclose(fourier_setpoints_exact(default_cfg), expected,
                                   atol=1e-12)

    def test_shift_constant_pinned(self, default_cfg):
        nominal = np.asarray(fourier_setpoints(default_cfg))
        exact = np.asarray(fourier_setpoints_exact(default_cfg))
        assert np.max(circular_distance(nominal - exact,
                                        NOMINAL_SETPOINT_SHIFT)) < 1e-12

    def test_wrap_invariance(self, default_cfg):
        cfg2 = default_cfg.replace(alpha=(TWO_PI, 0.0, 0.0, 0.0))
        np.testing.assert_allclose(fourier_setpoints(default_cfg),
                                   fourier_setpoints(cfg2), atol=1e-12)

    def test_exact_setpoints_reproduce_canonical_pipeline(self):
        # central consistency property: at the exact setpoints the full
        # model's detector curves equal the canonical-network pipeline
        rng = np.random.default_rng(42)
        grid = default_phi_grid(180)
        for _ in range(10):
            cfg = random_config(rng)
            got = detector_intensity_curves(fourier_setpoints_exact(cfg), grid, cfg)
            want = reference_intensities(grid, cfg)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_nominal_setpoints_deviate_for_random_incidentals(self):
        # regression: the nominal closed form does not reproduce the
        # canonical pipeline once incidental phases are nonzero
        rng = np.random.default_rng(43)
        grid = default_phi_grid(90)
        worst = 0.0
        for _ in range(5):
            cfg = random_config(rng)
            got = detector_intensity_curves(fourier_setpoints(cfg), grid, cfg)
            worst = max(worst, np.max(np.abs(got - reference_intensities(grid, cfg))))
        assert worst > 1e-3


class TestFourierNetwork:
    def test_ideal_limit_equals_circuit_up_to_output_phases(self):
        cfg = ideal_cfg()
        net = fourier_network_matrix(cfg)
        assert equal_up_to_output_phases(net, compose(qft3_circuit()), 1e-12)
        assert equal_up_to_output_phases(net, qft_matrix(3), 1e-12)

    def test_default_losses_passive(self, default_cfg):
        sv = np.linalg.svd(fourier_network_matrix(default_cfg), compute_uv=False)
        assert sv.max() <= 1.0 + 1e-12

    def test_column_magnitudes_ignore_output_phases(self, default_cfg):
        net = fourier_network_matrix(default_cfg)
        d = np.diag(np.exp(1j * np.array([0.3, 1.1, 2.9])))
        np.testing.assert_allclose(np.abs(d @ net), np.abs(net), atol=1e-15)

    def test_primary_module_at_exact_setpoints_ideal_limit(self):
        cfg = ideal_cfg()
        u = primary_module_matrix(cfg, fourier_setpoints_exact(cfg))
        assert equal_up_to_output_phases(u, fourier_network_matrix(cfg), 1e-12)
        assert equal_up_to_output_phases(u, qft_matrix(3), 1e-12)


class TestDetectorCurves:
    def test_intensities_sum_bounded(self, default_cfg):
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.uniform(0, TWO_PI, 4)
            phi = rng.uniform(0, TWO_PI)
            assert detector_intensities(x, phi, default_cfg).sum() <= 1 + 1e-12

    def test_periodicity(self, default_cfg):
        x = fourier_setpoints(default_cfg)
        for phi in (0.0, 0.9, 2.5):
            a = detector_intensities(x, phi, default_cfg)
            b = detector_intensities(x, phi + TWO_PI, default_cfg)
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_vectorized_matches_pointwise(self, default_cfg):
        x = (0.3, 1.2, 2.8, 4.4)
        grid = default_phi_grid(11)
        curves = detector_intensity_curves(x, grid, default_cfg)
        for i, phi in enumerate(grid):
            np.testing.assert_allclose(curves[i],
                                       detector_intensities(x, phi, default_cfg),
                                       atol=1e-13)
        np.testing.assert_allclose(
            np.abs(output_state(x, grid[3], default_cfg)) ** 2, curves[3],
            atol=1e-13)

    def test_three_lobes_one_per_detector(self, default_cfg):
        trace = theoretical_curves(default_cfg, mode="fixed", grid=720)
        peaks = np.array([trace.phi[np.argmax(trace.intensities[:, i])]
                          for i in range(3)])
        assert trace.intensities.max(axis=0).min() > 0.5
        order = np.argsort(peaks)
        gaps = np.diff(np.concatenate([peaks[order], [peaks[order][0] + TWO_PI]]))
        np.testing.assert_allclose(gaps, TWO_PI / 3, atol=0.15)

    def test_no_harmonic_above_two(self):
        # the ramp (1, e^{i phi}, e^{2 i phi}) makes every curve a
        # trigonometric polynomial of degree 2 in phi
        rng = np.random.default_rng(22)
        grid = default_phi_grid(64)
        for _ in range(20):
            cfg = random_config(rng)
            curves = detector_intensity_curves(rng.uniform(0, TWO_PI, 4), grid, cfg)
            spectrum = np.abs(np.fft.rfft(curves, axis=0))
            assert np.max(spectrum[3:]) <= 1e-13 * np.linalg.norm(spectrum)

    def test_curves_at_nominal_setpoints_default_config(self, default_cfg):
        # at zero incidentals the nominal setpoints drive the same fringe
        # family as the exact ones, shifted by half a period in phi
        x = fourier_setpoints(default_cfg)
        grid = default_phi_grid(360)
        got = detector_intensity_curves(x, grid, default_cfg)
        shifted = detector_intensity_curves(fourier_setpoints_exact(default_cfg),
                                            np.mod(grid + PI, TWO_PI), default_cfg)
        np.testing.assert_allclose(got, shifted, atol=1e-10)


class TestTheoreticalCurves:
    def test_ideal_mode_perfect_discrimination(self, default_cfg):
        trace = theoretical_curves(default_cfg, mode="ideal", grid=720)
        for m in range(3):
            idx = 240 * m
            assert trace.phi[idx] == pytest.approx(TWO_PI * m / 3)
            inten = trace.intensities[idx]
            assert inten[m] == pytest.approx(1.0, abs=1e-12)
            assert np.sort(inten)[:2].max() < 1e-12

    def test_fixed_mode_lossy_maxima(self, default_cfg):
        trace = theoretical_curves(default_cfg, mode="fixed", grid=360)
        assert trace.intensities.max() < 1.0

    def test_fixed_mode_point_oracle(self, default_cfg):
        # independent matrix-product route for the phi = 0 intensity triple
        from optiqft import loss_matrix, phase_matrix, splitter_matrix
        v = np.zeros(3, dtype=complex)
        v[2] = 1.0
        v = splitter_matrix(3, 0, 2, default_cfg.chi0, 0.0, 0.0) @ v
        v = splitter_matrix(3, 0, 1, default_cfg.chi0, 0.0, 0.0) @ v
        v = loss_matrix(3, 2, default_cfg.t_2phi) @ v
        v = loss_matrix(3, 1, default_cfg.t_phi) @ v
        want = np.abs(fourier_network_matrix(default_cfg) @ v) ** 2
        trace = theoretical_curves(default_cfg, mode="fixed", grid=8)
        np.testing.assert_allclose(trace.intensities[0], want, atol=1e-13)

    def test_ideal_limit_network_replacement(self):
        # with unit transmissions the canonical network acts on the prepared
        # state exactly like the lossless Fourier circuit
        cfg = ideal_cfg()
        grid = default_phi_grid(180)
        fixed = reference_intensities(grid, cfg)
        f = qft_matrix(3)
        direct = np.array([np.abs(f @ prepare_state(p, cfg)) ** 2 for p in grid])
        np.testing.assert_allclose(fixed, direct, atol=1e-12)

    def test_ideal_limit_preparation_is_not_uniform(self):
        # the fan-out cascade with a single split angle cannot produce the
        # uniform ramp state, so fixed-mode curves differ from ideal-mode
        # curves even at unit transmissions; pinned as documentation
        cfg = ideal_cfg()
        fixed = theoretical_curves(cfg, mode="fixed", grid=90)
        ideal = theoretical_curves(cfg, mode="ideal", grid=90)
        assert np.max(np.abs(fixed.intensities - ideal.intensities)) > 0.1
        mags = np.abs(prepare_state(0.0, cfg))
        assert abs(mags[0] - mags[2]) > 0.1

    def test_bad_mode(self, default_cfg):
        with pytest.raises(ValueError):
            theoretical_curves(default_cfg, mode="other")


class TestLossMonotonicity:
    def test_total_intensity_monotone_near_operating_point(self, default_cfg):
        # scaling any transmission down within [0.5, 1] never raises the
        # total detected intensity, checked pointwise on a phi grid
        grid = default_phi_grid(48)
        for key in ("t_ps", "t_phi", "t_2phi"):
            prev = None
            for s in np.linspace(1.0, 0.5, 11):
                cfg = default_cfg.replace(**{key: getattr(default_cfg, key) * s})
                tot = reference_intensities(grid, cfg).sum(axis=1)
                if prev is not None:
                    assert np.all(tot <= prev + 1e-12), key
                prev = tot

    def test_strong_loss_counterexample_pinned(self, default_cfg):
        # deep in the lossy regime the monotonicity breaks: unbalancing the
        # arms undoes destructive interference at the outputs
        grid = default_phi_grid(48)
        tot_a = reference_intensities(
            grid, default_cfg.replace(t_ps=default_cfg.t_ps * 0.35)).sum(axis=1)
        tot_b = reference_intensities(
            grid, default_cfg.replace(t_ps=default_cfg.t_ps * 0.30)).sum(axis=1)
        assert np.max(tot_b - tot_a) > 1e-3


class TestSynthesizedTrace:
    def test_noiseless_equals_model(self, default_cfg):
        cfg = default_cfg.replace(x=fourier_setpoints(default_cfg))
        trace = synthesize_measured_trace(cfg, grid=60)
        want = detector_intensity_curves(cfg.x, trace.phi, cfg)
        np.testing.assert_allclose(trace.intensities, want, atol=1e-14)

    def test_bias_floor(self, default_cfg):
        cfg = default_cfg.replace(x=fourier_setpoints(default_cfg))
        trace = synthesize_measured_trace(cfg, bias=(0.2, 0.3, 0.1), grid=60)
        assert np.all(trace.intensities.min(axis=0) >= (0.2, 0.3, 0.1))

    def test_seeded_reproducibility(self, default_cfg):
        cfg = default_cfg.replace(x=fourier_setpoints(default_cfg))
        a = synthesize_measured_trace(cfg, noise_sigma=0.01, seed=7, grid=60)
        b = synthesize_measured_trace(cfg, noise_sigma=0.01, seed=7, grid=60)
        assert a.to_csv() == b.to_csv()
        c = synthesize_measured_trace(cfg, noise_sigma=0.01, seed=8, grid=60)
        assert a.to_csv() != c.to_csv()

    def test_validation(self, default_cfg):
        with pytest.raises(ValueError):
            synthesize_measured_trace(default_cfg, scale=(0.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            synthesize_measured_trace(default_cfg, noise_sigma=-1.0)

    @pytest.mark.parametrize("kwargs", [
        {"scale": (np.nan, 1.0, 1.0)}, {"scale": (1.0, np.inf, 1.0)},
        {"bias": (0.0, np.nan, 0.0)}, {"noise_sigma": np.nan},
        {"noise_sigma": np.inf}, {"phase_scale": np.inf},
        {"phase_scale": np.nan}, {"phase_offset": -np.inf}],
        ids=lambda k: "-".join(f"{n}={v}" for n, v in k.items()))
    def test_non_finite_rejected_by_name(self, default_cfg, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            synthesize_measured_trace(default_cfg, grid=60, **kwargs)

    @pytest.mark.parametrize("n", [0, -3])
    def test_empty_grid_rejected(self, default_cfg, n):
        with pytest.raises(ValueError, match="at least one point"):
            default_phi_grid(n)
        with pytest.raises(ValueError, match="at least one point"):
            synthesize_measured_trace(default_cfg, grid=n)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "4"])
    def test_non_integer_grid_rejected(self, default_cfg, n):
        # 2.5 used to give a 2-point grid silently
        with pytest.raises(ValueError, match="integer"):
            default_phi_grid(n)
        with pytest.raises(ValueError, match="integer"):
            theoretical_curves(default_cfg, grid=n)
        with pytest.raises(ValueError, match="integer"):
            synthesize_measured_trace(default_cfg, grid=n)
        assert default_phi_grid(np.int64(3)).size == 3


class TestDetectorTrace:
    def test_csv_roundtrip(self, default_cfg):
        trace = theoretical_curves(default_cfg, grid=33)
        again = DetectorTrace.from_csv(trace.to_csv())
        np.testing.assert_array_equal(again.phi, trace.phi)
        np.testing.assert_array_equal(again.intensities, trace.intensities)

    def test_header_enforced(self):
        with pytest.raises(ValueError, match="header"):
            DetectorTrace.from_csv("phi,a,b,c\n0.0,1,2,3\n")

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            DetectorTrace(np.array([0.0, 0.0, 1.0]), np.zeros((3, 3)))

    def test_intensities_nonnegative(self):
        with pytest.raises(ValueError):
            DetectorTrace(np.array([0.0, 1.0]), np.array([[0.1, -0.2, 0.3],
                                                          [0.1, 0.2, 0.3]]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            DetectorTrace(np.array([0.0, 1.0]), np.array([[0.1, np.nan, 0.3],
                                                          [0.1, 0.2, 0.3]]))
        with pytest.raises(ValueError, match="finite"):
            DetectorTrace(np.array([0.0, np.inf]), np.full((2, 3), 0.1))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_csv_non_finite_row_rejected(self, bad):
        text = f"phi,d0,d1,d2\n0.0,0.1,0.2,0.3\n1.0,0.1,{bad},0.3\n"
        with pytest.raises(ValueError, match="finite"):
            DetectorTrace.from_csv(text)

    def test_incidental_stripping(self):
        rng = np.random.default_rng(9)
        cfg = random_config(rng)
        stripped = without_incidental_phases(cfg)
        assert stripped.alpha == (0.0,) * 4
        assert stripped.psi == (0.0,) * 6
        assert stripped.psi_a == 0.0
        assert stripped.chi0 == cfg.chi0
        assert stripped.t_ps == cfg.t_ps
