import numpy as np
import pytest
from closed_forms import (p1_closed_form, p2_closed_form, p3_closed_form,
                          p4_closed_form, step_curve)
from conftest import circular_distance, random_config

from optiqft import (ADJUSTMENT_PHI, CHI_TILDE, MONITORED_MODES,
                     CalibrationError, DegenerateConfigError,
                     ExperimentConfig, calibrate, default_phi_grid,
                     detector_intensity_curves, fourier_setpoints,
                     simulated_step_intensity, solve_step, target_intensity)
from optiqft import calibration
from optiqft.experiment import reference_intensities

PI = np.pi
TWO_PI = 2 * PI
CLOSED_FORMS = (p1_closed_form, p2_closed_form, p3_closed_form, p4_closed_form)


def p4_legacy_snapshot(phi, cfg):
    """Frozen transcription of the published step-4 expression.

    Kept only as a regression fixture: the expression carries no shifter
    offset and does not match the block model for any phase convention
    (see test_published_step4_snapshot_deviates).
    """
    s, c = np.sin(cfg.chi0), np.cos(cfg.chi0)
    x0, ct = cfg.chi0, CHI_TILDE
    tps, tphi, t2phi = cfg.t_ps, cfg.t_phi, cfg.t_2phi
    rt2 = np.sqrt(2.0)
    return (1.0 / 12.0) * s**2 * c**2 * (
        2 * tps**4 * t2phi**2 * np.cos(2 * phi)**2
        * (tps * (6 * tps * s**4 - np.sin(2 * x0)**2) + 6 * c**4)
        - 8 * tps**3 * t2phi * np.cos(2 * phi)
        * (np.cos(phi) * (2 * tps * tphi * s**3 * c**2 - 3 * tphi * s * c**4)
           + rt2 * np.sin(2 * x0))
        + 12 * tps**2 * c**4 * (tps**2 * t2phi**2 * np.sin(2 * phi)**2
                                + tphi * s * (4 * tps * t2phi * np.sin(phi)**2
                                              * np.cos(phi) + tphi * s))
        - 8 * tps**2 * s**3 * c * (2 * np.cos(phi)
                                   * (tps * (3 * tps + 1) * t2phi * np.sin(phi)
                                      + rt2 * tphi * s)
                                   + (3 * tps + 1) * tphi * s * np.sin(phi))
        + 12 * s**2 * c**2 * (2 * tps**5 * t2phi**2 * np.sin(2 * phi)**2
                              * np.cos(2 * ct)
                              - tps**3 * tphi**2 * np.cos(2 * x0) * np.cos(2 * ct)
                              + 1)
        + tps * (24 * tps**4 * tphi * t2phi * s**5 * np.cos(phi)
                 + 6 * tps**3 * tphi**2 * s**6
                 - 4 * tps**3 * tphi * t2phi * np.sin(2 * x0)**2 * s
                 * np.sin(phi) * np.sin(2 * phi)
                 + (-tps**2 * tphi**2 + 3 * tps + 2) * np.sin(2 * x0)**2
                 - 3 * tps**3 * s**4 * (2 * tps**2 * t2phi**2 * np.cos(4 * phi)
                                        - 2 * tps**2 * t2phi**2
                                        + tphi**2 * np.cos(2 * x0) - tphi**2))
        + 8 * tps * s * c**3 * (3 * tphi * s * (np.sin(phi)
                                                - tps * np.sin(phi + 2 * ct))
                                + tps * (tps + 3) * t2phi * np.sin(2 * phi)))


class TestClosedFormsAgainstSimulation:
    def test_defaults_full_grid(self, default_cfg):
        dxs = np.linspace(0.0, TWO_PI, 120, endpoint=False)
        for phi in np.linspace(0.0, TWO_PI, 5, endpoint=False):
            for step, form in enumerate(CLOSED_FORMS, start=1):
                closed = form(dxs, phi, default_cfg)
                sim = simulated_step_intensity(step, dxs, phi, default_cfg)
                assert np.max(np.abs(closed - sim)) < 1e-12, (step, phi)

    def test_random_configs(self):
        # closed forms carry no incidental phases; with the shifter offsets
        # measured from the pinned reference they match the pipeline for
        # arbitrary configurations
        rng = np.random.default_rng(17)
        dxs = np.linspace(0.0, TWO_PI, 48, endpoint=False)
        for _ in range(8):
            cfg = random_config(rng)
            phi = rng.uniform(0.0, TWO_PI)
            for step, form in enumerate(CLOSED_FORMS, start=1):
                closed = form(dxs, phi, cfg)
                sim = simulated_step_intensity(step, dxs, phi, cfg)
                assert np.max(np.abs(closed - sim)) < 1e-12, step

    def test_lossless_symmetric_limit(self):
        cfg = ExperimentConfig(chi0=PI / 4, t_ps=1.0, t_phi=1.0, t_2phi=1.0)
        dxs = np.linspace(0.0, TWO_PI, 60, endpoint=False)
        for step, form in enumerate(CLOSED_FORMS, start=1):
            closed = form(dxs, ADJUSTMENT_PHI, cfg)
            sim = simulated_step_intensity(step, dxs, ADJUSTMENT_PHI, cfg)
            assert np.max(np.abs(closed - sim)) < 1e-12

    def test_published_step4_snapshot_deviates(self, default_cfg):
        # regression fixture: the published step-4 expression disagrees with
        # the block simulation at the calibrated point by a large margin
        phis = np.linspace(0.1, TWO_PI, 11)
        dev = max(abs(p4_legacy_snapshot(p, default_cfg)
                      - p4_closed_form(0.0, p, default_cfg)) for p in phis)
        assert 0.3 < dev < 0.55


class TestFringeShapes:
    def test_p1_vanishes_without_splitting(self, default_cfg):
        cfg = default_cfg.replace(chi0=1e-8)
        assert p1_closed_form(0.7, ADJUSTMENT_PHI, cfg) < 1e-15

    def test_p1_extrema_on_cosine(self, default_cfg):
        dxs = np.linspace(0.0, TWO_PI, 100001)
        vals = p1_closed_form(dxs, ADJUSTMENT_PHI, default_cfg)
        amax = dxs[np.argmax(vals)]
        assert circular_distance(amax + ADJUSTMENT_PHI, 0.0) < 1e-3

    def test_p2_near_minimum_at_zero(self, default_cfg):
        dxs = np.linspace(0.0, TWO_PI, 100001)
        vals = p2_closed_form(dxs, ADJUSTMENT_PHI, default_cfg)
        span = vals.max() - vals.min()
        assert (p2_closed_form(0.0, ADJUSTMENT_PHI, default_cfg)
                - vals.min()) < 2e-3 * span


class TestTargets:
    def test_target_is_curve_value_at_zero(self, default_cfg):
        for step in (1, 2, 3, 4):
            info = target_intensity(step, default_cfg)
            want = float(step_curve(step, 0.0, ADJUSTMENT_PHI, default_cfg))
            assert info.value == pytest.approx(want, abs=1e-15)
            assert info.lo <= info.value <= info.hi

    def test_step1_fraction_exact(self, default_cfg):
        # cos(pi/3) = 1/2 makes the step-1 fraction exactly 3/4
        info = target_intensity(1, default_cfg)
        assert info.fraction == pytest.approx(0.75, abs=1e-9)

    def test_degenerate_flag(self, default_cfg):
        info = target_intensity(1, default_cfg.replace(t_phi=0.0))
        assert info.degenerate
        assert info.value == pytest.approx(info.lo, abs=1e-12)

    def test_branch_signs_pinned(self, default_cfg):
        # derivation test for the pinned default-constant branch signs
        h = 1e-7
        for i, branch in zip((1, 2, 3, 4), (-1, +1, -1, -1)):
            slope = float(step_curve(i, h, ADJUSTMENT_PHI, default_cfg)
                          - step_curve(i, -h, ADJUSTMENT_PHI, default_cfg)) / (2 * h)
            assert np.sign(slope) == branch

    def test_nominal_fractions_recorded(self):
        # the published fractions are checked by criterion 5's parametrize
        assert MONITORED_MODES == (1, 0, 0, 1)


class TestSolveStep:
    def test_each_step_lands_at_zero(self, default_cfg):
        for step in (1, 2, 3, 4):
            sol = solve_step(step, default_cfg)
            assert circular_distance(sol.selected, 0.0) < 1e-6
            assert sol.residual < 1e-10

    def test_step1_has_two_roots_one_branch(self, default_cfg):
        sol = solve_step(1, default_cfg)
        assert len(sol.roots) == 2
        others = [r for r in sol.roots if circular_distance(r, 0.0) > 1e-6]
        assert len(others) == 1
        # the second crossing of the target sits at -2 * phi
        assert circular_distance(others[0], -2 * ADJUSTMENT_PHI) < 1e-6

    def test_simulated_signal_agrees(self, default_cfg):
        # driving the solver from the pipeline signal instead of the closed
        # form lands at the same point
        for step in (1, 2, 3, 4):
            sol = solve_step(step, default_cfg,
                             signal=lambda d, s=step: simulated_step_intensity(
                                 s, d, ADJUSTMENT_PHI, default_cfg))
            assert circular_distance(sol.selected, 0.0) < 1e-6

    def test_order_dependence(self, default_cfg):
        # skipping step 1 shifts the step-2 fringe; the solver then finds a
        # crossing away from zero, demonstrating the steps cannot commute
        signal = lambda d: simulated_step_intensity(2, d, ADJUSTMENT_PHI,
                                                    default_cfg,
                                                    prior_dx=(0.9,))
        sol = solve_step(2, default_cfg, signal=signal)
        assert circular_distance(sol.selected, 0.0) > 1e-3

    def test_degenerate_raises(self, default_cfg):
        with pytest.raises(DegenerateConfigError, match="step 1"):
            solve_step(1, default_cfg.replace(t_2phi=0.0))

    def test_roots_against_dense_scan(self):
        # every crossing the closed-form solver reports is a crossing of the
        # signal, it misses none that a dense periodic scan sees, and the
        # selected one lies on the branch
        rng = np.random.default_rng(8)
        dense = TWO_PI * (np.arange(20001) + 0.5) / 20001
        h = 1e-6
        for _ in range(25):
            cfg = random_config(rng)
            for step in (1, 2, 3, 4):
                prior = tuple(rng.uniform(-0.3, 0.3, 3))
                closed = lambda d, s=step: step_curve(s, d, ADJUSTMENT_PHI, cfg)
                simulated = lambda d, s=step, p=prior: simulated_step_intensity(
                    s, d, ADJUSTMENT_PHI, cfg, prior_dx=p)
                for signal in (closed, simulated):
                    target = target_intensity(step, cfg)
                    g = signal(dense) - target.value
                    crossings = int(np.sum(np.sign(g) != np.sign(np.roll(g, 1))))
                    try:
                        sol = solve_step(step, cfg, signal=signal)
                    except CalibrationError as exc:
                        assert "no crossing" in str(exc)
                        assert crossings == 0, (step, crossings)
                        continue
                    assert len(sol.roots) == crossings, (step, sol.roots)
                    scale = target.hi - target.lo
                    for r in sol.roots:
                        assert abs(signal(r) - target.value) <= 1e-12 * scale
                    r = sol.selected
                    slope = (signal(r + h) - signal(r - h)) / (2 * h)
                    assert np.sign(slope) == sol.branch

    @pytest.mark.parametrize("phi", [np.nan, np.inf, -np.inf])
    def test_non_finite_phi_rejected_by_name(self, default_cfg, phi):
        for call in (lambda: calibrate(default_cfg, phi=phi),
                     lambda: solve_step(2, default_cfg, phi=phi),
                     lambda: target_intensity(1, default_cfg, phi),
                     lambda: simulated_step_intensity(3, 0.1, phi, default_cfg)):
            with pytest.raises(ValueError, match="phi must be finite"):
                call()

    @pytest.mark.parametrize("step", [-1, 0, 5, True, 2.0, "2"])
    def test_step_outside_1_to_4_rejected_by_name(self, default_cfg, step):
        for call in (lambda: simulated_step_intensity(step, 0.1, ADJUSTMENT_PHI,
                                                      default_cfg),
                     lambda: target_intensity(step, default_cfg),
                     lambda: solve_step(step, default_cfg)):
            with pytest.raises(ValueError, match="'step' must be an integer"):
                call()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_prior_and_reference_rejected_by_name(self, default_cfg,
                                                             bad):
        with pytest.raises(ValueError, match="prior_dx must be finite"):
            simulated_step_intensity(3, 0.1, ADJUSTMENT_PHI, default_cfg,
                                     prior_dx=(0.1, bad))
        reference = list(fourier_setpoints(default_cfg))
        reference[1] = bad
        with pytest.raises(ValueError, match="reference must be finite"):
            simulated_step_intensity(3, 0.1, ADJUSTMENT_PHI, default_cfg,
                                     reference=reference)

    @pytest.mark.parametrize("entry, key, value", [
        *[(entry, "phi", value) for entry in ("simulated_step_intensity",
                                              "solve_step", "calibrate")
          for value in (None, [0.5], "pi")],
        ("simulated_step_intensity", "prior_dx", None),
        ("simulated_step_intensity", "prior_dx", [[0.1], [0.2]]),
        ("simulated_step_intensity", "reference", 0.5),
        ("simulated_step_intensity", "reference", [0.1, None, 0.2]),
    ], ids=repr)
    def test_non_numeric_arguments_rejected_by_name(self, default_cfg, entry,
                                                    key, value):
        # solve_step and calibrate take phi alone; prior_dx and reference
        # reach the step's fringe through simulated_step_intensity
        call = {"simulated_step_intensity": lambda **kw: simulated_step_intensity(
                    3, 0.1, kw.pop("phi", ADJUSTMENT_PHI), default_cfg, **kw),
                "solve_step": lambda **kw: solve_step(2, default_cfg, **kw),
                "calibrate": lambda **kw: calibrate(default_cfg, **kw)}[entry]
        with pytest.raises(ValueError, match=f"{key} must be a"):
            call(**{key: value})

    def test_short_reference_rejected_by_name(self, default_cfg):
        reference = fourier_setpoints(default_cfg)[:2]
        assert np.isfinite(simulated_step_intensity(
            2, 0.1, ADJUSTMENT_PHI, default_cfg, reference=reference))
        with pytest.raises(ValueError, match="reference needs at least 3"):
            simulated_step_intensity(3, 0.1, ADJUSTMENT_PHI, default_cfg,
                                     reference=reference)

    def test_fringe_margins_describe_the_sampled_fringe(self):
        # slope is the signal's derivative at the selected root, its sign is
        # the branch, and root_gap is the distance between the two roots
        rng = np.random.default_rng(31)
        h = 1e-5
        for _ in range(10):
            cfg = random_config(rng)
            for step in (1, 2, 3, 4):
                prior = tuple(rng.uniform(-0.3, 0.3, step - 1))
                signal = lambda d, s=step, p=prior: simulated_step_intensity(
                    s, d, ADJUSTMENT_PHI, cfg, prior_dx=p)
                try:
                    sol = solve_step(step, cfg, signal=signal)
                except CalibrationError:
                    continue
                r = sol.selected
                assert sol.slope == pytest.approx(
                    (signal(r + h) - signal(r - h)) / (2 * h), abs=1e-7)
                if sol.branch:
                    assert np.sign(sol.slope) == sol.branch
                dense = TWO_PI * np.arange(4096) / 4096
                values = signal(dense)
                assert sol.visibility == pytest.approx(
                    (values.max() - values.min()) / (values.max() + values.min()),
                    rel=1e-5)
                if len(sol.roots) == 2:
                    assert sol.root_gap == pytest.approx(
                        circular_distance(*sol.roots), abs=1e-12)
                else:
                    assert sol.root_gap == 0.0

    def test_higher_harmonic_signal_rejected(self, default_cfg):
        signal = lambda d: (step_curve(3, d, ADJUSTMENT_PHI, default_cfg)
                            + 0.05 * np.cos(2 * d))
        with pytest.raises(CalibrationError,
                           match="step 3: signal is not a first-harmonic"):
            solve_step(3, default_cfg, signal=signal)


class TestCalibrate:
    def test_defaults_return_nominal_setpoints(self, default_cfg):
        result = calibrate(default_cfg)
        assert np.max(circular_distance(result.x,
                                        fourier_setpoints(default_cfg))) < 1e-6

    def test_random_configs_recover_setpoints(self):
        rng = np.random.default_rng(99)
        for _ in range(5):
            cfg = random_config(rng)
            result = calibrate(cfg)
            assert np.max(circular_distance(result.x, fourier_setpoints(cfg))) < 1e-6

    def test_tuned_setting_reproduces_reference(self):
        # x misses the reference curves wherever the incidental phases are
        # not zero; tuned, the setting the steps measured, meets them at
        # mu = 0
        rng = np.random.default_rng(2024)
        grid = default_phi_grid(120)
        for _ in range(25):
            cfg = random_config(rng)
            result = calibrate(cfg)
            assert all(0.0 <= v < TWO_PI for v in result.tuned)
            got = detector_intensity_curves(result.tuned, grid, cfg)
            assert np.max(np.abs(got - reference_intensities(grid, cfg))) <= 1e-9

    def test_start_point_irrelevant(self, default_cfg):
        ref = fourier_setpoints(default_cfg)
        shifted = default_cfg.replace(x=tuple(v + 1.3 for v in ref))
        result = calibrate(shifted)
        assert np.max(circular_distance(result.x, ref)) < 1e-6

    def test_idempotent(self, default_cfg):
        first = calibrate(default_cfg)
        second = calibrate(default_cfg.replace(x=first.x))
        assert np.max(circular_distance(first.x, second.x)) < 1e-10

    def test_degenerate_config_fails_step1(self, default_cfg):
        with pytest.raises(DegenerateConfigError, match="step 1"):
            calibrate(default_cfg.replace(t_2phi=0.0))

    def test_report_serializable(self, default_cfg):
        import json
        result = calibrate(default_cfg)
        payload = json.loads(json.dumps(result.to_dict()))
        assert len(payload["steps"]) == 4
        for step in payload["steps"]:
            assert {"target", "roots", "selected", "residual"} <= set(step)
            assert {"visibility", "slope", "root_gap"} <= set(step)


class TestStepFringeMemo:
    def test_prefix_walks(self, monkeypatch):
        # the shifter enters the monitored arm once, so each (step, prior
        # offsets) fringe needs one forward-core call on two rows: calibrate
        # reads four, a repeat reads none, and the closed loop shares the
        # targets and adds one per step whose earlier offsets are not zero
        walks = []
        walk = calibration.forward_matrix
        monkeypatch.setattr(calibration, "forward_matrix",
                            lambda *args: walks.append(1) or walk(*args))
        cfg = random_config(np.random.default_rng(20261018))
        counts = []
        for _ in range(2):
            calibrate(cfg)
            counts.append(len(walks))
        selected = []
        for step in (1, 2, 3, 4):
            signal = lambda d, s=step, p=tuple(selected): simulated_step_intensity(
                s, d, ADJUSTMENT_PHI, cfg, prior_dx=p)
            selected.append(solve_step(step, cfg, signal=signal).selected)
        counts.append(len(walks))
        assert counts[0] == 4
        assert counts[1] == counts[0]
        assert counts[2] - counts[1] <= 3
