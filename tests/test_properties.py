"""Property tests over drawn inputs: the block model against the closed-form
oracle, batched evaluations against single ones, the forward core's affine
dependence on each tunable phase, the fit's coefficient table against the
core, the fringe basis and phase factors against their stacked formulas,
a staged round's cost on 5 samples against the cost on 8, the model's two
exact symmetries (the fit's gauge and the incidental-phase shift), the step
fringe at any absolute phases, the gauge-free network deviation, the fit against
the cost at the planted parameters, calibrate and the fit on every admitted
config answering or refusing, unitarity, Reck round trips and the file
formats.

Derandomized with a bounded number of examples, so every run draws the
same inputs and the suite stays deterministic.
"""

import io

import numpy as np
import pytest
from closed_forms import step_curve
from conftest import EIGHT_THETA, haar_unitary
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from optiqft import (MONITORED_MODES, CircuitDescription,
                     DegenerateConfigError, DetectorTrace, ExperimentConfig,
                     FitModel, Loss, Mirror, Phase, Splitter, calibrate, compose,
                     default_phi_grid, detector_intensity_curves, fit,
                     fourier_setpoints, fourier_setpoints_exact, model_predict,
                     reck_decompose, reconstruction_error, reference_intensities,
                     simulated_step_intensity, synthesize_measured_trace,
                     target_intensity, unitarity_defect,
                     without_incidental_phases)
from optiqft.calibration import _step_fringe_memo
from optiqft.experiment import (forward_matrix, fringe_basis,
                                fringe_coefficients)
from optiqft.fitting import (MU_GAUGE_X_DIRECTION, STAGE_THETA, _cost,
                             _curves_and_derivatives, _inner_scale_bias,
                             _network_deviation, _phase_factors,
                             _residual_jacobian)

TWO_PI = 2.0 * np.pi

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None,
                    database=None)


def _angles(n):
    return st.tuples(*[st.floats(0.0, TWO_PI)] * n)


#: the ranges of conftest.random_config
random_configs = st.builds(
    ExperimentConfig,
    chi0=st.floats(0.5, 1.1), t_ps=st.floats(0.8, 1.0),
    t_phi=st.floats(0.8, 1.0), t_2phi=st.floats(0.8, 1.0),
    alpha=_angles(4), theta=_angles(4), psi=_angles(6),
    alpha_a=st.floats(0.0, TWO_PI), theta_a=st.floats(0.0, TWO_PI),
    alpha_b=st.floats(0.0, TWO_PI), theta_b=st.floats(0.0, TWO_PI),
    psi_a=st.floats(0.0, TWO_PI))

finite = st.floats(allow_nan=False, allow_infinity=False)


@PROPERTY
@given(cfg=random_configs, step=st.integers(1, 4),
       phi=st.floats(0.0, TWO_PI), dx=st.floats(-np.pi, np.pi))
def test_block_model_matches_closed_form_oracle(cfg, step, phi, dx):
    closed = float(step_curve(step, dx, phi, cfg))
    assert abs(simulated_step_intensity(step, dx, phi, cfg) - closed) <= 1e-12
    at_zero = float(step_curve(step, 0.0, phi, cfg))
    assert abs(target_intensity(step, cfg, phi).value - at_zero) <= 1e-12


@PROPERTY
@given(cfg=random_configs, step=st.integers(1, 4), phi=st.floats(0.0, TWO_PI),
       prior=st.tuples(*[st.floats(-np.pi, np.pi)] * 3),
       other=st.floats(-np.pi, np.pi),
       dx=st.one_of(st.floats(-np.pi, np.pi),
                    st.lists(st.floats(-np.pi, np.pi), min_size=1, max_size=9)
                    .map(np.array)))
def test_memoized_step_intensity_matches_uncached(cfg, step, phi, prior, other,
                                                  dx):
    # fill the memo with this step's neighbours and a sibling whose earlier
    # offsets differ, then read through a differently typed prior_dx
    for s in (1, 2, 3, 4):
        simulated_step_intensity(s, 0.0, phi, cfg, prior_dx=prior)
        simulated_step_intensity(s, 0.0, phi, cfg, prior_dx=(other,) + prior[1:])
    memo = simulated_step_intensity(step, dx, phi, cfg,
                                    prior_dx=np.array(prior[:step - 1]))
    _step_fringe_memo.cache_clear()
    fresh = simulated_step_intensity(step, dx, phi, cfg, prior_dx=prior)
    assert type(memo) is type(fresh)
    assert np.array_equal(memo, fresh)


def _close(batched, single):
    """Row of a batched evaluation against the single call, to 1e-15 of
    the single call's largest entry."""
    single = np.asarray(single)
    assert batched.shape == single.shape
    assert np.max(np.abs(batched - single), initial=0.0) <= 1e-15 * max(
        1.0, np.max(np.abs(single), initial=0.0))


@PROPERTY
@given(cfg=random_configs, seed=st.integers(0, 2**32 - 1),
       k=st.integers(0, 4), n=st.sampled_from([8, 30, 61]))
def test_batched_rows_match_single_calls(cfg, seed, k, n):
    rng = np.random.default_rng(seed)
    p = np.column_stack([rng.uniform(0.9, 1.1, 5), rng.uniform(-7.0, 7.0, (5, 4))])
    phi = default_phi_grid(n)
    data = rng.uniform(0.0, 1.0, (n, 3))
    u = forward_matrix(cfg, p[:, 1:1 + k])
    bare = forward_matrix(cfg, p[:, 1:1 + k], prepared=False)
    curves = detector_intensity_curves(p[:, 1:], phi, cfg, p[:, 0])
    # a negated curve drives the scale to its clamp
    inner = _inner_scale_bias(np.swapaxes(np.concatenate([curves, -curves]), -1, -2), data)
    cost = _cost(p, cfg, phi, data)
    resid, jac, fit_scale, fit_bias = _residual_jacobian(p, cfg, phi, data)
    for i, row in enumerate(p):
        _close(u[i], forward_matrix(cfg, row[1:1 + k]))
        _close(bare[i], forward_matrix(cfg, row[1:1 + k], prepared=False))
        single = detector_intensity_curves(row[1:], phi, cfg, row[0])
        _close(curves[i], single)
        for sign, j in ((1.0, i), (-1.0, i + len(p))):
            for got, want in zip(inner, _inner_scale_bias(sign * single.T, data)):
                _close(got[j], want)
        _close(cost[i], _cost(row, cfg, phi, data))
        # the cost the search descends is the residual it linearizes
        _close(cost[i], resid[i] @ resid[i])
        for got, want in zip((resid[i], jac[i], fit_scale[i], fit_bias[i]),
                             _residual_jacobian(row, cfg, phi, data)):
            _close(got, want)


@PROPERTY
@given(cfg=random_configs,
       x=st.lists(st.floats(-7.0, 7.0), min_size=1, max_size=4).map(np.array),
       data=st.data(), t=st.floats(-7.0, 7.0), prepared=st.booleans())
def test_forward_core_is_affine_in_each_phase(cfg, x, data, t, prepared):
    # x_k enters U once, as e^{i x_k}: the core at x and at x + pi e_k gives
    # U at every x + t e_k, which is why dU/dx_k = (i/2) (U - U^pi)
    e_k = np.eye(x.size)[data.draw(st.integers(0, x.size - 1), label="k")]
    u, u_pi = forward_matrix(cfg, [x, x + np.pi * e_k], prepared)
    moved = forward_matrix(cfg, x + t * e_k, prepared)
    want = 0.5 * (u + u_pi) + 0.5 * (u - u_pi) * np.exp(1j * t)
    assert np.max(np.abs(moved - want)) <= 1e-13 * np.max(np.abs(u))


@PROPERTY
@given(cfg=random_configs, x=st.tuples(*[st.floats(-50.0, 50.0)] * 4).map(np.array))
def test_coefficient_table_matches_forward_core(cfg, x):
    # the fit's curves and x-derivatives, read from the table, against the
    # core at x and the parameter-shift rule dU/dx_k = (i/2) (U - U^pi)
    # through the product rule: C is quadratic in U, so its derivative
    # along dU is (C(U + dU) - C(U - dU)) / 2
    u = forward_matrix(cfg, x + np.pi * np.eye(5, 4, -1))
    du = 0.5j * (u[:1] - u[1:])
    coef = fringe_coefficients(u[0])
    d_coef = 0.5 * (fringe_coefficients(u[0] + du) - fringe_coefficients(u[0] - du))
    phi = default_phi_grid(5)
    curves, jac = _curves_and_derivatives(np.concatenate([[1.0], x]), cfg, phi)
    tol = 1e-13 * np.max(np.abs(coef))
    assert np.max(np.abs(curves - (fringe_basis(phi) @ coef).T)) <= tol
    assert np.max(np.abs(jac[:, 1:] - np.moveaxis(fringe_basis(phi) @ d_coef, -1, 0))) <= tol


@PROPERTY
@given(theta=hnp.arrays(float, hnp.array_shapes(min_dims=0, max_dims=3, max_side=6),
                        elements=finite))
def test_basis_fills_match_the_stacked_formulas(theta):
    # fringe_basis and _phase_factors fill their columns from contiguous
    # cos and sin: bitwise the np.stack of the same formulas, also on a
    # strided view such as a fit's x columns
    for t in (theta, theta[..., ::2]) if theta.ndim else (theta,):
        ones, c, s = np.ones_like(t), np.cos(t), np.sin(t)
        np.testing.assert_array_equal(
            fringe_basis(t), np.stack([ones, c, s, c * c - s * s, 2.0 * c * s], axis=-1))
        np.testing.assert_array_equal(_phase_factors(t), np.stack([ones, c, s], axis=-1))


def _sampled_stage(p, cfg, theta, coef):
    """Cost, J^T J and J^T r per row of p on the fringes with coefficients
    coef sampled at theta, each divided by the number of samples, and
    |J| |r| for the scale of J^T r."""
    data = fringe_basis(theta) @ coef
    resid, jac = _residual_jacobian(p, cfg, theta, data)[:2]
    jac = jac[..., -4:]  # a staged round builds the x columns alone
    jt = np.swapaxes(jac, -1, -2) / theta.size
    return (_cost(p, cfg, theta, data) / theta.size, jt @ jac,
            (jt @ resid[..., None])[..., 0],
            np.linalg.norm(jt, axis=(-2, -1)) * np.linalg.norm(resid, axis=-1))


@PROPERTY
@given(cfg=random_configs, seed=st.integers(0, 2**32 - 1))
def test_stage_cost_is_the_cost_on_eight_samples(cfg, seed):
    # a staged round runs rows of x on 5 uniform samples of the fringes;
    # products of harmonics 0-2 reach harmonic 4 < 5, so (8/5 times) its
    # cost, scale and bias solve included, is that of (lam = 1, x) rows on
    # 8 samples, and the x columns give the same Gauss-Newton normal
    # equations, to 1e-10: the projection of the Jacobian cancels digits
    rng = np.random.default_rng(seed)
    x = rng.uniform(-7.0, 7.0, (6, 4))
    coef = rng.normal(0.0, 0.3, (5, 3)) + [[1.0], [0.0], [0.0], [0.0], [0.0]]
    cost, jtj, jtr, _ = _sampled_stage(x, cfg, STAGE_THETA, coef)
    cost_8, jtj_8, jtr_8, scale_8 = _sampled_stage(
        np.column_stack([np.ones(6), x]), cfg, EIGHT_THETA, coef)
    assert jtj.shape == (6, 4, 4)
    np.testing.assert_allclose(cost, cost_8, rtol=1e-12, atol=0)
    assert np.all(np.abs(jtj - jtj_8).max(axis=(-2, -1))
                  <= 1e-10 * np.abs(jtj_8).max(axis=(-2, -1)))
    assert np.all(np.abs(jtr - jtr_8).max(axis=-1) <= 1e-10 * scale_8)


@PROPERTY
@given(cfg=random_configs, seed=st.integers(0, 2**32 - 1))
def test_four_samples_lose_the_stage_cost(cfg, seed):
    # the negative control: on 4 points harmonic 4 aliases to 0, so the
    # cost of a row of x differs from the cost on 8 samples
    rng = np.random.default_rng(seed)
    x = rng.uniform(-7.0, 7.0, (6, 4))
    coef = rng.normal(0.0, 0.3, (5, 3)) + [[1.0], [0.0], [0.0], [0.0], [0.0]]
    four = _sampled_stage(x, cfg, TWO_PI * np.arange(4) / 4, coef)[0]
    eight = _sampled_stage(np.column_stack([np.ones(6), x]), cfg, EIGHT_THETA, coef)[0]
    assert np.max(np.abs(four - eight) / eight) > 1e-3


@PROPERTY
@given(cfg=random_configs, x=_angles(4), delta=st.floats(-50.0, 50.0))
def test_network_deviation_is_gauge_invariant(cfg, x, delta):
    a = _network_deviation(x, cfg)
    b = _network_deviation(np.add(x, delta * MU_GAUGE_X_DIRECTION), cfg)
    assert np.max(np.abs(np.mod(a - b + np.pi, TWO_PI) - np.pi)) <= 1e-12


@PROPERTY
@given(cfg=random_configs, x=_angles(4), lam=st.floats(0.8, 1.2),
       mu=st.floats(-np.pi, np.pi), delta=st.floats(-5.0, 5.0))
def test_gauge_symmetry(cfg, x, lam, mu, delta):
    # (mu, x) -> (mu + delta, x + delta * (-1, -1, 0, 1)) predicts the same
    grid = default_phi_grid(17)
    moved = np.asarray(x) + delta * MU_GAUGE_X_DIRECTION
    a = model_predict(FitModel(x=x, phase_scale=lam, phase_offset=mu), cfg, grid)
    b = model_predict(FitModel(x=tuple(moved), phase_scale=lam,
                               phase_offset=mu + delta), cfg, grid)
    assert np.max(np.abs(a - b)) <= 1e-12


@PROPERTY
@given(cfg=random_configs, x=_angles(4), phi=st.floats(0.0, TWO_PI),
       prior=st.tuples(*[st.floats(-np.pi, np.pi)] * 3), dx=st.floats(-np.pi, np.pi))
def test_incidental_phases_act_as_a_shift_of_x(cfg, x, phi, prior, dx):
    # the 15 incidental phases reach every intensity only through the shift
    # c of the four tunable phases (NOTES.md, "Incidental-phase shift").
    # The steps' zero point moves by c too, so one (prior, dx) reaches
    # phases that differ by c
    clean = without_incidental_phases(cfg)
    c = np.subtract(fourier_setpoints_exact(clean), fourier_setpoints_exact(cfg))
    grid = phi + default_phi_grid(17)
    curves = detector_intensity_curves(x, grid, cfg)
    shifted = detector_intensity_curves(np.add(x, c), grid, clean)
    assert np.max(np.abs(curves - shifted)) <= 1e-12
    for step in (1, 2, 3, 4):
        full = simulated_step_intensity(step, dx, phi, cfg, prior)
        moved = simulated_step_intensity(step, dx, phi, clean, prior)
        assert abs(full - moved) <= 1e-12


@PROPERTY
@given(cfg=random_configs, x=_angles(4), phi=st.floats(0.0, TWO_PI))
def test_step_fringe_reaches_every_absolute_phase(cfg, x, phi):
    # offsets from the zero point r0 reach any x: the earlier phases
    # through prior_dx, the step's own through dx
    offsets = np.subtract(x, fourier_setpoints(cfg))
    for step in (1, 2, 3, 4):
        amp = forward_matrix(cfg, x[:step]) @ np.exp(1j * phi * np.arange(3))
        expected = abs(amp[MONITORED_MODES[step - 1]]) ** 2
        got = simulated_step_intensity(step, offsets[step - 1], phi, cfg,
                                       prior_dx=offsets[:step - 1])
        assert abs(got - expected) <= 1e-12


@settings(PROPERTY, max_examples=20)
@given(cfg=random_configs, offsets=_angles(4), lam=st.floats(0.97, 1.03),
       n=st.integers(72, 720), noise=st.floats(0.0, 0.02),
       seed=st.integers(0, 2**32 - 1))
def test_default_fit_never_ends_above_planted_cost(cfg, offsets, lam, n, noise,
                                                   seed):
    # checks the staged search's stop rule, which NOTES.md calls checked,
    # not proven; a noiseless fit ends at the cost's rounding level, about
    # 1e-27, where the planted cost reads 0
    x = np.add(fourier_setpoints(cfg), offsets)
    peak = detector_intensity_curves(x, default_phi_grid(n), cfg, lam).max()
    trace = synthesize_measured_trace(cfg.replace(x=tuple(x)), phase_scale=lam,
                                      noise_sigma=noise * peak, seed=seed, grid=n)
    planted = float(_cost(np.concatenate([[lam], x]), cfg, trace.phi,
                          trace.intensities))
    assert fit(trace, cfg).residual <= (1.0 + 1e-6) * planted + 1e-20


def _transmission():
    return st.one_of(st.floats(0.0, 1.0), st.just(0.0), st.just(1.0))


#: the whole domain that ``ExperimentConfig`` admits, but for chi0 within
#: 1e-3 of its open ends
admitted_configs = st.builds(
    ExperimentConfig,
    chi0=st.floats(1e-3, np.pi / 2 - 1e-3), t_ps=_transmission(),
    t_phi=_transmission(), t_2phi=_transmission(),
    alpha=_angles(4), theta=_angles(4), psi=_angles(6),
    alpha_a=st.floats(0.0, TWO_PI), theta_a=st.floats(0.0, TWO_PI),
    alpha_b=st.floats(0.0, TWO_PI), theta_b=st.floats(0.0, TWO_PI),
    psi_a=st.floats(0.0, TWO_PI))


def _answered_or_refused(cfg, offsets):
    """No silent wrong answer: calibrate tunes the device to the reference
    curves or finds no contrast, and the default fit reproduces a noiseless
    trace planted at r0 + offsets or refuses it.  A fit in the wrong basin
    that still reproduces the trace (the near-alias of ROADMAP item 11)
    passes here."""
    grid = default_phi_grid(120)
    try:
        x = calibrate(cfg).x
    except DegenerateConfigError:
        pass
    else:
        want = reference_intensities(grid, cfg)
        got = detector_intensity_curves(x, grid, cfg, 1.0, np.pi)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))
    planted = cfg.replace(x=tuple(np.add(fourier_setpoints(cfg), offsets)))
    trace = synthesize_measured_trace(planted, grid=grid)
    try:
        residual = fit(trace, cfg).residual
    except ValueError:
        return
    assert residual <= 1e-9 * np.sum(trace.intensities ** 2)


@settings(PROPERTY, max_examples=150)
@given(cfg=admitted_configs, offsets=st.tuples(*[st.floats(-0.5, 0.5)] * 4))
def test_every_admitted_config_is_answered_or_refused(cfg, offsets):
    _answered_or_refused(cfg, offsets)


@pytest.mark.xfail(strict=True, reason=(
    "known defect: step 1's fringe, whose contrast scales with t_phi, has "
    "visibility 1.2e-9 here and still passes the degeneracy check; rounding "
    "moves its selected root by 6e-8 rad, so x at mu = pi misses the "
    "reference by 3.0e-8 of the peak (the same before r0 was the one zero "
    "point)"))
def test_faint_step_fringe_is_answered_or_refused():
    # found by the property over 30,000 more draws: 15 such failures, each
    # with t_phi at most 2.2e-10
    cfg = ExperimentConfig(chi0=1.0, t_ps=1.0, t_phi=6.887693113070284e-10,
                           t_2phi=1.0)
    _answered_or_refused(cfg, (0.0, 0.0, 0.0, 0.0))


@pytest.mark.xfail(strict=True, reason=(
    "known defect: t_phi = 0 leaves the trace undetermined, yet the fit "
    "from the grid on r0 stops unconverged after max_iterations at 2.6e-5 "
    "of |d|^2, with a singular-value ratio of 4.7e-10, just above the 1e-10 "
    "that refuses; a grid on the published setpoints refused this trace"))
def test_undetermined_trace_is_answered_or_refused():
    # found by the property over 30,000 more draws, the one fit failure
    cfg = ExperimentConfig(
        chi0=1.4822465728690395, t_ps=1.0, t_phi=0.0, t_2phi=1.0,
        alpha=(0.5, 0.33354890314636565, 4.594915691985358, 6.078159459409461),
        theta=(1.0403319660501925e-53, 2.0, 3.0505124848533454, 4.428892979224306),
        psi=(0.99, 0.3748725916728787, 1.401298464324817e-45, 3.7111619033545087,
             1.9, 6.112963153942573),
        alpha_a=3.6967813606458573, theta_a=5.579773072451049,
        alpha_b=1.729961466018336, theta_b=1.1825238038850416,
        psi_a=4.2515925151723835)
    _answered_or_refused(cfg, (-0.10359408046849683, 1.1762065676675868e-16,
                               -0.4715011107761531, -0.4907282282872898))


lossless = st.one_of(
    st.builds(lambda jk, chi, alpha, theta: Splitter(*jk, chi, alpha, theta),
              st.lists(st.integers(0, 3), min_size=2, max_size=2, unique=True),
              st.floats(-TWO_PI, TWO_PI), st.floats(-TWO_PI, TWO_PI),
              st.floats(-TWO_PI, TWO_PI)),
    st.builds(Phase, st.integers(0, 3), st.floats(-TWO_PI, TWO_PI)),
    st.builds(Mirror, st.integers(0, 3), st.floats(-TWO_PI, TWO_PI)))


@PROPERTY
@given(items=st.lists(lossless, max_size=16))
def test_lossless_compose_is_unitary(items):
    assert unitarity_defect(compose(CircuitDescription(4, tuple(items)))) <= 1e-12


@PROPERTY
@given(dim=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_reck_round_trips_haar_unitaries(dim, seed):
    u = haar_unitary(dim, np.random.default_rng(seed))
    assert reconstruction_error(u, reck_decompose(u)) <= 1e-10


@PROPERTY
@given(phi=st.lists(finite, min_size=1, max_size=20, unique=True),
       data=st.data())
def test_trace_csv_round_trip_is_exact(phi, data):
    intensities = data.draw(st.lists(
        st.tuples(*[st.floats(0.0, allow_infinity=False)] * 3),
        min_size=len(phi), max_size=len(phi)))
    trace = DetectorTrace(sorted(phi), intensities)
    back = DetectorTrace.from_csv(trace.to_csv())
    assert np.array_equal(back.phi, trace.phi)
    assert np.array_equal(back.intensities, trace.intensities)


def _read_line_by_line(text: str) -> DetectorTrace:
    """The trace reader as a loop over io.StringIO's lines, each row split
    and checked in turn, every field then read by float()."""
    buf = io.StringIO(text)
    header = buf.readline().strip()
    if header != "phi,d0,d1,d2":
        raise ValueError(f"bad trace header: {header!r}")
    rows = []
    for line in buf:
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(f"bad trace row: {line!r}")
        rows.append(parts)
    if not rows:
        raise ValueError("trace has no rows")
    data = np.array([[float(v) for v in row] for row in rows])
    return DetectorTrace(data[:, 0], data[:, 1:])


_numbers = st.sampled_from(["1", " 2.5 ", "1_0", "-3e0", "\u0661"])
_fields = st.one_of(_numbers, _numbers, _numbers, st.sampled_from(["", "x", "nan"]))


@settings(PROPERTY, max_examples=200)
@given(header=st.one_of(*[st.just("phi,d0,d1,d2")] * 3,
                       st.sampled_from([" phi,d0,d1,d2 \r", "phi,d0,d1"])),
       lines=st.lists(st.tuples(
           st.one_of(*[st.lists(_fields, min_size=3, max_size=3)] * 3,
                     st.lists(_fields, max_size=5)),
           st.one_of(*[st.sampled_from(["\n", "\r\n", " \t\n"])] * 3,
                     st.sampled_from(["\r", "\u2028", "\x0c\n"]))),
           max_size=5))
def test_trace_csv_reader_matches_the_line_by_line_reader(header, lines):
    # a row's phi is its place, so rows that parse make an increasing grid;
    # "\r", "\u2028" and "\x0c" break no line, as io.StringIO breaks none
    text = header + "\n" + "".join(f"{i}," * bool(fields) + ",".join(fields) + end
                                   for i, (fields, end) in enumerate(lines))

    def outcome(read):
        try:
            trace = read(text)
        except ValueError as exc:
            return str(exc)
        return trace.phi.tolist(), trace.intensities.tolist()

    assert outcome(DetectorTrace.from_csv) == outcome(_read_line_by_line)


@PROPERTY
@given(cfg=st.builds(
    ExperimentConfig,
    chi0=st.floats(0.0, np.pi / 2, exclude_min=True, exclude_max=True),
    t_ps=st.floats(0.0, 1.0), t_phi=st.floats(0.0, 1.0),
    t_2phi=st.floats(0.0, 1.0), alpha=st.tuples(*[finite] * 4),
    theta=st.tuples(*[finite] * 4), psi=st.tuples(*[finite] * 6),
    alpha_a=finite, theta_a=finite, alpha_b=finite, theta_b=finite,
    psi_a=finite, x=st.tuples(*[finite] * 4)))
def test_config_json_round_trip_is_exact(cfg):
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg


modes = st.integers(0, 3)
elements = st.one_of(
    st.builds(Splitter, st.just(0), st.integers(1, 3), finite, finite, finite),
    st.builds(Phase, modes, finite), st.builds(Loss, modes, st.floats(0.0, 1.0)),
    st.builds(Mirror, modes, finite))


@PROPERTY
@given(items=st.lists(elements, max_size=12))
def test_circuit_json_round_trip_is_exact(items):
    circuit = CircuitDescription(4, tuple(items))
    assert CircuitDescription.from_json(circuit.to_json()) == circuit
