"""Property tests over drawn inputs: the block model against the closed-form
oracle, batched evaluations against single ones, the forward core's affine
dependence on each tunable phase, the fit's coefficient table against the
core, a staged round's cost on 5 samples against the cost on 8,
the model's two exact symmetries (the fit's gauge and the
incidental-phase shift), the gauge-free network deviation, the fit against
the cost at the planted parameters, unitarity, Reck round trips and the
file formats.

Derandomized with a bounded number of examples, so every run draws the
same inputs and the suite stays deterministic.
"""

import numpy as np
from closed_forms import step_curve
from conftest import EIGHT_THETA, haar_unitary
from hypothesis import given, settings
from hypothesis import strategies as st

from optiqft import (CircuitDescription, DetectorTrace, ExperimentConfig,
                     FitModel, Loss, Mirror, Phase, Splitter, compose,
                     default_phi_grid, detector_intensity_curves, fit,
                     fourier_setpoints, fourier_setpoints_exact, model_predict,
                     reck_decompose, reconstruction_error,
                     simulated_step_intensity, synthesize_measured_trace,
                     target_intensity, unitarity_defect,
                     without_incidental_phases)
from optiqft.calibration import _step_fringe_memo
from optiqft.experiment import (forward_matrix, fringe_basis,
                                fringe_coefficients)
from optiqft.fitting import (MU_GAUGE_X_DIRECTION, STAGE_THETA, _cost,
                             _curves_and_derivatives, _inner_scale_bias,
                             _network_deviation, _residual_jacobian)

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
    scale, bias = _inner_scale_bias(np.concatenate([curves, -curves]), data)
    cost = _cost(p, cfg, phi, data)
    resid, jac, fit_scale, fit_bias = _residual_jacobian(p, cfg, phi, data)
    for i, row in enumerate(p):
        _close(u[i], forward_matrix(cfg, row[1:1 + k]))
        _close(bare[i], forward_matrix(cfg, row[1:1 + k], prepared=False))
        single = detector_intensity_curves(row[1:], phi, cfg, row[0])
        _close(curves[i], single)
        for sign, j in ((1.0, i), (-1.0, i + len(p))):
            want = _inner_scale_bias(sign * single, data)
            _close(scale[j], want[0])
            _close(bias[j], want[1])
        _close(cost[i], _cost(row, cfg, phi, data))
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
       reference=_angles(4), prior=st.tuples(*[st.floats(-np.pi, np.pi)] * 3),
       dx=st.floats(-np.pi, np.pi))
def test_incidental_phases_act_as_a_shift_of_x(cfg, x, phi, reference, prior,
                                               dx):
    # the 15 incidental phases reach every intensity only through the shift
    # c of the four tunable phases (NOTES.md, "Incidental-phase shift")
    clean = without_incidental_phases(cfg)
    c = np.subtract(fourier_setpoints_exact(clean), fourier_setpoints_exact(cfg))
    grid = phi + default_phi_grid(17)
    curves = detector_intensity_curves(x, grid, cfg)
    shifted = detector_intensity_curves(np.add(x, c), grid, clean)
    assert np.max(np.abs(curves - shifted)) <= 1e-12
    for step in (1, 2, 3, 4):
        full = simulated_step_intensity(step, dx, phi, cfg, prior, reference)
        moved = simulated_step_intensity(step, dx, phi, clean, prior,
                                         tuple(np.add(reference, c)))
        assert abs(full - moved) <= 1e-12


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
