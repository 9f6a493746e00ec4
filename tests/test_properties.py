"""Property tests over drawn inputs: the block model against the closed-form
oracle, batched evaluations against single ones, the fit's gauge, Reck
round trips and the file formats.

Derandomized with a bounded number of examples, so every run draws the
same inputs and the suite stays deterministic.
"""

import numpy as np
from closed_forms import step_curve
from conftest import haar_unitary
from hypothesis import given, settings
from hypothesis import strategies as st

from optiqft import (CircuitDescription, DetectorTrace, ExperimentConfig,
                     FitModel, Loss, Mirror, Phase, Splitter, default_phi_grid,
                     detector_intensity_curves, model_predict, reck_decompose,
                     reconstruction_error, simulated_step_intensity,
                     target_intensity)
from optiqft.calibration import _step_fringe_memo
from optiqft.experiment import forward_matrix
from optiqft.fitting import (MU_GAUGE_X_DIRECTION, _cost, _inner_scale_bias,
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
    u, du = forward_matrix(cfg, p[:, 1:1 + k], derivatives=True)
    bare = forward_matrix(cfg, p[:, 1:1 + k], prepared=False)
    curves = detector_intensity_curves(p[:, 1:], phi, cfg, p[:, 0])
    # a negated curve drives the scale to its clamp
    scale, bias = _inner_scale_bias(np.concatenate([curves, -curves]), data)
    cost = _cost(p, cfg, phi, data)
    resid, jac, fit_scale, fit_bias = _residual_jacobian(p, cfg, phi, data)
    for i, row in enumerate(p):
        single_u, single_du = forward_matrix(cfg, row[1:1 + k], derivatives=True)
        _close(u[i], single_u)
        _close(du[i], single_du)
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
    st.builds(Phase, modes, finite), st.builds(Loss, modes, finite),
    st.builds(Mirror, modes, finite))


@PROPERTY
@given(items=st.lists(elements, max_size=12))
def test_circuit_json_round_trip_is_exact(items):
    circuit = CircuitDescription(4, tuple(items))
    assert CircuitDescription.from_json(circuit.to_json()) == circuit
