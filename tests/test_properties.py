"""Property tests over drawn inputs: the block model against the closed-form
oracle, Reck round trips and the file formats.

Derandomized with a bounded number of examples, so every run draws the
same inputs and the suite stays deterministic.
"""

import numpy as np
from closed_forms import step_curve
from conftest import haar_unitary
from hypothesis import given, settings
from hypothesis import strategies as st

from optiqft import (CircuitDescription, DetectorTrace, ExperimentConfig,
                     Loss, Mirror, Phase, Splitter, reck_decompose,
                     reconstruction_error, simulated_step_intensity,
                     target_intensity)

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
