import numpy as np
import pytest
from conftest import haar_unitary

from optiqft import (CHI_TILDE, Phase, Splitter, compose,
                     equal_up_to_global_phase, mz_variable_splitter,
                     phase_estimation_outcome, qft3_circuit,
                     qft3_circuit_compact, qft_matrix, reck_decompose,
                     reconstruction_error, splitter_matrix)

PI = np.pi


class TestQftMatrix:
    def test_base3_entries(self):
        w1, w2 = np.exp(2j * PI / 3), np.exp(4j * PI / 3)
        expected = np.array([[1, 1, 1], [1, w2, w1], [1, w1, w2]]) / np.sqrt(3.0)
        np.testing.assert_allclose(qft_matrix(3), expected, atol=1e-15)

    def test_base2_is_hadamard(self):
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)
        np.testing.assert_allclose(qft_matrix(2), expected, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
    def test_unitary(self, d):
        f = qft_matrix(d)
        np.testing.assert_allclose(f @ f.conj().T, np.eye(d), atol=1e-12)

    def test_small_base_rejected(self):
        with pytest.raises(ValueError):
            qft_matrix(1)

    @pytest.mark.parametrize("d", [2.5, 3.0, True])
    def test_non_integer_base_rejected(self, d):
        # int() would truncate 2.5 to a 3 x 3 matrix far from unitary
        with pytest.raises(ValueError, match="'d' must be an integer"):
            qft_matrix(d)


class TestPhaseEstimation:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_every_outcome(self, d):
        for m in range(d):
            assert phase_estimation_outcome(d, m) == m
            phi = 2 * PI * m / d
            state = np.exp(1j * phi * np.arange(d)) / np.sqrt(d)
            out = qft_matrix(d) @ state
            assert abs(out[m]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_half_ramp_does_not_discriminate(self):
        # with ramp pi*m/d instead of 2*pi*m/d the outputs are not orthogonal
        d, m = 3, 1
        state = np.exp(1j * PI * m / d * np.arange(d)) / np.sqrt(d)
        out = qft_matrix(d) @ state
        assert np.max(np.abs(out) ** 2) < 1.0 - 1e-3

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            phase_estimation_outcome(3, 3)

    @pytest.mark.parametrize("d, m, key", [(3, 1.5, "m"), (3.5, 1, "d"),
                                           (3, True, "m"), (np.float64(3.0), 1, "d")])
    def test_non_integer_rejected(self, d, m, key):
        with pytest.raises(ValueError, match=f"'{key}' must be an integer"):
            phase_estimation_outcome(d, m)

    def test_numpy_integers_accepted(self):
        assert phase_estimation_outcome(np.int64(3), np.int32(2)) == 2


class TestMachZehnder:
    def test_identity_holds_over_full_range(self):
        for chi in np.linspace(0.0, PI / 2, 100):
            got = compose(mz_variable_splitter(chi))
            want = splitter_matrix(3, 0, 1, chi)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_closed_at_zero(self):
        np.testing.assert_allclose(compose(mz_variable_splitter(0.0)), np.eye(3),
                                   atol=1e-12)

    def test_third_splitting_angle(self):
        m = compose(mz_variable_splitter(CHI_TILDE))
        assert abs(m[0, 0]) == pytest.approx(1 / np.sqrt(3.0), abs=1e-12)
        assert abs(m[0, 1]) == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-12)

    def test_uses_two_symmetric_splitters(self):
        els = mz_variable_splitter(0.4).elements
        splitters = [e for e in els if isinstance(e, Splitter)]
        assert len(splitters) == 2
        assert all(s.chi == PI / 4 for s in splitters)


class TestQft3Circuit:
    def test_matches_fourier_up_to_global_phase(self):
        assert equal_up_to_global_phase(compose(qft3_circuit()), qft_matrix(3), 1e-12)

    def test_four_symmetric_splitters_on_adjacent_pairs(self):
        splitters = [e for e in qft3_circuit().elements if isinstance(e, Splitter)]
        assert len(splitters) == 4
        assert all(s.chi == PI / 4 for s in splitters)
        assert all((s.j, s.k) in {(0, 1), (1, 2)} for s in splitters)

    def test_nine_elements(self):
        assert len(qft3_circuit().elements) == 9

    def test_compact_form_equivalent(self):
        compact = qft3_circuit_compact()
        assert equal_up_to_global_phase(compose(compact), qft_matrix(3), 1e-12)
        variable = [e for e in compact.elements
                    if isinstance(e, Splitter) and e.chi != PI / 4]
        assert len(variable) == 1
        assert variable[0].chi == pytest.approx(CHI_TILDE)


class TestReckDecompose:
    def test_identity(self):
        circ = reck_decompose(np.eye(4))
        np.testing.assert_allclose(compose(circ), np.eye(4), atol=1e-12)

    def test_qft3_roundtrip(self):
        u = qft_matrix(3)
        assert reconstruction_error(u, reck_decompose(u)) < 1e-10

    def test_random_unitaries_roundtrip(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            d = int(rng.integers(2, 9))
            u = haar_unitary(d, rng)
            assert reconstruction_error(u, reck_decompose(u)) < 1e-10

    def test_output_phases_come_last(self):
        circ = reck_decompose(qft_matrix(3))
        kinds = [type(e) for e in circ.elements]
        first_phase = kinds.index(Phase)
        assert all(k is Phase for k in kinds[first_phase:])

    def test_non_unitary_rejected(self):
        bad = np.eye(3) * 1.01
        with pytest.raises(ValueError, match="defect"):
            reck_decompose(bad)

    def test_non_square_rejected(self):
        # an empty matrix once reached numpy's reduction over no entries
        for bad in (np.eye(3)[:2], np.zeros((0, 0))):
            with pytest.raises(ValueError, match="square"):
                reck_decompose(bad)

    def test_non_finite_rejected(self):
        # rejected before the unitarity check, where one inf entry made the
        # matmul warn and one NaN read as "not unitary: defect nan"
        one_nan, one_inf = qft_matrix(3), qft_matrix(3)
        one_nan[1, 2], one_inf[2, 0] = np.nan, np.inf
        for u in (np.full((3, 3), np.nan), one_nan, one_inf):
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                reck_decompose(u)

    @pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
    def test_bad_tol_rejected_by_name(self, tol):
        with pytest.raises(ValueError, match="'tol' must be (finite|>= 0)"):
            reck_decompose(np.eye(3), tol=tol)
