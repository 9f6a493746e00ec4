import numpy as np
import pytest

from optiqft import (CircuitDescription, Loss, Mirror, Phase, Splitter,
                     chi_from_split_ratio, compose, element_matrix,
                     equal_up_to_global_phase, equal_up_to_output_phases,
                     loss_matrix, phase_matrix, splitter_matrix,
                     unitarity_defect)

PI = np.pi


class TestSplitterMatrix:
    def test_symmetric_block(self):
        m = splitter_matrix(3, 0, 1, PI / 4, PI / 2, 0.0)
        expected = np.eye(3, dtype=complex)
        expected[:2, :2] = np.array([[1.0, 1j], [1j, 1.0]]) / np.sqrt(2.0)
        np.testing.assert_allclose(m, expected, atol=1e-15)

    def test_zero_angle_is_identity(self):
        m = splitter_matrix(3, 1, 2, 0.0, 1.234, 0.0)
        np.testing.assert_allclose(m, np.eye(3), atol=1e-15)

    def test_default_split_ratio_magnitudes(self):
        chi0 = chi_from_split_ratio(0.445, 0.555)
        m = splitter_matrix(3, 0, 1, chi0)
        assert abs(m[0, 0]) ** 2 == pytest.approx(0.445, abs=1e-12)
        assert abs(m[0, 1]) ** 2 == pytest.approx(0.555, abs=1e-12)

    def test_unitary_for_any_phases(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = splitter_matrix(4, 1, 3, rng.uniform(0, PI / 2),
                                rng.uniform(0, 2 * PI), rng.uniform(0, 2 * PI))
            assert unitarity_defect(m) < 1e-12

    def test_identity_on_other_modes(self):
        m = splitter_matrix(4, 0, 2, 0.7, 1.1, 0.3)
        for j in (1, 3):
            e = np.zeros(4)
            e[j] = 1.0
            np.testing.assert_allclose(m @ e, e, atol=1e-15)

    def test_invalid_indices(self):
        with pytest.raises(IndexError):
            splitter_matrix(3, 0, 3, 0.5)
        with pytest.raises(IndexError):
            splitter_matrix(3, 2, 2, 0.5)


class TestPhaseAndLoss:
    def test_zero_phase_is_identity(self):
        np.testing.assert_allclose(phase_matrix(3, 0, 0.0), np.eye(3), atol=1e-15)

    def test_mode2_three_half_pi(self):
        m = phase_matrix(3, 2, 3 * PI / 2)
        np.testing.assert_allclose(
            m, np.diag([1.0, 1.0, np.exp(1j * 3 * PI / 2)]), atol=1e-15)

    def test_phases_add(self):
        a, b = 0.8, 1.9
        np.testing.assert_allclose(phase_matrix(3, 1, a) @ phase_matrix(3, 1, b),
                                   phase_matrix(3, 1, a + b), atol=1e-15)
        np.testing.assert_allclose(phase_matrix(3, 1, PI) @ phase_matrix(3, 1, PI),
                                   np.eye(3), atol=1e-14)

    def test_unit_transmission_is_identity(self):
        np.testing.assert_allclose(loss_matrix(3, 1, 1.0), np.eye(3), atol=1e-15)

    def test_shifter_loss_values(self):
        m = loss_matrix(3, 0, 0.935)
        np.testing.assert_allclose(m, np.diag([0.935, 1.0, 1.0]), atol=1e-15)
        # 0.935 amplitude transmission is close to 12.5% intensity loss
        assert 1.0 - 0.935 ** 2 == pytest.approx(0.125, abs=1e-3)
        np.testing.assert_allclose(loss_matrix(3, 2, 0.894),
                                   np.diag([1.0, 1.0, 0.894]), atol=1e-15)

    def test_transmission_out_of_range(self):
        with pytest.raises(ValueError):
            loss_matrix(3, 0, 1.5)
        with pytest.raises(ValueError):
            loss_matrix(3, 0, -0.1)

    def test_mirror_is_phase(self):
        np.testing.assert_allclose(element_matrix(3, Mirror(1, 0.77)),
                                   element_matrix(3, Phase(1, 0.77)), atol=1e-15)


class TestCompose:
    def test_empty_circuit(self):
        np.testing.assert_allclose(compose(CircuitDescription(3, ())), np.eye(3))

    def test_phases_merge(self):
        circ = CircuitDescription(3, (Phase(0, 0.4), Phase(0, 1.1)))
        np.testing.assert_allclose(compose(circ), phase_matrix(3, 0, 1.5), atol=1e-15)

    def test_physical_order(self):
        e1 = Splitter(0, 1, 0.6, 1.0, 0.2)
        e2 = Phase(0, 0.9)
        circ = CircuitDescription(3, (e1, e2))
        expected = element_matrix(3, e2) @ element_matrix(3, e1)
        np.testing.assert_allclose(compose(circ), expected, atol=1e-15)

    def test_index_validation(self):
        with pytest.raises(IndexError):
            CircuitDescription(2, (Phase(2, 0.1),))

    @pytest.mark.parametrize("build", [
        lambda: CircuitDescription(-1, ()), lambda: CircuitDescription(0, ()),
        lambda: CircuitDescription.from_json('{"dim": -1, "elements": []}'),
        lambda: phase_matrix(0, 0, 0.1), lambda: loss_matrix(0, 0, 0.5),
        lambda: splitter_matrix(0, 0, 1, 0.3)],
        ids=["negative", "zero", "from_json", "phase_matrix", "loss_matrix",
             "splitter_matrix"])
    def test_no_modes_rejected(self, build):
        # accepted once, and compose then raised numpy's "negative dimensions";
        # the builders raised an IndexError that named the mode, not dim
        with pytest.raises(ValueError, match="'dim' must be >= 1"):
            build()

    def test_lossless_circuits_unitary(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            els = []
            for _ in range(12):
                if rng.uniform() < 0.5:
                    j, k = rng.choice(4, size=2, replace=False)
                    els.append(Splitter(int(j), int(k), rng.uniform(0, PI / 2),
                                        rng.uniform(0, 2 * PI), rng.uniform(0, 2 * PI)))
                else:
                    els.append(Phase(int(rng.integers(4)), rng.uniform(0, 2 * PI)))
            m = compose(CircuitDescription(4, tuple(els)))
            assert unitarity_defect(m) < 1e-12

    def test_lossy_circuits_passive(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            els = []
            for _ in range(12):
                r = rng.uniform()
                if r < 0.4:
                    j, k = rng.choice(4, size=2, replace=False)
                    els.append(Splitter(int(j), int(k), rng.uniform(0, PI / 2),
                                        rng.uniform(0, 2 * PI), rng.uniform(0, 2 * PI)))
                elif r < 0.7:
                    els.append(Loss(int(rng.integers(4)), rng.uniform(0.0, 1.0)))
                else:
                    els.append(Phase(int(rng.integers(4)), rng.uniform(0, 2 * PI)))
            m = compose(CircuitDescription(4, tuple(els)))
            assert np.linalg.svd(m, compute_uv=False).max() <= 1.0 + 1e-12
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            assert np.linalg.norm(m @ v) ** 2 <= 1.0 + 1e-12


class TestApply:
    def test_identity(self):
        v = np.array([0.3, 0.4j, 0.5])
        np.testing.assert_allclose(np.eye(3) @ v, v)

    def test_phase_on_uniform_state(self):
        v = np.ones(3) / np.sqrt(3.0)
        out = phase_matrix(3, 1, 0.9) @ v
        np.testing.assert_allclose(
            out, np.array([1.0, np.exp(0.9j), 1.0]) / np.sqrt(3.0), atol=1e-15)

    def test_loss_shrinks_norm(self):
        e0 = np.array([1.0, 0.0, 0.0])
        out = loss_matrix(3, 0, 0.6) @ e0
        assert np.linalg.norm(out) == pytest.approx(0.6, abs=1e-15)


class TestPhaseEquality:
    def test_equal_matrices(self):
        m = splitter_matrix(3, 0, 1, 0.5)
        assert equal_up_to_global_phase(m, m)
        assert equal_up_to_output_phases(m, m)

    def test_output_phase_only(self):
        m = splitter_matrix(3, 0, 1, 0.5)
        d = np.diag([1j, 1.0, 1.0]) @ m
        assert not equal_up_to_global_phase(d, m, 1e-9)
        assert equal_up_to_output_phases(d, m, 1e-9)

    def test_magnitude_mismatch(self):
        m = splitter_matrix(3, 0, 1, 0.5)
        assert not equal_up_to_global_phase(1.01 * m, m, 1e-6)
        assert not equal_up_to_output_phases(1.01 * m, m, 1e-6)

    def test_global_phase(self):
        m = splitter_matrix(3, 0, 1, 0.5)
        assert equal_up_to_global_phase(np.exp(0.3j) * m, m)

    @pytest.mark.parametrize("equal", [equal_up_to_global_phase,
                                       equal_up_to_output_phases])
    def test_shape_mismatch(self, equal):
        with pytest.raises(ValueError, match="shape mismatch"):
            equal(np.eye(3), np.eye(2))

    def test_zero_matrices(self):
        zero, m = np.zeros((3, 3)), splitter_matrix(3, 0, 1, 0.5)
        assert equal_up_to_global_phase(zero, zero)
        assert not equal_up_to_global_phase(m, zero)
        assert not equal_up_to_global_phase(zero, m)
        assert equal_up_to_output_phases(zero, zero)

    def test_input_phases_are_not_output_phases(self):
        m = splitter_matrix(3, 0, 1, 0.5)
        assert not equal_up_to_output_phases(m @ np.diag([1j, 1.0, 1.0]), m, 1e-9)


class TestSerialization:
    def test_netlist_roundtrip(self):
        circ = CircuitDescription(3, (
            Splitter(0, 1, 0.6, 1.1, 0.2), Phase(2, 0.4), Loss(1, 0.9),
            Mirror(0, 2.2)))
        again = CircuitDescription.from_json(circ.to_json())
        assert again == circ
        np.testing.assert_allclose(compose(again), compose(circ))

    def test_non_element_rejected(self):
        with pytest.raises(TypeError, match="not an optical element"):
            element_matrix(3, (0, 1, 0.5))

    def test_non_element_in_circuit_rejected(self):
        with pytest.raises(TypeError, match="not an optical element"):
            CircuitDescription(3, ("prism",))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            CircuitDescription.from_dict(
                {"dim": 2, "elements": [{"kind": "prism", "j": 0}]})

    @pytest.mark.parametrize("key, dim, element", [
        ("dim", 2.9, None),
        ("dim", True, None),
        ("j", 3, {"kind": "phase", "j": True, "beta": 0.5}),
        ("j", 3, {"kind": "splitter", "j": 0.7, "k": 1, "chi": 0.3, "alpha": 0.0,
                  "theta": 0.0}),
        ("k", 3, {"kind": "splitter", "j": 0, "k": 1.2, "chi": 0.3, "alpha": 0.0,
                  "theta": 0.0}),
    ])
    def test_non_integer_index_rejected(self, key, dim, element):
        # int() would truncate each of them to a valid circuit
        data = {"dim": dim, "elements": [element] if element else []}
        with pytest.raises(ValueError, match=f"'{key}' must be an integer"):
            CircuitDescription.from_dict(data)

    @pytest.mark.parametrize("build", [
        lambda: Loss(0, 1.5),
        lambda: Loss(0, -0.5),
        lambda: CircuitDescription.from_dict(
            {"dim": 2, "elements": [{"kind": "loss", "j": 0, "t": 1.5}]}),
    ])
    def test_loss_transmission_checked_when_built(self, build):
        # raised when the element is built or loaded, not first in compose
        with pytest.raises(ValueError, match=r"must be in \[0, 1\]"):
            build()

    @pytest.mark.parametrize("text, message", [
        ('{"kind": "splitter", "j": 0, "k": 1, "chi": NaN, "alpha": 0.0, "theta": 0.0}',
         "'chi' must be finite"),
        ('{"kind": "phase", "j": 0, "beta": Infinity}', "'beta' must be finite"),
        ('{"kind": "mirror", "j": 0, "psi": -Infinity}', "'psi' must be finite"),
        ('{"kind": "loss", "j": 0, "t": NaN}', "'t' must be finite"),
    ])
    def test_non_finite_field_rejected(self, text, message):
        # json reads NaN and Infinity, and compose would return all-NaN
        with pytest.raises(ValueError, match=message):
            CircuitDescription.from_json('{"dim": 2, "elements": [%s]}' % text)

    @pytest.mark.parametrize("build, message", [
        (lambda: Splitter(0, 1, float("nan")), "'chi' must be finite"),
        (lambda: Splitter(0, 1, 0.5, float("inf")), "'alpha' must be finite"),
        (lambda: Splitter(0, 1, 0.5, 0.0, -float("inf")), "'theta' must be finite"),
        (lambda: Phase(0, float("inf")), "'beta' must be finite"),
        (lambda: Mirror(0, float("nan")), "'psi' must be finite"),
    ], ids=["chi", "alpha", "theta", "beta", "psi"])
    def test_non_finite_angle_rejected_when_built(self, build, message):
        # checked when the element is built, not only when it is read
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize("build, message", [
        (lambda: Splitter(0, 1, True), "'chi' must be a real number"),
        (lambda: Splitter(0, 1, 0.5, np.True_), "'alpha' must be a real number"),
        (lambda: Phase(0, False), "'beta' must be a real number"),
        (lambda: Mirror(0, True), "'psi' must be a real number"),
        (lambda: Loss(0, True), "'t' must be a real number"),
        (lambda: CircuitDescription.from_json(
            '{"dim": 2, "elements": [{"kind": "phase", "j": 0, "beta": true}]}'),
         "'beta' must be a real number"),
        (lambda: CircuitDescription.from_json(
            '{"dim": 2, "elements": [{"kind": "loss", "j": 0, "t": false}]}'),
         "'t' must be a real number"),
    ], ids=["chi", "alpha", "beta", "psi", "t", "json-beta", "json-t"])
    def test_bool_angle_rejected(self, build, message):
        # a bool is not read as 0 or 1 rad, as _integer refuses it as an index
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize("data, key", [
        ({"dim": 2}, "elements"),
        ({"elements": []}, "dim"),
        ({"dim": 2, "elements": [{"kind": "phase", "j": 0}]}, "beta"),
        ({"dim": 2, "elements": [{"kind": "splitter", "j": 0, "chi": 0.3,
                                  "alpha": 0.0, "theta": 0.0}]}, "k"),
    ], ids=["elements", "dim", "beta", "k"])
    def test_missing_key_rejected_by_name(self, data, key):
        # not a bare KeyError
        with pytest.raises(ValueError, match=f"missing key '{key}'"):
            CircuitDescription.from_dict(data)

    @pytest.mark.parametrize("text, message", [
        ('5', "netlist must be an object, got 5"),
        ('null', "netlist must be an object, got None"),
        ('{"dim": 3, "elements": 5}', "'elements' must be a list of element objects, got 5"),
        ('{"dim": 2, "elements": "ab"}', "'elements' must be a list of element objects"),
        ('{"dim": 3, "elements": [5]}', "element must be an object, got 5"),
        ('{"dim": 2, "elements": [], "modes": 2}', "unknown key 'modes' in netlist"),
        ('{"dim": 2, "elements": [{"kind": "phase", "j": 0, "beta": 0.1, "gain": 2}]}',
         "unknown key 'gain' in phase element"),
    ], ids=["number", "null", "number-elements", "string-elements", "number-element",
            "netlist-key", "element-key"])
    def test_malformed_netlist_rejected_by_name(self, text, message):
        # raised TypeError or AttributeError, or dropped the unknown key
        with pytest.raises(ValueError, match=message):
            CircuitDescription.from_json(text)

    @pytest.mark.parametrize("build, key, value", [
        (lambda: Splitter(0, 1, "0.3"), "chi", 0.3),
        (lambda: Splitter(0, 1, 0.3, np.float32(0.5), "-1e-1"), "theta", -0.1),
        (lambda: Phase(0, " 2.5 "), "beta", 2.5),
        (lambda: Mirror(1, np.float64(0.75)), "psi", 0.75),
        (lambda: Loss(0, "0.5"), "t", 0.5),
        (lambda: Loss(0, np.int64(1)), "t", 1.0),
    ], ids=["chi", "theta", "beta", "psi", "t", "t-int"])
    def test_real_field_stored_as_float(self, build, key, value):
        # the float _real reads is stored, as the JSON reader stores it, so
        # compose no longer meets a string inside numpy
        el = build()
        assert type(getattr(el, key)) is float and getattr(el, key) == value
        assert np.all(np.isfinite(compose(CircuitDescription(2, (el,)))))

    @pytest.mark.parametrize("build, message", [
        (lambda: Splitter(0, 1, None), "'chi' must be a real number, got None"),
        (lambda: Phase(0, "x"), "'beta' must be a real number, got 'x'"),
        (lambda: Mirror(0, [0.1]), r"'psi' must be a real number, got \[0.1\]"),
        (lambda: Loss(0, None), "'t' must be a real number, got None"),
        (lambda: Loss(0, ""), "'t' must be a real number, got ''"),
        (lambda: Loss(0, float("nan")), "'t' must be finite, got nan"),
        (lambda: Loss(0, "1.5"), r"must be in \[0, 1\], got 1.5"),
    ], ids=["chi-none", "beta-str", "psi-list", "t-none", "t-empty", "t-nan", "t-str-range"])
    def test_non_number_field_rejected_by_name(self, build, message):
        # a ValueError naming the field, not a TypeError from float() or <=
        with pytest.raises(ValueError, match=message):
            build()


class TestSplitRatio:
    def test_value(self):
        chi = chi_from_split_ratio(0.445, 0.555)
        assert np.cos(chi) ** 2 == pytest.approx(0.445, abs=1e-12)

    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            chi_from_split_ratio(0.5, 0.6)

    @pytest.mark.parametrize("t, r, message", [
        (float("nan"), 0.5, "'transmission' must be finite"),
        (0.5, float("nan"), "'reflection' must be finite"),
        (-0.5, 1.5, "split ratio"), (1.5, -0.5, "split ratio")],
        ids=["nan-0.5", "0.5-nan", "-0.5-1.5", "1.5--0.5"])
    def test_nan_or_negative_rejected(self, t, r, message):
        # a negative part would take a NaN root
        with pytest.raises(ValueError, match=message):
            chi_from_split_ratio(t, r)
