"""Transfer-matrix algebra for small linear-optical networks.

A network state is a vector of complex beam amplitudes; every optical
element is a dim x dim complex matrix acting on it by left multiplication.
Circuits are ordered element lists in physical order (the first element is
the first one the light meets), so composing a circuit means multiplying
the element matrices right to left.

Lossless elements give unitary transfer matrices; amplitude-transmission
(loss) elements make them sub-unitary, with all singular values <= 1.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np

HALF_PI = np.pi / 2
TWO_PI = 2.0 * np.pi


def wrap_pi(angle):
    """angle, a float or an array, wrapped to [-pi, pi)."""
    return np.mod(angle + np.pi, TWO_PI) - np.pi


class _Element:
    """Base of the optical elements: ``check_fields`` stores each field as read."""

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class Splitter(_Element):
    """Two-mode beam splitter on modes (j, k).

    chi sets the split ratio (sqrt(T) = cos chi, sqrt(R) = sin chi); alpha
    and theta are the element's internal phases.  The default (alpha, theta)
    = (pi/2, 0) is the symmetric convention with `i` on the off-diagonal.
    """

    j: int
    k: int
    chi: float
    alpha: float = HALF_PI
    theta: float = 0.0


@dataclass(frozen=True)
class Phase(_Element):
    """Phase shift by beta on mode j."""

    j: int
    beta: float


@dataclass(frozen=True)
class Loss(_Element):
    """Amplitude transmission t in [0, 1] on mode j."""

    j: int
    t: float

    def __post_init__(self):
        super().__post_init__()
        _transmission(self.t, "t")


@dataclass(frozen=True)
class Mirror(_Element):
    """Mirror reflection on mode j, modelled as a pure phase psi."""

    j: int
    psi: float


OpticalElement = Union[Splitter, Phase, Loss, Mirror]


@dataclass(frozen=True)
class CircuitDescription:
    """Ordered element list on `dim` modes, in physical order."""

    dim: int
    elements: tuple[OpticalElement, ...]

    def __post_init__(self):
        check_fields(self)
        _check_indices(self.dim)
        object.__setattr__(self, "elements", tuple(self.elements))
        for el in self.elements:
            _kind(el)
            _check_indices(self.dim, *((el.j, el.k) if isinstance(el, Splitter) else (el.j,)))

    def to_dict(self) -> dict:
        return {"dim": self.dim, "elements": [_element_to_dict(el) for el in self.elements]}

    @classmethod
    def from_dict(cls, data: dict) -> "CircuitDescription":
        dim, elements = _entries(data, ("dim", "elements"), "netlist")
        if not isinstance(elements, (list, tuple)):
            raise ValueError(f"'elements' must be a list of element objects, got {elements!r}")
        return cls(dim, tuple(map(_element_from_dict, elements)))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CircuitDescription":
        return cls.from_dict(json.loads(text))


def _check_indices(dim: int, *modes: int) -> None:
    if dim < 1:
        raise ValueError(f"'dim' must be >= 1, got {dim}")
    if not all(0 <= m < dim for m in modes) or len(set(modes)) < len(modes):
        raise IndexError(f"element modes {modes} must be distinct and in 0..{dim - 1}")


def _kind(el: OpticalElement) -> tuple:
    """(JSON kind, matrix builder) of an element."""
    if type(el) not in _KINDS:
        raise TypeError(f"not an optical element: {el!r}")
    return _KINDS[type(el)]


def _element_to_dict(el: OpticalElement) -> dict:
    return {"kind": _kind(el)[0], **_fields(el)}


def _element_from_dict(data: dict) -> OpticalElement:
    if not isinstance(data, dict):
        raise ValueError(f"element must be an object, got {data!r}")
    kind = data.get("kind")
    for cls, (name, _) in _KINDS.items():
        if name == kind:
            keys = ("kind",) + tuple(f.name for f in dataclasses.fields(cls))
            return cls(*_entries(data, keys, f"{name} element")[1:])
    raise ValueError(f"unknown element kind: {kind!r}")


def _transmission(value, name: str) -> float:
    """An amplitude transmission: value as ``real`` reads it, in [0, 1]."""
    t = real(value, name)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"amplitude transmission {name!r} must be in [0, 1], got {t}")
    return t


def _entries(data: dict, keys: tuple, what: str) -> list:
    """The values of keys in the JSON object data, in order, or a ValueError
    naming what is not an object, the first key missing or the first key
    that is not one of keys."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be an object, got {data!r}")
    for key in data:
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in {what}")
    for key in keys:
        if key not in data:
            raise ValueError(f"missing key {key!r}")
    return [data[key] for key in keys]


def integer(value, name: str) -> int:
    """value as an int; a bool, a float or a string is refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name!r} must be an integer, got {value!r}")
    return int(value)


def real(value, name: str) -> float:
    """A finite float as ``float()`` reads it, so "0.3" reads; a bool is not a number."""
    try:  # a bool is passed on as None, which float() refuses
        value = float(None if isinstance(value, (bool, np.bool_)) else value)
    except (TypeError, ValueError, OverflowError):  # an int too large for a float
        raise ValueError(f"{name!r} must be a real number, got {value!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{name!r} must be finite, got {value!r}")
    return value


def reals(values, name: str) -> tuple:
    """A tuple of each entry as ``real`` reads it; a string is not a sequence of numbers."""
    try:
        if isinstance(values, str):  # would be read one character at a time
            raise TypeError
        return tuple([real(v, name) for v in values])
    except TypeError:
        raise ValueError(f"{name!r} must be a sequence of real numbers, got {values!r}") from None


def real_array(values, name: str) -> np.ndarray:
    """values as a float array, of integer or float dtype and finite throughout: an array is
    checked once per call, a list or tuple also entry by entry, since numpy reads a bool in
    it as a number."""
    try:
        array = np.asarray(values)
    except ValueError:  # a ragged nesting
        array = np.asarray(values, dtype=object)
    if array.dtype.kind not in "iuf" or isinstance(values, (list, tuple)) and any(
            isinstance(v, (bool, np.bool_)) for v in np.asarray(values, dtype=object).flat):
        kind = "a real number" if array.ndim == 0 else "a sequence of real numbers"
        raise ValueError(f"{name!r} must be {kind}, got {values!r}")
    array = np.asarray(array, dtype=float)
    if not np.isfinite(array).all():
        raise ValueError(f"{name!r} must be finite, got {float(array[~np.isfinite(array)][0])!r}")
    return array


#: how ``check_fields`` reads a field, by its annotation
_READERS = {"int": integer, "float": real, "tuple": reals}


def check_fields(obj, lengths: dict | None = None) -> None:
    """Store each int, float and tuple field of a frozen dataclass as its reader reads it,
    then check that each field named in lengths has that many entries."""
    for f in dataclasses.fields(obj):
        if f.type in _READERS:
            object.__setattr__(obj, f.name, _READERS[f.type](getattr(obj, f.name), f.name))
    for name, n in (lengths or {}).items():
        if len(value := getattr(obj, name)) != n:
            raise ValueError(f"{name!r} needs {n} entries, got {len(value)}")


def _fields(obj) -> dict:
    """A dataclass's fields in a new dict, tuples as lists: asdict for JSON, no deep copy."""
    return {key: list(value) if isinstance(value, tuple) else value
            for key, value in vars(obj).items()}


def splitter_matrix(dim: int, j: int, k: int, chi: float,
                    alpha: float = HALF_PI, theta: float = 0.0) -> np.ndarray:
    """Transfer matrix of a lossless beam splitter on modes (j, k).

    The 2x2 block on (j, k) is::

        [ cos(chi) e^{i theta}          sin(chi) e^{i (theta + alpha)} ]
        [ -sin(chi) e^{i (theta - alpha)}   cos(chi) e^{i theta}       ]

    and the matrix is the identity on every other mode.
    """
    dim, j, k = integer(dim, "dim"), integer(j, "j"), integer(k, "k")
    chi, alpha, theta = real(chi, "chi"), real(alpha, "alpha"), real(theta, "theta")
    _check_indices(dim, j, k)
    m = np.eye(dim, dtype=np.complex128)
    c, s = np.cos(chi), np.sin(chi)
    m[j, j] = c * np.exp(1j * theta)
    m[j, k] = s * np.exp(1j * (theta + alpha))
    m[k, j] = -s * np.exp(1j * (theta - alpha))
    m[k, k] = c * np.exp(1j * theta)
    return m


def phase_matrix(dim: int, j: int, beta: float) -> np.ndarray:
    """Diagonal transfer matrix applying phase beta on mode j."""
    dim, j, beta = integer(dim, "dim"), integer(j, "j"), real(beta, "beta")
    _check_indices(dim, j)
    m = np.eye(dim, dtype=np.complex128)
    m[j, j] = np.exp(1j * beta)
    return m


def loss_matrix(dim: int, j: int, t: float) -> np.ndarray:
    """Diagonal transfer matrix applying amplitude transmission t on mode j."""
    dim, j, t = integer(dim, "dim"), integer(j, "j"), _transmission(t, "t")
    _check_indices(dim, j)
    m = np.eye(dim, dtype=np.complex128)
    m[j, j] = t
    return m


#: JSON kind of each element class, and its matrix builder, which takes dim
#: and then the element's fields in order
_KINDS = {Splitter: ("splitter", splitter_matrix), Phase: ("phase", phase_matrix),
          Loss: ("loss", loss_matrix), Mirror: ("mirror", phase_matrix)}


def element_matrix(dim: int, el: OpticalElement) -> np.ndarray:
    return _kind(el)[1](dim, *(getattr(el, f.name) for f in dataclasses.fields(el)))


def compose(circuit: CircuitDescription) -> np.ndarray:
    """Total transfer matrix of a circuit.

    Elements are listed in physical order, so the result is
    M_n @ ... @ M_2 @ M_1 acting on column amplitude vectors.
    """
    m = np.eye(circuit.dim, dtype=np.complex128)
    for el in circuit.elements:
        m = element_matrix(circuit.dim, el) @ m
    return m


def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-12) -> bool:
    """True iff a = e^{i gamma} b for some single phase gamma.

    The candidate phase is read off at the largest-magnitude entry of b,
    then checked elementwise, so magnitude mismatches also return False.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) <= tol:
        return bool(np.max(np.abs(a)) <= tol)
    gamma = a[idx] / b[idx]
    if abs(gamma) < tol:
        return False
    gamma = gamma / abs(gamma)
    return bool(np.max(np.abs(a - gamma * b)) <= tol)


def equal_up_to_output_phases(a: np.ndarray, b: np.ndarray, tol: float = 1e-12) -> bool:
    """True iff a = D b for some diagonal unitary D.

    Within each row the phase of a_jk * conj(b_jk) must be constant over
    entries of significant magnitude, and magnitudes must agree to tol.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if np.max(np.abs(np.abs(a) - np.abs(b))) > tol:
        return False
    for j in range(a.shape[0]):
        sig = (np.abs(a[j]) > tol) & (np.abs(b[j]) > tol)
        if not np.any(sig):
            continue
        ratios = a[j, sig] / b[j, sig]
        ratios = ratios / np.abs(ratios)
        if np.max(np.abs(ratios - ratios[0])) > 10 * tol:
            return False
    return True


def chi_from_split_ratio(transmission: float, reflection: float,
                         tol: float = 1e-9) -> float:
    """Splitter angle from intensity split ratio (sqrt(T) = cos chi)."""
    transmission, reflection = real(transmission, "transmission"), real(reflection, "reflection")
    if not (min(transmission, reflection) >= 0 and abs(transmission + reflection - 1) <= tol):
        raise ValueError(f"split ratio must satisfy T, R >= 0 and T + R = 1, "
                         f"got T = {transmission}, R = {reflection}")
    return float(np.arctan2(np.sqrt(reflection), np.sqrt(transmission)))


def unitarity_defect(matrix: np.ndarray) -> float:
    """Max elementwise deviation of M^dagger M from the identity."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    return float(np.max(np.abs(matrix.conj().T @ matrix - np.eye(matrix.shape[0]))))
