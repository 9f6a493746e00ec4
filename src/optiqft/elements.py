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


class _Element:
    """Base of the optical elements: each float field stores what ``_real`` reads."""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if f.type == "float":
                object.__setattr__(self, f.name, _real(getattr(self, f.name), f.name))


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
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"amplitude transmission must be in [0, 1], got {self.t}")


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
    elements: tuple

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        for el in self.elements:
            _kind(el)
            _check_indices(self.dim, el)

    def to_dict(self) -> dict:
        return {"dim": self.dim, "elements": [_element_to_dict(el) for el in self.elements]}

    @classmethod
    def from_dict(cls, data: dict) -> "CircuitDescription":
        return cls(_integer(_entry(data, "dim"), "dim"),
                   tuple(map(_element_from_dict, _entry(data, "elements"))))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CircuitDescription":
        return cls.from_dict(json.loads(text))


def _check_indices(dim: int, el: OpticalElement) -> None:
    modes = (el.j, el.k) if isinstance(el, Splitter) else (el.j,)
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
    kind = data.get("kind")
    for cls, (name, _) in _KINDS.items():
        if name == kind:
            return cls(**{f.name: _integer(_entry(data, f.name), f.name) if f.type == "int"
                          else _entry(data, f.name) for f in dataclasses.fields(cls)})
    raise ValueError(f"unknown element kind: {kind!r}")


def _entry(data: dict, key: str):
    """data[key], or a ValueError naming the missing key."""
    if key not in data:
        raise ValueError(f"missing key {key!r}")
    return data[key]


def _integer(value, key: str) -> int:
    """A mode count or index: a bool or a float is not truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    return int(value)


def _real(value, key: str) -> float:
    """An angle or a transmission as a finite float (json reads NaN and Infinity), not a bool."""
    try:  # a bool is passed on as None, which float() refuses
        value = float(None if isinstance(value, (bool, np.bool_)) else value)
    except (TypeError, ValueError):
        raise ValueError(f"{key!r} must be a real number, got {value!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{key!r} must be finite, got {value!r}")
    return value


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
    _check_indices(dim, Splitter(j, k, chi, alpha, theta))
    m = np.eye(dim, dtype=np.complex128)
    c, s = np.cos(chi), np.sin(chi)
    m[j, j] = c * np.exp(1j * theta)
    m[j, k] = s * np.exp(1j * (theta + alpha))
    m[k, j] = -s * np.exp(1j * (theta - alpha))
    m[k, k] = c * np.exp(1j * theta)
    return m


def phase_matrix(dim: int, j: int, beta: float) -> np.ndarray:
    """Diagonal transfer matrix applying phase beta on mode j."""
    _check_indices(dim, Phase(j, beta))
    m = np.eye(dim, dtype=np.complex128)
    m[j, j] = np.exp(1j * beta)
    return m


def loss_matrix(dim: int, j: int, t: float) -> np.ndarray:
    """Diagonal transfer matrix applying amplitude transmission t on mode j."""
    _check_indices(dim, Loss(j, t))
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


def apply(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Apply a transfer matrix to an amplitude vector."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    vector = np.asarray(vector, dtype=np.complex128)
    if matrix.shape[1] != vector.shape[0]:
        raise ValueError(f"dimension mismatch: {matrix.shape} vs {vector.shape}")
    return matrix @ vector


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
    if not (min(transmission, reflection) >= 0 and abs(transmission + reflection - 1) <= tol):
        raise ValueError(f"split ratio must satisfy T, R >= 0 and T + R = 1, "
                         f"got T = {transmission}, R = {reflection}")
    return float(np.arctan2(np.sqrt(reflection), np.sqrt(transmission)))


def unitarity_defect(matrix: np.ndarray) -> float:
    """Max elementwise deviation of M^dagger M from the identity."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    return float(np.max(np.abs(matrix.conj().T @ matrix - np.eye(matrix.shape[0]))))
