"""Circuit synthesis: discrete Fourier networks and triangular decomposition.

Builds the base-d Fourier transfer matrix, the nine-element qutrit Fourier
circuit made of four symmetric 50:50 splitters, the Mach-Zehnder variable
splitter, and a general triangular (Givens-style) decomposition of arbitrary
unitaries into two-mode splitters plus output phases.
"""

from __future__ import annotations

import numpy as np

from .elements import (CircuitDescription, Phase, Splitter, compose,
                       splitter_matrix, unitarity_defect)

HALF_PI = np.pi / 2

#: Splitter angle realizing a 1/3 : 2/3 split, tan(chi) = sqrt(2).
CHI_TILDE = float(np.arctan(np.sqrt(2.0)))


def qft_matrix(d: int) -> np.ndarray:
    """Base-d Fourier transfer matrix, entry (n, k) = e^{-2 pi i n k / d} / sqrt(d)."""
    if d < 2:
        raise ValueError(f"transform base must be >= 2, got {d}")
    n, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return np.exp(-2j * np.pi * n * k / d) / np.sqrt(d)


def phase_estimation_outcome(d: int, m: int) -> int:
    """Single-shot phase estimation: index of the brightest output beam.

    Prepares the uniform superposition with phase ramp phi = 2 pi m / d on
    beam k (amplitude e^{i k phi} / sqrt(d)), applies the base-d Fourier
    matrix and returns the argmax of the output intensities, which equals m
    with unit probability.

    Note the ramp must be 2 pi m / d.  With the weaker normalization
    phi = pi m / d the Fourier outputs are not orthogonal and single-shot
    discrimination fails; see NOTES.md for the discussion.
    """
    if not 0 <= m < d:
        raise ValueError(f"m must be in 0..{d - 1}, got {m}")
    phi = 2.0 * np.pi * m / d
    state = np.exp(1j * phi * np.arange(d)) / np.sqrt(d)
    out = qft_matrix(d) @ state
    return int(np.argmax(np.abs(out) ** 2))


def mz_variable_splitter(chi: float) -> CircuitDescription:
    """Mach-Zehnder realization of a variable splitter on modes (0, 1).

    Two symmetric 50:50 splitters around an internal phase pi - 2 chi,
    with input and output phase shifts, composing exactly (not merely up
    to output phases) to ``splitter_matrix(dim, 0, 1, chi, pi/2, 0)``.
    The mode-1 output phase is chi + 3 pi / 2: the chi + pi bookkeeping
    alone leaves a residual quarter-wave on mode 1, which this circuit
    folds into the same shifter.
    """
    return CircuitDescription(3, (
        Phase(1, HALF_PI),
        Splitter(0, 1, np.pi / 4),
        Phase(0, np.pi - 2.0 * chi),
        Splitter(0, 1, np.pi / 4),
        Phase(1, chi + 3.0 * HALF_PI),
        Phase(0, chi + np.pi),
    ))


def qft3_circuit() -> CircuitDescription:
    """Qutrit Fourier circuit from four symmetric 50:50 splitters.

    Nine elements in physical order; composes to ``qft_matrix(3)`` up to a
    global phase.  All splitters act on adjacent mode pairs.
    """
    return CircuitDescription(3, (
        Phase(2, 3.0 * HALF_PI),
        Splitter(1, 2, np.pi / 4),
        Splitter(0, 1, np.pi / 4),
        Phase(0, np.pi - 2.0 * CHI_TILDE),
        Splitter(0, 1, np.pi / 4),
        Phase(1, HALF_PI + CHI_TILDE),
        Splitter(1, 2, np.pi / 4),
        Phase(1, HALF_PI),
        Phase(0, CHI_TILDE + np.pi),
    ))


def qft3_circuit_compact() -> CircuitDescription:
    """Compact qutrit Fourier circuit using one variable-ratio splitter.

    Equivalent to ``qft3_circuit()`` up to a global phase, trading the
    two-splitter Mach-Zehnder stage for a single splitter at ``CHI_TILDE``.
    """
    return CircuitDescription(3, (
        Phase(2, 3.0 * HALF_PI),
        Splitter(1, 2, np.pi / 4),
        Phase(1, HALF_PI),
        Phase(0, np.pi),
        Splitter(0, 1, CHI_TILDE),
        Phase(0, np.pi),
        Splitter(1, 2, np.pi / 4),
        Phase(1, HALF_PI),
    ))


def reck_decompose(matrix: np.ndarray, tol: float = 1e-10) -> CircuitDescription:
    """Factor a unitary into two-mode splitters plus an output phase layer.

    Nulls below-diagonal entries row by row from the bottom with splitter
    rotations applied on the right, leaving a diagonal of unit-modulus
    phases.  The returned circuit lists the splitters first (in physical
    order) and the output phases last, and recomposes to the input matrix
    elementwise to about 10 * tol.

    Raises ValueError when the input is not unitary to tol.
    """
    u = np.asarray(matrix, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"need a square matrix, got shape {u.shape}")
    defect = unitarity_defect(u)
    if not defect <= tol:
        raise ValueError(f"matrix is not unitary: defect {defect:.3e} exceeds tol {tol:.3e}")

    d = u.shape[0]
    w = u.copy()
    splitters = []
    for r in range(d - 1, 0, -1):
        for j in range(r):
            a, b = w[r, j], w[r, r]
            if abs(a) <= tol / d:
                continue
            chi = float(np.arctan2(abs(a), abs(b)))
            alpha = float(-(np.angle(a) - np.angle(b)))
            t = splitter_matrix(d, j, r, chi, alpha, 0.0)
            w = w @ t
            splitters.append(Splitter(j, r, chi, alpha, 0.0))
    # w is now diagonal; U = D @ T_n^dag ... T_1^dag, and S(chi, alpha, 0)^dag
    # = S(chi, alpha + pi, 0), so the physical order is T_1^dag first.
    elements = [Splitter(s.j, s.k, s.chi, s.alpha + np.pi, 0.0) for s in splitters]
    elements.extend(Phase(j, float(np.angle(w[j, j]))) for j in range(d))
    return CircuitDescription(d, tuple(elements))


def reconstruction_error(matrix: np.ndarray, circuit: CircuitDescription) -> float:
    """Max elementwise error of compose(circuit) against a target matrix."""
    return float(np.max(np.abs(compose(circuit) - np.asarray(matrix, dtype=np.complex128))))
