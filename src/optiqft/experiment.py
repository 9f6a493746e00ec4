"""Lossy model of the two-module qutrit Fourier interferometer.

Two splitters fan one input beam into three, a swivel platform imprints the
ramp (1, e^{i phi}, e^{2 i phi}), and a primary module of four splitter
blocks, each with one tunable phase x_k, incidental splitter and mirror
phases and shifter losses, leads to three detectors.  One forward core
serves every quantity: ``block_pieces`` holds a config's x-independent
pieces, ``forward_matrix`` walks the blocks once for U = M(x) diag(a),
and each detector curve h0 + Re(h1 e^{i phi}) + Re(h2 e^{2 i phi}) is read
off U by ``fringe_coefficients``.  A tunable phase enters U once, as
e^{i x_k}, so the adjustment reads how U depends on x_k from the core at x
and at x + pi e_k, and the fit from a table of the fringe coefficients
solved from the core at 81 nodes (NOTES.md, "Forward core").

``fourier_setpoints_exact`` gives the setpoints at which the primary module
is the canonical lossy Fourier network for any incidental phases, and
``fourier_setpoints`` the one zero point the library measures from, those
moved by ``NOMINAL_SETPOINT_SHIFT`` along the mu gauge (NOTES.md).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .elements import (HALF_PI, TWO_PI, _fields, _transmission, check_fields,
                       chi_from_split_ratio, compose, integer, loss_matrix, phase_matrix,
                       real, real_array, splitter_matrix)
from .synthesis import CHI_TILDE, qft3_circuit

#: Default constants of the physical setup: 55:45 split ratio and the
#: measured amplitude transmissions of the glass phase shifters.
DEFAULT_SPLIT_T = 0.445
DEFAULT_SPLIT_R = 0.555
DEFAULT_T_PS = 0.935
DEFAULT_T_PHI = 0.922
DEFAULT_T_2PHI = 0.894

#: x direction of the mu gauge: (mu + delta, x + delta * MU_GAUGE_X_DIRECTION)
#: predicts the same intensities as (mu, x) for every delta (NOTES.md).
MU_GAUGE_X_DIRECTION = np.array([-1.0, -1.0, 0.0, 1.0])

#: fourier_setpoints(cfg) - fourier_setpoints_exact(cfg) (mod 2 pi), the
#: delta = pi element of the mu gauge: (pi, pi, 0, pi).  Pinned by
#: tests/test_experiment.py.
NOMINAL_SETPOINT_SHIFT = tuple(float(v) for v in np.mod(np.pi * MU_GAUGE_X_DIRECTION, TWO_PI))

#: Entries of each sequence field of ExperimentConfig: one per primary
#: splitter (alpha, theta), mirror (psi) or tunable shifter (x).
_SEQUENCE_LENGTHS = {"alpha": 4, "theta": 4, "psi": 6, "x": 4}

#: Tunable phases at which the incidental-free primary module, with every
#: splitter at the symmetric phase alpha = pi/2, is the canonical lossy
#: Fourier network (``fourier_network_matrix``).
X_NET = (3.0 * HALF_PI, 0.0, np.pi - 2.0 * CHI_TILDE, HALF_PI + CHI_TILDE)


@dataclass(frozen=True)
class ExperimentConfig:
    """All physical parameters of the two-module setup.

    chi0 is the common splitter angle (cos^2 chi0 = intensity transmission),
    t_ps / t_phi / t_2phi are amplitude transmissions of the tunable and
    platform phase shifters, alpha/theta are the four primary splitters'
    incidental phases, psi the six mirror phases, (alpha_a, theta_a),
    (alpha_b, theta_b), psi_a the preparation splitter and mirror phases,
    and x the four tunable phases.
    """

    chi0: float
    t_ps: float = DEFAULT_T_PS
    t_phi: float = DEFAULT_T_PHI
    t_2phi: float = DEFAULT_T_2PHI
    alpha: tuple = (0.0, 0.0, 0.0, 0.0)
    theta: tuple = (0.0, 0.0, 0.0, 0.0)
    psi: tuple = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    alpha_a: float = 0.0
    theta_a: float = 0.0
    alpha_b: float = 0.0
    theta_b: float = 0.0
    psi_a: float = 0.0
    x: tuple = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        check_fields(self, _SEQUENCE_LENGTHS)
        for name in ("t_ps", "t_phi", "t_2phi"):
            _transmission(getattr(self, name), name)
        if not 0.0 < self.chi0 < HALF_PI:
            raise ValueError(f"chi0 must be in (0, pi/2), got {self.chi0}")

    @classmethod
    def default(cls, **overrides) -> "ExperimentConfig":
        """Config with the measured setup constants and zero incidental phases."""
        chi0 = chi_from_split_ratio(DEFAULT_SPLIT_T, DEFAULT_SPLIT_R)
        return cls(**{"chi0": chi0, **overrides})

    def replace(self, **changes) -> "ExperimentConfig":
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        return _fields(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config must be an object, got {data!r}")
        try:
            return cls(**data)
        except TypeError as exc:  # chi0 missing, or a key unknown
            raise ValueError(f"bad config: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))


def without_incidental_phases(cfg: ExperimentConfig) -> ExperimentConfig:
    """Copy of cfg with every incidental splitter/mirror phase zeroed."""
    return cfg.replace(alpha=(0.0,) * 4, theta=(0.0,) * 4, psi=(0.0,) * 6,
                       alpha_a=0.0, theta_a=0.0, alpha_b=0.0, theta_b=0.0,
                       psi_a=0.0)


@functools.lru_cache(maxsize=16)
def block_pieces(cfg: ExperimentConfig) -> tuple:
    """The x-independent pieces of the forward model, built once per config
    and shared, hence read-only: (blocks, a, links).  Block k is (left,
    slot, right) with block = left @ phase(slot, x_k) @ right, a is the
    prepared amplitudes (v0 e^{i psi_a}, v1 t_phi, v2 t_2phi) that the
    platform ramp (1, e^{i phi}, e^{2 i phi}) multiplies, and links[k] is
    right_{k+1} @ left_k, all that stands between two tunable phases."""
    al, th, psi = cfg.alpha, cfg.theta, cfg.psi
    t = cfg.t_ps
    s12_1 = splitter_matrix(3, 1, 2, cfg.chi0, al[0], th[0])
    s01_2 = splitter_matrix(3, 0, 1, cfg.chi0, al[1], th[1])
    s01_3 = splitter_matrix(3, 0, 1, cfg.chi0, al[2], th[2])
    s12_4 = splitter_matrix(3, 1, 2, cfg.chi0, al[3], th[3])
    blocks = (
        (s12_1 @ loss_matrix(3, 2, t), 2, phase_matrix(3, 2, psi[0])),
        (s01_2, 1, loss_matrix(3, 1, t) @ phase_matrix(3, 1, psi[1])),
        (s01_3 @ phase_matrix(3, 1, psi[3]), 0,
         loss_matrix(3, 0, t) @ phase_matrix(3, 0, psi[2])),
        (s12_4 @ phase_matrix(3, 2, psi[5]), 1,
         loss_matrix(3, 1, t) @ phase_matrix(3, 1, psi[4])),
    )
    # input on beam 2, fanned out by the two preparation splitters
    v = (splitter_matrix(3, 0, 1, cfg.chi0, cfg.alpha_a, cfg.theta_a)
         @ splitter_matrix(3, 0, 2, cfg.chi0, cfg.alpha_b, cfg.theta_b))[:, 2]
    a = v * np.array([np.exp(1j * cfg.psi_a), cfg.t_phi, cfg.t_2phi])
    links = tuple(right @ left for (left, _, _), (_, _, right) in zip(blocks, blocks[1:]))
    for array in (a,) + links + tuple(m for left, _, right in blocks for m in (left, right)):
        array.flags.writeable = False
    return blocks, a, links


def forward_matrix(cfg: ExperimentConfig, x: Sequence[float],
                   prepared: bool = True):
    """The forward core: U = M(x) diag(a) after the first len(x) primary
    blocks (M(x) when prepared is False), from one walk of the blocks.
    Leading axes of x are batch axes: x of shape (..., k) gives U of shape
    (..., 3, 3).  Each x_k enters U once, as e^{i x_k}, so U is affine in
    e^{i x_k} and the core read at x and x + pi e_k gives all of its
    dependence on x_k: dU/dx_k = (i/2) (U(x) - U(x + pi e_k)) (NOTES.md)."""
    blocks, a, links = block_pieces(cfg)
    x = np.asarray(x, dtype=float)
    batch, walked = x.shape[:-1], blocks[:x.shape[-1]]
    size = math.prod(batch)
    phases = np.exp(1j * x).reshape(size, 1, len(walked))
    # The walk keeps a batch as one (3 B, 3) matrix, rows 3b..3b+2 for
    # element b, so each factor is one matrix product for the whole batch,
    # and only links stand between two tunable phases.  It keeps U^T, so
    # the slot row of U is a column.
    first = walked[0][2] if walked else np.eye(3)
    ut = np.empty((3 * size, 3), dtype=np.complex128)
    ut.reshape(size, 3, 3)[...] = (first * a if prepared else first).T
    for k, (left, slot, _) in enumerate(walked):
        ut.reshape(size, 3, 3)[:, :, slot] *= phases[:, :, k]
        ut = np.dot(ut, (links[k] if k + 1 < len(walked) else left).T)
    return np.swapaxes(ut.reshape(batch + (3, 3)), -1, -2)


def fringe_coefficients(u: np.ndarray) -> np.ndarray:
    """Coefficients (..., 5, 3) of the detector curves on ``fringe_basis``:
    detector i reads h0 + Re(h1 e^{i theta}) + Re(h2 e^{2 i theta}) with
    h0 = sum_j |U_ij|^2, h1 = 2 (U_i1 conj U_i0 + U_i2 conj U_i1) and
    h2 = 2 U_i2 conj U_i0."""
    p = u[..., :, :, None] * np.conj(u[..., :, None, :])
    h0 = np.einsum("...ijj->...i", p).real
    h1 = p[..., 1, 0] + p[..., 2, 1] + np.conj(p[..., 0, 1] + p[..., 1, 2])
    h2 = p[..., 2, 0] + np.conj(p[..., 0, 2])
    return np.stack([h0, h1.real, -h1.imag, h2.real, -h2.imag], axis=-2)


def fringe_basis(theta) -> np.ndarray:
    """[1, cos theta, sin theta, cos 2 theta, sin 2 theta], shape theta.shape + (5,)."""
    t = np.asarray(theta, dtype=float)
    c, s = np.cos(t), np.sin(t)
    # filled from the contiguous results of cos and sin: np.stack takes as
    # long again on a staged round's 5 points.  cos and sin written with
    # out= into the strided columns could round differently.
    basis = np.empty(t.shape + (5,))
    basis[..., 0] = 1.0
    basis[..., 1] = c
    basis[..., 2] = s
    basis[..., 3] = c * c - s * s
    basis[..., 4] = 2.0 * c * s
    return basis


def _tunable_phases(x) -> np.ndarray:
    """x as ``real_array`` reads it, with the four tunable phases on its last
    axis; leading axes are batch axes."""
    x = real_array(x, "x")
    if x.ndim < 1 or x.shape[-1] != 4:
        raise ValueError(f"'x' needs 4 entries on its last axis, got shape {x.shape}")
    return x


def prepare_state(phi, cfg: ExperimentConfig) -> np.ndarray:
    """State leaving the preparation module at platform phase phi, shape
    (3,); an array of phases gives one column per phase, shape (3, N).
    phi must be finite."""
    ramp = np.exp(1j * np.multiply.outer(np.arange(3), real_array(phi, "phi")))
    return np.diag(block_pieces(cfg)[1]) @ ramp


def primary_module_matrix(cfg: ExperimentConfig, x: Sequence[float]) -> np.ndarray:
    """Transfer matrix of the primary module (all four blocks) at the finite
    tunable phases x, shape (..., 4)."""
    return forward_matrix(cfg, _tunable_phases(x), prepared=False)


def _network_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """cfg without incidental phases and with every primary splitter at the
    symmetric phase alpha = pi/2: at X_NET its primary module is the
    canonical lossy Fourier network."""
    return without_incidental_phases(cfg).replace(alpha=(HALF_PI,) * 4)


def fourier_network_matrix(cfg: ExperimentConfig) -> np.ndarray:
    """The canonical lossy Fourier network: the primary module with every
    incidental phase removed and the tunable shifters at their design
    values, output phases dropped."""
    return primary_module_matrix(_network_config(cfg), X_NET)


def fourier_setpoints(cfg: ExperimentConfig) -> tuple:
    """The zero point r0 of the tunable phases, mod 2 pi: the setting every
    adjustment offset, the fit's default start and its delta_x are measured
    from.  It is ``fourier_setpoints_exact`` plus ``NOMINAL_SETPOINT_SHIFT``,
    the delta = pi element of the mu gauge, so its curves at platform offset
    mu = pi are ``reference_intensities`` for any incidental phases.  At zero
    incidental phases it equals the published closed form (NOTES.md,
    "Setpoint conventions").
    """
    return tuple((v + s) % TWO_PI
                 for v, s in zip(fourier_setpoints_exact(cfg), NOMINAL_SETPOINT_SHIFT))


def fourier_setpoints_exact(cfg: ExperimentConfig) -> tuple:
    """Setpoints at which the primary module equals the canonical Fourier
    network exactly, up to per-output phases.

    Derived by commuting every incidental phase through the splitter
    cascade; verified by tests against the full matrix pipeline for random
    configurations (detector curves agree to machine precision with the
    ``fourier_network_matrix`` pipeline on the incidental-free preparation).
    """
    al, th, psi = cfg.alpha, cfg.theta, cfg.psi
    x1 = -al[0] - psi[0] + cfg.theta_a - cfg.alpha_a + cfg.alpha_b
    x2 = -al[1] - psi[1] + cfg.psi_a + cfg.alpha_a - th[0] + HALF_PI
    x3 = -al[1] + al[2] - psi[2] + psi[3] + np.pi - 2.0 * CHI_TILDE
    x4 = (-al[0] + al[1] + al[3] - cfg.alpha_a + th[0] - th[1] - th[2]
          - psi[3] - psi[4] + psi[5] - cfg.psi_a + CHI_TILDE)
    return tuple(v % TWO_PI for v in (x1, x2, x3, x4))


def detector_intensities(x: Sequence[float], phi: float, cfg: ExperimentConfig) -> np.ndarray:
    """Intensity triple (I0, I1, I2) at the detectors, at finite x and phi."""
    return np.abs(primary_module_matrix(cfg, x) @ prepare_state(phi, cfg)) ** 2


def detector_intensity_curves(x: Sequence[float], phi_values: np.ndarray,
                              cfg: ExperimentConfig,
                              phase_scale: float = 1.0,
                              phase_offset: float = 0.0) -> np.ndarray:
    """Detector intensities over a phi grid, shape (len(phi_values), 3).

    The platform phase actually applied is phase_scale * phi + phase_offset.
    Leading axes of x, shape (..., 4), and of phase_scale are batch axes:
    the curves then have shape (..., len(phi_values), 3).  Every argument
    must be finite.  Not clamped: an exact zero may read -1e-17."""
    lam = real_array(phase_scale, "phase_scale")
    theta = (lam[..., None] if lam.ndim else lam) * real_array(phi_values, "phi_values")
    return (fringe_basis(theta + real(phase_offset, "phase_offset"))
            @ fringe_coefficients(forward_matrix(cfg, _tunable_phases(x))))


def reference_intensities(phi_values: np.ndarray, cfg: ExperimentConfig) -> np.ndarray:
    """Detector curves of the canonical pipeline: the Fourier network
    applied to the incidental-free preparation.  This is the oracle against
    which the setpoint formulas are judged."""
    return detector_intensity_curves(X_NET, phi_values, _network_config(cfg))


@dataclass(frozen=True)
class DetectorTrace:
    """Per-detector intensities over a strictly increasing phi grid of one or
    more points, any finite values: a dark-subtracted trace may read below 0."""

    phi: np.ndarray
    intensities: np.ndarray

    def __post_init__(self):
        phi, inten = real_array(self.phi, "phi"), real_array(self.intensities, "intensities")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "intensities", inten)
        if phi.ndim != 1 or phi.size < 1 or inten.shape != (phi.size, 3):
            raise ValueError(f"need phi (N,), N >= 1, and intensities (N, 3), got "
                             f"{phi.shape} and {inten.shape}")
        if np.any(np.diff(phi) <= 0):
            raise ValueError("phi grid must be strictly increasing")

    def to_csv(self) -> str:
        """Header and one row per point, every value its shortest exact repr."""
        values = np.column_stack([self.phi, self.intensities]).ravel().tolist()
        return "phi,d0,d1,d2\n" + "%r,%r,%r,%r\n" * self.phi.size % tuple(values)

    @classmethod
    def from_csv(cls, text: str) -> "DetectorTrace":
        r"""Read ``to_csv``'s text.  Lines end at "\n" only and are stripped, so
        "\r\n" reads.  The first must be the header; blank ones after it are
        skipped, and each other needs exactly three commas (the first that
        has not is named).  Each field is read as ``float()`` reads it."""
        header, _, body = text.partition("\n")
        if header.strip() != "phi,d0,d1,d2":
            raise ValueError(f"bad trace header: {header.strip()!r}")
        rows = [line for line in map(str.strip, body.split("\n")) if line]
        for line in rows:
            if line.count(",") != 3:
                raise ValueError(f"bad trace row: {line!r}")
        if not rows:
            raise ValueError("trace has no rows")
        data = np.fromiter(map(float, ",".join(rows).split(",")), float).reshape(-1, 4)
        return cls(data[:, 0], data[:, 1:])


def default_phi_grid(grid: np.ndarray | int = 720) -> np.ndarray:
    """The phi grid of an integer grid, that many equally spaced platform
    phases over [0, 2 pi), or of an array grid, its entries as floats; either
    must hold at least one point.  A 0-d array is no integer, and is refused."""
    # not np.ndim(grid) == 0: it raises numpy's own error on a ragged list
    if np.isscalar(grid) or isinstance(grid, np.ndarray) and grid.ndim == 0:
        phi = np.linspace(0.0, TWO_PI, max(integer(grid, "grid"), 0), endpoint=False)
    else:
        phi = real_array(grid, "grid")
    if phi.size < 1:
        raise ValueError(f"phi grid needs at least one point, got {grid}")
    return phi


def theoretical_curves(cfg: ExperimentConfig, mode: str = "fixed",
                       grid: np.ndarray | int = 720) -> DetectorTrace:
    """Reference detector curves.

    mode "ideal": the lossless four-splitter Fourier circuit applied to the
    uniform phase-ramp state (1, e^{i phi}, e^{2 i phi}) / sqrt(3).
    mode "fixed": the canonical lossy network applied to the prepared state
    of this configuration.
    """
    phi = default_phi_grid(grid)
    if mode == "ideal":
        coef = fringe_coefficients(compose(qft3_circuit()) / np.sqrt(3.0))
        inten = fringe_basis(phi) @ coef
    elif mode == "fixed":
        inten = reference_intensities(phi, cfg)
    else:
        raise ValueError(f"mode must be 'ideal' or 'fixed', got {mode!r}")
    return DetectorTrace(phi, inten)
