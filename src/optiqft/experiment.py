"""Lossy model of the two-module qutrit Fourier interferometer.

Two splitters fan one input beam into three, a swivel platform imprints the
ramp (1, e^{i phi}, e^{2 i phi}), and a primary module of four splitter
blocks, each with one tunable phase x_k, incidental splitter and mirror
phases and shifter losses, leads to three detectors.  One forward core
serves every quantity: ``block_pieces`` holds a config's x-independent
pieces, ``forward_matrix`` walks the blocks once for U = M(x) diag(a) and
dU/dx_k, and each detector curve h0 + Re(h1 e^{i phi}) + Re(h2 e^{2 i phi})
is read off U by ``fringe_coefficients`` (NOTES.md, "Forward core").

``fourier_setpoints`` is the published closed form of the setpoints and
``fourier_setpoints_exact`` the one that reproduces the canonical lossy
Fourier network for any incidental phases; at zero incidental phases they
differ by ``NOMINAL_SETPOINT_SHIFT`` (NOTES.md).
"""

from __future__ import annotations

import dataclasses
import functools
import io
import json
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .elements import compose, loss_matrix, phase_matrix, splitter_matrix
from .synthesis import CHI_TILDE, qft3_circuit

HALF_PI = np.pi / 2
TWO_PI = 2.0 * np.pi

#: Default constants of the physical setup: 55:45 split ratio and the
#: measured amplitude transmissions of the glass phase shifters.
DEFAULT_SPLIT_T = 0.445
DEFAULT_SPLIT_R = 0.555
DEFAULT_T_PS = 0.935
DEFAULT_T_PHI = 0.922
DEFAULT_T_2PHI = 0.894

#: fourier_setpoints(cfg) - fourier_setpoints_exact(cfg) at zero incidental
#: phases (mod 2 pi).  Pinned by tests/test_experiment.py.
NOMINAL_SETPOINT_SHIFT = (np.pi, np.pi, 0.0, np.pi)

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
        for name in ("alpha", "theta", "psi", "x"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{field.name} must be finite, got {value}")
        if len(self.alpha) != 4 or len(self.theta) != 4:
            raise ValueError("alpha and theta need one entry per primary splitter (4)")
        if len(self.psi) != 6:
            raise ValueError("psi needs one entry per mirror (6)")
        if len(self.x) != 4:
            raise ValueError("x needs one entry per tunable shifter (4)")
        for name in ("t_ps", "t_phi", "t_2phi"):
            t = getattr(self, name)
            if not 0.0 <= t <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {t}")
        if not 0.0 < self.chi0 < HALF_PI:
            raise ValueError(f"chi0 must be in (0, pi/2), got {self.chi0}")

    @classmethod
    def default(cls, **overrides) -> "ExperimentConfig":
        """Config with the measured setup constants and zero incidental phases."""
        chi0 = float(np.arctan2(np.sqrt(DEFAULT_SPLIT_R), np.sqrt(DEFAULT_SPLIT_T)))
        return cls(**{"chi0": chi0, **overrides})

    def replace(self, **changes) -> "ExperimentConfig":
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in dataclasses.asdict(self).items()}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown config key: {sorted(unknown)[0]!r}")
        if "chi0" not in data:
            raise ValueError("missing config key: 'chi0'")
        kwargs = {}
        for key, value in data.items():
            try:
                if key in ("alpha", "theta", "psi", "x"):
                    kwargs[key] = tuple(float(v) for v in value)
                else:
                    kwargs[key] = float(value)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"bad value for config key {key!r}: {value!r}") from exc
        return cls(**kwargs)

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
                   prepared: bool = True, derivatives: bool = False):
    """The forward core: U = M(x) diag(a) after the first len(x) primary
    blocks (M(x) when prepared is False), from one walk of the blocks.
    With derivatives, also dU/dx_k, shape (len(x), 3, 3), each rank one:
    i (S_k L_k)[:, s] times row s of P_k R_k Pre_{k-1} diag(a) (NOTES.md).
    Leading axes of x are batch axes: x of shape (..., k) gives U of shape
    (..., 3, 3) and dU of shape (..., k, 3, 3)."""
    blocks, a, links = block_pieces(cfg)
    x = np.asarray(x, dtype=float)
    batch, walked = x.shape[:-1], blocks[:x.shape[-1]]
    size = math.prod(batch)
    phases = np.exp(1j * x).reshape(size, 1, len(walked))
    # The walks keep a batch as one (3 B, 3) matrix, rows 3b..3b+2 for
    # element b, so each factor is one matrix product for the whole batch,
    # and only links stand between two tunable phases.  The forward walk
    # keeps U^T, so the slot row of U is a column.
    first = walked[0][2] if walked else np.eye(3)
    ut = np.empty((3 * size, 3), dtype=np.complex128)
    ut.reshape(size, 3, 3)[...] = (first * a if prepared else first).T
    rows = []
    for k, (left, slot, _) in enumerate(walked):
        row = ut.reshape(size, 3, 3)[:, :, slot]
        row *= phases[:, :, k]
        rows.append(row)
        ut = np.dot(ut, (links[k] if k + 1 < len(walked) else left).T)
    u = np.swapaxes(ut.reshape(batch + (3, 3)), -1, -2)
    if not derivatives:
        return u
    du = np.empty((size, len(walked), 3, 3), dtype=np.complex128)
    suffix = np.empty((3 * size, 3), dtype=np.complex128)
    if walked:
        suffix.reshape(size, 3, 3)[...] = walked[-1][0]
    for k in reversed(range(len(walked))):
        column = suffix.reshape(size, 3, 3)[:, :, walked[k][1]]
        np.multiply(column[:, :, None], rows[k][:, None, :], out=du[:, k])
        if k:
            column *= phases[:, :, k]
            suffix = np.dot(suffix, links[k - 1])
    du *= 1j
    return u, du.reshape(batch + du.shape[1:])


def fringe_coefficients(u: np.ndarray, v: np.ndarray | None = None) -> np.ndarray:
    """Coefficients (..., 5, 3) of the detector curves on ``fringe_basis``:
    detector i reads h0 + Re(h1 e^{i theta}) + Re(h2 e^{2 i theta}) with
    h0 = sum_j |U_ij|^2, h1 = 2 (U_i1 conj U_i0 + U_i2 conj U_i1) and
    h2 = 2 U_i2 conj U_i0.  (dU, U) gives the derivative's (product rule)."""
    p = u[..., :, :, None] * np.conj((u if v is None else v)[..., :, None, :])
    h0 = np.einsum("...ijj->...i", p).real
    h1 = p[..., 1, 0] + p[..., 2, 1] + np.conj(p[..., 0, 1] + p[..., 1, 2])
    h2 = p[..., 2, 0] + np.conj(p[..., 0, 2])
    coef = np.stack([h0, h1.real, -h1.imag, h2.real, -h2.imag], axis=-2)
    return coef if v is None else 2.0 * coef


def fringe_basis(theta) -> np.ndarray:
    """[1, cos theta, sin theta, cos 2 theta, sin 2 theta], shape theta.shape + (5,)."""
    t = np.asarray(theta, dtype=float)
    c, s = np.cos(t), np.sin(t)
    return np.stack([np.ones_like(t), c, s, c * c - s * s, 2.0 * c * s], axis=-1)


def prepare_state(phi, cfg: ExperimentConfig) -> np.ndarray:
    """State leaving the preparation module at platform phase phi, shape
    (3,); an array of phases gives one column per phase, shape (3, N)."""
    ramp = np.exp(1j * np.multiply.outer(np.arange(3), np.asarray(phi, dtype=float)))
    return np.diag(block_pieces(cfg)[1]) @ ramp


def block_matrices(cfg: ExperimentConfig, x: Sequence[float] | None = None) -> tuple:
    """The four primary-module block matrices, in physical order."""
    pieces = zip(block_pieces(cfg)[0], cfg.x if x is None else x)
    return tuple(left @ phase_matrix(3, slot, xk) @ right for (left, slot, right), xk in pieces)


def primary_module_matrix(cfg: ExperimentConfig, x: Sequence[float] | None = None) -> np.ndarray:
    """Transfer matrix of the primary module (all four blocks)."""
    return forward_matrix(cfg, cfg.x if x is None else x, prepared=False)


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
    """Nominal closed-form setpoints of the tunable phases, mod 2 pi.

    These are the published expressions.  They reproduce the canonical
    Fourier network only up to the constant offsets and incidental-phase
    term differences documented in NOTES.md; use
    ``fourier_setpoints_exact`` when exact consistency with
    ``fourier_network_matrix`` is required.
    """
    al, th, psi = cfg.alpha, cfg.theta, cfg.psi
    x1 = -al[0] + cfg.alpha_a - cfg.alpha_b + cfg.theta_b - psi[0] + np.pi
    x2 = -al[1] + cfg.alpha_b - th[0] + cfg.psi_a - psi[1] - HALF_PI
    x3 = -al[1] + al[2] - psi[2] + psi[3] + np.pi - 2.0 * CHI_TILDE
    x4 = (-al[0] + al[1] + al[3] - cfg.alpha_b + th[0] - th[1] - th[2]
          - psi[3] - psi[4] - psi[5] - cfg.psi_a - np.pi + CHI_TILDE)
    return tuple(float(np.mod(v, TWO_PI)) for v in (x1, x2, x3, x4))


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
    return tuple(float(np.mod(v, TWO_PI)) for v in (x1, x2, x3, x4))


def output_state(x: Sequence[float], phi, cfg: ExperimentConfig) -> np.ndarray:
    """Amplitudes on the three detectors for tunable phases x and platform
    phase phi; (3, N) for an array of phases.  A shorter x gives the
    amplitudes after the first len(x) blocks."""
    return forward_matrix(cfg, x, prepared=False) @ prepare_state(phi, cfg)


def detector_intensities(x: Sequence[float], phi: float, cfg: ExperimentConfig) -> np.ndarray:
    """Intensity triple (I0, I1, I2) at the detectors."""
    return np.abs(output_state(x, phi, cfg)) ** 2


def detector_intensity_curves(x: Sequence[float], phi_values: np.ndarray,
                              cfg: ExperimentConfig,
                              phase_scale: float = 1.0,
                              phase_offset: float = 0.0) -> np.ndarray:
    """Detector intensities over a phi grid, shape (len(phi_values), 3).

    The platform phase actually applied is phase_scale * phi + phase_offset.
    Leading axes of x, shape (..., 4), and of phase_scale are batch axes:
    the curves then have shape (..., len(phi_values), 3).
    """
    lam = np.asarray(phase_scale, dtype=float)
    theta = (lam[..., None] if lam.ndim else lam) * np.asarray(phi_values, dtype=float)
    curves = fringe_basis(theta + phase_offset) @ fringe_coefficients(forward_matrix(cfg, x))
    return np.maximum(curves, 0.0)  # an exact zero may round to -1e-17


def reference_intensities(phi_values: np.ndarray, cfg: ExperimentConfig) -> np.ndarray:
    """Detector curves of the canonical pipeline: the Fourier network
    applied to the incidental-free preparation.  This is the oracle against
    which the setpoint formulas are judged."""
    return detector_intensity_curves(X_NET, phi_values, _network_config(cfg))


@dataclass(frozen=True)
class DetectorTrace:
    """Per-detector intensities over a strictly increasing phi grid."""

    phi: np.ndarray
    intensities: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        inten = np.asarray(self.intensities, dtype=float)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "intensities", inten)
        if phi.ndim != 1 or inten.shape != (phi.size, 3):
            raise ValueError(f"need phi (N,) and intensities (N, 3), got "
                             f"{phi.shape} and {inten.shape}")
        if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(inten))):
            raise ValueError("phi and intensities must be finite")
        if np.any(np.diff(phi) <= 0):
            raise ValueError("phi grid must be strictly increasing")
        if np.any(inten < 0):
            raise ValueError("intensities must be non-negative")

    def to_csv(self) -> str:
        lines = ["phi,d0,d1,d2"]
        for p, (a, b, c) in zip(self.phi, self.intensities):
            lines.append(f"{float(p)!r},{float(a)!r},{float(b)!r},{float(c)!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "DetectorTrace":
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
            rows.append([float(p) for p in parts])
        data = np.asarray(rows, dtype=float)
        if data.size == 0:
            raise ValueError("trace has no rows")
        return cls(data[:, 0], data[:, 1:])


def default_phi_grid(n: int = 720) -> np.ndarray:
    """n >= 1 equally spaced platform phases over [0, 2 pi); n must be an
    integer (a bool or a float such as 2.5 is rejected, not truncated)."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValueError(f"phi grid size must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"phi grid needs at least one point, got {n}")
    return np.linspace(0.0, TWO_PI, n, endpoint=False)


def theoretical_curves(cfg: ExperimentConfig, mode: str = "fixed",
                       grid: np.ndarray | int = 720) -> DetectorTrace:
    """Reference detector curves.

    mode "ideal": the lossless four-splitter Fourier circuit applied to the
    uniform phase-ramp state (1, e^{i phi}, e^{2 i phi}) / sqrt(3).
    mode "fixed": the canonical lossy network applied to the prepared state
    of this configuration.
    """
    phi = default_phi_grid(grid) if np.isscalar(grid) else np.asarray(grid, dtype=float)
    if mode == "ideal":
        coef = fringe_coefficients(compose(qft3_circuit()) / np.sqrt(3.0))
        inten = np.maximum(fringe_basis(phi) @ coef, 0.0)
    elif mode == "fixed":
        inten = reference_intensities(phi, cfg)
    else:
        raise ValueError(f"mode must be 'ideal' or 'fixed', got {mode!r}")
    return DetectorTrace(phi, inten)


def synthesize_measured_trace(cfg: ExperimentConfig,
                              scale: Sequence[float] = (1.0, 1.0, 1.0),
                              bias: Sequence[float] = (0.0, 0.0, 0.0),
                              phase_scale: float = 1.0,
                              phase_offset: float = 0.0,
                              noise_sigma: float = 0.0,
                              seed: int = 0,
                              grid: np.ndarray | int = 720) -> DetectorTrace:
    """Synthetic measured data from the forward model.

    Per detector i the noiseless signal is
    scale_i * I_i(x; phase_scale * phi + phase_offset) + bias_i, with the
    tunable phases taken from cfg.x.  Gaussian noise of standard deviation
    noise_sigma is added and the result clipped at zero; fixed seeds give
    byte-identical traces.
    """
    scale = np.asarray(scale, dtype=float)
    bias = np.asarray(bias, dtype=float)
    # written so that NaN fails every check
    if not np.all((scale > 0) & (scale < np.inf)):
        raise ValueError(f"scale entries must be finite and positive, got {scale}")
    if not np.all((bias >= 0) & (bias < np.inf)):
        raise ValueError(f"bias entries must be finite and non-negative, got {bias}")
    if not 0 <= noise_sigma < np.inf:
        raise ValueError(f"noise_sigma must be finite and non-negative, got {noise_sigma}")
    if not np.all(np.isfinite([phase_scale, phase_offset])):
        raise ValueError("phase_scale and phase_offset must be finite")
    phi = default_phi_grid(grid) if np.isscalar(grid) else np.asarray(grid, dtype=float)
    curves = detector_intensity_curves(cfg.x, phi, cfg, phase_scale, phase_offset)
    data = scale[None, :] * curves + bias[None, :]
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        data = data + rng.normal(0.0, noise_sigma, size=data.shape)
    return DetectorTrace(phi, np.clip(data, 0.0, None))
