"""Lossy model of the two-module qutrit Fourier interferometer.

The setup has a state-preparation module (two splitters fan a single input
beam into three, a swivel platform imprints relative phases 0, phi, 2 phi)
and a primary module of four splitter blocks, each carrying one tunable
phase x_1..x_4 plus incidental splitter/mirror phases and glass-shifter
losses.  At the right setpoints x the primary module implements the qutrit
Fourier transform up to per-output phases.

Two setpoint formulas are provided.  ``fourier_setpoints`` is the nominal
closed form; ``fourier_setpoints_exact`` is the variant verified against
the simulation to reproduce the canonical lossy Fourier network exactly,
for arbitrary incidental phases.  At all-zero incidental phases the two
differ only by the constant offsets ``NOMINAL_SETPOINT_SHIFT``; see
NOTES.md for the full comparison.
"""

from __future__ import annotations

import dataclasses
import io
import json
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
        object.__setattr__(self, "alpha", tuple(float(v) for v in self.alpha))
        object.__setattr__(self, "theta", tuple(float(v) for v in self.theta))
        object.__setattr__(self, "psi", tuple(float(v) for v in self.psi))
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
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
        return cls(chi0=chi0, **overrides)

    def replace(self, **changes) -> "ExperimentConfig":
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        return {
            "chi0": self.chi0, "t_ps": self.t_ps, "t_phi": self.t_phi,
            "t_2phi": self.t_2phi, "alpha": list(self.alpha),
            "theta": list(self.theta), "psi": list(self.psi),
            "alpha_a": self.alpha_a, "theta_a": self.theta_a,
            "alpha_b": self.alpha_b, "theta_b": self.theta_b,
            "psi_a": self.psi_a, "x": list(self.x),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
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


def _prep_splitter_product(cfg: ExperimentConfig) -> np.ndarray:
    """Amplitudes after the two fan-out splitters, input on beam 2."""
    v = np.zeros(3, dtype=np.complex128)
    v[2] = 1.0
    v = splitter_matrix(3, 0, 2, cfg.chi0, cfg.alpha_b, cfg.theta_b) @ v
    v = splitter_matrix(3, 0, 1, cfg.chi0, cfg.alpha_a, cfg.theta_a) @ v
    return v


def prepare_state(phi, cfg: ExperimentConfig) -> np.ndarray:
    """State leaving the preparation module at platform phase phi, shape
    (3,); an array of phases gives one column per phase, shape (3, N)."""
    v = _prep_splitter_product(cfg)
    phi = np.asarray(phi, dtype=float)
    return np.stack([np.full(phi.shape, v[0] * np.exp(1j * cfg.psi_a)),
                     v[1] * cfg.t_phi * np.exp(1j * phi),
                     v[2] * cfg.t_2phi * np.exp(2j * phi)])


def block_pieces(cfg: ExperimentConfig, x: Sequence[float]) -> tuple:
    """Each primary block factored as (left, slot_mode, slot_phase, right)
    with block = left @ phase(slot_mode, slot_phase) @ right, so that the
    tunable phase x_k enters block k on a single mode."""
    al, th, psi = cfg.alpha, cfg.theta, cfg.psi
    t = cfg.t_ps
    s12_1 = splitter_matrix(3, 1, 2, cfg.chi0, al[0], th[0])
    s01_2 = splitter_matrix(3, 0, 1, cfg.chi0, al[1], th[1])
    s01_3 = splitter_matrix(3, 0, 1, cfg.chi0, al[2], th[2])
    s12_4 = splitter_matrix(3, 1, 2, cfg.chi0, al[3], th[3])
    return (
        (s12_1 @ loss_matrix(3, 2, t), 2, x[0], phase_matrix(3, 2, psi[0])),
        (s01_2, 1, x[1], loss_matrix(3, 1, t) @ phase_matrix(3, 1, psi[1])),
        (s01_3 @ phase_matrix(3, 1, psi[3]), 0, x[2],
         loss_matrix(3, 0, t) @ phase_matrix(3, 0, psi[2])),
        (s12_4 @ phase_matrix(3, 2, psi[5]), 1, x[3],
         loss_matrix(3, 1, t) @ phase_matrix(3, 1, psi[4])),
    )


def block_matrices(cfg: ExperimentConfig, x: Sequence[float] | None = None) -> tuple:
    """The four primary-module block matrices, in physical order."""
    if x is None:
        x = cfg.x
    out = []
    for left, mode, slot, right in block_pieces(cfg, x):
        out.append(left @ phase_matrix(3, mode, slot) @ right)
    return tuple(out)


def block_prefixes(cfg: ExperimentConfig, x: Sequence[float] | None = None) -> tuple:
    """Partial products after blocks 1..4 (prefix i = B_i @ ... @ B_1)."""
    prefixes = []
    m = np.eye(3, dtype=np.complex128)
    for b in block_matrices(cfg, x):
        m = b @ m
        prefixes.append(m)
    return tuple(prefixes)


def primary_module_matrix(cfg: ExperimentConfig, x: Sequence[float] | None = None) -> np.ndarray:
    """Transfer matrix of the primary module (all four blocks)."""
    return block_prefixes(cfg, x)[-1]


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
    phase phi; (3, N) for an array of phases."""
    return primary_module_matrix(cfg, x) @ prepare_state(phi, cfg)


def detector_intensities(x: Sequence[float], phi: float, cfg: ExperimentConfig) -> np.ndarray:
    """Intensity triple (I0, I1, I2) at the detectors."""
    return np.abs(output_state(x, phi, cfg)) ** 2


def detector_intensity_curves(x: Sequence[float], phi_values: np.ndarray,
                              cfg: ExperimentConfig,
                              phase_scale: float = 1.0,
                              phase_offset: float = 0.0) -> np.ndarray:
    """Detector intensities over a phi grid, shape (len(phi_values), 3).

    The platform phase actually applied is phase_scale * phi + phase_offset.
    """
    eff = phase_scale * np.asarray(phi_values, dtype=float) + phase_offset
    return (np.abs(output_state(x, eff, cfg)) ** 2).T


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
    """n equally spaced platform phases over [0, 2 pi)."""
    return np.linspace(0.0, TWO_PI, int(n), endpoint=False)


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
        f = compose(qft3_circuit())
        amps = np.empty((3, phi.size), dtype=np.complex128)
        amps[0] = 1.0 / np.sqrt(3.0)
        amps[1] = np.exp(1j * phi) / np.sqrt(3.0)
        amps[2] = np.exp(2j * phi) / np.sqrt(3.0)
        inten = (np.abs(f @ amps) ** 2).T
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
    if np.any(scale <= 0):
        raise ValueError("scale entries must be positive")
    if np.any(bias < 0):
        raise ValueError("bias entries must be non-negative")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be non-negative")
    phi = default_phi_grid(grid) if np.isscalar(grid) else np.asarray(grid, dtype=float)
    curves = detector_intensity_curves(cfg.x, phi, cfg, phase_scale, phase_offset)
    data = scale[None, :] * curves + bias[None, :]
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        data = data + rng.normal(0.0, noise_sigma, size=data.shape)
    return DetectorTrace(phi, np.clip(data, 0.0, None))
