"""Virtual four-step adjustment of the tunable phases.

Each step monitors the interference signal at an intermediate point of the
primary module while one tunable shifter is swept over a full period.  The
signal is a first-harmonic fringe A + Re(B e^{i dx}) in the shifter offset
dx (the shifter phase enters exactly one arm once), so the step's target
intensity, taken at dx = 0, is a fixed fraction of the fringe range
A -/+ |B|.  The solver projects eight samples of the signal onto A and B
and solves for the two crossings of the target in closed form; the sign of
the fringe slope at the solution picks one of them.

dx is measured relative to the nominal setpoints (``fourier_setpoints``);
the closed forms below describe the monitored fringes in that convention,
with all earlier steps already zeroed.  p1..p3 are the published closed
forms; the published display of the step-4 fringe is inconsistent with the
transfer-matrix model (it drops the dx dependence and deviates from the
block simulation), so ``p4_closed_form`` is the analytically reconstructed
expression instead.  Tests pin both facts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .experiment import (NOMINAL_SETPOINT_SHIFT, ExperimentConfig,
                         block_pieces, fourier_setpoints,
                         fourier_setpoints_exact, output_state)
from .synthesis import CHI_TILDE

TWO_PI = 2.0 * np.pi
SQRT2 = np.sqrt(2.0)

#: Platform phase used throughout the adjustment procedure.
ADJUSTMENT_PHI = np.pi / 3


class CalibrationError(RuntimeError):
    """Adjustment failed (no usable crossing of the target intensity)."""


class DegenerateConfigError(CalibrationError):
    """The monitored fringe has no interference contrast to tune against."""


@dataclass(frozen=True)
class AdjustmentStep:
    """One stage of the procedure.

    monitored_mode is the beam whose intensity the auxiliary detector reads
    after the step's splitter block.  nominal_fraction is the published
    target fraction of the fringe range (None means the minimum rule), kept
    as a cross-check value; the actual target is always recomputed from the
    closed form at dx = 0.  default_branch is the slope sign at dx = 0
    under the default constants, pinned by a derivation test; the solver
    recomputes the sign per configuration.
    """

    index: int
    detector: str
    monitored_mode: int
    nominal_fraction: float | None
    default_branch: int


ADJUSTMENT_STEPS = (
    AdjustmentStep(1, "AD1", 1, 0.75, -1),
    AdjustmentStep(2, "AD2", 0, None, +1),
    AdjustmentStep(3, "AD3", 0, 0.60, -1),
    AdjustmentStep(4, "AD4", 1, 0.64, -1),
)


def _trig(cfg: ExperimentConfig):
    return (np.sin(cfg.chi0), np.cos(cfg.chi0), cfg.t_ps, cfg.t_phi, cfg.t_2phi)


def p1_closed_form(dx1, phi: float, cfg: ExperimentConfig):
    """Intensity on the step-1 beam versus shifter offset dx1."""
    s, c, tps, tphi, t2phi = _trig(cfg)
    return s**2 * c**2 * (tps * t2phi * (tps * t2phi
                                         + 2.0 * tphi * s * np.cos(dx1 + phi))
                          + tphi**2 * s**2)


def p2_closed_form(dx2, phi: float, cfg: ExperimentConfig):
    """Intensity on the step-2 beam versus dx2, step 1 already zeroed."""
    s, c, tps, tphi, t2phi = _trig(cfg)
    return s**2 * c**2 * (
        c**2
        + 0.5 * tps**2 * s**2 * (tphi**2 + 2.0 * tps**2 * t2phi**2
                                 - tphi**2 * np.cos(2.0 * cfg.chi0)
                                 + 4.0 * tps * tphi * t2phi * s * np.cos(phi))
        - 2.0 * tps * c * s * (tps * t2phi * np.sin(dx2 + 2.0 * phi)
                               + tphi * np.sin(dx2 + phi) * s))


def p3_closed_form(dx3, phi: float, cfg: ExperimentConfig):
    """Intensity on the step-3 beam versus dx3, steps 1 and 2 zeroed."""
    s, c, tps, tphi, t2phi = _trig(cfg)
    x0, ct = cfg.chi0, CHI_TILDE
    return s**2 * c**2 * (
        tps**2 * c**4
        + tps**2 * s * c**3 * (
            -2.0 * tps * (tps * t2phi * np.sin(2.0 * phi) + tphi * s * np.sin(phi)
                          + t2phi * np.sin(dx3 - 2.0 * (phi + ct)))
            - tphi * np.cos(-x0 + dx3 - phi - 2.0 * ct)
            + tphi * np.cos(x0 + dx3 - phi - 2.0 * ct))
        + tps * s**3 * c * (
            -2.0 * tps**2 * t2phi * np.sin(dx3 + 2.0 * phi - 2.0 * ct)
            + 2.0 * tps * t2phi * np.sin(2.0 * phi)
            - tps * tphi * np.cos(-x0 + dx3 + phi - 2.0 * ct)
            + tps * tphi * np.cos(x0 + dx3 + phi - 2.0 * ct)
            + 2.0 * tphi * s * np.sin(phi))
        + 0.5 * tps * s**2 * c**2 * (
            -tps * (tps**2 + 1.0) * tphi**2 * np.cos(2.0 * x0)
            - 2.0 * (2.0 * tps**4 * t2phi**2 + tps**2 * tphi**2 - 2.0)
            * np.cos(dx3 - 2.0 * ct)
            + tps * (2.0 * tps**4 * t2phi**2
                     + 4.0 * tps**3 * tphi * t2phi * s * np.cos(phi)
                     + tps**2 * tphi**2
                     + 2.0 * tps**2 * t2phi**2
                     + (8.0 / 3.0) * tps**2 * tphi * t2phi * s * np.cos(dx3) * np.cos(phi)
                     - (16.0 / 3.0) * SQRT2 * tps**2 * tphi * t2phi * s
                     * np.sin(dx3) * np.cos(phi)
                     + 4.0 * tps * tphi * t2phi * s * np.cos(phi)
                     + tps * tphi**2 * np.cos(2.0 * x0 + dx3 - 2.0 * ct)
                     + tps * tphi**2 * np.cos(dx3 - 2.0 * (x0 + ct))
                     + tphi**2))
        + s**4)


def p4_closed_form(dx4, phi: float, cfg: ExperimentConfig):
    """Intensity on the step-4 beam versus dx4, steps 1..3 zeroed.

    Analytic reconstruction from the block model: the two amplitudes
    feeding the final splitter are propagated in closed form and the
    monitored intensity is their interference, first-harmonic in dx4.
    """
    s, c, tps, tphi, t2phi = _trig(cfg)
    e = np.exp(1j * phi)
    g = np.exp(2j * CHI_TILDE)
    mid = (s * c / g) * (1j * t2phi * tps**3 * e**2 * s**2
                         + 1j * tphi * tps**2 * e * s**3
                         + tps * s * c
                         + g * c * (1j * t2phi * tps**2 * e**2 * c
                                    + 1j * tphi * tps * e * s * c - s))
    low = e * (-t2phi * tps * e * c**2 + tphi * s**3)
    amp = -c * tps * np.exp(1j * CHI_TILDE) * np.exp(1j * np.asarray(dx4)) * mid + s * low
    out = np.abs(amp) ** 2
    return out if out.ndim else float(out)


_CLOSED_FORMS: dict[int, Callable] = {
    1: p1_closed_form, 2: p2_closed_form, 3: p3_closed_form, 4: p4_closed_form,
}


def step_curve(step: int, dx, phi: float, cfg: ExperimentConfig):
    """Closed-form monitored intensity of a step at shifter offset dx."""
    return _CLOSED_FORMS[step](dx, phi, cfg)


def simulated_step_intensity(step: int, dx, phi: float, cfg: ExperimentConfig,
                             prior_dx: Sequence[float] = (0.0, 0.0, 0.0),
                             reference: Sequence[float] | None = None):
    """Monitored intensity from the transfer-matrix pipeline (oracle route).

    The forward core's prefix over the first step - 1 blocks, then block
    `step` split into a fixed part and the swing its shifter turns, with
    the tunable phases at reference + offset.  The default reference is the
    exact setpoints plus ``NOMINAL_SETPOINT_SHIFT``, the zero point the
    closed forms are written against; prior_dx perturbs the earlier steps
    (all zero when they are calibrated).
    """
    if reference is None:
        exact = fourier_setpoints_exact(cfg)
        reference = tuple(e + s for e, s in zip(exact, NOMINAL_SETPOINT_SHIFT))
    mode = ADJUSTMENT_STEPS[step - 1].monitored_mode
    dx = np.asarray(dx, dtype=float)
    prior = np.array(reference[:step - 1], dtype=float)
    prior[:len(prior_dx)] += prior_dx[:step - 1]
    v = output_state(prior, phi, cfg)
    left, slot_mode, right = block_pieces(cfg)[0][step - 1]
    w = right @ v
    swing = left[mode, slot_mode] * w[slot_mode]
    fixed = left[mode] @ w - swing
    out = np.abs(fixed + swing * np.exp(1j * (reference[step - 1] + dx))) ** 2
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class TargetInfo:
    """Target intensity of a step plus the fringe statistics behind it."""

    step: int
    value: float
    lo: float
    hi: float
    fraction: float
    degenerate: bool

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class StepSolution:
    """Roots of target crossing for one step and the branch-selected one."""

    step: int
    target: TargetInfo
    roots: tuple
    selected: float
    branch: int
    residual: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of the four-step procedure."""

    steps: tuple
    x: tuple
    reference: tuple
    phi: float

    @property
    def max_offset(self) -> float:
        return max(abs(_wrap_pi(s.selected)) for s in self.steps)

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "max_offset": self.max_offset}


def _wrap_pi(angle: float) -> float:
    return float((angle + np.pi) % TWO_PI - np.pi)


#: Shifter offsets at which a step's signal is sampled; eight samples
#: resolve harmonics 0..4.
_DX = TWO_PI * np.arange(8) / 8
_HARMONICS = np.exp(-1j * np.outer(_DX, np.arange(1, 5)))


def _fringe(fun: Callable) -> tuple[float, complex, float]:
    """A and B of fun(dx) = A + Re(B e^{i dx}) from eight scalar calls, and
    the largest amplitude among harmonics 2..4 (zero for such a fringe)."""
    samples = np.array([float(fun(d)) for d in _DX])
    coef = (2.0 / _DX.size) * samples @ _HARMONICS
    return float(samples.mean()), complex(coef[0]), float(np.max(np.abs(coef[1:])))


def target_intensity(step: int, cfg: ExperimentConfig,
                     phi: float = ADJUSTMENT_PHI) -> TargetInfo:
    """Target intensity for a step: the fringe value at dx = 0.

    The fringe minimum and maximum are A -/+ |B| of the closed form; the
    implied fraction (target - min) / range is reported for cross-checking
    against the published step fractions.  A vanishing range flags the
    configuration as degenerate (no interference to tune against).
    """
    fun = lambda d: step_curve(step, d, phi, cfg)
    a, b, _ = _fringe(fun)
    lo, hi = a - abs(b), a + abs(b)
    value = float(fun(0.0))
    degenerate = bool((hi - lo) <= 1e-12 * max(1.0, hi))
    fraction = 0.0 if degenerate else (value - lo) / (hi - lo)
    return TargetInfo(step, value, lo, hi, float(fraction), degenerate)


def solve_step(step: int, cfg: ExperimentConfig, phi: float = ADJUSTMENT_PHI,
               signal: Callable | None = None) -> StepSolution:
    """Find the shifter offsets where the monitored intensity meets the
    step's target, and select one by the slope-sign branch rule (NOTES.md).

    signal overrides the monitored curve (used to drive the solver from
    the simulated pipeline instead of the closed form) and is called with
    one scalar offset at a time; the target and the branch sign always
    come from the closed form, as in the procedure.
    """
    info = target_intensity(step, cfg, phi)
    if info.degenerate:
        raise DegenerateConfigError(
            f"step {step}: fringe range {info.hi - info.lo:.3e} leaves nothing to tune")
    closed = lambda d: step_curve(step, d, phi, cfg)
    fun = closed if signal is None else signal
    a, b, spurious = _fringe(closed)
    branch_slope = -b.imag
    if signal is not None:
        a, b, spurious = _fringe(signal)
    if not spurious <= 1e-9 * abs(b):
        raise CalibrationError(
            f"step {step}: signal is not a first-harmonic fringe in dx "
            f"(harmonics 2-4 reach {spurious:.3e}, first harmonic {abs(b):.3e})")
    if not abs(info.value - a) < (1.0 + 1e-12) * abs(b):
        raise CalibrationError(f"step {step}: no crossing of target {info.value:.6g}")
    flat = abs(branch_slope) <= 1e-9 * (info.hi - info.lo)
    branch = 0 if flat else int(np.sign(branch_slope))
    half = float(np.arccos(np.clip((info.value - a) / abs(b), -1.0, 1.0)))
    falling = float((-np.angle(b) + half) % TWO_PI)
    rising = falling if half in (0.0, np.pi) else float((-np.angle(b) - half) % TWO_PI)
    selected = rising if branch > 0 else falling
    residual = abs(float(fun(selected)) - info.value)
    return StepSolution(step, info, tuple(sorted({falling, rising})), selected,
                        branch, residual)


def calibrate(cfg: ExperimentConfig, phi: float = ADJUSTMENT_PHI) -> CalibrationResult:
    """Run the four adjustment steps in order and return the tuned phases.

    The tuned values are the nominal setpoints plus the selected offsets
    (which are zero up to solver precision); the starting cfg.x plays no
    role because every step samples a full shifter period.
    """
    solutions = [solve_step(step, cfg, phi) for step in (1, 2, 3, 4)]
    reference = fourier_setpoints(cfg)
    x = tuple(float((r + s.selected) % TWO_PI)
              for r, s in zip(reference, solutions))
    return CalibrationResult(tuple(solutions), x, reference, phi)
