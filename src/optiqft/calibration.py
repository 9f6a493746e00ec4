"""Virtual four-step adjustment of the tunable phases.

Each step monitors the interference signal at an intermediate point of the
primary module while one tunable shifter is swept over a full period.  The
shifter phase enters exactly one arm once, so the signal is
|fixed + swing e^{i dx}|^2 = A + Re(B e^{i dx}), a first-harmonic fringe in
the shifter offset dx with A = |fixed|^2 + |swing|^2 and
B = 2 swing conj(fixed).  The step's target intensity, taken at dx = 0, is
a fixed fraction of the fringe range A -/+ |B|; the two crossings of the
target are solved in closed form, and the sign of the fringe slope at the
solution picks one of them.  dx is measured relative to the nominal
setpoints (``fourier_setpoints``), with all earlier steps already zeroed,
and every fringe comes from the block model at that reference.  The tests
check it against the published closed forms p1..p3 and a reconstructed p4.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .experiment import (NOMINAL_SETPOINT_SHIFT, ExperimentConfig,
                         block_pieces, fourier_setpoints,
                         fourier_setpoints_exact, output_state)

TWO_PI = 2.0 * np.pi

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
    block model at the reference, dx = 0.  default_branch is the slope sign
    at dx = 0 under the default constants, pinned by a derivation test; the
    solver recomputes the sign per configuration.
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


def _step_fringe(step: int, phi: float, cfg: ExperimentConfig,
                 prior_dx: Sequence[float] = (0.0, 0.0, 0.0),
                 reference: Sequence[float] | None = None):
    """(fixed, swing) of the step's monitored amplitude fixed + swing e^{i dx}
    (arguments as for ``simulated_step_intensity``)."""
    if not np.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi}")
    if reference is None:
        reference = np.add(fourier_setpoints_exact(cfg), NOMINAL_SETPOINT_SHIFT)
    mode = ADJUSTMENT_STEPS[step - 1].monitored_mode
    prior = np.array(reference[:step - 1], dtype=float)
    prior[:len(prior_dx)] += prior_dx[:step - 1]
    v = output_state(prior, phi, cfg)
    left, slot_mode, right = block_pieces(cfg)[0][step - 1]
    w = right @ v
    swing = left[mode, slot_mode] * w[slot_mode]
    return left[mode] @ w - swing, swing * np.exp(1j * reference[step - 1])


def simulated_step_intensity(step: int, dx, phi: float, cfg: ExperimentConfig,
                             prior_dx: Sequence[float] = (0.0, 0.0, 0.0),
                             reference: Sequence[float] | None = None):
    """Monitored intensity of a step at shifter offset dx from the block
    model: the forward core's prefix over the first step - 1 blocks, then
    block `step` split at its shifter, with the tunable phases at reference
    + offset.  The default reference, the exact setpoints plus
    ``NOMINAL_SETPOINT_SHIFT``, is the zero point of the nominal setpoints;
    prior_dx perturbs the earlier steps (all zero when they are calibrated)."""
    fixed, swing = _step_fringe(step, phi, cfg, prior_dx, reference)
    out = np.abs(fixed + swing * np.exp(1j * np.asarray(dx, dtype=float))) ** 2
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


#: Shifter offsets at which a caller's signal is sampled; eight samples
#: resolve harmonics 0..4.
_DX = TWO_PI * np.arange(8) / 8
_HARMONICS = np.exp(-1j * np.outer(_DX, np.arange(1, 5)))


def _fringe(fun: Callable) -> tuple[float, complex, float]:
    """A and B of fun(dx) = A + Re(B e^{i dx}) from eight scalar calls, and
    the largest amplitude among harmonics 2..4 (zero for such a fringe)."""
    samples = np.array([float(fun(d)) for d in _DX])
    coef = (2.0 / _DX.size) * samples @ _HARMONICS
    return float(samples.mean()), complex(coef[0]), float(np.max(np.abs(coef[1:])))


def _target(step: int, phi: float, cfg: ExperimentConfig):
    """The step's TargetInfo and the A and B of its fringe at the reference."""
    fixed, swing = _step_fringe(step, phi, cfg)
    a, b = float(abs(fixed) ** 2 + abs(swing) ** 2), complex(2.0 * swing * np.conj(fixed))
    value, lo, hi = a + b.real, a - abs(b), a + abs(b)
    degenerate = bool((hi - lo) <= 1e-12 * max(1.0, hi))
    fraction = 0.0 if degenerate else (value - lo) / (hi - lo)
    return TargetInfo(step, value, lo, hi, float(fraction), degenerate), a, b


def target_intensity(step: int, cfg: ExperimentConfig,
                     phi: float = ADJUSTMENT_PHI) -> TargetInfo:
    """Target intensity for a step: the fringe value at dx = 0, with the
    fringe minimum and maximum A -/+ |B|, all from the block model at the
    reference.  The implied fraction (target - min) / range cross-checks the
    published step fractions; a vanishing range flags the configuration as
    degenerate (no interference to tune against)."""
    return _target(step, phi, cfg)[0]


def solve_step(step: int, cfg: ExperimentConfig, phi: float = ADJUSTMENT_PHI,
               signal: Callable | None = None) -> StepSolution:
    """Find the shifter offsets where the monitored intensity meets the
    step's target, and select one by the slope-sign branch rule (NOTES.md).

    signal overrides the monitored curve (used to drive the solver from
    the simulated pipeline or an apparatus) and is called with one scalar
    offset at a time; the target and the branch sign always come from the
    block model at the reference, as in the procedure.
    """
    info, a, b = _target(step, phi, cfg)
    if info.degenerate:
        raise DegenerateConfigError(
            f"step {step}: fringe range {info.hi - info.lo:.3e} leaves nothing to tune")
    branch = 0 if abs(b.imag) <= 1e-9 * (info.hi - info.lo) else int(np.sign(-b.imag))
    if signal is None:
        signal = lambda d: a + (b * np.exp(1j * d)).real
    else:
        a, b, spurious = _fringe(signal)
        if not spurious <= 1e-9 * abs(b):
            raise CalibrationError(
                f"step {step}: signal is not a first-harmonic fringe in dx "
                f"(harmonics 2-4 reach {spurious:.3e}, first harmonic {abs(b):.3e})")
    if not abs(info.value - a) < (1.0 + 1e-12) * abs(b):
        raise CalibrationError(f"step {step}: no crossing of target {info.value:.6g}")
    half = float(np.arccos(np.clip((info.value - a) / abs(b), -1.0, 1.0)))
    falling = float((-np.angle(b) + half) % TWO_PI)
    rising = falling if half in (0.0, np.pi) else float((-np.angle(b) - half) % TWO_PI)
    selected = rising if branch > 0 else falling
    residual = abs(float(signal(selected)) - info.value)
    return StepSolution(step, info, tuple(sorted({falling, rising})), selected,
                        branch, residual)


def calibrate(cfg: ExperimentConfig, phi: float = ADJUSTMENT_PHI) -> CalibrationResult:
    """Run the four adjustment steps in order and return the tuned phases.

    The tuned values are the nominal setpoints plus the selected offsets
    (which are zero up to solver precision); the starting cfg.x plays no
    role because every step reads its whole fringe.
    """
    solutions = [solve_step(step, cfg, phi) for step in (1, 2, 3, 4)]
    reference = fourier_setpoints(cfg)
    x = tuple(float((r + s.selected) % TWO_PI)
              for r, s in zip(reference, solutions))
    return CalibrationResult(tuple(solutions), x, reference, phi)
