"""Virtual four-step adjustment of the tunable phases.

Step k monitors one beam, ``MONITORED_MODES[k - 1]``, after the step's
splitter block while its tunable shifter x_k is swept over a full period;
its target and branch come from the block model, not from a table.  The
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

The monitored amplitude is fixed +/- swing at the phases x and x + pi e_k,
so (fixed, swing) comes from one forward-core call on those two rows.  For
one (step, phi, config, earlier offsets, reference) every sample of a step
differs only in dx, so the pair is read once and memoized: the target, the
eight samples of a simulated signal and the residual check share it.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .elements import TWO_PI, _integer
from .experiment import (NOMINAL_SETPOINT_SHIFT, ExperimentConfig,
                         forward_matrix, fourier_setpoints,
                         fourier_setpoints_exact)

#: Platform phase used throughout the adjustment procedure.
ADJUSTMENT_PHI = np.pi / 3


class CalibrationError(RuntimeError):
    """Adjustment failed (no usable crossing of the target intensity)."""


class DegenerateConfigError(CalibrationError):
    """The monitored fringe has no interference contrast to tune against."""


#: Beam whose intensity the auxiliary detector of each step (1..4) reads
#: after the step's splitter block.
MONITORED_MODES = (1, 0, 0, 1)


#: Step fringes kept by ``_step_fringe``.  ``calibrate`` reads four, and
#: driving its steps from the simulated apparatus adds at most three.
STEP_FRINGE_CACHE_SIZE = 64


def _finite(value, key: str, sequence: bool = False):
    """float(value), or a tuple of floats for a sequence, all finite; any
    other value, such as None, raises ValueError naming the argument."""
    try:
        out = tuple(map(float, value)) if sequence else float(value)
    except (TypeError, ValueError):
        kind = "a sequence of real numbers" if sequence else "a real number"
        raise ValueError(f"{key} must be {kind}, got {value!r}") from None
    if not all(map(math.isfinite, out if sequence else (out,))):
        raise ValueError(f"{key} must be finite, got {out}")
    return out


def _step_fringe(step: int, phi: float, cfg: ExperimentConfig,
                 prior_dx: Sequence[float] = (0.0, 0.0, 0.0),
                 reference: Sequence[float] | None = None):
    """(fixed, swing) of the step's monitored amplitude fixed + swing e^{i dx}
    (arguments as for ``simulated_step_intensity``), validated and reduced
    to the hashable key of the memo: only the first step - 1 offsets and
    the first step reference phases enter the fringe."""
    step, phi = _integer(step, "step"), _finite(phi, "phi")
    if not 1 <= step <= 4:
        raise ValueError(f"'step' must be an integer in 1..4, got {step!r}")
    prior = _finite(prior_dx, "prior_dx", sequence=True)
    if reference is not None:
        reference = _finite(reference, "reference", sequence=True)
        if len(reference) < step:
            raise ValueError(f"reference needs at least {step} phases for "
                             f"step {step}, got {len(reference)}")
        reference = reference[:step]
    return _step_fringe_memo(step, phi, cfg, prior[:step - 1], reference)


@functools.lru_cache(maxsize=STEP_FRINGE_CACHE_SIZE)
def _step_fringe_memo(step: int, phi: float, cfg: ExperimentConfig,
                      prior_dx: tuple, reference: tuple | None):
    """The forward-core evaluation behind ``_step_fringe``; complex scalars,
    so a shared entry cannot be changed by a caller."""
    if reference is None:
        reference = np.add(fourier_setpoints_exact(cfg), NOMINAL_SETPOINT_SHIFT)
    x = np.array(reference[:step], dtype=float)
    x[:len(prior_dx)] += prior_dx
    # the monitored amplitude at x and at x + pi e_step: fixed +/- swing
    u = forward_matrix(cfg, [x, x + np.pi * (np.arange(step) == step - 1)])
    amp = u[:, MONITORED_MODES[step - 1]] @ np.exp(1j * phi * np.arange(3))
    return complex(0.5 * (amp[0] + amp[1])), complex(0.5 * (amp[0] - amp[1]))


def simulated_step_intensity(step: int, dx, phi: float, cfg: ExperimentConfig,
                             prior_dx: Sequence[float] = (0.0, 0.0, 0.0),
                             reference: Sequence[float] | None = None):
    """Monitored intensity of a step at shifter offset dx from the block
    model's first `step` blocks, with the tunable phases at reference +
    offset.  The default reference, the exact setpoints plus
    ``NOMINAL_SETPOINT_SHIFT``, is the zero point of the nominal setpoints;
    prior_dx perturbs the earlier steps (all zero when they are calibrated).

    The fringe's (fixed, swing) pair is memoized per (step, phi, cfg, the
    first step - 1 entries of prior_dx, reference), so repeated samples of
    one step cost one forward-core evaluation; only the final
    |fixed + swing e^{i dx}|^2 is computed per call.  step must be in 1..4,
    and phi, prior_dx and reference finite, with at least step reference
    phases; anything else raises ValueError."""
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


@dataclass(frozen=True)
class StepSolution:
    """Roots of target crossing for one step and the branch-selected one.

    visibility |B|/A, slope (the fringe's derivative at the selected root)
    and root_gap (circular distance to the other root, 0 for a tangent
    root) describe the fringe the roots were solved on: the sampled one
    when the step is driven by a signal.  A small slope or root_gap means
    that noise on the signal moves or swaps the selected root easily.
    """

    step: int
    target: TargetInfo
    roots: tuple
    selected: float
    branch: int
    residual: float
    visibility: float
    slope: float
    root_gap: float


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of the four-step procedure."""

    steps: tuple
    x: tuple
    #: the setting the steps tuned: the selected offsets added to
    #: ``fourier_setpoints_exact``, whose zero point they are measured from
    #: (up to the mu gauge), wrapped to [0, 2 pi).  Its curves at mu = 0 are
    #: ``reference_intensities``; x adds the offsets to the nominal
    #: setpoints, which are that zero point only at zero incidental phases.
    tuned: tuple
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
                        branch, residual,
                        visibility=abs(b) / a if a else math.inf,
                        slope=float(-(b * np.exp(1j * selected)).imag),
                        root_gap=min(2.0 * half, TWO_PI - 2.0 * half))


def calibrate(cfg: ExperimentConfig, phi: float = ADJUSTMENT_PHI) -> CalibrationResult:
    """Run the four adjustment steps in order and return the tuned phases.

    x is the nominal setpoints plus the selected offsets (which are zero up
    to solver precision), and tuned the exact setpoints plus the same
    offsets; the starting cfg.x plays no role because every step reads its
    whole fringe.
    """
    solutions = [solve_step(step, cfg, phi) for step in (1, 2, 3, 4)]
    reference = fourier_setpoints(cfg)
    x, tuned = (tuple(float((r + s.selected) % TWO_PI) for r, s in zip(base, solutions))
                for base in (reference, fourier_setpoints_exact(cfg)))
    return CalibrationResult(tuple(solutions), x, tuned, reference, phi)
