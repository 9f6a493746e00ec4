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
solution picks one of them.  dx is measured from the zero point r0,
``fourier_setpoints``, with all earlier steps already zeroed, and every
fringe comes from the block model at that reference; the tuned setting is
r0 plus the selected offsets.  The tests check the fringes against the
published closed forms p1..p3 and a reconstructed p4.

The monitored amplitude is fixed +/- swing at the phases x and x + pi e_k,
so A and B come from one forward-core call on those two rows.  For one
(step, phi, config, earlier offsets) every sample of a step differs only in
dx, so the fringe is read once and memoized: the target, the sample read
and the residual check share it.

A single value (A, B, the roots, the slope, a sample at one dx) is computed
with math and cmath on Python floats and complexes, an array (the forward
core, the eight samples of a caller's signal and their projection) with
numpy: numpy's call on one number costs more than its arithmetic.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .elements import TWO_PI, _fields, integer, real, real_array, reals, wrap_pi
from .experiment import ExperimentConfig, forward_matrix, fourier_setpoints

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


def _step_fringe(step: int, phi: float, cfg: ExperimentConfig,
                 prior_dx: Sequence[float] = (0.0, 0.0, 0.0)):
    """(A, B) of the step's fringe A + Re(B e^{i dx}) (arguments as for
    ``simulated_step_intensity``), validated and reduced to the hashable key
    of the memo: only the first step - 1 offsets enter the fringe, and
    fewer than that raise ValueError naming prior_dx."""
    step, phi = integer(step, "step"), real(phi, "phi")
    if not 1 <= step <= 4:
        raise ValueError(f"'step' must be an integer in 1..4, got {step!r}")
    prior_dx = reals(prior_dx, "prior_dx")
    if len(prior_dx) < step - 1:
        raise ValueError(f"'prior_dx' needs {step - 1} entries for step {step}, "
                         f"got {len(prior_dx)}")
    return _step_fringe_memo(step, phi, cfg, prior_dx[:step - 1])


@functools.lru_cache(maxsize=STEP_FRINGE_CACHE_SIZE)
def _step_fringe_memo(step: int, phi: float, cfg: ExperimentConfig, prior_dx: tuple):
    """The forward-core evaluation behind ``_step_fringe``; a float and a
    complex scalar, so a shared entry cannot be changed by a caller."""
    x = np.array(fourier_setpoints(cfg)[:step])
    x[:len(prior_dx)] += prior_dx
    # the monitored amplitude at x and at x + pi e_step: fixed +/- swing
    u = forward_matrix(cfg, [x, x + np.pi * (np.arange(step) == step - 1)])
    ramp = (1.0, cmath.exp(1j * phi), cmath.exp(2j * phi))
    at_x, at_flip = (sum(v * r for v, r in zip(row, ramp))
                     for row in u[:, MONITORED_MODES[step - 1]].tolist())
    fixed, swing = 0.5 * (at_x + at_flip), 0.5 * (at_x - at_flip)
    return abs(fixed) ** 2 + abs(swing) ** 2, 2.0 * swing * fixed.conjugate()


def simulated_step_intensity(step: int, dx, phi: float, cfg: ExperimentConfig,
                             prior_dx: Sequence[float] = (0.0, 0.0, 0.0)):
    """Monitored intensity of a step at shifter offset dx from the block
    model's first `step` blocks, with the tunable phases at the zero point
    r0, ``fourier_setpoints``, plus offsets; prior_dx perturbs the earlier
    steps (all zero when they are calibrated).

    The fringe's A and B are memoized per (step, phi, cfg, the first
    step - 1 entries of prior_dx), so repeated samples of one step cost one
    forward-core evaluation; only the final A + Re(B e^{i dx}) is computed
    per call: on a float or an int dx (``np.float64`` is a float), read by
    ``real``, with cmath, giving a float; on any other dx, read by
    ``real_array``, with numpy, giving an array, or a float for a 0-d one.
    step must be in 1..4, prior_dx hold at least step - 1 entries, and phi,
    prior_dx and dx be real and finite; anything else raises ValueError
    naming the argument."""
    a, b = _step_fringe(step, phi, cfg, prior_dx)
    if isinstance(dx, (float, int)):
        return a + (b * cmath.exp(1j * real(dx, "dx"))).real
    out = a + (b * np.exp(1j * real_array(dx, "dx"))).real
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
    #: the setting the steps tuned: the selected offsets added to the zero
    #: point they are measured from, ``fourier_setpoints``, wrapped to
    #: [0, 2 pi).  Its curves at mu = pi are ``reference_intensities``.
    x: tuple
    phi: float

    @property
    def max_offset(self) -> float:
        return float(max(abs(wrap_pi(s.selected)) for s in self.steps))

    def to_dict(self) -> dict:
        steps = [{**_fields(s), "target": _fields(s.target)} for s in self.steps]
        return {**_fields(self), "steps": steps, "max_offset": self.max_offset}


#: Shifter offsets at which a caller's signal is sampled; eight samples
#: resolve harmonics 0..4.  Read-only, since every driven step hands the
#: same array to a caller's signal.
_DX = TWO_PI * np.arange(8) / 8
_DX.setflags(write=False)
_HARMONICS = np.exp(-1j * np.outer(_DX, np.arange(1, 5)))


def _fringe(fun: Callable, step: int) -> tuple[float, complex, float]:
    """A and B of fun(dx) = A + Re(B e^{i dx}) from one call on ``_DX``, and
    the largest amplitude among harmonics 2..4 (zero for such a fringe).
    A return that is not one finite value per offset raises
    CalibrationError naming the step."""
    samples = fun(_DX)
    try:
        samples = real_array(samples, "signal")
        if samples.shape != _DX.shape:
            raise ValueError
    except ValueError:
        raise CalibrationError(
            f"step {step}: signal must return {_DX.size} finite intensities, "
            f"one per offset, got {samples!r}") from None
    coef = (2.0 / _DX.size) * samples @ _HARMONICS
    return float(samples.mean()), complex(coef[0]), float(np.max(np.abs(coef[1:])))


def _target(step: int, phi: float, cfg: ExperimentConfig):
    """The step's TargetInfo and the A and B of its fringe at the reference."""
    a, b = _step_fringe(step, phi, cfg)
    value, lo, hi = a + b.real, a - abs(b), a + abs(b)
    degenerate = (hi - lo) <= 1e-12 * max(1.0, hi)
    fraction = 0.0 if degenerate else (value - lo) / (hi - lo)
    return TargetInfo(step, value, lo, hi, fraction, degenerate), a, b


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
    the simulated pipeline or an apparatus).  It is called twice: first
    with the read-only array of the eight offsets 2 pi k / 8, k = 0..7,
    for which it returns the eight intensities elementwise, then with the
    selected root, a float, for the residual.  A first return that is not
    eight finite values, or a second that is not one, raises
    CalibrationError naming the step.  The target and the branch sign
    always come from the block model at the reference, as in the procedure.
    """
    info, a, b = _target(step, phi, cfg)
    if info.degenerate:
        raise DegenerateConfigError(
            f"step {step}: fringe range {info.hi - info.lo:.3e} leaves nothing to tune")
    branch = 0 if abs(b.imag) <= 1e-9 * (info.hi - info.lo) else (1 if b.imag < 0 else -1)
    if signal is None:
        signal = lambda d: a + (b * cmath.exp(1j * d)).real
    else:
        a, b, spurious = _fringe(signal, step)
        if not spurious <= 1e-9 * abs(b):
            raise CalibrationError(
                f"step {step}: signal is not a first-harmonic fringe in dx "
                f"(harmonics 2-4 reach {spurious:.3e}, first harmonic {abs(b):.3e})")
    if not abs(info.value - a) < (1.0 + 1e-12) * abs(b):
        raise CalibrationError(f"step {step}: no crossing of target {info.value:.6g}")
    half = math.acos(min(max((info.value - a) / abs(b), -1.0), 1.0))
    # a sum just below 0 wraps to 2 pi by rounding; the second % reads it as 0
    falling = (-cmath.phase(b) + half) % TWO_PI % TWO_PI
    rising = falling if half in (0.0, math.pi) else (-cmath.phase(b) - half) % TWO_PI % TWO_PI
    selected = rising if branch > 0 else falling
    value = signal(selected)
    try:
        residual = abs(real(value, "signal") - info.value)
    except ValueError as err:
        raise CalibrationError(f"step {step}: at the selected root, {err}") from None
    return StepSolution(step, info, tuple(sorted({falling, rising})), selected,
                        branch, residual,
                        visibility=abs(b) / a if a else math.inf,
                        slope=-(b * cmath.exp(1j * selected)).imag,
                        root_gap=min(2.0 * half, TWO_PI - 2.0 * half))


def calibrate(cfg: ExperimentConfig, phi: float = ADJUSTMENT_PHI) -> CalibrationResult:
    """Run the four adjustment steps in order and return the tuned phases.

    x is the zero point r0, ``fourier_setpoints``, plus the selected offsets
    (which are zero up to solver precision), so its curves at mu = pi are
    ``reference_intensities``; the starting cfg.x plays no role because
    every step reads its whole fringe.
    """
    phi = real(phi, "phi")
    solutions = [solve_step(step, cfg, phi) for step in (1, 2, 3, 4)]
    x = tuple((r + s.selected) % TWO_PI for r, s in zip(fourier_setpoints(cfg), solutions))
    return CalibrationResult(tuple(solutions), x, phi)
