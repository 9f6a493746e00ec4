"""Least-squares estimation of the fringe model from detector traces.

The forward model per detector is scale_i * I_i(x; lam * phi + mu) + bias_i
where I_i are the simulated detector intensities.  It has an exact gauge:
(mu, x) -> (mu + delta, x + delta * (-1, -1, 0, +1)) leaves every intensity
unchanged for every real delta, configuration and lam, so the data do not
determine mu.  The fit fixes mu = 0 and searches the five identifiable
parameters (lam, x_1..x_4) by Gauss-Newton, solving scale and bias in
closed form at every iterate (variable projection, Golub & Pereyra 1973)
with Kaufman's (1975) Jacobian of the projected residual, built on analytic
intensity derivatives.  The model is 2 pi periodic in every phase, so each
step is scaled down so that no phase moves by more than pi, then halved until
the cost falls.  Multi-start over a coarse grid of phase initializations
guards against the secondary local minima of the trigonometric objective.
See NOTES.md.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import numbers
from dataclasses import dataclass

import numpy as np

from .experiment import (DetectorTrace, ExperimentConfig,
                         detector_intensity_curves, forward_matrix,
                         fourier_setpoints, fringe_basis, fringe_coefficients)

TWO_PI = 2.0 * np.pi

#: x direction of the gauge: (mu + delta, x + delta * MU_GAUGE_X_DIRECTION)
#: predicts the same intensities as (mu, x) for every delta.
MU_GAUGE_X_DIRECTION = np.array([-1.0, -1.0, 0.0, 1.0])

#: Gauss-Newton stops once a step, accepted or halved, is shorter than this.
STEP_TOL = 1e-10
#: the multi-start scan stops below this share of sum(data**2) (noiseless)
EARLY_STOP_RELATIVE_COST = 1e-16


@dataclass(frozen=True)
class FitModel:
    """Forward-model parameters: per-detector scale and bias, global phase
    scale and offset, and the four tunable phases."""

    scale: tuple = (1.0, 1.0, 1.0)
    bias: tuple = (0.0, 0.0, 0.0)
    phase_scale: float = 1.0
    phase_offset: float = 0.0
    x: tuple = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        for name in ("scale", "bias", "x"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        if len(self.scale) != 3 or len(self.bias) != 3 or len(self.x) != 4:
            raise ValueError("need 3 scales, 3 biases and 4 phases")
        for f in dataclasses.fields(self):
            if not np.all(np.isfinite(getattr(self, f.name))):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")

    def to_dict(self) -> dict:
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in dataclasses.asdict(self).items()}


@dataclass(frozen=True)
class FitOptions:
    max_iterations: int = 200
    #: offsets around the initial x per coordinate; the Cartesian product
    #: gives the multi-start grid (3 values -> 81 starts).
    multistart_offsets: tuple = (-np.pi / 2, 0.0, np.pi / 2)

    def __post_init__(self):
        offsets = tuple(float(v) for v in self.multistart_offsets)
        object.__setattr__(self, "multistart_offsets", offsets)
        if not offsets or not np.all(np.isfinite(offsets)):
            raise ValueError("multistart_offsets must be non-empty and finite")
        n = self.max_iterations
        if not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"max_iterations must be an integer >= 1, got {n!r}")


@dataclass(frozen=True)
class FitResult:
    model: FitModel
    residual: float
    per_detector_residual: tuple
    delta_x: tuple
    converged: bool
    iterations: int
    final_step: float
    starts: int
    #: singular values of the projected Jacobian in (lam, x_1..x_4) at the
    #: solution, largest first
    jacobian_singular_values: tuple

    def to_dict(self) -> dict:
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in dataclasses.asdict(self).items()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def model_predict(model: FitModel, cfg: ExperimentConfig, phi) -> np.ndarray:
    """Forward model intensities, shape (N, 3) over a phi grid (or (3,)
    for a scalar phi)."""
    curves = detector_intensity_curves(model.x, phi, cfg, model.phase_scale,
                                       model.phase_offset)
    return np.asarray(model.scale) * curves + np.asarray(model.bias)


def _inner_scale_bias(curves: np.ndarray, data: np.ndarray):
    """Closed-form least-squares (scale, bias) per detector for
    data ~ scale * curves + bias, subject to bias >= 0 and scale >= 1e-12."""
    n = curves.shape[0]
    scale = np.empty(3)
    bias = np.empty(3)
    for i in range(3):
        m, y = curves[:, i], data[:, i]
        sm, sy = m.sum(), y.sum()
        smm, smy = (m * m).sum(), (m * y).sum()
        den = n * smm - sm * sm
        if abs(den) < 1e-30:
            scale[i], bias[i] = 1.0, max(0.0, (sy - sm) / n)
            continue
        a = (n * smy - sm * sy) / den
        b = (sy - a * sm) / n
        if b < 0.0:
            a, b = smy / smm, 0.0
        if a < 1e-12:
            a, b = 1e-12, max(0.0, (sy - 1e-12 * sm) / n)
        scale[i], bias[i] = a, b
    return scale, bias


def _curves_and_derivatives(p: np.ndarray, cfg: ExperimentConfig,
                            phi: np.ndarray):
    """Intensities (3, N) at phase scale p[0], mu = 0 and x = p[1:], and
    their derivatives in p, (3, 5, N): dI/dlam is phi times the fringe on
    the differentiated basis, dI/dx_k the fringe of (dU/dx_k, U)."""
    u, du = forward_matrix(cfg, p[1:], derivatives=True)
    coef = fringe_coefficients(u)
    basis = fringe_basis(p[0] * phi)
    slope = basis[:, [0, 2, 1, 4, 3]] * np.array([0.0, -1.0, 1.0, -2.0, 2.0])
    jac = np.empty((3, 5, phi.size))
    jac[:, 0] = (phi[:, None] * (slope @ coef)).T
    jac[:, 1:] = (basis @ fringe_coefficients(du, u)).transpose(2, 0, 1)
    return (basis @ coef).T, jac


def _cost(p: np.ndarray, cfg: ExperimentConfig, phi: np.ndarray,
          data: np.ndarray) -> float:
    """Cost with scale and bias solved per detector, without derivatives."""
    curves = detector_intensity_curves(p[1:], phi, cfg, p[0])
    scale, bias = _inner_scale_bias(curves, data)
    return float(np.sum((scale * curves + bias - data) ** 2))


def _residual_jacobian(p: np.ndarray, cfg: ExperimentConfig, phi: np.ndarray,
                       data: np.ndarray):
    """Residual with scale and bias solved per detector, and its Kaufman
    Jacobian in (lam, x): s_i (1 - P_i) dI_i, with P_i the projector onto
    detector i's free linear columns (no constant when the bias is clamped
    at 0, no I_i when the scale is clamped or I_i is flat)."""
    curves, jac = _curves_and_derivatives(p, cfg, phi)
    scale, bias = _inner_scale_bias(curves.T, data)
    for i, (col, grad) in enumerate(zip(curves, jac)):
        centred = col - col.mean()
        if bias[i] > 0.0:
            col = centred
            grad -= grad.mean(axis=1, keepdims=True)
        if scale[i] > 1e-12 and phi.size * (centred @ centred) >= 1e-30:
            grad -= np.outer(grad @ col / (col @ col), col)
        grad *= scale[i]
    resid = scale * curves.T + bias - data
    return resid.ravel(), jac.transpose(2, 0, 1).reshape(-1, 5), scale, bias


def _gauss_newton(p0: np.ndarray, cfg: ExperimentConfig, phi: np.ndarray,
                  data: np.ndarray, opts: FitOptions):
    """Gauss-Newton from p0 = (lam, x), each step capped at a phase move of
    pi; returns (p, cost, iterations, last step norm, converged)."""
    p = np.asarray(p0, dtype=float).copy()
    cost = _cost(p, cfg, phi, data)
    # phase moved per unit step: x_k by 1, theta = lam phi by up to max|phi|
    reach = np.concatenate([[np.max(np.abs(phi))], np.ones(4)])
    for iters in range(1, opts.max_iterations + 1):
        resid, jac, _, _ = _residual_jacobian(p, cfg, phi, data)
        step = np.linalg.lstsq(jac, -resid, rcond=None)[0]
        step *= np.pi / max(np.max(np.abs(step) * reach), np.pi)
        # a trial needs only its cost; the Jacobian is built once per step.
        # Halving stops at STEP_TOL, where an accepted step would end too.
        while not (c_new := _cost(p + step, cfg, phi, data)) < cost:
            step /= 2.0
            if np.linalg.norm(step) < STEP_TOL:
                break
        else:
            p, cost = p + step, c_new
        step_norm = float(np.linalg.norm(step))
        if step_norm < STEP_TOL:
            break
    return p, cost, iters, step_norm, step_norm < STEP_TOL


def fit(trace: DetectorTrace, cfg: ExperimentConfig,
        init: FitModel | None = None,
        options: FitOptions | None = None) -> FitResult:
    """Fit the fringe model to a detector trace.

    Requires at least 30 points covering one full period: the span
    phi[-1] - phi[0] plus one median grid step must reach 0.99 * 2 pi, so
    an endpoint-free uniform grid such as ``default_phi_grid(n)`` covers a
    period for every n.  Starts from init (default: unit scales, zero
    biases, nominal setpoints) moved along the gauge to mu = 0, plus the
    multi-start grid of phase offsets.  Each start runs at most
    ``max_iterations`` Gauss-Newton steps in (lam, x_1..x_4), each scaled
    down so that no phase moves by more than pi and halved until the cost
    falls; it ends early once a step, accepted or halved, is below 1e-10.
    The scan of starts ends once a cost is below 1e-16 of the data's sum of
    squares.  Returns the best local minimum with ``phase_offset`` 0.0, x
    wrapped to [0, 2 pi), delta_x relative to the nominal setpoints wrapped
    to (-pi, pi], and the singular values of the projected Jacobian.
    """
    opts = options or FitOptions()
    phi, data = trace.phi, trace.intensities
    if phi.size < 30:
        raise ValueError(f"trace needs >= 30 points, got {phi.size}")
    # median by sorting: np.median imports numpy.ma (about 2 MB) on first use
    steps = np.sort(np.diff(phi))
    median_step = 0.5 * (steps[(steps.size - 1) // 2] + steps[steps.size // 2])
    if phi[-1] - phi[0] + median_step < TWO_PI * 0.99:
        raise ValueError("trace must cover at least one full period "
                         "(span plus one median step >= 0.99 * 2 pi)")
    if np.max(data.max(axis=0) - data.min(axis=0)) < 1e-12:
        raise ValueError("degenerate trace: all detector signals constant")
    if init is None:
        init = FitModel(x=fourier_setpoints(cfg))

    stop_cost = EARLY_STOP_RELATIVE_COST * max(float(np.sum(data * data)), 1e-30)

    best = None
    x0 = np.asarray(init.x) - init.phase_offset * MU_GAUGE_X_DIRECTION
    grid = itertools.product(opts.multistart_offsets, repeat=4)
    for starts, offsets in enumerate(grid, 1):
        p0 = np.concatenate([[init.phase_scale], x0 + np.asarray(offsets)])
        outcome = _gauss_newton(p0, cfg, phi, data, opts)
        if best is None or outcome[1] < best[1]:
            best = outcome
        if best[1] <= stop_cost:
            break

    p, _, iters, step_norm, converged = best
    p[1:] = np.mod(p[1:], TWO_PI)
    resid, jac, scale, bias = _residual_jacobian(p, cfg, phi, data)
    per_det = tuple(float(v) for v in np.sum(resid.reshape(-1, 3) ** 2, axis=0))
    model = FitModel(scale, bias, float(p[0]), 0.0, p[1:])
    delta = np.mod(p[1:] - np.asarray(fourier_setpoints(cfg)) + np.pi, TWO_PI) - np.pi
    singular = np.linalg.svd(jac, compute_uv=False)
    return FitResult(model, float(resid @ resid), per_det,
                     tuple(float(d) for d in delta), converged, iters,
                     step_norm, starts, tuple(float(v) for v in singular))


def residual_report(result: FitResult, trace: DetectorTrace,
                    cfg: ExperimentConfig) -> dict:
    """Per-detector goodness summary: RMS residual normalized by the data
    range, and a fringe-visibility estimate (max - min) over
    (max + min - 2 bias)."""
    pred = model_predict(result.model, cfg, trace.phi)
    data = trace.intensities
    report = {}
    for i in range(3):
        r = pred[:, i] - data[:, i]
        lo, hi = float(data[:, i].min()), float(data[:, i].max())
        span = hi - lo
        rms = float(np.sqrt(np.mean(r * r)))
        denom = hi + lo - 2.0 * result.model.bias[i]
        visibility = span / denom if abs(denom) > 1e-30 else float("inf")
        report[f"d{i}"] = {"rms": rms,
                           "normalized_rms": rms / span if span > 0 else float("inf"),
                           "visibility": visibility}
    return report
