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
the cost falls.  A grid of phase initializations guards against the
secondary local minima of the trigonometric objective.  Every curve is a
trigonometric polynomial of degree 2 in theta = lam phi, so the whole grid
runs as one batched Gauss-Newton on 8 samples of the trace's projection onto
those harmonics, and only the best start is polished on the full trace.
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
#: phases theta = lam phi at which a staged round samples the trace's
#: projection: products of harmonics 0-2 are exact sums on 8 uniform points.
STAGE_THETA = TWO_PI * np.arange(8) / 8


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
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"max_iterations must be an integer >= 1, got {n!r}")


@dataclass(frozen=True)
class FitResult:
    model: FitModel
    residual: float
    per_detector_residual: tuple
    delta_x: tuple
    #: converged, iterations and final_step describe the full-trace polish
    #: that gave the answer, not the staged search before it
    converged: bool
    iterations: int
    final_step: float
    #: size of the multi-start grid; every start is searched
    starts: int
    #: grid index of the start that the answer was polished from
    start: int
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
    data ~ scale * curves + bias, subject to bias >= 0 and scale >= 1e-12.
    Leading axes of curves, shape (..., N, 3), are batch axes."""
    n = curves.shape[-2]
    ones = np.ones(n)  # sums as matrix products: fast on either memory order
    sm, sy = ones @ curves, ones @ data
    smm, smy = ones @ (curves * curves), ones @ (curves * data)
    den = n * smm - sm * sm
    flat = np.abs(den) < 1e-30
    scale = (n * smy - sm * sy) / np.where(flat, 1.0, den)
    bias = (sy - scale * sm) / n
    # the branches are rare, and skipping them keeps one row cheap
    origin = bias < 0.0
    if origin.any():  # through the origin; smm > 0 unless the curve is flat
        scale = np.where(origin, smy / np.where(flat, 1.0, smm), scale)
        bias = np.where(origin, 0.0, bias)
    clamped = flat | (scale < 1e-12)
    if clamped.any():  # the bias is solved again at the clamped scale
        scale = np.where(clamped, np.where(flat, 1.0, 1e-12), scale)
        bias = np.where(clamped, np.maximum(0.0, (sy - scale * sm) / n), bias)
    return scale, bias


def _curves_and_derivatives(p: np.ndarray, cfg: ExperimentConfig,
                            phi: np.ndarray):
    """Intensities (3, N) at phase scale p[0], mu = 0 and x = p[1:], and
    their derivatives in p, (3, 5, N): dI/dlam is phi times the fringe of
    the theta-differentiated coefficients, dI/dx_k the fringe of
    (dU/dx_k, U).  Leading axes of p, shape (..., 5), are batch axes."""
    u, du = forward_matrix(cfg, p[..., 1:], derivatives=True)
    coef = fringe_coefficients(u)
    # d/dtheta maps the basis coefficients (c0, c1, c2, c3, c4) to
    # (0, c2, -c1, 2 c4, -2 c3)
    d_theta = coef[..., [0, 2, 1, 4, 3], :] * np.array([[0.0], [1.0], [-1.0], [2.0], [-2.0]])
    d_coef = np.concatenate([d_theta[..., None, :, :],
                             fringe_coefficients(du, u[..., None, :, :])], axis=-3)
    basis = np.swapaxes(fringe_basis(p[..., 0, None] * phi), -1, -2)
    # (..., param, basis, detector) -> (..., detector, param, basis)
    jac = np.moveaxis(d_coef, -1, -3) @ basis[..., None, :, :]
    jac[..., 0, :] *= phi
    return np.swapaxes(coef, -1, -2) @ basis, jac


def _cost(p: np.ndarray, cfg: ExperimentConfig, phi: np.ndarray,
          data: np.ndarray):
    """Cost with scale and bias solved per detector, without derivatives;
    one per row of p, shape (..., 5)."""
    curves = detector_intensity_curves(p[..., 1:], phi, cfg, p[..., 0])
    scale, bias = _inner_scale_bias(curves, data)
    resid = scale[..., None, :] * curves + bias[..., None, :] - data
    return np.sum(resid * resid, axis=(-2, -1))


def _residual_jacobian(p: np.ndarray, cfg: ExperimentConfig, phi: np.ndarray,
                       data: np.ndarray):
    """Residual with scale and bias solved per detector, and its Kaufman
    Jacobian in (lam, x): s_i (1 - P_i) dI_i, with P_i the projector onto
    detector i's free linear columns (no constant when the bias is clamped
    at 0, no I_i when the scale is clamped or I_i is flat).  Shapes (3N,)
    and (3N, 5) per row of p, shape (..., 5)."""
    curves, jac = _curves_and_derivatives(p, cfg, phi)
    scale, bias = _inner_scale_bias(np.swapaxes(curves, -1, -2), data)
    n = phi.size
    centred = curves - curves.sum(axis=-1, keepdims=True) / n
    free_bias = (bias > 0.0)[..., None]
    col = np.where(free_bias, centred, curves)
    jac -= free_bias[..., None] * (jac.sum(axis=-1, keepdims=True) / n)
    spread = (centred * centred).sum(axis=-1)
    free_scale = (scale > 1e-12) & (n * spread >= 1e-30)
    norm2 = np.where(free_scale, (col * col).sum(axis=-1), 1.0)
    along = (jac @ col[..., None]) * (free_scale / norm2)[..., None, None]
    jac -= along * col[..., None, :]
    jac *= scale[..., None, None]
    resid = scale[..., None] * curves + bias[..., None] - np.swapaxes(data, -1, -2)
    batch = resid.shape[:-2]
    return (resid.swapaxes(-1, -2).reshape(batch + (-1,)),
            np.moveaxis(jac, -1, -3).reshape(batch + (-1, 5)), scale, bias)


def _lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of a z = b for each matrix of a
    stack a, shape (S, M, 5), from its SVD (no normal equations).  A stack
    of one goes to ``np.linalg.lstsq``, which is faster on one tall matrix
    than ``np.linalg.pinv``."""
    if len(a) == 1:
        return np.linalg.lstsq(a[0], b[0], rcond=None)[0][None]
    return (np.linalg.pinv(a) @ b[..., None])[..., 0]


def _gauss_newton(p0: np.ndarray, cfg: ExperimentConfig, phi: np.ndarray,
                  data: np.ndarray, opts: FitOptions, fix_lam: bool = False):
    """Gauss-Newton from every row of p0 = (lam, x), shape (5,) or (S, 5),
    advanced together.  Each row's step is capped at a phase move of pi and
    halved until its cost falls; a row stops on a step below STEP_TOL, or
    once a stopped row has a lower cost.  fix_lam holds lam by zeroing its
    Jacobian column.  Returns (p, cost, iterations, last step norm,
    converged), one entry per row, or unbatched for a p0 of shape (5,)."""
    p = np.array(p0, dtype=float, ndmin=2)
    cost = _cost(p, cfg, phi, data)
    # phase moved per unit step: x_k by 1, theta = lam phi by up to max|phi|
    reach = np.concatenate([[np.max(np.abs(phi))], np.ones(4)])
    iters = np.zeros(len(p), dtype=int)
    step_norm = np.full(len(p), np.inf)
    running = np.ones(len(p), dtype=bool)
    for it in range(1, opts.max_iterations + 1):
        rows = np.flatnonzero(running)
        resid, jac, _, _ = _residual_jacobian(p[rows], cfg, phi, data)
        if fix_lam:
            jac[..., 0] = 0.0
        step = _lstsq(jac, -resid)
        step *= np.pi / np.maximum(np.abs(step * reach).max(axis=-1, keepdims=True), np.pi)
        norm = np.sqrt((step * step).sum(axis=-1))
        # a trial needs only its cost; the Jacobian is built once per step.
        # Halving stops at STEP_TOL, where an accepted step would end too.
        trying = np.arange(rows.size)
        while trying.size:
            at = rows[trying]
            c_new = _cost(p[at] + step[trying], cfg, phi, data)
            fell = c_new < cost[at]
            p[at[fell]] += step[trying[fell]]
            cost[at[fell]] = c_new[fell]
            trying = trying[~fell]
            step[trying] /= 2.0
            norm[trying] /= 2.0
            trying = trying[norm[trying] >= STEP_TOL]
        iters[rows] = it
        step_norm[rows] = norm
        running[rows] = norm >= STEP_TOL
        if not running.all():
            running &= cost <= cost[~running].min()
            if not running.any():
                break
    outcome = p, cost, iters, step_norm, step_norm < STEP_TOL
    return outcome if np.ndim(p0) == 2 else tuple(v[0] for v in outcome)


def _staged_round(starts: np.ndarray, lam0: float, cfg: ExperimentConfig,
                  phi: np.ndarray, data: np.ndarray, opts: FitOptions):
    """Search every start x, shape (S, 4), at phase scale lam0 on the trace's
    projection onto ``fringe_basis(lam0 phi)``, sampled at STAGE_THETA, then
    polish the cheapest on the full trace with lam free.  Returns the
    polish's ``_gauss_newton`` outcome and the index of its start."""
    coef = np.linalg.lstsq(fringe_basis(lam0 * phi), data, rcond=None)[0]
    p0 = np.column_stack([np.ones(len(starts)), starts])
    p, cost, _, _, _ = _gauss_newton(p0, cfg, STAGE_THETA,
                                     fringe_basis(STAGE_THETA) @ coef, opts,
                                     fix_lam=True)
    winner = int(np.argmin(cost))
    polish = _gauss_newton(np.concatenate([[lam0], p[winner, 1:]]), cfg, phi,
                           data, opts)
    return polish, winner


def fit(trace: DetectorTrace, cfg: ExperimentConfig,
        init: FitModel | None = None,
        options: FitOptions | None = None) -> FitResult:
    """Fit the fringe model to a detector trace.

    Requires at least 30 points covering one full period: the span
    phi[-1] - phi[0] plus one median grid step must reach 0.99 * 2 pi, so
    an endpoint-free uniform grid such as ``default_phi_grid(n)`` covers a
    period for every n.  Starts from init (default: unit scales, zero
    biases, nominal setpoints) moved along the gauge to mu = 0, plus the
    multi-start grid of phase offsets.  Gauss-Newton runs in
    (lam, x_1..x_4) for at most ``max_iterations`` steps, each scaled down
    so that no phase moves by more than pi and halved until the cost falls;
    it ends once a step, accepted or halved, is below 1e-10.

    A single start is polished from init on the full trace.  A grid runs in
    two staged rounds, the first at lam0 = init's phase scale and the
    second at the first round's lam: every start at fixed lam0 on 8 samples
    of the trace's projection onto harmonics 0-2 of lam0 phi, then the
    cheapest start polished on the full trace with lam free; the better
    polish wins (NOTES.md, "Staged multistart").  ``iterations``,
    ``final_step`` and ``converged`` describe that polish, ``start`` is the
    grid index it came from and ``starts`` the grid size.  Returns the
    minimum with ``phase_offset`` 0.0, x wrapped to [0, 2 pi), delta_x
    relative to the nominal setpoints wrapped to (-pi, pi], and the
    singular values of the projected Jacobian.
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

    x0 = np.asarray(init.x) - init.phase_offset * MU_GAUGE_X_DIRECTION
    starts = x0 + np.array(list(itertools.product(opts.multistart_offsets, repeat=4)))
    if len(starts) == 1:
        polish, start = _gauss_newton(np.concatenate([[init.phase_scale], starts[0]]),
                                      cfg, phi, data, opts), 0
    else:
        polish, start = _staged_round(starts, init.phase_scale, cfg, phi, data, opts)
        # again at the fitted lam, the phase scale the projection assumes
        again, again_start = _staged_round(starts, polish[0][0], cfg, phi, data, opts)
        if again[1] < polish[1]:
            polish, start = again, again_start

    p, _, iters, step_norm, converged = polish
    p[1:] = np.mod(p[1:], TWO_PI)
    resid, jac, scale, bias = _residual_jacobian(p, cfg, phi, data)
    per_det = tuple(float(v) for v in np.sum(resid.reshape(-1, 3) ** 2, axis=0))
    model = FitModel(scale, bias, float(p[0]), 0.0, p[1:])
    delta = np.mod(p[1:] - np.asarray(fourier_setpoints(cfg)) + np.pi, TWO_PI) - np.pi
    singular = np.linalg.svd(jac, compute_uv=False)
    return FitResult(model, float(resid @ resid), per_det,
                     tuple(float(d) for d in delta), bool(converged), int(iters),
                     float(step_norm), len(starts), start,
                     tuple(float(v) for v in singular))


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
