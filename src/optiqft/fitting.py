"""Least-squares estimation of the fringe model from detector traces.

The forward model per detector is scale_i * I_i(x; lam * phi + mu) + bias_i
where I_i are the simulated detector intensities.  It has an exact gauge:
(mu, x) -> (mu + delta, x + delta * (-1, -1, 0, +1)) leaves every intensity
unchanged for every real delta, configuration and lam, so the data do not
determine mu.  The fit fixes mu = 0 and searches the five identifiable
parameters (lam, x_1..x_4) by Gauss-Newton, solving scale and bias in
closed form at every iterate (variable projection, Golub & Pereyra 1973)
with Kaufman's (1975) Jacobian of the projected residual, built on exact
intensity derivatives: x_k enters the transfer matrix once, as e^{i x_k},
so the fringe coefficients and their x-derivatives are one real table per
config times products of (1, cos x_k, sin x_k) and their derivatives.  The
model is 2 pi periodic in every phase, so each step is scaled down so that
no phase moves by more than pi, then halved until the cost falls.  A grid
of phase initializations guards against the secondary local minima of the
trigonometric objective.  Every curve is a trigonometric polynomial of
degree 2 in theta = lam phi, so lam is first estimated from the trace's
harmonics alone, then the grid runs as one batched Gauss-Newton in x on 5
uniform samples of the trace's projection onto those harmonics, which
carry it without loss, and only the best start is polished on the full
trace.  See NOTES.md.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .elements import TWO_PI, _integer
from .experiment import (MU_GAUGE_X_DIRECTION, DetectorTrace,
                         ExperimentConfig, detector_intensity_curves,
                         forward_matrix, fourier_setpoints,
                         fourier_setpoints_exact, fringe_basis,
                         fringe_coefficients)

#: Gauss-Newton stops once a step, accepted or halved, is shorter than this.
STEP_TOL = 1e-10
#: the same for a staged round, which only ranks the basins: the
#: full-trace polish moves its winner by about 1e-3 rad anyway
STAGE_STEP_TOL = 1e-4
#: phases theta at which a staged round samples the trace's projection:
#: products of harmonics 0-2 reach harmonic 4, summed exactly on 5 uniform
#: points
STAGE_THETA = TWO_PI * np.arange(5) / 5


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
        if _integer(self.max_iterations, "max_iterations") < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations!r}")


@dataclass(frozen=True)
class FitResult:
    model: FitModel
    residual: float
    per_detector_residual: tuple
    delta_x: tuple
    #: (x3, x1 + x4, x2 + x4) minus the same at ``fourier_setpoints_exact``,
    #: wrapped: the deviation from the Fourier network, free of the mu gauge
    network_deviation: tuple
    #: converged, iterations and final_step describe the full-trace polish
    #: that gave the answer, not the staged search before it; converged
    #: means its last step fell below 1e-10 or a halved trial tied its cost
    converged: bool
    iterations: int
    final_step: float
    #: size of the multi-start grid; every start is searched
    starts: int
    #: grid index of the start polished; among starts whose staged costs
    #: tie to rounding, which one is arbitrary
    start: int
    #: singular values of the projected Jacobian in (lam, x_1..x_4) at the
    #: solution, largest first
    jacobian_singular_values: tuple

    def to_dict(self) -> dict:
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in dataclasses.asdict(self).items()}


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


def _network_deviation(x, cfg: ExperimentConfig) -> np.ndarray:
    """(x3, x1 + x4, x2 + x4) of x minus the same of ``fourier_setpoints_exact``,
    wrapped to [-pi, pi): each is unchanged along ``MU_GAUGE_X_DIRECTION``."""
    d = np.asarray(x) - fourier_setpoints_exact(cfg)
    return np.mod(d[..., [2, 0, 1]] + d[..., 3:] * [0.0, 1.0, 1.0] + np.pi, TWO_PI) - np.pi


def _phase_factors(x: np.ndarray) -> np.ndarray:
    """(1, cos x_k, sin x_k) for each tunable phase, shape x.shape + (3,)."""
    return np.stack([np.ones_like(x), np.cos(x), np.sin(x)], axis=-1)


def _features(factors: np.ndarray) -> np.ndarray:
    """Kronecker product of the four factors, (..., 4, 3) -> (..., 81), as
    (f1 (x) f2) (x) (f3 (x) f4): half the time of a product left to right.
    The outer products are matrix products with an inner dimension of 1,
    so exact, and faster than broadcast products on a staged round's rows."""
    pairs = (factors[..., 0::2, :, None] @ factors[..., 1::2, None, :]).reshape(
        factors.shape[:-2] + (2, 9))
    return (pairs[..., 0, :, None] @ pairs[..., 1, None, :]).reshape(pairs.shape[:-2] + (81,))


@functools.lru_cache(maxsize=16)
def _coefficient_table(cfg: ExperimentConfig) -> np.ndarray:
    """The real (81, 15) table T with ``fringe_coefficients`` of the core at x
    equal to ``_features(_phase_factors(x)) @ T``, reshaped (5, 3), solved
    from the core at the nodes {0, 2 pi/3, 4 pi/3}^4.  Built once per config
    and shared, hence read-only (NOTES.md, "Forward core")."""
    nodes = np.array(list(itertools.product(TWO_PI * np.arange(3) / 3, repeat=4)))
    coef = fringe_coefficients(forward_matrix(cfg, nodes)).reshape(81, 15)
    table = np.linalg.solve(_features(_phase_factors(nodes)), coef)
    table.flags.writeable = False
    return table


def _d_theta(coef: np.ndarray) -> np.ndarray:
    """Basis coefficients (..., 5, k) of d/dtheta of the fringes with
    coefficients coef: (c0, c1, c2, c3, c4) -> (0, c2, -c1, 2 c4, -2 c3)."""
    return coef[..., [0, 2, 1, 4, 3], :] * np.array([[0.0], [1.0], [-1.0], [2.0], [-2.0]])


def _curves_and_derivatives(p: np.ndarray, cfg: ExperimentConfig,
                            phi: np.ndarray):
    """Intensities (3, N) at phase scale p[0], mu = 0 and x = p[1:], and
    their derivatives in p, (3, 5, N): dI/dlam is phi times the fringe of
    the theta-differentiated coefficients, dI/dx_k the fringe of the
    coefficients read from ``_coefficient_table`` with the k-th factor of
    the features differentiated, (0, -sin x_k, cos x_k).  One product
    gives the coefficients and their four x-derivatives.  A row of x alone,
    as a staged round's, holds lam at 1 and has no lam column, (3, 4, N).
    Leading axes of p are batch axes."""
    factors = _phase_factors(p[..., -4:])
    rows = np.repeat(factors[..., None, :, :], 5, axis=-3)
    rows[..., range(1, 5), range(4), :] = factors[..., [0, 2, 1]] * np.array([0.0, -1.0, 1.0])
    coefs = (_features(rows) @ _coefficient_table(cfg)).reshape(rows.shape[:-2] + (5, 3))
    coef, d_coef = coefs[..., 0, :, :], coefs[..., 1:, :, :]
    lam = p.shape[-1] == 5
    if lam:
        d_coef = np.concatenate([_d_theta(coef)[..., None, :, :], d_coef], axis=-3)
    basis = np.swapaxes(fringe_basis(p[..., 0, None] * phi if lam else phi), -1, -2)
    # (..., param, basis, detector) -> (..., detector, param, basis)
    jac = np.moveaxis(d_coef, -1, -3) @ basis[..., None, :, :]
    if lam:
        jac[..., 0, :] *= phi
    return np.swapaxes(coef, -1, -2) @ basis, jac


def _cost(p: np.ndarray, cfg: ExperimentConfig, phi: np.ndarray,
          data: np.ndarray):
    """Cost with scale and bias solved per detector, without derivatives;
    one per row of p, shape (..., 5), or (..., 4) for rows of x alone."""
    coef = (_features(_phase_factors(p[..., -4:])) @ _coefficient_table(cfg)).reshape(
        p.shape[:-1] + (5, 3))
    theta = p[..., 0, None] * phi if p.shape[-1] == 5 else phi
    # clamped as in detector_intensity_curves: an exact zero may round below
    curves = np.maximum(fringe_basis(theta) @ coef, 0.0)
    scale, bias = _inner_scale_bias(curves, data)
    resid = scale[..., None, :] * curves + bias[..., None, :] - data
    return np.sum(resid * resid, axis=(-2, -1))


def _residual_jacobian(p: np.ndarray, cfg: ExperimentConfig, phi: np.ndarray,
                       data: np.ndarray):
    """Residual with scale and bias solved per detector, and its Kaufman
    Jacobian in (lam, x): s_i (1 - P_i) dI_i, with P_i the projector onto
    detector i's free linear columns (no constant when the bias is clamped
    at 0, no I_i when the scale is clamped or I_i is flat).  Shapes (3N,)
    and (3N, 5) per row of p, shape (..., 5); (3N, 4) for rows of x alone."""
    curves, jac = _curves_and_derivatives(p, cfg, phi)
    scale, bias = _inner_scale_bias(np.swapaxes(curves, -1, -2), data)
    n = curves.shape[-1]
    ones = np.ones(n)  # sums as matrix products, as in _inner_scale_bias
    centred = curves - (curves @ ones / n)[..., None]
    free_bias = (bias > 0.0)[..., None]
    col = np.where(free_bias, centred, curves)
    jac -= free_bias[..., None] * (jac @ ones / n)[..., None]
    spread = (centred * centred).sum(axis=-1)
    free_scale = (scale > 1e-12) & (n * spread >= 1e-30)
    norm2 = np.where(free_scale, (col * col).sum(axis=-1), 1.0)
    along = (jac @ col[..., None]) * (free_scale / norm2)[..., None, None]
    jac -= along * col[..., None, :]
    jac *= scale[..., None, None]
    resid = scale[..., None] * curves + bias[..., None] - np.swapaxes(data, -1, -2)
    batch = resid.shape[:-2]
    return (resid.swapaxes(-1, -2).reshape(batch + (-1,)),
            np.moveaxis(jac, -1, -3).reshape(batch + (-1, jac.shape[-2])), scale, bias)


def _lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-squares solution of a z = b for each matrix of a stack a, shape
    (S, M, n), by Householder QR and the triangular solve R z = Q^T b (no
    normal equations).  A rank-deficient matrix, one whose R has a diagonal
    entry at most 1e-15 times its largest (pinv's default rcond) or whose
    solve is not finite, gets ``np.linalg.pinv``'s minimum-norm answer."""
    q, r = np.linalg.qr(a)
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    full = diag.min(axis=-1) > 1e-15 * diag.max(axis=-1)
    r[~full] = np.eye(a.shape[-1])  # placeholders: solve raises on a singular R
    z = np.linalg.solve(r, np.swapaxes(q, -1, -2) @ b[..., None])[..., 0]
    bad = ~full | ~np.isfinite(z).all(axis=-1)
    if bad.any():
        z[bad] = (np.linalg.pinv(a[bad]) @ b[bad, :, None])[..., 0]
    return z


def _gauss_newton(p0: np.ndarray, cfg: ExperimentConfig, phi: np.ndarray,
                  data: np.ndarray, opts: FitOptions, tol: float = STEP_TOL):
    """Gauss-Newton from every row of p0 = (lam, x), shape (5,) or (S, 5),
    advanced together; rows of x alone, shape (4,) or (S, 4), hold lam at 1
    (theta = phi).  Each row's step is capped at a phase move of pi and
    halved until its cost falls; a row stops on a step below tol, on a
    halved trial whose cost ties its own exactly, or once a stopped row has
    a lower cost.  Returns (p, cost, iterations, last step norm,
    converged), one entry per row, or unbatched for a p0 of one row."""
    p = np.array(p0, dtype=float, ndmin=2)
    cost = _cost(p, cfg, phi, data)
    # phase moved per unit step: x_k by 1, theta = lam phi by up to max|phi|
    reach = np.concatenate([[np.max(np.abs(phi))], np.ones(4)])[-p.shape[1]:]
    iters = np.zeros(len(p), dtype=int)
    step_norm = np.full(len(p), np.inf)
    converged = np.zeros(len(p), dtype=bool)
    running = np.ones(len(p), dtype=bool)
    for it in range(1, opts.max_iterations + 1):
        rows = np.flatnonzero(running)
        resid, jac, _, _ = _residual_jacobian(p[rows], cfg, phi, data)
        step = _lstsq(jac, -resid)
        step *= np.pi / np.maximum(np.abs(step * reach).max(axis=-1, keepdims=True), np.pi)
        norm = np.sqrt((step * step).sum(axis=-1))
        # a trial needs only its cost; the Jacobian is built once per step.
        # Halving stops at tol, where an accepted step would end too,
        # and at a tie, where a shorter step only reads the same cost again.
        tied = np.zeros(rows.size, dtype=bool)
        trying = np.arange(rows.size)
        while trying.size:
            at = rows[trying]
            c_new = _cost(p[at] + step[trying], cfg, phi, data)
            fell = c_new < cost[at]
            tie = c_new == cost[at]
            p[at[fell]] += step[trying[fell]]
            cost[at[fell]] = c_new[fell]
            tied[trying[tie]] = True
            trying = trying[~(fell | tie)]
            step[trying] /= 2.0
            norm[trying] /= 2.0
            trying = trying[norm[trying] >= tol]
        iters[rows] = it
        step_norm[rows] = norm
        converged[rows] = tied | (norm < tol)
        running[rows] = ~converged[rows]
        if not running.all():
            running &= cost <= cost[~running].min()
            if not running.any():
                break
    outcome = p, cost, iters, step_norm, converged
    return outcome if np.ndim(p0) == 2 else tuple(v[0] for v in outcome)


def _phase_scale(lam: float, phi: np.ndarray, data: np.ndarray, opts: FitOptions):
    """Gauss-Newton in lam alone, from lam, on the out-of-band cost
    |(1 - P) data|^2, P projecting each detector onto B = ``fringe_basis(lam
    phi)``, whose span holds every model curve: 0 at a noiseless trace's lam.
    Variable projection, C = B^+ data, with Kaufman's Jacobian -(1 - P)
    (dB/dlam) C; steps are capped, halved and ended as in ``_gauss_newton``,
    and the search ends where J^T J = 0.  One QR of B per trial lam gives
    its residual and, once accepted, C and the projection of the slope.
    Returns lam and C there, C by ``np.linalg.lstsq``: the projection that
    ``_staged_round`` samples."""
    def project(lam):
        basis = fringe_basis(lam * phi)
        q, r = np.linalg.qr(basis)
        q_data = q.T @ data
        resid = data - q @ q_data
        return lam, basis, q, r, q_data, resid, np.sum(resid * resid)

    lam, basis, q, r, q_data, resid, cost = project(lam)
    cap = np.pi / np.max(np.abs(phi))  # theta = lam phi moves by at most pi
    for _ in range(opts.max_iterations):
        coef = np.linalg.solve(r, q_data)
        slope = phi[:, None] * (basis @ _d_theta(coef))  # (dB/dlam) C
        jtj = np.sum((slope - q @ (q.T @ slope)) ** 2)
        if jtj == 0.0:
            break
        step = np.clip(np.sum(slope * resid) / jtj, -cap, cap)
        while (trial := project(lam + step))[-1] > cost and abs(step) >= 2.0 * STEP_TOL:
            step /= 2.0
        if trial[-1] >= cost:  # a tie, or no fall down to STEP_TOL
            break
        lam, basis, q, r, q_data, resid, cost = trial
        if abs(step) < STEP_TOL:
            break
    return lam, np.linalg.lstsq(basis, data, rcond=None)[0]


def _staged_round(starts: np.ndarray, lam0: float, cfg: ExperimentConfig,
                  phi: np.ndarray, data: np.ndarray, opts: FitOptions,
                  coef: np.ndarray):
    """Search every start x, shape (S, 4), in x alone on the fringes with
    coefficients coef, the trace's projection onto ``fringe_basis(lam0
    phi)``, sampled at STAGE_THETA: there the cost is 5/N times the full
    trace's at lam0, less its out-of-band part.  Rows stop at
    STAGE_STEP_TOL.  Then polish the cheapest on the full trace from lam0
    with lam free.  Returns the polish's outcome and its start's index."""
    p, cost, _, _, _ = _gauss_newton(starts, cfg, STAGE_THETA,
                                     fringe_basis(STAGE_THETA) @ coef, opts,
                                     STAGE_STEP_TOL)
    winner = int(np.argmin(cost))
    polish = _gauss_newton(np.concatenate([[lam0], p[winner]]), cfg, phi,
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
    so that no phase moves by more than pi and halved until the cost falls.
    On the full trace it converges once a step, accepted or halved, is
    below 1e-10 (``STEP_TOL``), or once a halved trial's cost ties the
    current cost exactly.  The search runs on the data divided by the power
    of two at their peak, so the answer does not depend on the intensity
    unit.

    init's phase scale must be positive: lam and -lam fit mirrored traces.
    A single start is polished from init on the full trace.  A grid first
    estimates lam from init's phase scale as the minimiser of the trace's
    residual outside harmonics 0-2 of lam phi, then runs every start at that
    fixed lam on 5 uniform samples of the trace's projection onto those
    harmonics, each only to a step below 1e-4 (``STAGE_STEP_TOL``),
    since the winner moves by about 1e-3 rad in the polish anyway, and
    polishes the cheapest on the full trace with lam free, to 1e-10
    (NOTES.md, "Staged multistart").
    ``iterations``, ``final_step`` and ``converged`` describe that polish,
    ``start`` is the grid index it came from and ``starts`` the grid size.
    Returns the minimum with ``phase_offset`` 0.0, x wrapped to [0, 2 pi),
    delta_x relative to the nominal setpoints and the gauge-free
    network_deviation, both wrapped to [-pi, pi), and the singular values
    of the projected Jacobian.
    """
    opts = options or FitOptions()
    # an exact rescaling, so that the absolute floors (the degeneracy check
    # below, the scale clamp) are relative to the peak
    unit = int(np.frexp(np.max(np.abs(trace.intensities)))[1])
    phi, data = trace.phi, np.ldexp(trace.intensities, -unit)
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
    if init.phase_scale <= 0.0:
        raise ValueError(f"init phase_scale must be > 0, got {init.phase_scale}")

    x0 = np.asarray(init.x) - init.phase_offset * MU_GAUGE_X_DIRECTION
    starts = x0 + np.array(list(itertools.product(opts.multistart_offsets, repeat=4)))
    if len(starts) == 1:
        polish, start = _gauss_newton(np.concatenate([[init.phase_scale], starts[0]]),
                                      cfg, phi, data, opts), 0
    else:
        lam, coef = _phase_scale(init.phase_scale, phi, data, opts)
        polish, start = _staged_round(starts, lam, cfg, phi, data, opts, coef)

    p, _, iters, step_norm, converged = polish
    p[1:] = np.mod(p[1:], TWO_PI)
    resid, jac, scale, bias = (np.ldexp(v, unit) for v in
                               _residual_jacobian(p, cfg, phi, data))
    per_det = tuple(float(v) for v in np.sum(resid.reshape(-1, 3) ** 2, axis=0))
    model = FitModel(scale, bias, float(p[0]), 0.0, p[1:])
    delta = np.mod(p[1:] - np.asarray(fourier_setpoints(cfg)) + np.pi, TWO_PI) - np.pi
    singular = np.linalg.svd(jac, compute_uv=False)
    return FitResult(model, float(resid @ resid), per_det,
                     tuple(float(d) for d in delta),
                     tuple(float(d) for d in _network_deviation(p[1:], cfg)),
                     bool(converged), int(iters),
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
