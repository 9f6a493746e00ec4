"""Least-squares estimation of the fringe model from detector traces.

The forward model per detector is scale_i * I_i(x; lam * phi + mu) + bias_i
where I_i are the simulated detector intensities.  It has an exact gauge:
(mu, x) -> (mu + delta, x + delta * (-1, -1, 0, +1)) leaves every intensity
unchanged for every real delta, configuration and lam, so the data do not
determine mu.  The fit fixes mu = 0 and searches the five identifiable
parameters (lam, x_1..x_4) by Gauss-Newton, solving scale and bias in
closed form at every iterate, the bias of either sign, so a dark-subtracted
trace fits as it is, and the scale clamped at 1e-12 (variable projection,
Golub & Pereyra 1973), with Kaufman's (1975) Jacobian of the projected
residual, built on exact intensity derivatives: x_k enters the transfer
matrix once, as e^{i x_k}, so the fringe coefficients and their
x-derivatives are one real table per config times products of
(1, cos x_k, sin x_k) and their derivatives.  The model is 2 pi periodic
in every phase, so each step is scaled down so that no phase moves by more
than pi, then halved until the cost falls; a step whose predicted fall is
below the cost's rounding ends the search untried.  A grid of phase
initializations guards against the secondary local minima of the
trigonometric objective.  Every curve is a trigonometric polynomial of
degree 2 in theta = lam phi, so lam is first estimated from the trace's
harmonics alone, then the grid runs as one batched Gauss-Newton in x on 5
uniform samples of the trace's projection onto those harmonics, which
carry it without loss, and only the best start is polished on the full
trace.  See NOTES.md.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .elements import TWO_PI, _fields, check_fields, integer, real, wrap_pi
from .experiment import (MU_GAUGE_X_DIRECTION, DetectorTrace,
                         ExperimentConfig, default_phi_grid,
                         detector_intensity_curves, forward_matrix,
                         fourier_setpoints, fourier_setpoints_exact,
                         fringe_basis, fringe_coefficients)

#: Gauss-Newton stops once a step, accepted or halved, is shorter than this.
STEP_TOL = 1e-10
#: the same for a staged round, which only ranks the basins: the
#: full-trace polish moves its winner by about 1e-3 rad anyway
STAGE_STEP_TOL = 1e-4
#: Gauss-Newton also stops, with no trial, once a step's predicted fall
#: |J step|^2 is at most this times the cost: below the cost's own rounding
#: (about 2e-15 of it), where a trial could fall only by rounding
#: (MINPACK's ftol test, More 1978)
GAIN_FLOOR = 4 * np.finfo(float).eps
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
        check_fields(self, {"scale": 3, "bias": 3, "x": 4})


@dataclass(frozen=True)
class FitOptions:
    max_iterations: int = 200
    #: offsets around the initial x per coordinate; the Cartesian product
    #: gives the multi-start grid (3 values -> 81 starts).
    multistart_offsets: tuple = (-np.pi / 2, 0.0, np.pi / 2)

    def __post_init__(self):
        check_fields(self)
        if not self.multistart_offsets:
            raise ValueError("multistart_offsets must be non-empty")
        if self.max_iterations < 1:
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
    #: means its last step fell below 1e-10, or the step's predicted fall
    #: |J step|^2 was at most GAIN_FLOOR times the cost, a step then left
    #: untried
    converged: bool
    iterations: int
    #: norm of the polish's last step: the accepted, halved or untried one
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
        return {**_fields(self), "model": _fields(self.model)}


def model_predict(model: FitModel, cfg: ExperimentConfig, phi) -> np.ndarray:
    """Forward model intensities, shape (N, 3) over a phi grid (or (3,)
    for a scalar phi)."""
    curves = detector_intensity_curves(model.x, phi, cfg, model.phase_scale,
                                       model.phase_offset)
    return np.asarray(model.scale) * curves + np.asarray(model.bias)


def synthesize_measured_trace(cfg: ExperimentConfig,
                              scale: tuple = (1.0, 1.0, 1.0),
                              bias: tuple = (0.0, 0.0, 0.0),
                              phase_scale: float = 1.0,
                              phase_offset: float = 0.0,
                              noise_sigma: float = 0.0,
                              seed: int = 0,
                              grid: np.ndarray | int = 720) -> DetectorTrace:
    """Synthetic measured data: the ``model_predict`` of the FitModel of these
    arguments with x = cfg.x on the ``default_phi_grid`` of grid, plus Gaussian
    noise of standard deviation noise_sigma from ``np.random.default_rng(seed)``,
    unclipped, so noisy samples may read below 0.  Scale and bias need three
    entries each, the scales positive and the biases of either sign, as a
    dark-subtracted trace's.  Fixed seeds give byte-identical traces.
    """
    model = FitModel(scale, bias, phase_scale, phase_offset, cfg.x)
    noise_sigma, seed = real(noise_sigma, "noise_sigma"), integer(seed, "seed")
    if not min(model.scale) > 0:
        raise ValueError(f"scale entries must be positive, got {model.scale}")
    if noise_sigma < 0:
        raise ValueError(f"noise_sigma must be non-negative, got {noise_sigma}")
    if seed < 0:
        raise ValueError(f"'seed' must be >= 0, got {seed}")
    phi = default_phi_grid(grid)
    data = model_predict(model, cfg, phi)
    if noise_sigma > 0:
        data = data + np.random.default_rng(seed).normal(0.0, noise_sigma, size=data.shape)
    return DetectorTrace(phi, data)


def _inner_scale_bias(curves: np.ndarray, data: np.ndarray):
    """Least-squares (scale, bias) per detector for data ~ scale * curves +
    bias, curves (..., 3, N) with batch axes and data (N, 3): the line on
    [curves, 1], the bias free of sign.  The fit's one rule for the linear
    columns: a curve whose spread about its mean is within rounding of 0
    relative to it, |c - mean|^2 <= N (N eps mean)^2, is flat and gets scale
    1; a scale below 1e-12 is clamped there; the bias is solved at the scale.
    Also returns the centred curves and the weight of each in the Kaufman
    projection, 1 / |c - mean|^2 where the scale is free, else 0."""
    n = curves.shape[-1]
    ones = np.ones(n)  # sums as matrix products: fast on either memory order
    mean = curves @ ones / n
    centred = curves - mean[..., None]
    spread = (centred * centred) @ ones
    flat = spread <= n * (n * np.finfo(float).eps) ** 2 * mean ** 2
    spread[flat] = np.inf  # so a flat curve's column weighs 0
    scale = np.where(flat, 1.0, np.maximum((centred * data.T) @ ones / spread, 1e-12))
    return scale, ones @ data / n - scale * mean, centred, (scale > 1e-12) / spread


def _network_deviation(x, cfg: ExperimentConfig) -> np.ndarray:
    """(x3, x1 + x4, x2 + x4) of x minus the same of ``fourier_setpoints_exact``,
    wrapped to [-pi, pi): each is unchanged along ``MU_GAUGE_X_DIRECTION``."""
    d = np.asarray(x) - fourier_setpoints_exact(cfg)
    return wrap_pi(d[..., [2, 0, 1]] + d[..., 3:] * [0.0, 1.0, 1.0])


def _phase_factors(x: np.ndarray) -> np.ndarray:
    """(1, cos x_k, sin x_k) for each tunable phase, shape x.shape + (3,),
    filled as ``fringe_basis`` is."""
    factors = np.empty(np.shape(x) + (3,))
    factors[..., 0] = 1.0
    factors[..., 1] = np.cos(x)
    factors[..., 2] = np.sin(x)
    return factors


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
    """The squared norm of ``_residual_jacobian``'s residual, without derivatives;
    one per row of p, shape (..., 5), or (..., 4) for rows of x alone."""
    coef = (_features(_phase_factors(p[..., -4:])) @ _coefficient_table(cfg)).reshape(
        p.shape[:-1] + (5, 3))
    theta = p[..., 0, None] * phi if p.shape[-1] == 5 else phi
    curves = np.swapaxes(coef, -1, -2) @ np.swapaxes(fringe_basis(theta), -1, -2)
    scale, bias, _, _ = _inner_scale_bias(curves, data)
    resid = scale[..., None] * curves + bias[..., None] - data.T
    return np.sum(resid * resid, axis=(-2, -1))


def _residual_jacobian(p: np.ndarray, cfg: ExperimentConfig, phi: np.ndarray,
                       data: np.ndarray):
    """Residual with scale and bias solved per detector, and its Kaufman
    Jacobian in (lam, x): s_i (1 - P_i) dI_i, with P_i the projector onto
    detector i's free linear columns: the constant, and I_i with the
    centring and weight of ``_inner_scale_bias``, which drops it where the
    scale is clamped or I_i is flat.  Shapes (3N,) and (3N, 5) per row of
    p, shape (..., 5); (3N, 4) for rows of x alone."""
    curves, jac = _curves_and_derivatives(p, cfg, phi)
    scale, bias, centred, weight = _inner_scale_bias(curves, data)
    jac -= (jac @ np.ones(phi.size) / phi.size)[..., None]  # project out the constant
    jac -= (jac @ centred[..., None]) * weight[..., None, None] * centred[..., None, :]
    jac *= scale[..., None, None]
    resid = scale[..., None] * curves + bias[..., None] - data.T
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
    halved until its cost falls; a row stops on a step below tol, or once
    a stopped row has a lower cost.  It also stops, converged and without a
    trial, on a step whose predicted fall |J step|^2, from the uncapped
    step, is at most GAIN_FLOOR times its cost: no trial could then fall
    but by rounding.
    Returns (p, cost, iterations, last step norm, converged), one entry per
    row, or unbatched for a p0 of one row."""
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
        fall = jac @ step[..., None]
        flat = (fall * fall).sum(axis=(-2, -1)) <= GAIN_FLOOR * cost[rows]
        step *= np.pi / np.maximum(np.abs(step * reach).max(axis=-1, keepdims=True), np.pi)
        norm = np.sqrt((step * step).sum(axis=-1))
        # a trial needs only its cost; the Jacobian is built once per step.
        # Halving stops at tol, where an accepted step would end too.
        trying = np.flatnonzero(~flat)
        while trying.size:
            at = rows[trying]
            c_new = _cost(p[at] + step[trying], cfg, phi, data)
            fell = c_new < cost[at]
            p[at[fell]] += step[trying[fell]]
            cost[at[fell]] = c_new[fell]
            trying = trying[~fell]
            step[trying] /= 2.0
            norm[trying] /= 2.0
            trying = trying[norm[trying] >= tol]
        iters[rows] = it
        step_norm[rows] = norm
        converged[rows] = flat | (norm < tol)
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
    (dB/dlam) C.  A step is capped at a theta move of pi and halved while
    its trial cost is above the cost and the step is at least 2 ``STEP_TOL``.
    The search ends on a trial that does not fall, a tie included
    (``_gauss_newton`` halves on a tie), on an accepted step below
    ``STEP_TOL``, where J^T J = 0, or after ``max_iterations`` (NOTES.md,
    "Staged multistart", counts the ends).  One QR of B per trial lam gives
    its residual and, once accepted, C and the projection of the slope.
    Returns lam and C there, C by ``np.linalg.lstsq``: the projection that
    ``fit``'s staged round samples."""
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


def fit(trace: DetectorTrace, cfg: ExperimentConfig,
        init: FitModel | None = None,
        options: FitOptions | None = None) -> FitResult:
    """Fit the fringe model to a detector trace.

    Requires at least 30 points covering one full period: the span
    phi[-1] - phi[0] plus one median grid step must reach 0.99 * 2 pi, so
    an endpoint-free uniform grid such as ``default_phi_grid(n)`` covers a
    period for every n.  Starts from init (default: unit scales, zero
    biases, the zero point r0, ``fourier_setpoints``) moved along the gauge
    to mu = 0, plus the multi-start grid of phase offsets.  Gauss-Newton
    runs in (lam, x_1..x_4) for at most ``max_iterations`` steps, each
    scaled down so that no phase moves by more than pi and halved until the
    cost falls.
    On the full trace it converges once a step, accepted or halved, is
    below 1e-10 (``STEP_TOL``), or, with no trial, once a step's predicted
    fall |J step|^2 is at most 4 eps times the cost (``GAIN_FLOOR``), below
    the cost's rounding.  The search runs on the data divided by the power
    of two at their peak, so the answer does not depend on the intensity
    unit.

    init's phase scale must be positive: lam and -lam fit mirrored traces.
    One polish on the full trace, lam free, gives the answer, from init for
    a single start.  A grid picks only its lam and start: it estimates lam
    from init's as the minimiser of the trace's residual outside harmonics
    0-2 of lam phi, then runs every start at that fixed lam on 5 uniform
    samples of the trace's projection onto those harmonics, each only to a
    step below 1e-4 (``STAGE_STEP_TOL``), since the polish moves the winner
    by about 1e-3 rad anyway, and takes the cheapest (NOTES.md, "Staged
    multistart"), so its fit is the single-start fit from that lam and x.
    ``iterations``, ``final_step`` and ``converged`` describe that polish,
    ``start`` is the grid index it came from and ``starts`` the grid size.
    Returns the minimum with ``phase_offset`` 0.0, x wrapped to [0, 2 pi),
    delta_x relative to r0 and the gauge-free network_deviation, both
    wrapped to [-pi, pi), and the singular values
    of the projected Jacobian.  If the smallest is at most 1e-10 times the
    largest or the norm of the intensities, the trace does not determine
    (lam, x), as at t_phi = 0, t_2phi = 0 or a splitter that does not split
    (no interference): ValueError, naming the free direction in (lam, x1..x4).
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
    lam, start = init.phase_scale, 0
    if len(starts) > 1:
        lam, coef = _phase_scale(lam, phi, data, opts)
        # the stage's cost is 5/N times the full trace's at lam, less its out-of-band part
        starts, cost = _gauss_newton(starts, cfg, STAGE_THETA, fringe_basis(STAGE_THETA) @ coef,
                                     opts, STAGE_STEP_TOL)[:2]
        start = int(np.argmin(cost))
    p, _, iters, step_norm, converged = _gauss_newton(np.concatenate([[lam], starts[start]]),
                                                      cfg, phi, data, opts)
    p[1:] = np.mod(p[1:], TWO_PI)
    resid, jac, scale, bias = (np.ldexp(v, unit) for v in
                               _residual_jacobian(p, cfg, phi, data))
    # each detector's squares in a contiguous row, which numpy sums pairwise
    per_det = tuple(np.sum(np.ascontiguousarray(resid.reshape(-1, 3).T) ** 2, axis=1).tolist())
    model = FitModel(scale, bias, float(p[0]), 0.0, p[1:])
    delta = wrap_pi(p[1:] - np.asarray(fourier_setpoints(cfg)))
    singular = np.linalg.svd(jac, compute_uv=False)
    if singular[-1] <= 1e-10 * max(singular[0], np.linalg.norm(trace.intensities)):
        free = np.round(np.linalg.svd(jac)[2][-1], 3) + 0.0  # the last right singular vector
        raise ValueError("trace does not determine (lam, x1..x4): the fit is free "
                         f"along {free.tolist()}")
    return FitResult(model, float(resid @ resid), per_det,
                     tuple(float(d) for d in delta),
                     tuple(float(d) for d in _network_deviation(p[1:], cfg)),
                     bool(converged), int(iters),
                     float(step_norm), len(starts), start,
                     tuple(float(v) for v in singular))


def residual_report(result: FitResult, trace: DetectorTrace) -> dict:
    """Per-detector goodness summary of the trace that ``fit`` fitted to give
    result: the RMS residual, sqrt(per_detector_residual / N), normalized
    by the data range, and a fringe-visibility estimate (max - min) over
    (max + min - 2 bias)."""
    data = trace.intensities
    report = {}
    for i in range(3):
        lo, hi = float(data[:, i].min()), float(data[:, i].max())
        span = hi - lo
        rms = float(np.sqrt(result.per_detector_residual[i] / trace.phi.size))
        denom = hi + lo - 2.0 * result.model.bias[i]
        visibility = span / denom if abs(denom) > 1e-30 else float("inf")
        report[f"d{i}"] = {"rms": rms,
                           "normalized_rms": rms / span if span > 0 else float("inf"),
                           "visibility": visibility}
    return report
