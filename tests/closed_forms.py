"""Closed forms of the four adjustment fringes and of the published
setpoints: the test oracle.

Each fringe function gives the intensity on a step's monitored beam versus
its shifter offset dx, with all earlier steps already zeroed.  dx is
measured from the library's one zero point r0 = ``fourier_setpoints``
(``fourier_setpoints_exact`` + ``NOMINAL_SETPOINT_SHIFT``); the closed forms
read no incidental phase.  p1..p3 are the published closed forms.  The
published display of the step-4 fringe is inconsistent with the
transfer-matrix model (it drops the dx dependence and deviates from the
block simulation), so ``p4_closed_form`` is the analytically reconstructed
expression instead.  The library computes every fringe from the block
model; the tests check it against these expressions.

``published_setpoints`` is the published expression of the setpoints.  It
equals r0 at zero incidental phases and misses the reference curves
otherwise, so the library no longer uses it; tests keep it to pin that
deviation and to plant traces drawn at it.
"""

from typing import Callable

import numpy as np

from optiqft import CHI_TILDE, ExperimentConfig

SQRT2 = np.sqrt(2.0)


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


def published_setpoints(cfg: ExperimentConfig) -> tuple:
    """The published closed form of the tunable phases x1..x4, mod 2 pi."""
    al, th, psi = cfg.alpha, cfg.theta, cfg.psi
    x1 = -al[0] + cfg.alpha_a - cfg.alpha_b + cfg.theta_b - psi[0] + np.pi
    x2 = -al[1] + cfg.alpha_b - th[0] + cfg.psi_a - psi[1] - np.pi / 2
    x3 = -al[1] + al[2] - psi[2] + psi[3] + np.pi - 2.0 * CHI_TILDE
    x4 = (-al[0] + al[1] + al[3] - cfg.alpha_b + th[0] - th[1] - th[2]
          - psi[3] - psi[4] - psi[5] - cfg.psi_a - np.pi + CHI_TILDE)
    return tuple(v % (2.0 * np.pi) for v in (x1, x2, x3, x4))


_CLOSED_FORMS: dict[int, Callable] = {
    1: p1_closed_form, 2: p2_closed_form, 3: p3_closed_form, 4: p4_closed_form,
}


def step_curve(step: int, dx, phi: float, cfg: ExperimentConfig):
    """Closed-form monitored intensity of a step at shifter offset dx."""
    return _CLOSED_FORMS[step](dx, phi, cfg)
