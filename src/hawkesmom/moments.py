"""Closed-form moments: intensity moments, expected counts, and the first
three moments of window increments N_{t+delta} - N_t in the stationary limit.

Everything is expressed through lambda* = beta lambda_inf / kappa and the
relaxation rate kappa = beta - alpha.  The stationary window-moment formulas
are kept in their natural kappa-factored form; because the exponential
differences in them cancel catastrophically as kappa delta -> 0, each
switches to an equivalent truncated Laurent expansion below
NEAR_CRITICAL_THRESHOLD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._libm import elementwise, power
from .core import HawkesParams

__all__ = [
    "NEAR_CRITICAL_THRESHOLD",
    "MomentTriple",
    "mean_intensity",
    "second_moment_intensity",
    "mean_count",
    "increment_mean_exact",
    "stationary_m1",
    "stationary_m2",
    "stationary_m3",
    "moment_triple",
    "limit_intensity_moments",
    "helper_integrals",
]

# Switch point for (beta - alpha) * delta below which the kappa-factored
# closed forms are evaluated through their series expansions instead.  The
# third-moment form cancels through kappa^-6 and loses ~3 digits per decade
# of kappa*delta (factor-27 relative error already at kappa*delta = 2e-6);
# measured worst-case error of both branches crosses over near 5e-3, where
# each is accurate to ~1e-8 relative.
NEAR_CRITICAL_THRESHOLD = 5e-3


@dataclass(frozen=True)
class MomentTriple:
    """First three raw moments of the window increment for window length delta."""

    m1: float
    m2: float
    m3: float
    delta: float


def mean_intensity(params: HawkesParams, t: float) -> float:
    """E[lambda_t] = lambda* - (lambda* - lambda0) e^{-kappa t}."""
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    lam_star = params.lambda_star
    return lam_star - (lam_star - params.lambda0) * math.exp(-params.kappa * t)


def second_moment_intensity(params: HawkesParams, t: float) -> float:
    """E[lambda_t^2], the solution of d/dt E[lambda^2] = (alpha^2 + 2 beta
    lambda_inf) E[lambda] - 2 kappa E[lambda^2] started at lambda0^2:

        Lambda2 + (lambda0 - lambda*)(alpha^2 + 2 beta lambda_inf)/kappa e^{-kappa t}
        + [(lambda0 - lambda*)^2 - alpha^2 (2 lambda0 - lambda*)/(2 kappa)] e^{-2 kappa t}

    with Lambda2 = (lambda*)^2 + alpha^2 lambda* / (2 kappa).
    """
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    a, k = params.alpha, params.kappa
    lam_star, lam0 = params.lambda_star, params.lambda0
    e1 = math.exp(-k * t)
    c1 = (lam0 - lam_star) * (a * a + 2.0 * params.beta * params.lambda_inf) / k
    c2 = (lam0 - lam_star) ** 2 - a * a * (2.0 * lam0 - lam_star) / (2.0 * k)
    return lam_star**2 + a * a * lam_star / (2.0 * k) + c1 * e1 + c2 * e1 * e1


def mean_count(params: HawkesParams, t: float) -> float:
    """E[N_t] = lambda* t - (lambda* - lambda0)(1 - e^{-kappa t}) / kappa."""
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    lam_star = params.lambda_star
    return lam_star * t + (lam_star - params.lambda0) * math.expm1(-params.kappa * t) / params.kappa


def increment_mean_exact(params: HawkesParams, t: float, delta: float) -> float:
    """E[N_{t+delta} - N_t] at finite t:

        lambda* delta + (lambda0 - lambda*)(e^{-kappa t} - e^{-kappa (t+delta)}) / kappa.

    Telescopes exactly: equals mean_count(t + delta) - mean_count(t).
    """
    if t < 0.0 or delta <= 0.0:
        raise ValueError(f"need t >= 0 and delta > 0, got t={t}, delta={delta}")
    k = params.kappa
    lam_star = params.lambda_star
    diff = -math.exp(-k * t) * math.expm1(-k * delta)  # e^{-kt} - e^{-k(t+delta)}
    return lam_star * delta + (params.lambda0 - lam_star) * diff / k


def stationary_m1(params: HawkesParams, delta: float) -> float:
    """lim_t E[N_{t+delta} - N_t] = lambda* delta."""
    if delta <= 0.0:
        raise ValueError(f"delta must be > 0, got {delta}")
    return params.lambda_star * delta


def stationary_m2(params: HawkesParams, delta: float) -> float:
    """lim_t E[(N_{t+delta} - N_t)^2]:

        beta lambda_inf / kappa^4 * [ alpha (2 beta - alpha) e^{-kappa delta}
            + alpha (alpha - 2 beta) + delta beta^2 kappa
            + delta^2 beta lambda_inf kappa^2 ].
    """
    if delta <= 0.0:
        raise ValueError(f"delta must be > 0, got {delta}")
    a, b, li = params.alpha, params.beta, params.lambda_inf
    k = params.kappa
    if k * delta < NEAR_CRITICAL_THRESHOLD:
        return _stationary_m2_series(a, li, delta, k)
    bracket = (a * (2.0 * b - a) * math.exp(-k * delta)
               + a * (a - 2.0 * b)
               + delta * b * b * k
               + delta * delta * b * li * k * k)
    return b * li / k**4 * bracket


def stationary_m3(params: HawkesParams, delta: float) -> float:
    """lim_t E[(N_{t+delta} - N_t)^3], the seven-term closed form:

        delta^3 beta^3 lambda_inf^3 / kappa^3
        + delta^2 3 beta^4 lambda_inf^2 / kappa^4
        + delta beta^2 lambda_inf (3 lambda_inf alpha (alpha - 2 beta)
                                   + beta^2 (2 alpha + beta)) / kappa^5
        + 3 alpha beta^2 lambda_inf (alpha^2 - alpha beta - 4 beta^2) / (2 kappa^6)
        + alpha^2 beta lambda_inf (2 alpha - 3 beta) e^{-2 kappa delta} / (2 kappa^5)
        + alpha beta lambda_inf (alpha^3 - 4 alpha^2 beta + 3 alpha beta^2
                                 + 6 beta^3) e^{-kappa delta} / kappa^6
        - 3 alpha beta^2 lambda_inf (lambda_inf + alpha)(alpha - 2 beta)
          delta e^{-kappa delta} / kappa^5.
    """
    if delta <= 0.0:
        raise ValueError(f"delta must be > 0, got {delta}")
    a, b, li = params.alpha, params.beta, params.lambda_inf
    k = params.kappa
    if k * delta < NEAR_CRITICAL_THRESHOLD:
        return _laurent(k, _m3_series_coefficients(a, li, delta, math.pow))
    return _m3_closed_form(a, b, li, k, delta, math.exp(-k * delta), math.pow)


def _stationary_m3_array(a: np.ndarray, b: np.ndarray, li: np.ndarray,
                         delta: float) -> np.ndarray:
    """stationary_m3 at every (alpha, beta, lambda_inf) of the arrays, bit for
    bit: the same float operations in the same order, with libm's pow and exp
    applied element-wise.  The parameters must pass HawkesParams' checks and
    delta must be > 0.  Where stationary_m3 raises, the value is NaN or inf.
    """
    k = b - a
    near = k * delta < NEAR_CRITICAL_THRESHOLD
    out = np.empty(k.size)
    with np.errstate(all="ignore"):
        s = near.nonzero()[0]
        total = 0.0
        for p, c in _m3_series_coefficients(a[s], li[s], delta, power):
            # _laurent skips a zero coefficient and with it a k^p that may overflow
            total = np.where(c != 0.0, total + c * power(k[s], p), total)
        out[s] = total
        f = (~near).nonzero()[0]
        out[f] = _m3_closed_form(a[f], b[f], li[f], k[f], delta,
                                 elementwise(math.exp, -k[f] * delta), power)
    return out


def _m3_closed_form(a, b, li, k, delta, e1, pw):
    # stationary_m3's seven-term closed form, for floats with pw = math.pow and
    # for arrays with pw = _libm.power; e1 = e^{-kappa delta}
    e2 = e1 * e1
    b3, k5, k6 = pw(b, 3), pw(k, 5), pw(k, 6)
    return (pw(delta, 3) * b3 * pw(li, 3) / pw(k, 3)
            + pw(delta, 2) * 3.0 * pw(b, 4) * pw(li, 2) / pw(k, 4)
            + delta * b * b * li / k5
            * (3.0 * li * a * (a - 2.0 * b) + b * b * (2.0 * a + b))
            + 3.0 * a * b * b * li / (2.0 * k6) * (a * a - a * b - 4.0 * b * b)
            + a * a * b * li * (2.0 * a - 3.0 * b) / (2.0 * k5) * e2
            + a * b * li / k6 * (pw(a, 3) - 4.0 * a * a * b + 3.0 * a * b * b + 6.0 * b3) * e1
            - 3.0 * a * b * b * li * (li + a) * (a - 2.0 * b) / k5 * delta * e1)


def _laurent(k: float, coeffs_by_power) -> float:
    # evaluate sum c_p k^p skipping zero coefficients, so the alpha = 0 case
    # (all pole coefficients vanish identically) never divides by an
    # underflowed k^p
    total = 0.0
    for p, c in coeffs_by_power:
        if c != 0.0:
            total += c * math.pow(k, p)
    return total


def _stationary_m2_series(a: float, li: float, d: float, k: float) -> float:
    # Laurent expansion of stationary_m2 in kappa at fixed alpha: orders
    # kappa^-2 .. kappa^2 (truncation error O((kappa delta)^3) relative).
    c_m2 = d * d * a * a * li * (a + 2.0 * li) / 2.0
    c_m1 = d * a * li * (-(d * d) * a * a + 9.0 * d * a + 12.0 * d * li + 6.0) / 6.0
    c_0 = d * li * (d**3 * a**3 - 12.0 * d * d * a * a + 24.0 * d * a + 24.0 * d * li + 24.0) / 24.0
    c_1 = d**3 * a * li * (-(d * d) * a * a + 15.0 * d * a - 40.0) / 120.0
    c_2 = d**4 * a * li * (d * d * a * a - 18.0 * d * a + 60.0) / 720.0
    return _laurent(k, [(-2, c_m2), (-1, c_m1), (0, c_0), (1, c_1), (2, c_2)])


def _m3_series_coefficients(a, li, d, pw):
    # Laurent coefficients of stationary_m3 in kappa, orders kappa^-3 ..
    # kappa^1, paired with their powers; pw as in _m3_closed_form
    d3, d4, d5 = pw(d, 3), pw(d, 4), pw(d, 5)
    a3, a4 = pw(a, 3), pw(a, 4)
    c_m3 = d3 * a3 * li * (a + li) * (a + 2.0 * li) / 2.0
    c_m2 = d * d * a * a * li * (-3.0 * d * d * a3 - 6.0 * d * d * a * a * li
                                 + 28.0 * d * a * a + 72.0 * d * a * li
                                 + 36.0 * d * li * li + 18.0 * a + 36.0 * li) / 12.0
    c_m1 = d * a * li * (9.0 * d4 * a4 + 15.0 * d4 * a3 * li
                         - 150.0 * d3 * a3 - 240.0 * d3 * a * a * li
                         + 400.0 * d * d * a * a + 900.0 * d * d * a * li
                         + 360.0 * d * d * li * li + 540.0 * d * a
                         + 720.0 * d * li + 120.0) / 120.0
    c_0 = d * li * (-2.0 * d5 * pw(a, 5) - 3.0 * d5 * a4 * li
                    + 50.0 * d4 * a4 + 60.0 * d4 * a3 * li
                    - 255.0 * d3 * a3 - 300.0 * d3 * a * a * li
                    + 60.0 * d * d * a * a + 360.0 * d * d * a * li
                    + 120.0 * d * d * li * li + 360.0 * d * a
                    + 360.0 * d * li + 120.0) / 120.0
    c_1 = d3 * a * li * (5.0 * d4 * a4 + 7.0 * d4 * a3 * li
                         - 182.0 * d3 * a3 - 168.0 * d3 * a * a * li
                         + 1372.0 * d * d * a * a + 1050.0 * d * d * a * li
                         - 1470.0 * d * a - 1680.0 * d * li - 1680.0) / 1680.0
    return [(-3, c_m3), (-2, c_m2), (-1, c_m1), (0, c_0), (1, c_1)]


def moment_triple(params: HawkesParams, delta: float) -> MomentTriple:
    """Theoretical stationary (m1, m2, m3) bundled for a window length."""
    return MomentTriple(
        m1=stationary_m1(params, delta),
        m2=stationary_m2(params, delta),
        m3=stationary_m3(params, delta),
        delta=float(delta),
    )


def limit_intensity_moments(params: HawkesParams) -> tuple[float, float, float]:
    """Stationary intensity moments (Lambda1, Lambda2, Lambda3):

        Lambda1 = beta lambda_inf / kappa
        Lambda2 = beta lambda_inf (alpha^2 + 2 beta lambda_inf) / (2 kappa^2)
        Lambda3 = alpha^3 beta lambda_inf / (3 kappa^2)
                  + beta lambda_inf (alpha^2 + beta lambda_inf)
                    (alpha^2 + 2 beta lambda_inf) / (2 kappa^3)
    """
    a, b, li = params.alpha, params.beta, params.lambda_inf
    k = params.kappa
    lam1 = b * li / k
    lam2 = b * li * (a * a + 2.0 * b * li) / (2.0 * k * k)
    lam3 = (a**3 * b * li / (3.0 * k * k)
            + b * li * (a * a + b * li) * (a * a + 2.0 * b * li) / (2.0 * k**3))
    return lam1, lam2, lam3


def helper_integrals(params: HawkesParams, delta: float) -> tuple[float, float]:
    """The iterated exponential integrals behind the second-moment bracket:

        I1 = delta^2/(2 kappa) - delta/kappa^2 - (e^{-kappa delta} - 1)/kappa^3
        I2 = delta/kappa + (e^{-kappa delta} - 1)/kappa^2

    They reconstruct the stationary second moment exactly:
    Lambda1 delta + 2 beta lambda_inf Lambda1 I1 + 2 (Lambda2 + alpha Lambda1) I2.
    """
    if delta <= 0.0:
        raise ValueError(f"delta must be > 0, got {delta}")
    k = params.kappa
    x = k * delta
    if x < NEAR_CRITICAL_THRESHOLD:
        # I1 = sum_{j>=3} (-kappa)^{j-3} delta^j / j!,  I2 likewise from j = 2
        i1 = (delta**3 / 6.0 - k * delta**4 / 24.0 + k * k * delta**5 / 120.0
              - k**3 * delta**6 / 720.0 + k**4 * delta**7 / 5040.0)
        i2 = (delta * delta / 2.0 - k * delta**3 / 6.0 + k * k * delta**4 / 24.0
              - k**3 * delta**5 / 120.0 + k**4 * delta**6 / 720.0)
        return i1, i2
    em1 = math.expm1(-x)  # e^{-kappa delta} - 1
    i1 = delta * delta / (2.0 * k) - delta / (k * k) - em1 / k**3
    i2 = delta / k + em1 / (k * k)
    return i1, i2
