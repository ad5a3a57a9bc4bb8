"""Closed-form moments: intensity moments, expected counts, and the first
three moments of window increments N_{t+delta} - N_t in the stationary limit.

Everything is expressed through lambda* = beta lambda_inf / kappa and the
relaxation rate kappa = beta - alpha.  The stationary window moments are
computed in cumulant form: k2/M1 and k3/M1 depend only on eta = alpha/beta
and x = kappa delta, through a few window-shape functions of x that are
evaluated stably at every x.  The printed kappa-factored closed forms, which
cancel through kappa^-6 as kappa delta -> 0, are documented but never
evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._libm import elementwise
from .core import HawkesParams

__all__ = [
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

@dataclass(frozen=True)
class MomentTriple:
    """First three raw moments of the window increment for window length delta."""

    m1: float
    m2: float
    m3: float
    delta: float


def mean_intensity(params: HawkesParams, t: float) -> float:
    """E[lambda_t] = lambda* - (lambda* - lambda0) e^{-kappa t}."""
    if not t >= 0.0:
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
    if not t >= 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    a, k = params.alpha, params.kappa
    lam_star, lam0 = params.lambda_star, params.lambda0
    e1 = math.exp(-k * t)
    c1 = (lam0 - lam_star) * (a * a + 2.0 * params.beta * params.lambda_inf) / k
    c2 = (lam0 - lam_star) ** 2 - a * a * (2.0 * lam0 - lam_star) / (2.0 * k)
    return lam_star**2 + a * a * lam_star / (2.0 * k) + c1 * e1 + c2 * e1 * e1


def mean_count(params: HawkesParams, t: float) -> float:
    """E[N_t] = lambda* t - (lambda* - lambda0)(1 - e^{-kappa t}) / kappa."""
    if not t >= 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    lam_star = params.lambda_star
    return lam_star * t + (lam_star - params.lambda0) * math.expm1(-params.kappa * t) / params.kappa


def increment_mean_exact(params: HawkesParams, t: float, delta: float) -> float:
    """E[N_{t+delta} - N_t] at finite t:

        lambda* delta + (lambda0 - lambda*)(e^{-kappa t} - e^{-kappa (t+delta)}) / kappa.

    Telescopes exactly: equals mean_count(t + delta) - mean_count(t).
    """
    if not (t >= 0.0 and delta > 0.0):
        raise ValueError(f"need t >= 0 and delta > 0, got t={t}, delta={delta}")
    k = params.kappa
    lam_star = params.lambda_star
    diff = -math.exp(-k * t) * math.expm1(-k * delta)  # e^{-kt} - e^{-k(t+delta)}
    return lam_star * delta + (params.lambda0 - lam_star) * diff / k


def stationary_m1(params: HawkesParams, delta: float) -> float:
    """lim_t E[N_{t+delta} - N_t] = lambda* delta."""
    if not (delta > 0.0 and math.isfinite(delta)):
        raise ValueError(f"delta must be > 0 and finite, got {delta}")
    return params.lambda_star * delta


def stationary_m2(params: HawkesParams, delta: float) -> float:
    """lim_t E[(N_{t+delta} - N_t)^2] = k2 + M1^2, the closed form

        beta lambda_inf / kappa^4 * [ alpha (2 beta - alpha) e^{-kappa delta}
            + alpha (alpha - 2 beta) + delta beta^2 kappa
            + delta^2 beta lambda_inf kappa^2 ]

    evaluated through its cumulant form (see _window_cumulants).
    """
    m1, k2, _ = _window_cumulants(params, delta)
    return k2 + m1 * m1


def stationary_m3(params: HawkesParams, delta: float) -> float:
    """lim_t E[(N_{t+delta} - N_t)^3] = k3 + 3 k2 M1 + M1^3, the closed form

        delta^3 beta^3 lambda_inf^3 / kappa^3
        + delta^2 3 beta^4 lambda_inf^2 / kappa^4
        + delta beta^2 lambda_inf (3 lambda_inf alpha (alpha - 2 beta)
                                   + beta^2 (2 alpha + beta)) / kappa^5
        + 3 alpha beta^2 lambda_inf (alpha^2 - alpha beta - 4 beta^2) / (2 kappa^6)
        + alpha^2 beta lambda_inf (2 alpha - 3 beta) e^{-2 kappa delta} / (2 kappa^5)
        + alpha beta lambda_inf (alpha^3 - 4 alpha^2 beta + 3 alpha beta^2
                                 + 6 beta^3) e^{-kappa delta} / kappa^6
        - 3 alpha beta^2 lambda_inf (lambda_inf + alpha)(alpha - 2 beta)
          delta e^{-kappa delta} / kappa^5

    evaluated through its cumulant form (see _window_cumulants).
    """
    m1, k2, k3 = _window_cumulants(params, delta)
    return k3 + 3.0 * k2 * m1 + m1**3


def _window_cumulants(params: HawkesParams, delta: float) -> tuple[float, float, float]:
    """Stationary window-count cumulants (M1, k2, k3) for window length delta.

    A Hawkes process is a Poisson cluster process, so each cumulant is M1 =
    lambda* delta times a function of eta = alpha/beta and x = kappa delta
    alone (Jovanovic, Hertz & Rotter 2015, Phys. Rev. E 91, 042802):

        k2/M1 = 1 + eta (2 - eta) u^2 phi(x),   k3/M1 = sum_j g_j(x) u^j,

    with u = 1/(1 - eta) = beta/kappa and the shape functions of
    _window_shapes.  Neither involves a power of kappa, and the raw moments
    m2 = k2 + M1^2 and m3 = k3 + 3 k2 M1 + M1^3 are sums of positive terms,
    so they stay within about 1e-15 relative of the exact closed forms at
    every kappa delta, however near criticality.
    """
    m1 = stationary_m1(params, delta)
    a, b, k = params.alpha, params.beta, params.kappa
    shapes = _window_shapes(np.array([k * delta]))[:, 0]
    # eta (2 - eta) u^2 = alpha (beta + kappa) / kappa^2
    k2 = m1 * (1.0 + a / k * ((b + k) / k) * shapes[_PHI])
    k3 = m1 * _k3_over_m1(shapes, b / k)
    return m1, float(k2), float(k3)


# Window-shape functions of x = kappa delta, each f(x) = N(x)/x^d with a
# numerator N over the basis 1, x, x^2, e^{-x}, x e^{-x}, e^{-2x}:
#   phi = 1 - (1 - e^{-x})/x
#   g_0 = (e^{-x} - e^{-2x})/x
#   g_1 = 3 e^{-x} - 3/(2x) + 3 e^{-2x}/(2x)
#   g_2 = 3 (1 - e^{-x} - x e^{-x})/x
#   g_3 = -2 - 3 e^{-x} + 9/(2x) - 4 e^{-x}/x - e^{-2x}/(2x)
#   g_4 = 3 + 3 e^{-x} - 6/x + 6 e^{-x}/x
#   I1/delta^3 = (x^2/2 - x + 1 - e^{-x})/x^3,  I2/delta^2 = (x - 1 + e^{-x})/x^2
_BASIS = ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2))  # x^p e^{-c x} as (p, c)
_SHAPES = (  # (d, coefficients of N over _BASIS)
    (1, (-1, 1, 0, 1, 0, 0)),
    (1, (0, 0, 0, 1, 0, -1)),
    (1, (-1.5, 0, 0, 0, 3, 1.5)),
    (1, (3, 0, 0, -3, -3, 0)),
    (1, (4.5, -2, 0, -4, -3, -0.5)),
    (1, (-6, 3, 0, 6, 3, 0)),
    (3, (1, -1, 0.5, -1, 0, 0)),
    (2, (-1, 1, 0, 1, 0, 0)),
)
_PHI, _I1, _I2 = 0, 6, 7
# Taylor terms used below x = 1, where the first omitted term is under 2e-20
_TAYLOR_TERMS = 26


def _taylor_coefficient(d: int, coefficients, n: int) -> float:
    # [x^n] N(x)/x^d, correctly rounded: in integers over 2 m!, since
    # [x^m] x^p e^{-c x} = (-c)^(m-p) m!/(m-p)! / m! and the coefficients
    # are halves
    m = n + d
    twice = sum(int(2 * q) * (-c) ** (m - p) * math.perm(m, p)
                for (p, c), q in zip(_BASIS, coefficients) if m >= p)
    return twice / (2 * math.factorial(m))


_SERIES = np.array([[_taylor_coefficient(d, q, n) for d, q in _SHAPES]
                    for n in range(_TAYLOR_TERMS)])
_NUMERATORS = np.array([q for _, q in _SHAPES], dtype=float)
_DEGREES = np.array([d for d, _ in _SHAPES])


def _window_shapes(x: np.ndarray) -> np.ndarray:
    """(phi, g_0, ..., g_4, I1/delta^3, I2/delta^2) at every x = kappa delta
    of the 1-D float array x, as rows of a (8, x.size) array.

    Each function is evaluated by its Taylor series below x = 1 and directly
    in libm's e^{-x} above it, where its terms no longer cancel; both stay
    within a few ulp of the exact value.  libm keeps the result independent
    of which SIMD exp numpy dispatches to.
    """
    out = np.empty((len(_SHAPES), x.size))
    small = x < 1.0
    xs = x[small]
    # the series summed from its smallest terms up
    terms = _SERIES[:0:-1, :, None] * _powers(xs, _TAYLOR_TERMS - 1)[::-1, None]
    out[:, small] = _SERIES[0, :, None] + terms.sum(axis=0)
    xl = x[~small]
    e1 = elementwise(math.exp, -xl)
    basis = np.array((np.ones_like(xl), xl, xl * xl, e1, xl * e1, e1 * e1))
    numerators = (_NUMERATORS[:, :, None] * basis).sum(axis=1)
    out[:, ~small] = numerators / _powers(xl, 3)[_DEGREES - 1]
    return out


def _powers(x: np.ndarray, n: int) -> np.ndarray:
    # rows x, x^2, ..., x^n by repeated multiplication
    rows = np.repeat(x[None, :], n, axis=0)
    return np.multiply.accumulate(rows, axis=0, out=rows)


def _k3_over_m1(shapes: np.ndarray, u):
    """k3/M1 = sum_{j=0..4} g_j(x) u^j by Horner's rule in u = 1/(1 - eta),
    from the rows of _window_shapes."""
    g0, g1, g2, g3, g4 = shapes[1:6]
    return (((g4 * u + g3) * u + g2) * u + g1) * u + g0


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
    if not (delta > 0.0 and math.isfinite(delta)):
        raise ValueError(f"delta must be > 0 and finite, got {delta}")
    shapes = _window_shapes(np.array([params.kappa * delta]))[:, 0]
    return float(shapes[_I1] * delta**3), float(shapes[_I2] * delta * delta)
