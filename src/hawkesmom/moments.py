"""Closed-form moments: expected counts, the stationary intensity moments and
the first three moments of window increments N_{t+delta} - N_t in the
stationary limit.  The transient closed forms and the pathwise integral
that the tests check the generator against live in tests/oracles.py.

Everything is expressed through lambda* = beta lambda_inf / kappa and the
relaxation rate kappa = beta - alpha.  The stationary window moments are
computed in cumulant form: k2/M1 and k3/M1 depend only on eta = alpha/beta
and x = kappa delta, through a few window-shape functions of x that are
evaluated stably at every x.  The printed kappa-factored closed forms, which
cancel through kappa^-6 as kappa delta -> 0, are documented but never
evaluated.  A window length delta passes core's length rule (_check_length)
and mean_count's t its evaluation-point rule (_check_point); neither has a
copy here.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._libm import elementwise
from .core import HawkesParams, _check_length, _check_point

__all__ = [
    "MomentTriple",
    "mean_count",
    "stationary_m1",
    "stationary_m2",
    "stationary_m3",
    "moment_triple",
    "limit_intensity_moments",
]

@dataclass(frozen=True)
class MomentTriple:
    """First three raw window-increment moments, with the window length the solver reads."""

    m1: float
    m2: float
    m3: float
    delta: float


def mean_count(params: HawkesParams, t: float) -> float:
    """E[N_t] = lambda* t - (lambda* - lambda0)(1 - e^{-kappa t}) / kappa."""
    _check_point("t", t)
    lam_star = params.lambda_star
    return lam_star * t + (lam_star - params.lambda0) * math.expm1(-params.kappa * t) / params.kappa


def stationary_m1(params: HawkesParams, delta: float) -> float:
    """lim_t E[N_{t+delta} - N_t] = lambda* delta."""
    _check_length("delta", delta)
    return params.lambda_star * delta


def stationary_m2(params: HawkesParams, delta: float) -> float:
    """lim_t E[(N_{t+delta} - N_t)^2] = k2 + M1^2, the closed form

        beta lambda_inf / kappa^4 * [ alpha (2 beta - alpha) e^{-kappa delta}
            + alpha (alpha - 2 beta) + delta beta^2 kappa
            + delta^2 beta lambda_inf kappa^2 ]

    evaluated through its cumulant form (see _window_cumulants).
    """
    # not through moment_triple, whose m3 raises OverflowError where m2
    # is still finite
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
    return moment_triple(params, delta).m3


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
    # eta (2 - eta) u^2 = alpha (beta + kappa) / kappa^2, with beta / kappa
    # + 1 for (beta + kappa) / kappa where the sum overflows (rates near 2^1023)
    ratio = (b + k) / k if b + k <= sys.float_info.max else b / k + 1.0
    k2 = m1 * (1.0 + a / k * ratio * shapes[_PHI])
    k3 = m1 * _k3_over_m1(shapes, b / k)
    return m1, float(k2), float(k3)


# Window-shape functions of x = kappa delta, each N(x)/x with a numerator N
# over the basis 1, x, e^{-x}, x e^{-x}, e^{-2x} whose constant term is 0:
#   phi = 1 - (1 - e^{-x})/x
#   g_0 = (e^{-x} - e^{-2x})/x
#   g_1 = 3 e^{-x} - 3/(2x) + 3 e^{-2x}/(2x)
#   g_2 = 3 (1 - e^{-x} - x e^{-x})/x
#   g_3 = -2 - 3 e^{-x} + 9/(2x) - 4 e^{-x}/x - e^{-2x}/(2x)
#   g_4 = 3 + 3 e^{-x} - 6/x + 6 e^{-x}/x
_BASIS = ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2))  # x^p e^{-c x} as (p, c)
_SHAPES = (  # coefficients of N over _BASIS
    (-1, 1, 1, 0, 0),
    (0, 0, 1, 0, -1),
    (-1.5, 0, 0, 3, 1.5),
    (3, 0, -3, -3, 0),
    (4.5, -2, -4, -3, -0.5),
    (-6, 3, 6, 3, 0),
)
_PHI = 0
# Taylor terms used below x = 1, where the first omitted term is under 2e-20
_TAYLOR_TERMS = 26


def _taylor_coefficient(coefficients, n: int) -> float:
    # [x^n] N(x)/x = [x^m] N(x) with m = n + 1, correctly rounded: in
    # integers over 2 m!, since [x^m] x^p e^{-c x} = (-c)^(m-p) m!/(m-p)! / m!
    # and the coefficients are halves
    m = n + 1
    twice = sum(int(2 * q) * (-c) ** (m - p) * math.perm(m, p)
                for (p, c), q in zip(_BASIS, coefficients) if m >= p)
    return twice / (2 * math.factorial(m))


_SERIES = np.array([[_taylor_coefficient(q, n) for q in _SHAPES]
                    for n in range(_TAYLOR_TERMS)])
_NUMERATORS = np.array(_SHAPES, dtype=float)


def _window_shapes(x: np.ndarray) -> np.ndarray:
    """(phi, g_0, ..., g_4) at every x = kappa delta of the 1-D float array
    x, as rows of a (6, x.size) array.

    Each function is evaluated by its Taylor series below x = 1 and directly
    in libm's e^{-x} above it, where its terms no longer cancel; both stay
    within a few ulp of the exact value.  No power of x above the first
    enters, so the shapes are finite at every x below 5e307 (3x overflows
    only above 6e307).  libm keeps the result independent of which SIMD exp
    numpy dispatches to: _libm.elementwise takes e^{-x} from numpy's
    per-element libm loop where its first-use probe matched math.exp bit
    for bit, and maps math.exp over xl otherwise.
    """
    out = np.empty((len(_SHAPES), x.size))
    small = x < 1.0
    if small.any():
        # the series summed from its smallest terms up
        terms = _SERIES[:0:-1, :, None] * _powers(x[small], _TAYLOR_TERMS - 1)[::-1, None]
        out[:, small] = _SERIES[0, :, None] + terms.sum(axis=0)
    if not small.all():
        xl = x[~small]
        e1 = elementwise(math.exp, -xl)
        basis = np.array((np.ones_like(xl), xl, e1, xl * e1, e1 * e1))
        out[:, ~small] = (_NUMERATORS[:, :, None] * basis).sum(axis=1) / xl
    return out


def _powers(x: np.ndarray, n: int) -> np.ndarray:
    # rows x, x^2, ..., x^n by repeated multiplication
    rows = np.repeat(x[None, :], n, axis=0)
    return np.multiply.accumulate(rows, axis=0, out=rows)


def _k3_over_m1(shapes: np.ndarray, u):
    """k3/M1 = sum_{j=0..4} g_j(x) u^j by Horner's rule in u = 1/(1 - eta),
    from the rows of _window_shapes."""
    g0, g1, g2, g3, g4 = shapes[1:]
    return (((g4 * u + g3) * u + g2) * u + g1) * u + g0


def moment_triple(params: HawkesParams, delta: float) -> MomentTriple:
    """Theoretical stationary (m1, m2, m3) bundled for a window length,
    from one evaluation of the cumulants (_window_cumulants):
    m2 = k2 + M1^2 and m3 = k3 + 3 k2 M1 + M1^3."""
    m1, k2, k3 = _window_cumulants(params, delta)
    return MomentTriple(m1=m1, m2=k2 + m1 * m1, m3=k3 + 3.0 * k2 * m1 + m1**3,
                        delta=float(delta))


def limit_intensity_moments(params: HawkesParams) -> tuple[float, float, float]:
    """Stationary intensity moments (Lambda1, Lambda2, Lambda3):

        Lambda1 = beta lambda_inf / kappa
        Lambda2 = beta lambda_inf (alpha^2 + 2 beta lambda_inf) / (2 kappa^2)
        Lambda3 = alpha^3 beta lambda_inf / (3 kappa^2)
                  + beta lambda_inf (alpha^2 + beta lambda_inf)
                    (alpha^2 + 2 beta lambda_inf) / (2 kappa^3)

    each from the one before, so that kappa is divided out one power at a
    time: Lambda2 = Lambda1 (alpha^2 + 2 beta lambda_inf) / (2 kappa) and
    Lambda3 = (alpha / kappa) alpha^2 Lambda1 / 3 + (Lambda2 / kappa)
    (alpha^2 + beta lambda_inf), with kappa divided out before the products
    grow.  No product then leaves float64's range where the moments do not
    (alpha = 0, beta = 1e200, lambda_inf = 1 gives 1, 1, 1; alpha = 1e100,
    beta = 2e100, lambda_inf = 1e100 gives Lambda3 = 1.5667e301).
    """
    a, b, li = params.alpha, params.beta, params.lambda_inf
    k = params.kappa
    lam1 = params.lambda_star
    lam2 = lam1 * (a * a + 2.0 * b * li) / (2.0 * k)
    lam3 = (a / k) * a * a * lam1 / 3.0 + (lam2 / k) * (a * a + b * li)
    return lam1, lam2, lam3
