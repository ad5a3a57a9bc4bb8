"""Closed forms the tests check the package against, and that the package
itself never calls: the transient intensity moments, the finite-t window
mean, the exact pathwise integral of a polynomial in (lambda_t, N_t) and
window counts by one binary search per window edge.

Not collected by pytest (no test_ prefix).  It imports only math, numpy and
hawkesmom, so it runs where scipy is not installed.
"""

from __future__ import annotations

import math

import numpy as np

from hawkesmom import BivariatePolynomial, HawkesParams
from hawkesmom._libm import elementwise
from hawkesmom.core import _excess_after_events, _times


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


def integrate_polynomial_on_path(
    params: HawkesParams, events, poly: BivariatePolynomial, t: float
) -> float:
    """Exact pathwise integral int_0^t p(lambda_u, N_u) du for one realization.

    Between events the intensity is lambda_inf + c e^{-beta s} and N is
    constant, so every monomial integrates in closed form segment by
    segment; each segment's starting excess c comes from the one intensity
    recurrence, core._excess_after_events.  Used to check the martingale
    identity E[k(X_t)] = k(X_0) + int_0^t E[A k(X_u)] du without quadrature
    bias.
    """
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    times = _times(events)
    before = times[:np.searchsorted(times, t, side="left")]
    beta, lam_inf = params.beta, params.lambda_inf
    # segment n runs from the n-th event (time 0 for n = 0) to the next one,
    # or to t, with N = n on it; tied events give empty segments
    length = np.diff(before, prepend=0.0, append=t)
    c_exc = np.concatenate(([params.lambda0 - lam_inf], _excess_after_events(params, before)))
    n = np.arange(before.size + 1, dtype=float)
    total = 0.0
    for (m, l), c in poly.terms():
        acc = lam_inf**m * length
        for j in range(1, m + 1):
            # int_0^s e^{-j beta u} du = -expm1(-j beta s) / (j beta)
            acc += (math.comb(m, j) * lam_inf ** (m - j) * c_exc**j
                    * -elementwise(math.expm1, -j * beta * length) / (j * beta))
        total += c * float(n**l @ acc)
    return total


def windowed_counts_reference(times, t0: float, delta: float, count: int) -> np.ndarray:
    """Event counts in the half-open windows [t0 + j delta, t0 + (j+1) delta),
    j < count, by one binary search for each window edge."""
    edges = t0 + delta * np.arange(count + 1)
    return np.diff(np.searchsorted(times, edges, side="left"))


def dense_counts(pairs, count: int) -> np.ndarray:
    """All ``count`` window counts from windowed_counts' non-empty pairs."""
    dense = np.zeros(count, dtype=np.int64)
    dense[pairs.index] = pairs.counts
    return dense
