"""The printed stationary window-moment closed forms in mpmath, evaluated at
the working precision (set it with mp.workdps): the kappa-factored forms
cancel through kappa^-6, so only high precision evaluates them faithfully as
kappa delta -> 0.  helper_integrals sets its own 50 digits."""

import math

import mpmath as mp


def m2_mp(a, b, li, d):
    a, b, li, d = map(mp.mpf, (a, b, li, d))
    k = b - a
    bracket = (a * (2 * b - a) * mp.e ** (-k * d) + a * (a - 2 * b)
               + d * b**2 * k + d**2 * b * li * k**2)
    return b * li / k**4 * bracket


def m3_mp(a, b, li, d):
    a, b, li, d = map(mp.mpf, (a, b, li, d))
    k = b - a
    e1 = mp.e ** (-k * d)
    e2 = mp.e ** (-2 * k * d)
    return (d**3 * b**3 * li**3 / k**3
            + d**2 * 3 * b**4 * li**2 / k**4
            + d * b**2 * li / k**5 * (3 * li * a * (a - 2 * b) + b**2 * (2 * a + b))
            + 3 * a * b**2 * li / (2 * k**6) * (a**2 - a * b - 4 * b**2)
            + a**2 * b * li * (2 * a - 3 * b) / (2 * k**5) * e2
            + a * b * li / k**6 * (a**3 - 4 * a**2 * b + 3 * a * b**2 + 6 * b**3) * e1
            - 3 * a * b**2 * li * (li + a) * (a - 2 * b) / k**5 * d * e1)


def helper_integrals(params, delta: float) -> tuple[float, float]:
    """The iterated exponential integrals behind the second-moment bracket,
    at 50 digits, for the parameters as given (kappa = beta - alpha exact):

        I1 = delta^2/(2 kappa) - delta/kappa^2 - (e^{-kappa delta} - 1)/kappa^3
        I2 = delta/kappa + (e^{-kappa delta} - 1)/kappa^2

    They reconstruct the stationary second moment exactly:
    Lambda1 delta + 2 beta lambda_inf Lambda1 I1 + 2 (Lambda2 + alpha Lambda1) I2.
    """
    if not (delta > 0.0 and math.isfinite(delta)):
        raise ValueError(f"delta must be > 0 and finite, got {delta}")
    with mp.workdps(50):
        k, d = mp.mpf(params.beta) - params.alpha, mp.mpf(delta)
        em1 = mp.e ** (-k * d) - 1
        return float(d * d / (2 * k) - d / k**2 - em1 / k**3), float(d / k + em1 / k**2)


def limit_intensity_mp(a, b, li):
    """The stationary intensity moments (Lambda1, Lambda2, Lambda3) as printed
    in moments.limit_intensity_moments, at the working precision."""
    a, b, li = map(mp.mpf, (a, b, li))
    k = b - a
    return (b * li / k,
            b * li * (a**2 + 2 * b * li) / (2 * k**2),
            a**3 * b * li / (3 * k**2) + b * li * (a**2 + b * li) * (a**2 + 2 * b * li) / (2 * k**3))
