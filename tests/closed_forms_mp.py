"""The printed stationary window-moment closed forms in mpmath, evaluated at
the working precision (set it with mp.workdps): the kappa-factored forms
cancel through kappa^-6, so only high precision evaluates them faithfully as
kappa delta -> 0."""

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
