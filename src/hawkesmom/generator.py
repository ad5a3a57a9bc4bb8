"""Infinitesimal generator of the Markov pair (lambda_t, N_t) on polynomials.

For test functions k(lambda, n) = g(lambda) f(n) the generator acts as

    A k = lambda [f(n+1) g(lambda+alpha) - f(n) g(lambda)]
          + f(n) g'(lambda) beta (lambda_inf - lambda),

so on the monomial lambda^m n^l:

    A[lambda^m n^l] = lambda (lambda+alpha)^m (n+1)^l - lambda^{m+1} n^l
                      + m beta lambda_inf lambda^{m-1} n^l
                      - m beta lambda^m n^l.

Taking expectations turns A into the right-hand side of a closed linear ODE
system for the mixed moments E[lambda_t^m N_t^l]; this module assembles that
system mechanically from the generator and solves it by the matrix
exponential, so the moment equations have a single source of truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .core import HawkesParams, _excess_after_events, _times

__all__ = [
    "MAX_EXPONENT",
    "MomentIndex",
    "BivariatePolynomial",
    "apply_generator",
    "moment_ode_rhs",
    "moment_closure",
    "integrate_moments",
    "integrate_polynomial_on_path",
]

# Exponent cap: only moments up to order 3 are needed; 8 gives test headroom
# while keeping binomial expansions free of coefficient blow-up.
MAX_EXPONENT = 8


@dataclass(frozen=True, order=True)
class MomentIndex:
    """Exponent pair (m, l) labelling the mixed moment E[lambda^m N^l]."""

    m: int
    l: int

    def __post_init__(self):
        for v in (self.m, self.l):
            if not isinstance(v, int) or v < 0 or v > MAX_EXPONENT:
                raise ValueError(
                    f"exponents must be integers in [0, {MAX_EXPONENT}], got ({self.m}, {self.l})"
                )

    def as_tuple(self) -> tuple[int, int]:
        return (self.m, self.l)


def _as_exponents(key) -> tuple[int, int]:
    if isinstance(key, MomentIndex):
        return key.as_tuple()
    m, l = key
    m, l = int(m), int(l)
    if (m, l) != tuple(key) or m < 0 or l < 0 or m > MAX_EXPONENT or l > MAX_EXPONENT:
        raise ValueError(f"exponents must be integers in [0, {MAX_EXPONENT}], got {key!r}")
    return m, l


class BivariatePolynomial:
    """Real-coefficient polynomial sum_{m,l} c_{m,l} lambda^m n^l.

    Immutable value object; zero coefficients are never stored and exponents
    are capped at MAX_EXPONENT.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping | None = None):
        clean: dict[tuple[int, int], float] = {}
        if coeffs:
            for key, c in coeffs.items():
                c = float(c)
                if c != 0.0:
                    clean[_as_exponents(key)] = c
        self._coeffs = clean

    @classmethod
    def zero(cls) -> "BivariatePolynomial":
        return cls()

    @classmethod
    def monomial(cls, m: int, l: int, coeff: float = 1.0) -> "BivariatePolynomial":
        return cls({(m, l): coeff})

    @property
    def coefficients(self) -> dict[tuple[int, int], float]:
        return dict(self._coeffs)

    def coefficient(self, m: int, l: int) -> float:
        return self._coeffs.get((m, l), 0.0)

    def terms(self):
        """Iterate ((m, l), coeff) in a deterministic order."""
        return iter(sorted(self._coeffs.items()))

    def evaluate(self, lam: float, n: float) -> float:
        return float(sum(c * lam**m * n**l for (m, l), c in self._coeffs.items()))

    def degree(self) -> int:
        """Maximum total degree m + l (zero polynomial has degree 0)."""
        return max((m + l for m, l in self._coeffs), default=0)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __add__(self, other):
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        out = dict(self._coeffs)
        for key, c in other._coeffs.items():
            out[key] = out.get(key, 0.0) + c
        return BivariatePolynomial(out)

    def __neg__(self):
        return BivariatePolynomial({k: -c for k, c in self._coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        return BivariatePolynomial({k: c * scalar for k, c in self._coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def allclose(self, other: "BivariatePolynomial", rtol=1e-12, atol=1e-12) -> bool:
        keys = set(self._coeffs) | set(other._coeffs)
        return all(
            math.isclose(self.coefficient(*k), other.coefficient(*k), rel_tol=rtol, abs_tol=atol)
            for k in keys
        )

    def __repr__(self):
        if not self._coeffs:
            return "BivariatePolynomial(0)"
        parts = [f"{c:+g}*lam^{m}*n^{l}" for (m, l), c in self.terms()]
        return f"BivariatePolynomial({' '.join(parts)})"


def apply_generator(params: HawkesParams, poly: BivariatePolynomial) -> BivariatePolynomial:
    """Image of a polynomial test function under the generator, in canonical form.

    Binomially expands lambda (lambda+alpha)^m (n+1)^l; the top term
    lambda^{m+1} n^l cancels exactly against the compensator, which is what
    closes the moment system at each total degree.
    """
    alpha, beta, lam_inf = params.alpha, params.beta, params.lambda_inf
    out: dict[tuple[int, int], float] = {}

    def add(key, c):
        out[key] = out.get(key, 0.0) + c

    for (m, l), c in poly.terms():
        if m == MAX_EXPONENT and l >= 1:
            raise ValueError(
                f"lambda exponent {m} with n exponent >= 1 leaves no headroom "
                f"for the generator image (cap {MAX_EXPONENT})"
            )
        for j in range(m + 1):
            for k in range(l + 1):
                add((j + 1, k), c * math.comb(m, j) * math.comb(l, k) * alpha ** (m - j))
        add((m + 1, l), -c)
        if m >= 1:
            add((m - 1, l), c * m * beta * lam_inf)
            add((m, l), -c * m * beta)
    return BivariatePolynomial(out)


def moment_ode_rhs(params: HawkesParams, index) -> BivariatePolynomial:
    """Right-hand side of d/dt E[lambda^m N^l], as a polynomial in (lambda, n).

    This is exactly apply_generator on the corresponding monomial; the
    expectation is taken term by term when the ODE system is assembled.
    """
    m, l = _as_exponents(index)
    return apply_generator(params, BivariatePolynomial.monomial(m, l))


def moment_closure(params: HawkesParams, indices: Iterable) -> list[tuple[int, int]]:
    """Smallest index set containing ``indices`` closed under the ODE dependencies.

    Ordered by (total degree, m, l).  Terminates because the generator image
    of lambda^m n^l only references total degrees <= m + l.
    """
    seen: set[tuple[int, int]] = set()
    stack = [_as_exponents(ix) for ix in indices]
    while stack:
        ix = stack.pop()
        if ix in seen:
            continue
        seen.add(ix)
        for dep in moment_ode_rhs(params, ix).coefficients:
            if dep not in seen:
                stack.append(dep)
    return sorted(seen, key=lambda t: (t[0] + t[1], t[0], t[1]))


def integrate_moments(
    params: HawkesParams,
    indices: Iterable,
    t: float,
    *,
    initial_intensity_moments: Mapping[int, float] | None = None,
) -> dict[tuple[int, int], float]:
    """Mixed moments E[lambda_t^m N_t^l] by solving the closed linear system.

    The requested indices are completed to their dependency closure; the
    system y' = A y has constant coefficients, so y(t) = expm(A t) y0 exactly
    up to rounding.  The default initial condition is the deterministic start
    E[lambda_0^m N_0^l] = lambda0^m [l = 0]; passing
    ``initial_intensity_moments`` ({m: E[lambda_0^m]}) instead starts from a
    random initial intensity with N_0 = 0, e.g. the stationary intensity law.
    """
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    requested = [_as_exponents(ix) for ix in indices]
    closed = moment_closure(params, requested)
    pos = {ix: i for i, ix in enumerate(closed)}

    A = np.zeros((len(closed), len(closed)))
    for ix in closed:
        for dep, c in moment_ode_rhs(params, ix).coefficients.items():
            A[pos[ix], pos[dep]] += c

    y0 = np.empty(len(closed))
    for (m, l), i in pos.items():
        if l != 0:
            y0[i] = 0.0
        elif initial_intensity_moments is not None:
            y0[i] = 1.0 if m == 0 else float(initial_intensity_moments[m])
        else:
            y0[i] = params.lambda0**m

    # imported here: no command-line path solves the ODE, and scipy is most
    # of a short process's start-up
    from scipy.linalg import expm

    y = expm(A * t) @ y0
    return {ix: float(y[pos[ix]]) for ix in requested}


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
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
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
                    * -np.expm1(-j * beta * length) / (j * beta))
        total += c * float(n**l @ acc)
    return total
