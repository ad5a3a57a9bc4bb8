"""Infinitesimal generator of the Markov pair (lambda_t, N_t) on polynomials.

For test functions k(lambda, n) = g(lambda) f(n) the generator acts as

    A k = lambda [f(n+1) g(lambda+alpha) - f(n) g(lambda)]
          + f(n) g'(lambda) beta (lambda_inf - lambda),

so on the monomial lambda^m n^l:

    A[lambda^m n^l] = lambda (lambda+alpha)^m (n+1)^l - lambda^{m+1} n^l
                      + m beta lambda_inf lambda^{m-1} n^l
                      - m beta lambda^m n^l.

A polynomial is a BivariatePolynomial, a table {(m, l): c} of finite
coefficients, and apply_generator is the one function that maps it to its
image.  Taking expectations of the image of lambda^m n^l gives the
right-hand side of d/dt E[lambda_t^m N_t^l], so the mixed moments solve a
closed linear ODE system; this module assembles that system mechanically
from apply_generator and solves it by the matrix exponential, so the moment
equations have a single source of truth.

The image of lambda^m n^l reaches only lower total degrees and
lambda^{m+1} n^{l-1}.  In moment_closure's one order, (total degree
descending, m, l), the system's matrix is therefore upper triangular, with
diagonal -m kappa and non-negative entries above it.  The exponential
exploits that: Pade 13 with scaling and squaring (Higham 2005), whose
diagonal and first superdiagonal are set to their exact values after the
Pade step and after every squaring (Al-Mohy & Higham 2009).  It needs numpy
only, and every moment comes out within a few units in the last place of
the exact exponential.
"""

from __future__ import annotations

import functools
import math
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from ._libm import elementwise
from .core import HawkesParams

__all__ = [
    "MAX_EXPONENT",
    "BivariatePolynomial",
    "apply_generator",
    "moment_closure",
    "integrate_moments",
]

# Exponent cap: only moments up to order 3 are needed; 8 gives test headroom
# while keeping binomial expansions free of coefficient blow-up.
MAX_EXPONENT = 8


def _as_exponents(key) -> tuple[int, int]:
    """``key`` as the exponent pair (m, l) of the mixed moment E[lambda^m N^l],
    each an integer in [0, MAX_EXPONENT]."""
    m, l = key
    m, l = int(m), int(l)
    if (m, l) != tuple(key) or m < 0 or l < 0 or m > MAX_EXPONENT or l > MAX_EXPONENT:
        raise ValueError(f"exponents must be integers in [0, {MAX_EXPONENT}], got {key!r}")
    return m, l


class BivariatePolynomial:
    """Real-coefficient polynomial sum_{m,l} c_{m,l} lambda^m n^l, held as its
    table {(m, l): c} of finite nonzero coefficients, exponents capped at
    MAX_EXPONENT."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping):
        clean: dict[tuple[int, int], float] = {}
        for key, c in coeffs.items():
            c = float(c)
            if c != 0.0:
                key = _as_exponents(key)
                if not math.isfinite(c):
                    raise ValueError(f"coefficient of exponents {key} must be finite, got {c}")
                clean[key] = c
        self._coeffs = clean

    @classmethod
    def _in_range(cls, coeffs: dict) -> "BivariatePolynomial":
        """From float coefficients whose nonzero ones have valid exponents;
        unchecked, so an overflowed generator image keeps its inf."""
        poly = cls.__new__(cls)
        poly._coeffs = {key: c for key, c in coeffs.items() if c != 0.0}
        return poly

    @classmethod
    def monomial(cls, m: int, l: int) -> "BivariatePolynomial":
        return cls({(m, l): 1.0})

    @property
    def coefficients(self) -> dict[tuple[int, int], float]:
        return dict(self._coeffs)

    def terms(self):
        """Iterate ((m, l), coeff) in a deterministic order."""
        return iter(sorted(self._coeffs.items()))

    def evaluate(self, lam: float, n: float) -> float:
        return float(sum(c * lam**m * n**l for (m, l), c in self._coeffs.items()))

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
    for (m, l), c in poly.terms():
        if m == MAX_EXPONENT and l >= 1:
            raise ValueError(
                f"lambda exponent {m} with n exponent >= 1 leaves no headroom "
                f"for the generator image (cap {MAX_EXPONENT})"
            )
        for j in range(m + 1):
            try:
                power = alpha ** (m - j)
            except OverflowError:  # float ** raises where * gives inf: keep the inf
                power = math.inf
            for k in range(l + 1):
                key = (j + 1, k)
                out[key] = out.get(key, 0.0) + c * math.comb(m, j) * math.comb(l, k) * power
        out[m + 1, l] = out.get((m + 1, l), 0.0) - c
        if m >= 1:
            out[m - 1, l] = out.get((m - 1, l), 0.0) + c * m * beta * lam_inf
            out[m, l] = out.get((m, l), 0.0) - c * m * beta
    # every key is in range once the lambda^{m+1} n^l terms have cancelled
    return BivariatePolynomial._in_range(out)


def _closure_images(params: HawkesParams, indices: Iterable) -> dict:
    """Generator image coefficients of every index in the dependency closure."""
    images: dict[tuple[int, int], dict[tuple[int, int], float]] = {}
    stack = [_as_exponents(ix) for ix in indices]
    while stack:
        ix = stack.pop()
        if ix in images:
            continue
        # the image of the monomial lambda^m n^l, with ix already checked
        images[ix] = apply_generator(params, BivariatePolynomial._in_range({ix: 1.0}))._coeffs
        stack.extend(dep for dep in images[ix] if dep not in images)
    return images


def _solve_order(ix: tuple[int, int]) -> tuple[int, int, int]:
    """Sort key of the moment system: (total degree descending, m, l)."""
    m, l = ix
    return -m - l, m, l


def moment_closure(params: HawkesParams, indices: Iterable) -> list[tuple[int, int]]:
    """Smallest index set containing ``indices`` closed under the ODE dependencies.

    Ordered by (total degree descending, m, l): the rows of the cached
    _triangular_system, the order it is solved in.  Terminates because the
    generator image of lambda^m n^l only references total degrees <= m + l.
    """
    return list(_triangular_system(params, indices)[0])


def _triangular_system(params: HawkesParams, indices: Iterable):
    """Row of each index of the closure of ``indices``, and the ODE matrix A,
    in moment_closure's order, where A is upper triangular.  Both are
    read-only and built once per (alpha, beta, lambda_inf, indices), which
    is all they depend on: the rates are keyed by their bits, so alpha =
    -0.0 does not take alpha = 0.0's system."""
    rates = (float(params.alpha).hex(), float(params.beta).hex(),
             float(params.lambda_inf).hex())
    return _system(*rates, tuple(map(_as_exponents, indices)))


@functools.lru_cache(maxsize=64)
def _system(alpha: str, beta: str, lambda_inf: str, indices: tuple):
    """_triangular_system's rows and matrix, for rates given by float.hex."""
    images = _closure_images(HawkesParams(*map(float.fromhex, (alpha, beta, lambda_inf))),
                             indices)
    pos = {ix: i for i, ix in enumerate(sorted(images, key=_solve_order))}
    A = np.zeros((len(pos), len(pos)))
    for ix, image in images.items():
        for dep, c in image.items():
            A[pos[ix], pos[dep]] = c
    A.flags.writeable = False
    return MappingProxyType(pos), A


# Higham (2005), "The scaling and squaring method for the matrix exponential
# revisited": coefficients b_0..b_13 of the [13/13] Pade approximant, and the
# largest 1-norm at which it is accurate to double precision.
_PADE13 = np.array([
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0])
_THETA13 = 5.371920351148152
_TINY = np.finfo(float).tiny
# U = X (X^6 W_0 + W_1) and V = X^6 W_2 + W_3, where row k holds the
# coefficients of W_k on (I, X^2, X^4, X^6)
_PADE13_SUMS = np.array([[0.0, *_PADE13[9::2]], _PADE13[1:8:2],
                         [0.0, *_PADE13[8::2]], _PADE13[0:7:2]])


def _expm_triangular(T: np.ndarray) -> np.ndarray:
    """exp(T) for upper-triangular T with a non-positive diagonal and
    non-negative entries above it.

    Pade 13 with scaling and squaring (Higham 2005), where after the Pade
    step and after every squaring the diagonal and first superdiagonal are
    overwritten with their exact values for exp(2^-i T) (Al-Mohy & Higham
    2009, Code Fragment 2.1).  Near criticality the entries above the
    diagonal set the scaling while kappa t is small, so e^{-2^-s m kappa t}
    is 1 to within its rounding, and s squarings would raise that rounding
    to the power 2^s; the exact entries discard it at every level.  The
    caller silences and checks overflow (np.errstate).
    """
    n = len(T)
    norm = np.abs(T).sum(axis=0).max()
    if norm == math.inf:
        # finite entries whose column sum overflows: sum them at 2^-e, with
        # 2^e just above the largest, and add e to the sum's log2
        e = math.frexp(np.abs(T).max())[1]
        s = math.ceil(math.log2(np.ldexp(np.abs(T), -e).sum(axis=0).max() / _THETA13) + e)
    else:
        s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    where = np.concatenate((np.arange(0, n * n, n + 1), np.arange(1, n * n - n, n + 1)))
    # row j: the diagonal, then the first superdiagonal, of 2^(j-s) T
    exact = np.ldexp(T.reshape(-1)[where], np.arange(-s, 1)[:, None])
    # made exact for exp(2^(j-s) T): exp([[a, c], [0, b]]) has
    # c e^max(a,b) (1 - e^-|b-a|) / |b-a| above its diagonal, which cannot
    # overflow; a zero gap takes the limit 1 through the smallest normal gap.
    # The exps are libm's (_libm.elementwise), so they do not depend on the CPU
    a, c = exact[:, :n], exact[:, n:]
    gap = -np.maximum(np.abs(a[:, 1:] - a[:, :-1]), _TINY)
    a[...] = elementwise(math.exp, a.ravel()).reshape(a.shape)
    c *= np.maximum(a[:, :-1], a[:, 1:])
    c *= elementwise(math.expm1, gap.ravel()).reshape(gap.shape) / gap

    X = np.ldexp(T, -s)
    X2 = X @ X
    X4 = X2 @ X2
    powers = np.array((np.eye(n), X2, X4, X4 @ X2))
    W = (_PADE13_SUMS @ powers.reshape(4, n * n)).reshape(4, n, n)
    odd, V = powers[3] @ W[0::2] + W[1::2]
    U = X @ odd
    R = np.linalg.solve(V - U, V + U)
    R.flat[where] = exact[0]
    for row in exact[1:]:
        R = R @ R
        R.flat[where] = row
    return R


def integrate_moments(
    params: HawkesParams,
    indices: Iterable,
    t: float,
    *,
    initial_intensity_moments: Mapping[int, float] | None = None,
) -> dict[tuple[int, int], float]:
    """Mixed moments E[lambda_t^m N_t^l] by solving the closed linear system.

    The requested indices are completed to their dependency closure; the
    system y' = A y has constant coefficients, so y(t) = expm(A t) y0.  The
    closure is ordered by (total degree descending, m, l), which makes A
    upper triangular with diagonal -m kappa and non-negative entries above
    it; the exponential is then Pade 13 with scaling and squaring, with the
    diagonal and first superdiagonal of every squaring set to their exact
    values (see _expm_triangular).  Because exp(A t) and y0 are entrywise
    non-negative, every moment is a sum of non-negative terms and is
    computed to a few units in the last place, near criticality and for
    large kappa t alike.

    The default initial condition is the deterministic start
    E[lambda_0^m N_0^l] = lambda0^m [l = 0]; passing
    ``initial_intensity_moments`` ({m: E[lambda_0^m]}, finite, for every
    m >= 1 of the closure) instead starts from a random initial intensity
    with N_0 = 0, e.g. the stationary intensity law.
    """
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    requested = [_as_exponents(ix) for ix in indices]
    pos, A = _triangular_system(params, requested)

    y0 = np.empty(len(pos))
    for (m, l), i in pos.items():
        if l != 0:
            y0[i] = 0.0
        elif m == 0 or initial_intensity_moments is None:
            y0[i] = params.lambda0**m  # E[lambda_0^0] = 1 under either start
        elif m not in initial_intensity_moments:
            raise ValueError(f"initial_intensity_moments has no E[lambda_0^m] for m={m}")
        else:
            y0[i] = float(initial_intensity_moments[m])
            if not math.isfinite(y0[i]):
                raise ValueError(f"initial_intensity_moments[{m}] must be finite, got {y0[i]}")

    # a moment past float64's range overflows in A t or in the squarings
    with np.errstate(over="ignore", invalid="ignore"):
        At = A * t
        if np.isfinite(At).all():
            y = _expm_triangular(At) @ y0
            out = {ix: float(y[pos[ix]]) for ix in requested}
            if all(map(math.isfinite, out.values())):
                return out
    raise ValueError(f"moments overflow at t={t}: the moment system is beyond float64's range")
