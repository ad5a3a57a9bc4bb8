"""Element-wise libm for code that must reproduce scalar Python math bit for bit.

numpy's SIMD pow, exp, expm1 and log differ from libm in the last bit on
up to several percent of inputs (on an AVX-512 x86-64 machine: exp 4.6%,
expm1 8.5%, pow 5.3%, log 0.2% of uniform draws), so an array path that has
to equal a scalar reference calls the scalar functions on every element.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

# |x ** n| below this (as numpy's pow computes it, within a few ulp of
# libm's) cannot overflow in libm either
_NO_OVERFLOW = 2.0**1000


def elementwise(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` (math.log, math.exp, ...) of every element of the contiguous
    1-D float64 ``x``."""
    return np.fromiter(map(fn, memoryview(x)), np.float64, x.size)


def power(x, n: int):
    """math.pow(x, n) of the float ``x`` or of every element of the 1-D
    float64 array ``x``, with NaN where that raises: on overflow, and for 0
    to a negative power.

    Unlike the inf numpy would give, the NaN stays non-finite through any
    later arithmetic, division included, so a caller can map every point
    where the scalar code raised by testing its result for finiteness.
    """
    if np.ndim(x) == 0:
        return _pow_or_nan(x, n)
    with np.errstate(all="ignore"):
        risky = ~(np.abs(np.power(x, n)) < _NO_OVERFLOW)
    out = np.fromiter(map(math.pow, memoryview(np.where(risky, 1.0, x)), repeat(n)),
                      np.float64, x.size)
    # near or past overflow, NaN, or 0 to a negative power: one at a time
    for i in risky.nonzero()[0].tolist():
        out[i] = _pow_or_nan(x[i], n)
    return out


def _pow_or_nan(x: float, n: int) -> float:
    try:
        return math.pow(x, n)
    except (OverflowError, ValueError):
        return math.nan
