"""Element-wise libm for array code whose results must not depend on numpy's
SIMD dispatch.

numpy's SIMD exp, expm1 and log differ from libm in the last bit on up to
several percent of inputs (on an AVX-512 x86-64 machine: exp 4.6%, expm1
8.5%, log 0.2% of uniform draws), and which implementation runs depends on
the CPU.  The lockstep sampler calls libm on every element so that a batch
path equals the single-path sampler bit for bit; the window-shape functions
behind the moment closed forms do so that their values do not depend on the
CPU.
"""

from __future__ import annotations

import numpy as np


def elementwise(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` (math.log, math.exp, ...) of every element of the contiguous
    1-D float64 ``x``."""
    return np.fromiter(map(fn, memoryview(x)), np.float64, x.size)
