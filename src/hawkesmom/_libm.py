"""Element-wise libm for array code whose results must not depend on numpy's
SIMD dispatch.

numpy's SIMD log, exp, expm1 and log1p differ from libm in the last bit on
a share of inputs, and which implementation runs depends on the CPU.  On an
AVX-512 x86-64 machine with numpy 2.4.6, against math.*, numpy's log
differed on 3503 of 10^6 uniforms, exp on 46523 of 10^6 normal(0, 20)
draws, expm1 on 28221 of 5*10^5 normal(0, 20) draws and log1p on 38198 of
5*10^5 uniforms on (-0.999, 1.001).  The lockstep sampler takes libm's
values so that a batch path equals the single-path sampler bit for bit;
the window shapes behind the moment closed forms, the intensity kernel,
the cluster sampler and the generator's matrix exponential do so that
their values do not depend on the CPU.

numpy's float64 loops for these four functions take their SIMD path only
when they write the output forward, at any stride.  When the input runs
forward and the output backward they call libm (npy_log, npy_exp, ...) once
per element; when both run backward numpy flips them, and an array of one
element counts as contiguous, so both of those go SIMD.  elementwise
therefore has the ufunc write into a reversed view of a fresh array and
returns that view: the same values, in order, as the map over math.* on
every input above.  It took 6 ns an element for log and exp and 19 to 24
for log1p and expm1, against the map's 76 to 128 ns (best of 5 over 10^6
draws, same machine).

The rule is numpy's, not a promise, so it is probed: the first call for
each function in a process compares the route with the map on
_PROBE_SIZE fixed draws (uniforms for the logs, normal(0, 20) for the
exps), and caches the outcome in _ROUTE.  A route that differed from libm
on 0.35% of draws, as numpy's SIMD log does, would pass the probe with
probability below 1e-6.  A function whose route fails it takes the map
from then on, in that process.
"""

from __future__ import annotations

import math

import numpy as np

# the ufunc whose reversed-output loop is libm's, per math function
_UFUNCS = {math.log: np.log, math.exp: np.exp, math.expm1: np.expm1, math.log1p: np.log1p}
# per math function: its ufunc if the probe passed, None for the map
_ROUTE: dict = {}
_PROBE_SIZE = 4096


def _mapped(fn, x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, memoryview(x)), np.float64, x.size)


def _reversed_out(ufunc, x: np.ndarray) -> np.ndarray:
    out = np.empty(x.size)[::-1]
    return ufunc(x, out=out)


def _probe(fn):
    """fn's ufunc if its reversed-output route equals the map bit for bit on
    the probe's draws, else None."""
    ufunc = _UFUNCS[fn]
    rng = np.random.default_rng(0)
    if fn in (math.log, math.log1p):
        x = rng.random(_PROBE_SIZE)
    else:
        x = rng.normal(0.0, 20.0, _PROBE_SIZE)
    same = np.array_equal(_reversed_out(ufunc, x).view(np.int64), _mapped(fn, x).view(np.int64))
    return ufunc if same else None


def elementwise(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` (math.log, math.exp, math.expm1 or math.log1p) of every element
    of the 1-D float64 ``x``, bit for bit the map over ``fn``.

    The domain is the inputs whose results are all finite.  Outside it the
    two routes part: math.log(0) raises ValueError and math.exp(1000)
    OverflowError, where numpy returns -inf or inf (and warns, under its
    errstate), so which route ran would show.  The result may be a
    reversed view.
    """
    try:
        ufunc = _ROUTE[fn]
    except KeyError:
        ufunc = _ROUTE[fn] = _probe(fn)
    if ufunc is None or x.size < 2:  # numpy runs one element as contiguous
        return _mapped(fn, x)
    # a backward input, such as this function's own result, would be flipped
    # with the output, onto the SIMD path
    return _reversed_out(ufunc, np.ascontiguousarray(x))
