"""Model parameters, intensity-path evaluation and event counting.

The conditional intensity solves

    d lambda_t = beta * (lambda_inf - lambda_t) dt + alpha * dN_t,

which between events decays exponentially toward the base level and jumps
by ``alpha`` at every event:

    lambda_t = lambda_inf + (lambda0 - lambda_inf) e^{-beta t}
               + sum_{T_k < t} alpha e^{-beta (t - T_k)}.

intensity_at evaluates this sum directly and is the reference the tests
compare against; no module here calls it, and it stays public because the
benchmark's simulate_plot check reads the intensity through it.
post_jump_intensities and intensity_on_grid share one vectorised kernel, a
doubling scan over the post-jump recurrence (see _excess_after_events), so
neither loops over events or grid points in Python; between events,
_intensity_on_blocks decays that scan's values on a block of grid times,
for intensity_on_grid and for simulate's CSV writer alike.  Its relative
error against the direct sum measured at most 5.1e-16 for beta from 1e-5
to 1e5 and for any event spacing.

Times carry no declared scale: the intensity, beta and lambda_inf are
rates per whatever step the event times count in (per minute for times in
minutes).  All functions here are pure; inputs are immutable records.

Each argument rule of the package has one owner here, which every module
calls and none copies, and one message, "{name} must be ..., got {x}":
_check_length (> 0 and finite: a window length, a horizon to sample, a grid
step, the solver's moments), _check_time (finite and >= 0: a window start,
a record's horizon, the moment ODE's t), _check_point (>= 0 with NaN
rejected and +inf kept: an evaluation point, or an array of them), _times
(a sorted time array: one-dimensional, nondecreasing, its first point an
evaluation point), _check_count (>= its least: a seed, a cap, a batch's
path count, validate's --count) and _check_finite (HawkesParams' fields, a
polynomial's coefficients, the ODE's initial intensity moments).  Only the
typed rules (HawkesParams' NegativeInput, NonPositiveBase and
ExplosionRisk) and the line-numbered or compound ones (the solver's start,
the generator's exponents, parse_events' lines) stay with their callers.
"""

from __future__ import annotations

import math
import pickle
import sys
from dataclasses import dataclass

import numpy as np

from ._libm import elementwise
from .errors import ExplosionRisk, NegativeInput, NonPositiveBase

__all__ = [
    "HawkesParams",
    "EventSequence",
    "validate_params",
    "intensity_at",
    "intensity_on_grid",
    "post_jump_intensities",
    "count_at",
]


@dataclass(frozen=True)
class HawkesParams:
    """Constants of the exponentially decaying self-exciting intensity.

    alpha       jump added to the intensity by each event (1/time)
    beta        decay rate back toward the base level (1/time)
    lambda_inf  base intensity floor (events/time)
    lambda0     intensity at time zero (events/time); defaults to lambda_inf

    Subcriticality requires beta > alpha.  alpha = 0 is admitted and reduces
    the model to an (eventually homogeneous) Poisson process.  The fields are
    converted with float() first; a non-finite one is a ValueError
    (_check_finite), and then ExplosionRisk is raised when beta <= alpha,
    NonPositiveBase when lambda_inf <= 0 and NegativeInput when alpha < 0 or
    lambda0 < 0.
    """

    alpha: float
    beta: float
    lambda_inf: float
    lambda0: float | None = None

    def __post_init__(self):
        if self.lambda0 is None:
            object.__setattr__(self, "lambda0", self.lambda_inf)
        for name in ("alpha", "beta", "lambda_inf", "lambda0"):
            object.__setattr__(self, name, _check_finite(name, getattr(self, name)))
        if self.alpha < 0.0:
            raise NegativeInput(f"alpha must be >= 0, got {self.alpha}")
        if self.lambda0 < 0.0:
            raise NegativeInput(f"lambda0 must be >= 0, got {self.lambda0}")
        if self.lambda_inf <= 0.0:
            raise NonPositiveBase(f"lambda_inf must be > 0, got {self.lambda_inf}")
        if self.beta <= self.alpha:
            raise ExplosionRisk(
                f"beta must exceed alpha for the process to be subcritical, "
                f"got beta={self.beta}, alpha={self.alpha}"
            )

    @property
    def kappa(self) -> float:
        """Rate at which the mean intensity relaxes toward lambda_star."""
        return self.beta - self.alpha

    @property
    def lambda_star(self) -> float:
        """The t -> infinity limit of E[lambda_t], beta lambda_inf / kappa,
        formed as lambda_inf (beta / kappa) where the product beta lambda_inf
        leaves float64's normal range, so it is finite wherever lambda* is."""
        product = self.beta * self.lambda_inf
        if sys.float_info.min <= product <= sys.float_info.max:
            return product / self.kappa
        return self.lambda_inf * (self.beta / self.kappa)


# the name the README, the bench and the tests call the constructor by
validate_params = HawkesParams


@dataclass(frozen=True, eq=False)
class EventSequence:
    """Sorted event timestamps and their horizon.

    Timestamps are stored as float64 on the data's own clock; a caller who
    wants another scale rescales them, EventSequence(times * f, horizon * f).
    Ties are permitted (finite-resolution data records several events at
    the same instant).  A pickled or copied sequence carries its times as
    raw float64 bytes and comes back read-only, without the checks re-run.
    """

    times: np.ndarray
    horizon: float

    def __post_init__(self):
        times = _times(self.times)
        _check_time("horizon", self.horizon)
        if times.size and not times[-1] <= self.horizon:
            raise ValueError("all times must be <= horizon")
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "horizon", float(self.horizon))

    @classmethod
    def _sampled(cls, times: np.ndarray, horizon: float) -> EventSequence:
        """A sampler's path, without __post_init__'s checks: ``times`` is a
        1-D float64 array that the sampler built nondecreasing and within
        [0, horizon], and ``horizon`` was checked before sampling."""
        seq = object.__new__(cls)
        times.setflags(write=False)
        object.__setattr__(seq, "times", times)
        object.__setattr__(seq, "horizon", float(horizon))
        return seq

    def __reduce_ex__(self, protocol):
        # the times' raw float64 bytes, which protocol 5 may send out of band
        times = np.ascontiguousarray(self.times)
        raw = pickle.PickleBuffer(times) if protocol >= 5 else times.tobytes()
        return _unpickled, (raw, self.horizon)

    def __len__(self) -> int:
        return int(self.times.size)


def _unpickled(raw, horizon: float) -> EventSequence:
    """__reduce_ex__'s sequence, unchecked: its times were checked or sampled."""
    return EventSequence._sampled(np.frombuffer(raw), horizon)


def _check_length(name: str, x: float) -> None:
    """The one length rule, for a window length, a horizon to sample, a
    grid step or the solver's moments m1, m2 and m3: > 0 and finite."""
    if not (x > 0.0 and math.isfinite(x)):
        raise ValueError(f"{name} must be > 0 and finite, got {x}")


def _check_time(name: str, x: float) -> None:
    """The one time rule, for a window start, a record's horizon or the
    moment ODE's t: finite and >= 0."""
    if not (x >= 0.0 and math.isfinite(x)):
        raise ValueError(f"{name} must be finite and >= 0, got {x}")


def _check_point(name: str, t) -> None:
    """The one evaluation-point rule, on a float or on each point of an
    array (reporting the least): >= 0, so NaN fails and +inf passes."""
    if not (np.all(t >= 0.0) if isinstance(t, np.ndarray) else t >= 0.0):
        raise ValueError(f"{name} must be >= 0, got {np.min(t)}")


def _check_count(name: str, n, least: int) -> None:
    """The one count rule, for a seed (least 0), a cap (1), a batch's n_paths
    (0) and validate's --count (2): only n < least fails, so a float cap,
    inf or NaN, passes as a cap that never binds."""
    if n < least:
        raise ValueError(f"{name} must be >= {least}, got {n}")


def _check_finite(name: str, x) -> float:
    """The one finite rule, for HawkesParams' fields, a polynomial's
    coefficients and the moment ODE's initial intensity moments: x as a
    float, a ValueError unless finite."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


# points per block: the per-block temporaries stay near 64 kB each
_GRID_BLOCK = 8192


def _times(events, name: str = "times") -> np.ndarray:
    """An EventSequence's times, or a raw array as float64, a ValueError
    unless one-dimensional, nondecreasing and with a first point that
    passes _check_point (so NaN-free): the one sorted-time-array check, on
    event times and on intensity_on_grid's grid.  The order is checked a
    _GRID_BLOCK at a time, so no temporary is the array's size."""
    if isinstance(events, EventSequence):
        return events.times
    times = np.asarray(events, dtype=np.float64)
    if times.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    for lo in range(0, times.size, _GRID_BLOCK):
        if not np.all(np.diff(times[max(lo - 1, 0):lo + _GRID_BLOCK]) >= 0.0):
            raise ValueError(f"{name} must be nondecreasing")
    if times.size:
        _check_point(name, times[0])
    return times


def intensity_at(params: HawkesParams, events, t: float) -> float:
    """Conditional intensity at time t, by direct O(k) summation.

    Left-continuous convention: events at exactly t are excluded, so this
    is the pre-jump value lambda(t-).  Its exps are libm's
    (_libm.elementwise), so the value does not depend on the CPU.
    """
    _check_point("t", t)
    times = _times(events)
    k = np.searchsorted(times, t, side="left")
    base = params.lambda_inf + (params.lambda0 - params.lambda_inf) * math.exp(-params.beta * t)
    if k == 0:
        return base
    decay = elementwise(math.exp, -params.beta * (t - times[:k]))
    return base + params.alpha * float(decay.sum())


def _excess_after_events(params: HawkesParams, times: np.ndarray) -> np.ndarray:
    """lambda(T_k+) - lambda_inf at every event, by a doubling scan.

    The excess follows E_k = a_k E_{k-1} + alpha with a_k = e^{-beta (T_k -
    T_{k-1})}, T_0 = 0 and E_0 = lambda0 - lambda_inf (ties give a_k = 1,
    so each tied event adds alpha).  Affine maps compose associatively, so
    after pass s of a Hillis-Steele scan (a[k], b[k]) composes the (up to)
    2^s maps ending at event k, and ceil(log2 n) numpy passes give every
    E_k.  Every a_k <= 1, so nothing can overflow; a_k is libm's exp (see
    _libm), so the result does not depend on the CPU.
    """
    if times.size == 0:
        return np.empty(0)
    a = elementwise(math.exp, -params.beta * np.diff(times, prepend=0.0))
    b = np.full(times.size, params.alpha)
    b[0] += a[0] * (params.lambda0 - params.lambda_inf)
    span = 1
    while span < times.size:
        b[span:] += a[span:] * b[:-span]
        a[span:] *= a[:-span]
        span *= 2
    return b


def post_jump_intensities(params: HawkesParams, events) -> np.ndarray:
    """Post-jump intensity lambda(T_k+) at every event.

    Agrees with intensity_at(...) + alpha to floating-point accuracy.
    """
    return params.lambda_inf + _excess_after_events(params, _times(events))


def _intensity_on_blocks(params: HawkesParams, events):
    """The path's intensity as a function of a nondecreasing block of grid
    times t >= 0, left-continuous at events; unchecked.

    The scan of the events (see _excess_after_events) runs once, here.  Each
    call then decays, at every t of its block, the post-jump excess of the
    last event before t (or the initial excess at time 0): one searchsorted
    and one libm exp (see _libm), with temporaries the size of the block.
    ``out``, when given, receives the values.
    """
    times = _times(events)
    excess = np.concatenate(([params.lambda0 - params.lambda_inf],
                             _excess_after_events(params, times)))
    since = np.concatenate(([0.0], times))

    def on_block(t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        k = np.searchsorted(times, t, side="left")
        decay = elementwise(math.exp, (since[k] - t) * params.beta)
        out = np.multiply(decay, excess[k], out=out)
        out += params.lambda_inf
        return out

    return on_block


def intensity_on_grid(params: HawkesParams, events, grid) -> np.ndarray:
    """Intensity on a nondecreasing grid of times t >= 0, left-continuous at
    events.

    The grid passes _times' check and is evaluated in blocks of _GRID_BLOCK
    points, so beside the returned array the temporaries stay small for any
    grid.
    """
    grid = _times(grid, "grid")
    on_block = _intensity_on_blocks(params, events)
    out = np.empty(grid.size)
    for lo in range(0, grid.size, _GRID_BLOCK):
        on_block(grid[lo:lo + _GRID_BLOCK], out=out[lo:lo + _GRID_BLOCK])
    return out


def count_at(events, t):
    """Number of events with T_k <= t (right-continuous counting).

    A scalar t gives an int; an array of times gives an int array of the
    same shape.
    """
    t = np.asarray(t, dtype=np.float64)
    _check_point("t", t)
    counts = np.searchsorted(_times(events), t, side="right")
    return int(counts) if counts.ndim == 0 else counts
