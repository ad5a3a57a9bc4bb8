"""Exact trajectory generation and windowed increment extraction.

Two independent constructions of the same law are provided:

* simulate_exact -- interarrival composition for the Markov intensity: the
  time to the next event is the minimum of an arrival from the constant
  base level and an arrival from the exponentially decaying excess, both
  sampled by inversion (no thinning rejection in the usual case
  lambda >= lambda_inf).
* simulate_cluster -- the branching construction: immigrants from the
  inhomogeneous Poisson process with the deterministic rate
  lambda_inf + (lambda0 - lambda_inf) e^{-beta t}, each point spawning a
  Poisson number of offspring with displacement density proportional to
  e^{-beta s}, generation by generation.

Each call owns its RNG (PCG64 seeded from the given integer), so calls with
distinct seeds may run concurrently; batch helpers use seeds seed + i and
return results ordered by path index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EventSequence, HawkesParams, post_jump_intensities
from .errors import CapacityExceeded, WindowOutOfRange

__all__ = [
    "DEFAULT_EVENT_CAP",
    "Trajectory",
    "IncrementSample",
    "simulate_exact",
    "simulate_cluster",
    "simulate_batch",
    "windowed_counts",
]

# Guards memory near criticality (expected count ~ horizon * lambda* blows up
# as beta - alpha -> 0).
DEFAULT_EVENT_CAP = 10_000_000


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One simulated path: events plus the post-jump intensity at each event."""

    events: EventSequence
    intensity_at_events: np.ndarray
    seed: int


@dataclass(frozen=True, eq=False)
class IncrementSample:
    """Counts over consecutive half-open windows [t0 + j delta, t0 + (j+1) delta)."""

    t0: float
    delta: float
    counts: np.ndarray


def _redraw_nonzero(rng) -> float:
    """Next nonzero uniform draw.

    Used as ``rng.random() or _redraw_nonzero(rng)``: a draw of exactly 0,
    whose log is undefined, is replaced by the next nonzero one, and every
    other draw leaves the stream as it was.
    """
    u = rng.random()
    while u == 0.0:
        u = rng.random()
    return u


def simulate_exact(
    params: HawkesParams,
    horizon: float,
    seed: int,
    *,
    cap: int = DEFAULT_EVENT_CAP,
    unit: str = "unitless",
) -> Trajectory:
    """Draw one path from the exact law of the process on [0, horizon].

    From the current intensity value lam, draw u1, u2 uniform and set

        d  = 1 + beta ln(u1) / (lam - lambda_inf)
        s1 = -ln(d) / beta     if d > 0 else infinity
        s2 = -ln(u2) / lambda_inf

    The next interarrival is min(s1, s2) and the intensity is refreshed to
    (lam - lambda_inf) e^{-beta s} + lambda_inf + alpha.  When the state sits
    below the base level (possible only while lambda0 < lambda_inf), s1 has
    no valid inversion and the next event is drawn exactly by thinning
    against the dominating constant rate lambda_inf.
    """
    if horizon <= 0.0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    rng = np.random.default_rng(seed)
    alpha, beta, lam_inf = params.alpha, params.beta, params.lambda_inf

    t = 0.0
    lam = params.lambda0
    events: list[float] = []
    post: list[float] = []
    while True:
        excess = lam - lam_inf
        u1 = rng.random() or _redraw_nonzero(rng)
        if excess > 0.0:
            d = 1.0 + beta * math.log(u1) / excess
            s1 = -math.log(d) / beta if d > 0.0 else math.inf
            s2 = -math.log(rng.random() or _redraw_nonzero(rng)) / lam_inf
            s = min(s1, s2)
            if t + s > horizon:
                break
            t += s
            lam = lam_inf + excess * math.exp(-beta * s) + alpha
        elif excess == 0.0:
            s = -math.log(rng.random() or _redraw_nonzero(rng)) / lam_inf
            if t + s > horizon:
                break
            t += s
            lam = lam_inf + alpha
        else:
            # Deficit state: lambda(t) < lambda_inf and increasing, so the
            # constant rate lambda_inf dominates; thin proposals against it.
            w = -math.log(u1) / lam_inf
            if t + w > horizon:
                break
            t += w
            lam_here = lam_inf + excess * math.exp(-beta * w)
            if rng.random() * lam_inf <= lam_here:
                lam = lam_here + alpha
            else:
                lam = lam_here
                continue
        events.append(t)
        post.append(lam)
        if len(events) > cap:
            raise CapacityExceeded(
                f"trajectory exceeded {cap} events before t={t:.6g} (horizon {horizon})"
            )
    seq = EventSequence(np.asarray(events), horizon=horizon, unit=unit)
    return Trajectory(events=seq, intensity_at_events=np.asarray(post), seed=seed)


def _spawn_offspring(rng, parents: np.ndarray, params: HawkesParams, horizon: float):
    """One branching generation: each parent T spawns K ~ Poisson((alpha/beta) F)
    children at T - ln(1 - U F) / beta, where F = 1 - e^{-beta (horizon - T)}."""
    frac = -np.expm1(-params.beta * (horizon - parents))
    counts = rng.poisson(params.alpha / params.beta * frac)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0)
    rep_parents = np.repeat(parents, counts)
    rep_frac = np.repeat(frac, counts)
    u = rng.random(total)
    return rep_parents - np.log1p(-u * rep_frac) / params.beta


def simulate_cluster(
    params: HawkesParams,
    horizon: float,
    seed: int,
    *,
    cap: int = DEFAULT_EVENT_CAP,
    unit: str = "unitless",
) -> Trajectory:
    """Draw one path via the immigrant/offspring branching construction."""
    if horizon <= 0.0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    rng = np.random.default_rng(seed)
    alpha, beta, lam_inf, lam0 = params.alpha, params.beta, params.lambda_inf, params.lambda0

    # Immigrants: thinning against the tight constant bound max(lambda_inf,
    # lambda0) -- the deterministic rate is monotone between those levels.
    bound = max(lam_inf, lam0)
    n_prop = int(rng.poisson(bound * horizon))
    proposals = np.sort(rng.random(n_prop)) * horizon
    rate = lam_inf + (lam0 - lam_inf) * np.exp(-beta * proposals)
    immigrants = proposals[rng.random(n_prop) * bound <= rate]

    generations = [immigrants]
    frontier = immigrants
    total = immigrants.size
    while frontier.size and alpha > 0.0:
        frontier = _spawn_offspring(rng, frontier, params, horizon)
        total += frontier.size
        if total > cap:
            raise CapacityExceeded(f"cluster construction exceeded {cap} events")
        if frontier.size:
            generations.append(frontier)
    times = np.sort(np.concatenate(generations))
    seq = EventSequence(times, horizon=horizon, unit=unit)
    return Trajectory(events=seq, intensity_at_events=post_jump_intensities(params, seq), seed=seed)


def simulate_batch(
    params: HawkesParams,
    horizon: float,
    seed: int,
    n_paths: int,
    *,
    method: str = "exact",
    cap: int = DEFAULT_EVENT_CAP,
    unit: str = "unitless",
) -> list[Trajectory]:
    """n_paths independent trajectories with per-path seeds seed + i.

    Results are ordered by path index regardless of how callers schedule
    the underlying per-seed calls.
    """
    sim = {"exact": simulate_exact, "cluster": simulate_cluster}[method]
    return [sim(params, horizon, seed + i, cap=cap, unit=unit) for i in range(n_paths)]


def windowed_counts(events, t0: float, delta: float, count: int) -> IncrementSample:
    """Event counts in ``count`` consecutive half-open windows starting at t0.

    counts[j] = N_{t_j + delta} - N_{t_j} with t_j = t0 + j delta; windows
    must fit inside the observation horizon.
    """
    if t0 < 0.0 or delta <= 0.0 or count < 1:
        raise WindowOutOfRange(
            f"need t0 >= 0, delta > 0, count >= 1; got t0={t0}, delta={delta}, count={count}"
        )
    times = events.times if isinstance(events, EventSequence) else np.asarray(events, float)
    if isinstance(events, EventSequence):
        end = t0 + count * delta
        # small relative slack so a window count computed by floor() is not
        # rejected for floating-point rounding
        if end > events.horizon * (1.0 + 1e-12) + 1e-12:
            raise WindowOutOfRange(
                f"windows end at {end} beyond horizon {events.horizon}"
            )
    edges = t0 + delta * np.arange(count + 1)
    counts = np.diff(np.searchsorted(times, edges, side="left")).astype(np.int64)
    return IncrementSample(t0=float(t0), delta=float(delta), counts=counts)
