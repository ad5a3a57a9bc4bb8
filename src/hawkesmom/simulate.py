"""Exact trajectory generation and windowed increment extraction.

Two independent constructions of the same law are provided:

* simulate_exact -- interarrival composition for the Markov intensity, the
  exact scheme of Dassios & Zhao (2013): the time to the next event is the
  minimum of an arrival from the constant base level and an arrival from
  the exponentially decaying excess, both sampled by inversion (no thinning
  rejection in the usual case lambda >= lambda_inf).
* simulate_cluster -- the branching construction: immigrants from the
  inhomogeneous Poisson process with the deterministic rate
  lambda_inf + (lambda0 - lambda_inf) e^{-beta t}, each point spawning a
  Poisson number of offspring with displacement density proportional to
  e^{-beta s}, generation by generation.

Each call owns its RNG (PCG64 seeded from the given integer), so calls with
distinct seeds may run concurrently.  simulate_batch draws path i from seed
seed + i and returns the paths in index order; each is bit for bit what the
single-path sampler gives for that seed.  For the exact method it steps
groups of paths in lockstep: every path keeps its own generator, draws its
uniforms in blocks, and one vectorised step per loop iteration repeats
simulate_exact's float operations in its order, with libm's log and exp
(math.log, math.exp) rather than numpy's, whose last bit can differ.

A batch of more than one group is spread over the available CPUs by
_fork.in_slices: each forked child samples a contiguous slice of groups
with the same code and writes its raw times and intensities into its
temporary file.  A path depends only on its seed, so the output bytes do
not depend on the CPU count; a batch of at most _GROUP paths (validate's
K = 20, say) stays in one process.

The samplers build their EventSequences without re-checking the times;
simulate_exact's and the lockstep's are nondecreasing and within
[0, horizon] by construction.  simulate_cluster keeps the checks: an
offspring time is a rounded T - ln(1 - U F) / beta, which is not bounded by
the horizon to the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fork import available_cpus, in_slices
from ._libm import elementwise
from .core import EventSequence, HawkesParams, _times, post_jump_intensities
from .errors import CapacityExceeded, WindowOutOfRange

__all__ = [
    "DEFAULT_EVENT_CAP",
    "Trajectory",
    "IncrementSample",
    "simulate_exact",
    "simulate_cluster",
    "sampler",
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


def _check_horizon(horizon: float) -> None:
    """Reject a horizon before any sampling: NaN or infinity would run to the cap."""
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")


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
    _check_horizon(horizon)
    events, post = _run_exact(np.random.default_rng(seed), params, horizon, cap,
                              0.0, params.lambda0)
    seq = EventSequence._sampled(np.asarray(events), horizon, unit)
    return Trajectory(events=seq, intensity_at_events=np.asarray(post), seed=seed)


def _run_exact(rng, params: HawkesParams, horizon: float, cap: int, t: float, lam: float,
               recorded: int = 0) -> tuple[list[float], list[float]]:
    """simulate_exact's loop from time t and intensity lam, on a path that
    already holds ``recorded`` events; returns the new events and post-jump
    intensities."""
    alpha, beta, lam_inf = params.alpha, params.beta, params.lambda_inf
    room = cap - recorded
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
        if len(events) > room:
            raise CapacityExceeded(
                f"trajectory exceeded {cap} events before t={t:.6g} (horizon {horizon})"
            )
    return events, post


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
    _check_horizon(horizon)
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


def sampler(method: str):
    """The single-path sampler for ``method``: "exact" or "cluster"."""
    if method == "exact":
        return simulate_exact
    if method == "cluster":
        return simulate_cluster
    raise ValueError(f"unknown simulation method {method!r}")


# Paths stepped together: bounds the live generators and the per-path
# arrays that grow at the same time.
_GROUP = 250
# Below this many live paths a numpy step costs more than the scalar loop,
# which then finishes the paths from where they stand.
_MIN_LOCKSTEP = 12
# A path's first block holds _FIRST_BLOCK loop iterations (two uniforms
# each); later blocks double, up to _BLOCK_CELLS path-iterations across the
# live paths, so short paths waste few draws and the block buffers stay small.
_FIRST_BLOCK = 4
_BLOCK_CELLS = 1 << 14
# uniforms logged per call: the temporary stays small
_LOG_SLICE = 4096


def _append(arr: np.ndarray, values) -> None:
    """Extends ``arr``, which owns its data, in place by ``values``.

    realloc grows a path's array where it lies when it can, so no list of
    pieces is kept and then copied into one array at the end."""
    old = arr.size
    arr.resize(old + len(values), refcheck=False)
    arr[old:] = values


def _lockstep(params: HawkesParams, horizon: float, seeds: range, cap: int) -> list:
    """simulate_exact's loop for every seed at once: one numpy step per loop
    iteration, across the live paths.

    Each path draws its uniforms from its own generator in blocks, two per
    iteration, and every step repeats simulate_exact's float operations in
    its order, so each path is bit for bit simulate_exact's.  A path that
    crosses the horizon mid-block runs on to the block's end and its steps
    past the horizon are dropped.  At a block's end every live generator
    stands where simulate_exact's would, so once fewer than _MIN_LOCKSTEP
    paths are live, _run_exact finishes them.

    Returns one (times, post-jump intensities) pair per seed, or None for a
    path whose block held an exact 0: simulate_exact redraws it, which
    shifts the rest of its stream, so the caller runs simulate_exact there.
    """
    alpha, beta, lam_inf = params.alpha, params.beta, params.lambda_inf
    rngs = [np.random.default_rng(s) for s in seeds]
    # per path: its times and post-jump intensities so far (None: handed back)
    found_t = [np.empty(0) for _ in seeds]
    found_lam = [np.empty(0) for _ in seeds]
    ids = np.arange(len(seeds))  # the live paths
    t = np.zeros(ids.size)
    lam = np.full(ids.size, params.lambda0)
    deficit = params.lambda0 < lam_inf  # once no path is below the base level, none returns
    size = _FIRST_BLOCK
    # one buffer each for the uniforms and the two record arrays, reused by
    # every block so that blocks leave no holes in the heap
    cells = max(_FIRST_BLOCK * ids.size, _BLOCK_CELLS)
    buf_u, buf_t, buf_lam = np.empty(2 * cells), np.empty(cells), np.empty(cells)
    while ids.size >= _MIN_LOCKSTEP:
        # row k holds the block's draws for path ids[k]: u1, u2 of iteration j
        # at columns 2j and 2j + 1
        u = buf_u[:2 * size * ids.size].reshape(ids.size, 2 * size)
        for row, i in zip(u, ids):
            rngs[i].random(out=row)
        clean = u.all(axis=1)
        if not clean.all():
            for i in ids[~clean]:
                found_t[i] = found_lam[i] = None
            kept = u[clean]
            ids, t, lam = ids[clean], t[clean], lam[clean]
            u = buf_u[:kept.size].reshape(kept.shape)
            u[...] = kept
        if deficit:
            u2 = u[:, 1::2].copy()
        logs = u  # in place, in slices, so no block-sized temporary
        flat = logs.reshape(-1)
        for lo in range(0, flat.size, _LOG_SLICE):
            flat[lo:lo + _LOG_SLICE] = elementwise(math.log, flat[lo:lo + _LOG_SLICE])
        if deficit:
            w = logs[:, 0::2] / -lam_inf
        logs[:, 0::2] *= beta  # beta ln(u1)
        logs[:, 1::2] /= -lam_inf  # s2 = -ln(u2) / lambda_inf
        # row j: every live path's time and intensity after iteration j
        rec_t = buf_t[:size * ids.size].reshape(size, ids.size)
        rec_lam = buf_lam[:size * ids.size].reshape(size, ids.size)
        for j in range(size):
            excess = lam - lam_inf
            # excess > 0: inversion; excess == 0 makes d = -inf, so s = s2
            d = logs[:, 2 * j] / excess
            d += 1.0
            s = logs[:, 2 * j + 1]
            ok = (d > 0.0).nonzero()[0]
            if ok.size:
                s1 = np.full(ids.size, np.inf)
                s1[ok] = elementwise(math.log, d[ok]) / -beta
                s = np.minimum(s1, s)
            if deficit:
                below = excess < 0.0
                deficit = bool(np.count_nonzero(below))
                s = np.where(below, w[:, j], s)
            t = np.add(t, s, out=rec_t[j])
            lam_here = excess * elementwise(math.exp, s * -beta)
            lam_here += lam_inf
            lam = np.add(lam_here, alpha, out=rec_lam[j])
            if deficit:
                # thinning against lambda_inf: a rejected proposal records no event
                accept = ~below | (u2[:, j] * lam_inf <= lam_here)
                t = t.copy()
                rec_t[j, ~accept] = np.nan
                lam = rec_lam[j] = np.where(accept, lam, lam_here)
        # copy each path's events up to the horizon (a rejection's NaN fails
        # the test too) out of the buffers, onto the path's own arrays
        found = rec_t.T <= horizon
        per_path = np.count_nonzero(found, axis=1)
        block_t, block_lam = rec_t.T[found], rec_lam.T[found]
        ends = np.cumsum(per_path)
        for k in per_path.nonzero()[0].tolist():
            i, n, end = ids[k], per_path[k], ends[k]
            _append(found_t[i], block_t[end - n:end])
            _append(found_lam[i], block_lam[end - n:end])
            if found_t[i].size > cap:
                raise CapacityExceeded(
                    f"trajectory exceeded {cap} events before t={found_t[i][cap]:.6g} "
                    f"(horizon {horizon})"
                )
        live = t <= horizon
        ids, t, lam = ids[live], t[live], lam[live]
        size = min(2 * size, max(_FIRST_BLOCK, _BLOCK_CELLS // max(ids.size, 1)))
    for i, t_i, lam_i in zip(ids.tolist(), t.tolist(), lam.tolist()):
        tail = _run_exact(rngs[i], params, horizon, cap, t_i, lam_i, found_t[i].size)
        _append(found_t[i], tail[0])
        _append(found_lam[i], tail[1])
    return [None if t_i is None else (t_i, lam_i) for t_i, lam_i in zip(found_t, found_lam)]


def _sample_slice(params: HawkesParams, horizon: float, seeds: range, method: str,
                  cap: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(times, post-jump intensities) of the path of each seed, in seed order,
    sampled a group of _GROUP paths at a time.

    The exact method steps each group in lockstep (see _lockstep); a path
    it hands back, and every path of another method, is drawn by the
    single-path sampler.
    """
    out = []
    for lo in range(seeds.start, seeds.stop, _GROUP):
        group = range(lo, min(lo + _GROUP, seeds.stop))
        if method == "exact":
            # excess == 0 divides by zero on purpose; a tiny excess may overflow d
            with np.errstate(divide="ignore", over="ignore"):
                paths = _lockstep(params, horizon, group, cap)
        else:
            paths = [None] * len(group)
        for s, path in zip(group, paths):
            if path is None:
                traj = sampler(method)(params, horizon, s, cap=cap)
                path = (traj.events.times, traj.intensity_at_events)
            out.append(path)
    return out


def _write_paths(out, paths) -> None:
    """One int64 event count per path, every path's times and then every
    path's post-jump intensities, all float64."""
    out.write(np.array([t.size for t, _ in paths], dtype=np.int64))
    for column in (0, 1):
        for path in paths:
            out.write(path[column])


def _read_paths(file, n_paths: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The paths _write_paths wrote, as views into one times array and one
    intensity array."""
    ends = np.cumsum(np.fromfile(file, np.int64, n_paths)).tolist()
    times, post = np.fromfile(file).reshape(2, -1)
    return [(times[a:b], post[a:b]) for a, b in zip([0] + ends[:-1], ends)]


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

    Path i is bit for bit sampler(method)(params, horizon, seed + i), in
    its times and its post-jump intensities, and the results are ordered by
    path index.  The exact method runs the paths in groups of _GROUP, each
    group in lockstep (see _lockstep), so one numpy step advances every live
    path of the group by one interarrival; a path whose uniform block holds
    an exact 0 is drawn by simulate_exact instead.

    The groups are split into one contiguous slice per available CPU (see
    _fork.in_slices): a forked child samples each slice after the first
    while this process samples the first, and the children's paths are
    read back from their temporary files in slice order.  A path depends
    only on its seed, so the output does not depend on the CPU count; a
    batch of one group (at most _GROUP paths) never forks.  Any path over
    ``cap`` events raises CapacityExceeded; an exception in a child is
    raised here, the one the lowest-index failing group raises, as in one
    process.  Every child is reaped before the call returns or raises.
    """
    _check_horizon(horizon)
    sampler(method)  # an unknown method fails before any fork
    groups = -(-n_paths // _GROUP)
    workers = max(1, min(available_cpus(), groups))
    bounds = [seed + min(n_paths, _GROUP * (groups * k // workers)) for k in range(workers + 1)]
    paths = []

    def sample(lo, hi, out):
        sampled = _sample_slice(params, horizon, range(lo, hi), method, cap)
        if out is None:
            paths.extend(sampled)
        else:
            _write_paths(out, sampled)

    in_slices(bounds, sample, lambda lo, hi, file: paths.extend(_read_paths(file, hi - lo)),
              "sampling seeds")
    return [Trajectory(events=EventSequence._sampled(times, horizon, unit),
                       intensity_at_events=post, seed=seed + i)
            for i, (times, post) in enumerate(paths)]


def windowed_counts(events, t0: float, delta: float, count: int) -> IncrementSample:
    """Event counts in ``count`` consecutive half-open windows starting at t0.

    counts[j] = N_{t_j + delta} - N_{t_j} with t_j = t0 + j delta; windows
    must fit inside the observation horizon.
    """
    if t0 < 0.0 or delta <= 0.0 or count < 1:
        raise WindowOutOfRange(
            f"need t0 >= 0, delta > 0, count >= 1; got t0={t0}, delta={delta}, count={count}"
        )
    times = _times(events)
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
