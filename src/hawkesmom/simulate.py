"""Exact trajectory generation, one path or a seeded batch of paths.

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
  e^{-beta s}, generation by generation.  Its exp, expm1 and log1p are
  libm's (_libm.elementwise), so its paths do not depend on the CPU.

Each call owns its RNG (PCG64 seeded from the given integer), so calls with
distinct seeds may run concurrently.  Every generator of both samplers
comes from one seam, _seeding.generators, which gives
np.random.default_rng(seed)'s generator bit for bit and seeds a lockstep
group's in one numpy pass.  While the intensity sits below the base level a
path thins (_base_level_start, the one deficit start), reading one
rng.random() per draw and its accept draws raw, so the generator never
runs ahead of it.  Above the base level (_run_exact) it reads the stream in
blocks the generator draws at once, the same stream as one rng.random()
per draw: every block of n draws is the stream's next n nonzero draws, an
exact 0 skipped in place (_skip_zeros), and numpy takes their logs, two per
event, scaled as the recurrence uses them, and the base level's decay
exp(-beta s2) (_log_pairs); Python runs only the recurrence in the
intensity, and calls math.log and math.exp only where the excess's arrival
can win: where excess <= -beta ln(u1) the inversion has none.  One rule
sizes the first block of every exact loop, simulate_exact's, a lockstep
group's and a tail's: two draws per event the path is expected to find
(_first_block, which _run_exact calls for itself); later blocks double.

map_batch draws path i from seed seed + i, bit for bit what the
single-path sampler gives for that seed, and applies a function to each
path; simulate_batch is map_batch returning the paths themselves.  For the
exact method it steps groups of paths in lockstep: every path keeps its
own generator, draws its uniforms in blocks under the same rule, and one
vectorised step per loop iteration repeats simulate_exact's float
operations in its order, with libm's log and exp, as simulate_exact takes
them, rather than numpy's SIMD ones, whose last bit can differ.
_libm.elementwise gets them from numpy's per-element libm loop, which its
probe checks against math.* at first use in a process, or else maps math.*
over the array.  A deficit start thins first, as simulate_exact's does
(_base_level_start).  The scalar loop finishes every path once few are
live; a group of fewer than _MIN_LOCKSTEP paths is drawn by simulate_exact
alone.  A lockstep group keeps the times it finds in pieces, each with its
paths' counts, and when it ends one scatter assembles them into one array,
of which each path is a view (_assemble).

_fork.in_slices cuts a batch's seeds into slices by its expected events
(see map_batch), and _sample_slice cuts each slice into groups of _GROUP
paths and yields each path as it is drawn, a lockstep group's once the
group is assembled; each worker, this process for the first slice and a
forked child for each later one, hands each path to the function as it
comes and a child pickles only the results.  So validate fits and
envelope-counts each path in its worker, as the worker draws it, and
simulate_batch's workers return the paths, whose times pickle as their
raw bytes (EventSequence.__reduce_ex__).  A path depends only on its
seed, so the output bytes do not depend on the CPU count; validate's
K = 20 at horizon 10^4 on two CPUs, say, runs as two slices of 10 paths.

Both samplers and map_batch check the horizon, the seed and the cap by
core's length and count rules (_check_length, _check_count; seed >= 0,
cap >= 1), and map_batch its n_paths (>= 0), before any generator is made
or any child forked.  The samplers build their EventSequences without
re-checking the times; simulate_exact's and the lockstep's are
nondecreasing and within [0, horizon] by construction.  simulate_cluster
keeps the checks: an offspring time is a rounded T - ln(1 - U F) / beta,
which is not bounded by the horizon to the last bit.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass, replace

import numpy as np

from ._fork import in_slices, record_warnings, replay_warnings
from ._libm import elementwise
from ._seeding import generators
from .core import EventSequence, HawkesParams, _check_count, _check_length
from .errors import CapacityExceeded
from .moments import mean_count

__all__ = [
    "DEFAULT_EVENT_CAP",
    "Trajectory",
    "simulate_exact",
    "simulate_cluster",
    "sampler",
    "simulate_batch",
    "map_batch",
]

# Guards memory near criticality (expected count ~ horizon * lambda* blows up
# as beta - alpha -> 0).
DEFAULT_EVENT_CAP = 10_000_000


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One simulated path: its event times and the seed that drew them.

    The intensity is core's: post_jump_intensities(params, traj.events) at
    the events, intensity_on_grid(params, traj.events, grid) anywhere.
    """

    events: EventSequence
    seed: int


# the exact sampler's uniform blocks: a loop's first is _first_block's, and
# each later one twice as many draws, up to _MAX_UNIFORMS
_FIRST_UNIFORMS, _MAX_UNIFORMS = 16, 4096


def _first_block(params: HawkesParams, horizon: float, t: float, lam: float) -> int:
    """The first block, in uniforms, of an exact loop from time t <= horizon
    and intensity lam: two per event it expects by the horizon (mean_count),
    from _FIRST_UNIFORMS to _MAX_UNIFORMS.  A block of n is the same n
    floats as n calls of rng.random(), so the sizes change no path."""
    expected = mean_count(replace(params, lambda0=lam), horizon - t)
    # NaN, where lambda* overflows, takes the largest
    return max(_FIRST_UNIFORMS, 2 * math.ceil(min(_MAX_UNIFORMS // 2, expected)))


def _skip_zeros(rng, u: np.ndarray) -> np.ndarray:
    """Make ``u``, a block just drawn from ``rng``, the stream's next u.size
    nonzero draws, in place: while it holds an exact 0, its nonzero draws
    move to the front in order and ``rng`` refills the rest.  ``rng`` then
    stands just after the block's last draw."""
    while not u.all():
        kept = np.count_nonzero(u)
        u[:kept] = u[u != 0.0]
        rng.random(out=u[kept:])
    return u


def simulate_exact(
    params: HawkesParams,
    horizon: float,
    seed: int,
    *,
    cap: int = DEFAULT_EVENT_CAP,
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
    against the dominating constant rate lambda_inf.  A bad horizon, a
    negative seed or a cap below 1 is a ValueError before any draw.
    """
    _check_length("horizon", horizon)
    _check_count("seed", seed, 0)
    _check_count("cap", cap, 1)
    [rng] = generators(range(seed, seed + 1))
    t, lam, events = _base_level_start(rng, params, horizon, cap)
    if t <= horizon:
        events += _run_exact(rng, params, horizon, cap, t, lam, len(events))
    return Trajectory(EventSequence._sampled(np.asarray(events), horizon), seed)


def _capacity_exceeded(cap: int, t: float, horizon: float) -> CapacityExceeded:
    """The error for a path whose event cap + 1 falls at time t."""
    return CapacityExceeded(
        f"trajectory exceeded {cap} events before t={t:.6g} (horizon {horizon})"
    )


def _base_level_start(rng, params: HawkesParams, horizon: float, cap: int):
    """simulate_exact's path up to where its intensity first stands at or
    above the base level: (t, lam, events), with the generator ``rng`` just
    after the last draw the path read, or t = inf if the path ends first.

    A path in deficit (lam < lambda_inf) thins: lambda(t) < lambda_inf and
    increasing, so the constant rate lambda_inf dominates the proposals.
    It reads rng.random() one float per draw, so the generator never runs
    ahead of the path; a proposal's draw of exactly 0 is skipped, and the
    accept draw is raw, so a 0 accepts.
    """
    alpha, beta, lam_inf = params.alpha, params.beta, params.lambda_inf
    t, lam = 0.0, params.lambda0
    events: list[float] = []
    if lam >= lam_inf:
        return t, lam, events
    log, exp = math.log, math.exp
    src = iter(rng.random, None)
    nonzero = filter(None, src)
    while lam < lam_inf:
        excess = lam - lam_inf
        w = -log(next(nonzero)) / lam_inf
        if t + w > horizon:
            return math.inf, lam, events
        t += w
        lam = lam_inf + excess * exp(-beta * w)
        if next(src) * lam_inf <= lam:
            lam += alpha
            events.append(t)
            if len(events) > cap:
                raise _capacity_exceeded(cap, t, horizon)
    return t, lam, events


def _log_pairs(rng, params: HawkesParams, size: int):
    """The logs of rng's nonzero draws, a block at a time, the first of
    ``size`` draws and each later one twice as many, up to _MAX_UNIFORMS
    (_skip_zeros), taken in pairs (u1, u2) and scaled as the recurrence
    uses them: per block, the lists of -beta ln(u1), of
    s2 = -ln(u2) / lambda_inf, the arrival from the base level, and of
    exp(-beta s2).  The logs and exps are libm's (_libm.elementwise), and
    the pairs are those of map(log, filter(None, stream)), read two at a
    time.
    """
    beta, lam_inf = params.beta, params.lambda_inf
    while True:
        logs = elementwise(math.log, _skip_zeros(rng, rng.random(size)))
        s2 = logs[1::2] / -lam_inf
        yield ((logs[0::2] * -beta).tolist(), s2.tolist(),
               elementwise(math.exp, s2 * -beta).tolist())
        size = min(2 * size, _MAX_UNIFORMS)


def _run_exact(rng, params: HawkesParams, horizon: float, cap: int, t: float, lam: float,
               recorded: int) -> list[float]:
    """simulate_exact's loop from time t <= horizon and intensity
    lam >= lambda_inf, on a path that already holds ``recorded`` events;
    returns the new events.

    It reads the generator ``rng`` a block at a time, the first sized from
    t and lam (_first_block, _log_pairs), so numpy draws the uniforms and takes
    their logs and the base level's decay, and Python runs only the
    recurrence in lam; each event costs one pair of nonzero draws, and a
    draw of exactly 0 is skipped.  Each event adds its wait to t once and
    then compares t with the horizon; the first t past it ends the path and
    is not recorded.  Rounding keeps lam >= lambda_inf.  The cap is checked
    once per block.
    """
    alpha, beta, lam_inf = params.alpha, params.beta, params.lambda_inf
    log, exp = math.log, math.exp
    room = cap - recorded
    events: list[float] = []
    add_event = events.append
    pairs = _log_pairs(rng, params, _first_block(params, horizon, t, lam))
    while t <= horizon:
        # -beta ln(u1); s = s2, the arrival from the base level; e^{-beta s}
        for neg_beta_l1, s, decay in zip(*next(pairs)):
            excess = lam - lam_inf
            # the excess's arrival, by inversion where it has one: d =
            # 1 + beta ln(u1) / excess is <= 0 wherever excess <= -beta ln(u1)
            if excess > neg_beta_l1:
                d = 1.0 - neg_beta_l1 / excess
                if d > 0.0:
                    s1 = -log(d) / beta
                    if s1 < s:
                        s, decay = s1, exp(-beta * s1)
            t += s
            if t > horizon:
                t = math.inf  # the path ends
                break
            lam = lam_inf + excess * decay + alpha
            add_event(t)
        if len(events) > room:
            raise _capacity_exceeded(cap, events[room], horizon)
    return events


def _spawn_offspring(rng, parents: np.ndarray, params: HawkesParams, horizon: float):
    """One branching generation: each parent T spawns K ~ Poisson((alpha/beta) F)
    children at T - ln(1 - U F) / beta, where F = 1 - e^{-beta (horizon - T)}."""
    frac = -elementwise(math.expm1, -params.beta * (horizon - parents))
    counts = rng.poisson(params.alpha / params.beta * frac)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0)
    rep_parents = np.repeat(parents, counts)
    rep_frac = np.repeat(frac, counts)
    u = rng.random(total)
    return rep_parents - elementwise(math.log1p, -u * rep_frac) / params.beta


_THIN_BLOCK = 1 << 16  # simulate_cluster's immigrant proposals thinned at a time


def simulate_cluster(
    params: HawkesParams,
    horizon: float,
    seed: int,
    *,
    cap: int = DEFAULT_EVENT_CAP,
) -> Trajectory:
    """Draw one path via the immigrant/offspring branching construction.

    The sorted proposals are thinned a _THIN_BLOCK at a time, the cap checked
    after each block, so a path over the cap holds its proposals (8 bytes
    each) and one block's arrays.  A bad horizon, a negative seed or a cap
    below 1 is a ValueError before any draw."""
    _check_length("horizon", horizon)
    _check_count("seed", seed, 0)
    _check_count("cap", cap, 1)
    [rng] = generators(range(seed, seed + 1))
    alpha, beta, lam_inf, lam0 = params.alpha, params.beta, params.lambda_inf, params.lambda0

    # Immigrants: thinning against the tight constant bound max(lambda_inf,
    # lambda0) -- the deterministic rate is monotone between those levels.
    bound = max(lam_inf, lam0)
    n_prop = int(rng.poisson(bound * horizon))
    if n_prop > cap and lam0 == lam_inf:
        # the rate is its bound, so every proposal is an immigrant: the cap
        # is exceeded before any proposal is drawn
        raise CapacityExceeded(f"cluster construction exceeded {cap} events")
    try:
        proposals = rng.random(n_prop)
    except MemoryError:  # numpy's, raised before any draw
        raise ValueError(f"cluster construction cannot allocate its {n_prop} "
                         f"immigrant proposals") from None
    proposals.sort()
    proposals *= horizon
    generations = [np.empty(0)]
    total = 0
    for lo in range(0, n_prop, _THIN_BLOCK):
        block = proposals[lo:lo + _THIN_BLOCK]
        rate = lam_inf + (lam0 - lam_inf) * elementwise(math.exp, -beta * block)
        generations.append(block[rng.random(block.size) * bound <= rate])
        total += generations[-1].size
        if total > cap:
            raise CapacityExceeded(f"cluster construction exceeded {cap} events")

    frontier = np.concatenate(generations)  # the immigrants
    while total <= cap and frontier.size and alpha > 0.0:
        frontier = _spawn_offspring(rng, frontier, params, horizon)
        total += frontier.size
        if frontier.size:
            generations.append(frontier)
    if total > cap:
        raise CapacityExceeded(f"cluster construction exceeded {cap} events")
    times = np.sort(np.concatenate(generations))
    return Trajectory(EventSequence(times, horizon=horizon), seed)


def sampler(method: str):
    """The single-path sampler for ``method``: "exact" or "cluster"."""
    if method == "exact":
        return simulate_exact
    if method == "cluster":
        return simulate_cluster
    raise ValueError(f"unknown simulation method {method!r}")


# Paths stepped together: bounds the live generators and the times a group
# holds twice while its scatter runs (_assemble).  The cascade forecast's
# 1000 paths on two CPUs run as one group of 500 per worker.
_GROUP = 512
# Below this many live paths the scalar loop finishes the paths from where
# they stand.  A group of n paths in lockstep to its end took, in two runs,
# these times the scalar loop's (median ratio of 9 interleaved pairs, one
# CPU, libm through numpy's loop, the group seeded in one array pass and
# assembled by one scatter, the scalar loop taking its base level's decay
# from numpy):
#
#   n                          32         48         64         96         128
#   validate's, horizon 2000   1.35/1.31  0.94/0.95  0.84/0.81  0.56/0.57  0.43/0.43
#   cascade's, horizon 600     1.54/1.51  1.07/1.07  0.84/0.84  0.60/0.62  0.48/0.50
#
# so the cascade forecast's unevenly ending paths still break even between
# 48 and 64, and 64 stays.  validate's K = 20 stays on the scalar loop.
_MIN_LOCKSTEP = 64
# Below this many expected events per slice a batch is sampled by this
# process alone: a fork and its read-back cost about what the scalar loop
# takes for 4000 to 5000 events.
MIN_EVENTS_PER_WORKER = 1 << 13
# A lockstep block holds at most _BLOCK_CELLS path-iterations (two uniforms
# each) across the live paths, so the block buffers stay small (768 kB).
# 1000 cascade paths on two CPUs took a median 0.115, 0.101, 0.099 and
# 0.101 s with 2^13, 2^14, 2^15 and 2^16 cells: fewer, longer row fills.
_BLOCK_CELLS = 1 << 15
# uniforms logged per call: the temporary stays small
_LOG_SLICE = 4096


def _runs(runs) -> tuple[np.ndarray, np.ndarray]:
    """Lists of event times as (each list's length, the lists end to end).

    Each list becomes an array as ``runs`` yields it, so a generator of
    long runs holds one list of floats at a time."""
    arrays = [np.array(run, np.float64) for run in runs]
    counts = np.fromiter(map(len, arrays), np.intp, len(arrays))
    return counts, np.concatenate((np.empty(0), *arrays))


def _assemble(pieces: list, n: np.ndarray) -> list:
    """Every path's times, as views of one array, from ``pieces``: (path
    ids, each path's count, their times path after path), in the order the
    lockstep found them, with ``n`` the count of every path.

    Each piece is scattered in one step, last first, from each path's end,
    and freed once placed.
    """
    ends = np.cumsum(n)
    out = np.empty(ends[-1])
    fill = ends.copy()  # per path: where its placed times begin
    while pieces:
        ids, counts, times = pieces.pop()
        fill[ids] -= counts
        at = np.repeat(fill[ids] - (np.cumsum(counts) - counts), counts)
        at += np.arange(times.size)
        out[at] = times
    return [out[lo:hi] for lo, hi in zip((ends - n).tolist(), ends.tolist())]


def _lockstep(params: HawkesParams, horizon: float, seeds: range,
              cap: int) -> tuple[list, np.ndarray]:
    """simulate_exact's loop for every seed at once: one numpy step per loop
    iteration, across the live paths.

    Each path draws its uniforms from its own generator, all of them seeded
    in one pass (_seeding.generators), in blocks, two per iteration, and a
    row that holds an exact 0 becomes the path's next nonzero draws in
    place (_skip_zeros), as simulate_exact's blocks do.
    Every step repeats simulate_exact's float operations in its order, so
    each path is bit for bit simulate_exact's.  A path that crosses the
    horizon mid-block runs on to the block's end and its steps past the
    horizon are dropped.  At a block's end every live generator stands
    just after the last draw its path used, where simulate_exact's would,
    so once fewer than _MIN_LOCKSTEP paths are live, _run_exact finishes
    them from their generators.

    Each path starts as simulate_exact's does (_base_level_start), so a
    deficit start has thinned to the base level, and the lockstep steps
    only paths at or above it, where rounding keeps them.

    The times are kept as they are found, in pieces: the deficit starts',
    each block's and the tails', each with its paths' counts.  The group's
    count array checks the cap after every block: the first path over it,
    in seed order, raises the scalar loop's error.

    Returns the pieces and every path's count, which _assemble turns into
    each seed's event times once the generators and buffers are freed.
    """
    alpha, beta, lam_inf = params.alpha, params.beta, params.lambda_inf
    rngs = generators(seeds)
    t, lam, starts = zip(*(_base_level_start(rng, params, horizon, cap) for rng in rngs))
    ids = np.arange(len(seeds))
    n, times = _runs(starts)  # n[i]: path i's times so far
    pieces = [(ids, n.copy(), times)]
    t, lam = np.array(t), np.array(lam)
    live = t <= horizon
    ids, t, lam = ids[live], t[live], lam[live]  # the live paths
    # iterations per block: half of _first_block's draws from time 0, then
    # twice as many per block, up to _BLOCK_CELLS across the live paths
    size = _first_block(params, horizon, 0.0, params.lambda0) // 2
    # one buffer each for the uniforms and the recorded times, reused by
    # every block so that blocks leave no holes in the heap, and the step's
    # work arrays
    cells = max(ids.size, _BLOCK_CELLS)
    buf_u, buf_t = np.empty(2 * cells), np.empty(cells)
    buf_step = np.empty((4, ids.size))
    while ids.size >= _MIN_LOCKSTEP:
        size = min(size, max(1, _BLOCK_CELLS // ids.size))
        # row k holds the block's draws for path ids[k]: iteration j's two
        # uniforms at columns 2j and 2j + 1
        u = buf_u[:2 * size * ids.size].reshape(ids.size, 2 * size)
        for row, i in zip(u, ids):
            rngs[i].random(out=row)
        for k in np.flatnonzero(~u.all(axis=1)).tolist():
            _skip_zeros(rngs[ids[k]], u[k])
        logs = u  # in place, in slices, so no block-sized temporary
        flat = logs.reshape(-1)
        for lo in range(0, flat.size, _LOG_SLICE):
            flat[lo:lo + _LOG_SLICE] = elementwise(math.log, flat[lo:lo + _LOG_SLICE])
        logs[:, 0::2] *= beta  # beta ln(u1)
        logs[:, 1::2] /= -lam_inf  # s2, the arrival from the base level
        # row j: every live path's time after iteration j
        rec_t = buf_t[:size * ids.size].reshape(size, ids.size)
        excess, d, s1, s = buf_step[:, :ids.size]
        for j in range(size):
            np.subtract(lam, lam_inf, out=excess)
            # excess > 0: inversion; excess == 0 makes d = -inf, so s = s2
            np.divide(logs[:, 2 * j], excess, out=d)
            d += 1.0
            s2 = logs[:, 2 * j + 1]
            ok = (d > 0.0).nonzero()[0]
            if ok.size:
                s1.fill(np.inf)
                s1[ok] = elementwise(math.log, d[ok]) / -beta
                s2 = np.minimum(s1, s2, out=s)
            t = np.add(t, s2, out=rec_t[j])
            # d's buffer takes -beta s
            np.multiply(excess, elementwise(math.exp, np.multiply(s2, -beta, out=d)), out=lam)
            lam += lam_inf
            lam += alpha
        # each path's times up to the horizon, path after path
        found = rec_t.T <= horizon
        counts = np.count_nonzero(found, axis=1)
        pieces.append((ids, counts, rec_t.T[found]))
        n[ids] += counts
        over = n[ids] > cap
        if over.any():
            k = over.argmax()
            # the path's time at index cap falls in this block
            at = counts[:k].sum() + cap - (n[ids[k]] - counts[k])
            raise _capacity_exceeded(cap, pieces[-1][2][at], horizon)
        live = t <= horizon
        ids, t, lam = ids[live], t[live], lam[live]
        size *= 2
    counts, times = _runs(_run_exact(rngs[i], params, horizon, cap, t_i, lam_i, int(n[i]))
                          for i, t_i, lam_i in zip(ids.tolist(), t.tolist(), lam.tolist()))
    pieces.append((ids, counts, times))
    n[ids] += counts
    return pieces, n


def _sample_slice(params: HawkesParams, horizon: float, seeds: range, method: str,
                  cap: int):
    """Yield the path of each seed, in seed order, _GROUP seeds at a time.

    The exact method steps each group of at least _MIN_LOCKSTEP paths in
    lockstep (see _lockstep) and yields its paths once they are assembled;
    every other path is yielded as the single-path sampler draws it.
    """
    for lo in range(0, len(seeds), _GROUP):
        group = seeds[lo:lo + _GROUP]
        if method == "exact" and len(group) >= _MIN_LOCKSTEP:
            # excess == 0 divides by zero on purpose; a tiny excess may overflow d
            with np.errstate(divide="ignore", over="ignore"):
                times = _assemble(*_lockstep(params, horizon, group, cap))
            yield from (Trajectory(EventSequence._sampled(t, horizon), s)
                        for s, t in zip(group, times))
        else:
            yield from (sampler(method)(params, horizon, s, cap=cap) for s in group)


def simulate_batch(
    params: HawkesParams,
    horizon: float,
    seed: int,
    n_paths: int,
    *,
    method: str = "exact",
    cap: int = DEFAULT_EVENT_CAP,
) -> list[Trajectory]:
    """n_paths independent trajectories with per-path seeds seed + i.

    Path i's event times are bit for bit those of
    sampler(method)(params, horizon, seed + i), and the results are ordered
    by path index.  The batch is map_batch's, with each worker returning
    its paths themselves: a path's times pickle as their raw bytes
    (EventSequence.__reduce_ex__), and a path of this process's slice is a
    view that keeps its lockstep group's times alive.  Its slices, groups,
    exceptions and their independence of the CPU count are map_batch's.
    """
    return map_batch(params, horizon, seed, n_paths, lambda traj: traj, method=method, cap=cap)


def map_batch(
    params: HawkesParams,
    horizon: float,
    seed: int,
    n_paths: int,
    fn,
    *,
    method: str = "exact",
    cap: int = DEFAULT_EVENT_CAP,
) -> list:
    """[fn(path) for path in the batch], where path i is bit for bit
    sampler(method)(params, horizon, seed + i), with each fn(path) run in
    the worker that draws the path, as it draws it: the one batch driver.

    _fork.in_slices cuts the seeds into slices by the batch's expected
    events (mean_count) and MIN_EVENTS_PER_WORKER, so a batch of fewer than
    2 * MIN_EVENTS_PER_WORKER expected events, of one path or of a NaN
    expectation never forks.  Each worker, this process for the first
    slice, hands the paths of its slice to ``fn`` in seed order as
    _sample_slice yields them: a single-path sampler's path as it is drawn,
    so the worker holds one at a time beyond what ``fn`` keeps, and a
    lockstep group's paths once the whole group is sampled.  A forked child
    pickles only the results, and the warnings the sampler and ``fn``
    issued, into its file; ``fn`` itself is not pickled, so it may be a
    closure.  Every slice's warnings are issued here in path order once all
    are back (see _fork.replay_warnings).  A path depends only on its seed,
    so neither the results nor what a successful run prints depend on the
    CPU count.  A bad horizon or method, a negative seed, a cap below 1 or
    a negative n_paths is a ValueError before any draw or fork; n_paths = 0
    gives [].

    An exception in a worker, the sampler's or ``fn``'s, is raised here
    unchanged: the first failure of the lowest failing slice, where a
    lockstep group samples all its paths before ``fn`` sees any of them.
    The slices and groups depend on the CPU count, and so may the error:
    with ``fn`` failing on path 5 and path 400 over ``cap`` among 600, one
    CPU steps paths 0 to 511 as one group and raises CapacityExceeded, and
    two CPUs fit path 5 in the slice of paths 0 to 299 and raise ``fn``'s
    error.  A lockstep group fails at whichever of its paths passes the cap
    first.  A failed batch issues no warning.  Every child is reaped before
    the call returns or raises.

    Recording this process's slice enters warnings.catch_warnings, which
    resets every module's once-per-location registry, so a warning shown
    once before a batch shows again after it (the t0 = 0 warning of an
    estimate() loop between batches, say).  Showing that slice's warnings
    as they are issued would keep the registry, but a failed batch would
    then have issued some.
    """
    _check_length("horizon", horizon)
    _check_count("seed", seed, 0)
    _check_count("cap", cap, 1)
    sampler(method)
    _check_count("n_paths", n_paths, 0)
    done = []

    def run(lo, hi, out):
        paths = _sample_slice(params, horizon, range(lo, hi), method, cap)
        results = record_warnings(lambda: [fn(path) for path in paths])
        if out is None:
            done.append(results)
        else:
            pickle.dump(results, out, protocol=5)

    in_slices(range(seed, seed + n_paths), n_paths * mean_count(params, horizon),
              MIN_EVENTS_PER_WORKER, run, lambda file: done.append(pickle.load(file)),
              "sampling seeds")
    replay_warnings([record for _, caught in done for record in caught])
    return [result for results, _ in done for result in results]
