"""Method-of-moments calibration of (alpha, beta, lambda_inf).

Empirical moments M_i are the i-th power sums of the non-empty windows'
counts (windowed_counts) over J windows of length delta, divided by J.  The fit solves

    stationary_mi(alpha, beta, lambda_inf; delta) = M_i,   i = 1, 2, 3

through an exact dimensional reduction in cumulant form.  M1 fixes
lambda* = M1/delta, and the variance excess obeys the identity

    k2/M1 - 1 = (M2 - M1 - M1^2)/M1 = G(eta) phi(x),
    G(eta) = eta (2 - eta)/(1 - eta)^2,  phi(x) = 1 - (1 - e^{-x})/x,

with eta = alpha/beta and x = kappa delta, G invertible in closed form.
That leaves the third cumulant, k3/M1 = K3(eta(x), x) with the sample k3 =
M3 - 3 M2 M1 + 2 M1^3, as a scalar equation in x.  On the curve that matches
M1 and M2 it has the same roots and least-squares point as the third-moment
equation, and it does not involve lambda*.  It is solved by bracketing on a
log grid -- far more robust than Newton iteration on the raw 3-by-3 system,
whose Jacobian is near-singular along a beta-degenerate direction (condition
number ~1e6 at typical roots).  One numpy residual serves the grid and the
refinement, which zooms into each bracket on sub-grids.  There is one start
point: of several exact roots, the one nearest it in (ln alpha, ln(beta -
alpha)) is reported; with none, the least-squares point within half an
e-fold of the start's x, flagged "m3_best_fit".
Positivity constraints hold by construction: x > 0 and eta in [0, 1) map to
beta > alpha >= 0, lambda_inf > 0.  lambda0 is not identifiable from
stationary window moments; fitted parameter records carry
lambda0 = lambda_inf.  Raw event times pass EventSequence's check
(core._times) before they are windowed, and every warning of a fit comes
from errors._warn, which names the caller of estimate().
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import ClassVar, NamedTuple

import numpy as np

from .core import EventSequence, HawkesParams, _check_length, _check_time, _times
from .errors import HawkesError, InsufficientData, NoConvergence, WindowOutOfRange, _warn
from .moments import _PHI, MomentTriple, _k3_over_m1, _window_shapes, moment_triple

__all__ = [
    "MIN_WINDOWS",
    "DEFAULT_INIT",
    "TOL",
    "WindowCounts",
    "EmpiricalMoments",
    "EstimateConfig",
    "EstimateReport",
    "windowed_counts",
    "empirical_from_counts",
    "empirical_moments",
    "solve_moment_system",
    "estimate",
]

MIN_WINDOWS = 30
# alpha-hat this far below beta-hat (relatively) is reported as a boundary
# fit: the data look Poisson and beta is then unidentified.
BOUNDARY_ALPHA_RATIO = 1e-6
# the solver's default starting point (alpha, beta, lambda_inf)
DEFAULT_INIT = (0.5, 1.5, 2.0)
# the solver's residual tolerance, relative to max(1, M_i)
TOL = 1e-9
# windowed_counts places this many events per pass, so its per-event
# arrays stay near 1 MB however long the path is
_COUNT_CHUNK_EVENTS = 1 << 16
_MAX_WINDOWS = 2**53  # past it, t0 + j delta no longer names each window


@dataclass(frozen=True)
class EmpiricalMoments:
    """Windowed-count moments M_i = (1/J) sum_j counts[j]^i over
    window_count windows of length triple.delta starting at t0."""

    triple: MomentTriple
    window_count: int
    t0: float


@dataclass(frozen=True)
class EstimateReport:
    """Fitted parameters plus solver diagnostics and the window statistics used.

    params_hat carries lambda0 = lambda_inf (lambda0 is not identified by
    the moment system).  converged means the solver reached its target: each
    residual at or below TOL * max(1, M_i) when the system has an exact root,
    or the constrained least-squares point when it does not (then
    residual_norm honestly exceeds the tolerance and "m3_best_fit" is set).
    Other flags: "boundary_alpha" (alpha-hat at the Poisson boundary, beta
    unidentified) and "t0_in_transient" (windows start at t0 = 0 where the
    stationary-limit formulas are biased by the transient).  iterations
    counts third-moment residual evaluations: the 600 scan-grid points plus
    64 for every refinement step of every bracket or least-squares interval.
    init is the caller's start point, the one the root was chosen by.
    Harness placeholders for runs that failed outright carry params_hat = None.
    """

    params_hat: HawkesParams | None
    residual_norm: float
    iterations: int
    init: tuple[float, float, float]
    converged: bool
    window_stats: EmpiricalMoments | None = None
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class EstimateConfig:
    """Settings for estimate(), checked as made (delta a length, t0 a time,
    init by _check_start), so a caller that makes them first reads nothing
    for bad ones; tol is the solver's constant TOL."""

    delta: float
    t0: float = 0.0
    init: tuple[float, float, float] = DEFAULT_INIT
    tol: ClassVar[float] = TOL

    def __post_init__(self):
        _check_length("delta", self.delta)
        _check_time("t0", self.t0)
        _check_start(self.init)


class WindowCounts(NamedTuple):
    """The non-empty windows' ascending indices j and event counts, both int64."""

    index: np.ndarray
    counts: np.ndarray


def _bisect_windows(t: np.ndarray, t0: float, delta: float, count: int) -> np.ndarray:
    """The last j with t0 + j delta <= t, for each t in [t0, t0 + count delta) at once."""
    lo, hi = np.zeros(t.size, dtype=np.int64), np.full(t.size, count, dtype=np.int64)
    for _ in range(int(count).bit_length()):
        mid = (lo + hi) >> 1
        below = t0 + delta * mid <= t
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return lo


def windowed_counts(events, t0: float, delta: float, count: int) -> WindowCounts:
    """Event counts in the non-empty windows among ``count`` consecutive
    half-open windows [t0 + j delta, t0 + (j+1) delta), with delta a length
    and t0 a time (core's rules) and 1 <= count <= the _window_count of a
    path's horizon (_MAX_WINDOWS for raw times), else WindowOutOfRange; time
    and memory are linear in the events.

    The events are placed a chunk of _COUNT_CHUNK_EVENTS at a time: each
    window is guessed as floor((t - t0) / delta), clipped to the windows,
    and checked against its two edges t0 + delta * j (bit-equal to
    np.arange's for j up to 2^53).  The quotient stays below about 3 count,
    even for a subnormal delta: an event lies inside the windows only if
    count delta reaches half an ulp of t0, and then t - t0 is below count
    delta plus an ulp of the last edge.  An event its edges do not bracket
    (within a few ulps of an edge, where delta is below an ulp of t0, as at
    t0 = 1e9 with delta = 1e-8, and where rounding collapses edges) is
    placed by _bisect_windows, so every count is that of
    np.diff(np.searchsorted(times, edges)).  A window that straddles two
    chunks is still one pair.
    """
    _check_length("delta", delta)
    _check_time("t0", t0)
    fit = (_window_count(events.horizon, t0, delta) if isinstance(events, EventSequence)
           else _MAX_WINDOWS)
    if not 1 <= count <= fit:
        raise WindowOutOfRange(f"{count} windows of length {delta} from t0={t0}; 1 to {fit} fit")
    times = _times(events)
    end = t0 + delta * count
    times = times[np.searchsorted(times, t0):np.searchsorted(times, end)]
    index, counts = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for lo in range(0, times.size, _COUNT_CHUNK_EVENTS):
        t = times[lo:lo + _COUNT_CHUNK_EVENTS]
        j = np.floor(np.clip((t - t0) / delta, 0.0, count - 1))
        astray = (t < t0 + delta * j) | (t >= t0 + delta * (j + 1.0))
        j = j.astype(np.int64)
        if astray.any():
            j[astray] = _bisect_windows(t[astray], t0, delta, count)
        # placed exactly, j is sorted like t
        first = np.flatnonzero(np.concatenate(([True], j[1:] != j[:-1])))
        n = np.diff(first, append=j.size)
        if index[-1].size and index[-1][-1] == j[0]:
            counts[-1][-1] += n[0]
            first, n = first[1:], n[1:]
        if n.size:  # else the chunk lies in the last pair's window
            index.append(j[first])
            counts.append(n)
    index = np.concatenate(index)  # the chunks' indices go before the counts are joined
    return WindowCounts(index, np.concatenate(counts))


def empirical_from_counts(counts, windows: int, delta: float, t0: float = 0.0) -> EmpiricalMoments:
    """Moment triple of ``windows`` windows from the counts of the non-empty
    ones; no windows, or only empty ones, are InsufficientData.

    The powers are products, c c and (c c) c, so each cube is correctly
    rounded wherever c c is exact (every count below 2^26), whatever numpy's
    SIMD power loop does.  Their sums are of integers, so they equal the
    sums over every window while below 2^53.
    """
    counts = np.asarray(counts, dtype=float)
    if windows == 0:
        raise InsufficientData("no count windows")
    if not counts.any():
        raise InsufficientData(f"all {windows} count windows are empty")
    if windows < MIN_WINDOWS:
        _warn(f"only {windows} windows; moment estimates will be noisy "
              f"(fewer than {MIN_WINDOWS})")
    powers = counts * counts
    m2 = float(powers.sum()) / windows
    powers *= counts
    triple = MomentTriple(m1=float(counts.sum()) / windows, m2=m2,
                          m3=float(powers.sum()) / windows, delta=float(delta))
    return EmpiricalMoments(triple=triple, window_count=windows, t0=float(t0))


def _window_count(horizon: float, t0: float, delta: float) -> int:
    """The maximal whole number of windows of length delta in [t0, horizon]:
    the quotient's floor, with a tolerance of 1e-12 that counts the last
    window of (871.8, 0, 0.1) although 0.1 * 8718 rounds past 871.8, raised
    while t0 + delta (n + 1) <= horizon, the last edge as windowed_counts
    forms it.  InsufficientData when none fits, and a ValueError naming the
    count past 2^53, where t0 + j delta no longer names each window."""
    _check_length("delta", delta)
    _check_time("t0", t0)
    if t0 >= horizon:
        raise InsufficientData(f"window start t0={t0} leaves no room before horizon {horizon}")
    n_windows = (horizon - t0) / delta + 1e-12  # inf for a delta as small as a subnormal
    if n_windows <= _MAX_WINDOWS:
        # the quotient's rounding can drop a whole window that fits, as the
        # writers' grid can drop a point (cli._step_grid)
        n_windows = int(n_windows)
        while t0 + delta * (n_windows + 1) <= horizon:
            n_windows += 1
    if not n_windows <= _MAX_WINDOWS:
        raise ValueError(f"delta {delta} asks for {n_windows:.3g} windows in [{t0}, {horizon}], "
                         f"more than 2^53")
    if n_windows < 1:
        raise InsufficientData(f"no window of length {delta} fits in [{t0}, {horizon}]")
    return n_windows


def empirical_moments(events: EventSequence, t0: float, delta: float) -> EmpiricalMoments:
    """Empirical M_1, M_2, M_3 over the maximal whole number of windows in
    [t0, horizon] (_window_count)."""
    windows = _window_count(events.horizon, t0, delta)
    return empirical_from_counts(windowed_counts(events, t0, delta, windows).counts,
                                 windows, delta, t0)


def _check_start(theta) -> tuple[float, float, float]:
    """The start point as floats; ValueError unless it is finite with
    beta > alpha > 0 and lambda_inf > 0."""
    a, b, li = map(float, theta)
    if not (all(map(math.isfinite, (a, b, li))) and b > a > 0.0 and li > 0.0):
        raise ValueError(f"start point must be finite with beta > alpha > 0, lambda_inf > 0; "
                         f"got {tuple(theta)}")
    return a, b, li


def _curve(x: np.ndarray, lam_star: float, excess: float, delta: float, shapes=None):
    """The window shapes, u = 1/(1 - eta) and (alpha, beta, lambda_inf) at
    every x = kappa delta of the 1-D array x, on the curve that matches M1
    and M2 exactly; ``shapes``, when given, is _window_shapes(x).

    The variance excess factors as k2/M1 - 1 = G(eta) phi(x) with
    G(eta) = eta (2 - eta)/(1 - eta)^2 = u^2 - 1, so u = sqrt(1 + excess/phi)
    in closed form; lambda* is pinned by M1 = lambda* delta.
    """
    if shapes is None:
        shapes = _window_shapes(x)
    u = np.sqrt(1.0 + excess / shapes[_PHI])
    kappa = x / delta
    beta = kappa * u
    return shapes, u, beta - kappa, beta, lam_star / u


def _k3_residual(x: np.ndarray, lam_star: float, excess: float, delta: float,
                 k3_ratio: float, shapes=None) -> np.ndarray:
    """k3/M1 - k3_ratio at every x of the 1-D array x on the (M1, M2)-exact
    curve; inf where the parameters there are not admissible (HawkesParams
    would raise) or the value is not finite.  ``shapes``, when given, is
    _window_shapes(x)."""
    with np.errstate(all="ignore"):
        shapes, u, alpha, beta, lam_inf = _curve(x, lam_star, excess, delta, shapes)
        r = _k3_over_m1(shapes, u) - k3_ratio
        ok = (np.isfinite(r) & np.isfinite(beta) & np.isfinite(lam_inf)
              & (alpha >= 0.0) & (lam_inf > 0.0) & (beta > alpha))
        return np.where(ok, r, np.inf)


_SCAN_LO, _SCAN_HI, _SCAN_POINTS = 1e-7, 200.0, 600


@functools.cache
def _scan_grid() -> tuple[np.ndarray, np.ndarray]:
    """The scan grid and its window shapes, read-only: the same in every
    fit, so built by the first fit in a process, not on import."""
    grid = np.geomspace(_SCAN_LO, _SCAN_HI, _SCAN_POINTS)
    shapes = _window_shapes(grid)
    grid.flags.writeable = shapes.flags.writeable = False
    return grid, shapes


# half an e-fold each way: how far the third-moment fit may pull x away from
# the starting point when the system has no exact root
_LOCAL_BRACKET_HALF_WIDTH = 0.5
# refinement: points per sub-grid, and the widths at which a root bracket
# (_XTOL + _RTOL x) and a least-squares interval (_XATOL) count as resolved
_ZOOM_POINTS = 64
_ZOOM_STEPS = np.linspace(0.0, 1.0, _ZOOM_POINTS)
_XTOL, _RTOL, _XATOL = 1e-15, 8.9e-16, 1e-10


def _zoom(residual, lo: np.ndarray, hi: np.ndarray, xtol: float, rtol: float,
          root: bool) -> np.ndarray:
    """Narrows every cell [lo_i, hi_i] to a width of at most xtol + rtol x by
    evaluating ``residual`` on a _ZOOM_POINTS sub-grid of all open cells in
    one call per step.  With ``root``, each cell must bracket a sign change
    and keeps the first sub-cell that does; otherwise each keeps the two
    sub-cells around its least |residual|.  Returns, per cell, the last
    sub-grid's point of least |residual| in the kept cell.
    """
    lo, hi = lo.astype(float), hi.astype(float)
    best = lo.copy()
    cells = np.arange(lo.size)
    while cells.size:
        t = lo[cells, None] + (hi - lo)[cells, None] * _ZOOM_STEPS
        t[:, -1] = hi[cells]
        r = residual(t.ravel()).reshape(t.shape)
        rows = np.arange(cells.size)
        if root:
            left, right = r[:, :-1], r[:, 1:]
            with np.errstate(invalid="ignore"):
                change = np.isfinite(left) & np.isfinite(right) & (left * right <= 0.0)
            i = change.argmax(axis=1)
            lo[cells], hi[cells] = t[rows, i], t[rows, i + 1]
            best[cells] = np.where(np.abs(r[rows, i + 1]) < np.abs(r[rows, i]),
                                   hi[cells], lo[cells])
        else:
            j = np.abs(r).argmin(axis=1)
            best[cells] = t[rows, j]
            lo[cells] = t[rows, np.maximum(j - 1, 0)]
            hi[cells] = t[rows, np.minimum(j + 1, _ZOOM_POINTS - 1)]
        cells = cells[hi[cells] - lo[cells] > xtol + rtol * np.abs(best[cells])]
    return best


def _params_or_none(alpha: float, beta: float, lam_inf: float) -> HawkesParams | None:
    """HawkesParams(alpha, beta, lam_inf), or None where they are not
    admissible (non-finite, beta <= alpha in floats, lambda_inf <= 0)."""
    try:
        return HawkesParams(alpha, beta, lam_inf)
    except (HawkesError, ValueError):
        return None


def solve_moment_system(triple: MomentTriple, init: tuple[float, float, float]) -> EstimateReport:
    """Solve the three-equation moment system for (alpha, beta, lambda_inf)
    at the triple's window length triple.delta; delta, m1, m2 and m3 pass
    core._check_length's rule (> 0 and finite).

    The system is reduced exactly: M1 pins lambda*, the variance excess pins
    eta = alpha/beta as a closed-form function of x = kappa delta, and the
    third cumulant's equation becomes a scalar root-find in x.  All sign
    changes of the residual on a wide log-grid are bracketed and refined;
    among the admissible exact roots the one nearest ``init`` in (ln alpha,
    ln kappa), kappa = beta - alpha, is returned with each residual at or below
    ``TOL * max(1, M_i)``: relative to the moment once it exceeds 1, since
    M3 reaches 1e4 on bursty data and an absolute 1e-9 would then sit below
    float64 rounding.

    Sampled moments frequently admit no exact root: given (M1, M2) the model
    constrains the attainable third moment to a band a fraction of a percent
    wide, and noisy M3 falls outside it.  The solve then returns the
    least-squares point on the (m1, m2)-exact curve within half an e-fold of
    the start's x (the third moment carries almost no information there, so
    the fit is not allowed to chase its noise across the whole curve).  Such
    fits are flagged "m3_best_fit" and count as converged with an honest
    residual_norm.  The report is returned whether or not it converged: a
    best attempt that misses the tolerance (variance at or below Poisson,
    say, where only the alpha -> 0 boundary is left) comes back with
    converged = False and a UserWarning.  NoConvergence is raised only when
    there is no attempt to return, that is, when lambda* = m1/delta
    overflows float64 (a subnormal delta, say) or no point of the (m1,
    m2)-exact curve is admissible (beta == alpha in floats, say, at a huge
    variance excess).  The report carries no window_stats; estimate()
    attaches them.

    The residual is evaluated on arrays only: once on the 600-point
    bracketing grid, then on 64-point sub-grids that narrow every bracket
    at once to xtol 1e-15 + rtol 8.9e-16 x (the least-squares search: to
    1e-10 around the least |residual|).  ``iterations`` reports the number of
    residual evaluations, each grid or sub-grid point counting as one.
    """
    for name in ("delta", "m1", "m2", "m3"):
        _check_length(name, getattr(triple, name))
    start = _check_start(init)
    a0, b0, _ = start

    m1, m2, m3, delta = triple.m1, triple.m2, triple.m3, triple.delta
    lam_star = m1 / delta
    if lam_star == math.inf:
        raise NoConvergence(f"lambda* = m1/delta overflows float64 (m1 {m1}, delta {delta})")
    excess = (m2 - m1 - m1 * m1) / m1
    evaluations = 0

    def make_report(p: HawkesParams, flags: tuple[str, ...]) -> EstimateReport:
        exact = moment_triple(p, delta)
        residuals = exact.m1 - m1, exact.m2 - m2, exact.m3 - m3
        norm = max(map(abs, residuals))
        within = [abs(r) <= TOL * max(1.0, m) for r, m in zip(residuals, (m1, m2, m3))]
        if p.alpha < BOUNDARY_ALPHA_RATIO * p.beta:
            flags = flags + ("boundary_alpha",)
        # a best-fit point still matches the first two moments exactly
        converged = all(within) or ("m3_best_fit" in flags and within[0] and within[1])
        return EstimateReport(
            params_hat=p,
            residual_norm=norm,
            iterations=evaluations,
            init=start,
            converged=converged,
            flags=flags,
        )

    if excess <= 0.0:
        # at or below Poisson variance: the only candidate is the alpha -> 0
        # boundary, with beta unidentified (kept at the start's value)
        alpha = 1e-12 * b0
        p = _params_or_none(alpha, b0, lam_star * (1.0 - alpha / b0))
        poisson = f"window variance is at or below the Poisson level (excess {excess:.3e})"
        if p is None:
            raise NoConvergence(f"{poisson}; no boundary fit is admissible")
        report = make_report(p, ())
        if not report.converged:
            _warn(f"{poisson}; best boundary fit has residual {report.residual_norm:.3e}")
        return report

    k3_ratio = (m3 - 3.0 * m2 * m1 + 2.0 * m1**3) / m1  # sample k3/M1

    def residual(x: np.ndarray, shapes=None) -> np.ndarray:
        nonlocal evaluations
        evaluations += x.size
        return _k3_residual(x, lam_star, excess, delta, k3_ratio, shapes)

    # bracket every exact root on a wide dimensionless grid
    grid, shapes = _scan_grid()
    vals = residual(grid, shapes)
    left, right = vals[:-1], vals[1:]
    with np.errstate(invalid="ignore"):
        cells = (np.isfinite(left) & np.isfinite(right) & (left * right < 0.0)).nonzero()[0]
    candidates = np.sort(np.concatenate([
        grid[vals == 0.0],
        _zoom(residual, grid[cells], grid[cells + 1], _XTOL, _RTOL, root=True)]))
    flags: tuple[str, ...] = ()
    if not candidates.size:
        # no exact root: local least-squares in x around the start's x
        x0 = min(max((b0 - a0) * delta, _SCAN_LO), _SCAN_HI)
        lo = max(x0 * math.exp(-_LOCAL_BRACKET_HALF_WIDTH), _SCAN_LO)
        hi = min(x0 * math.exp(_LOCAL_BRACKET_HALF_WIDTH), _SCAN_HI)
        candidates = _zoom(residual, np.array([lo]), np.array([hi]), _XATOL, 0.0, root=False)
        flags = ("m3_best_fit",)

    _, _, alpha, beta, lam_inf = _curve(candidates, lam_star, excess, delta)
    params = [_params_or_none(*abl)
              for abl in zip(alpha.tolist(), beta.tolist(), lam_inf.tolist())]
    built = np.array([i for i, p in enumerate(params) if p is not None], dtype=int)
    if not built.size:
        raise NoConvergence(
            f"no admissible parameters (beta > alpha >= 0, lambda_inf > 0, finite) match "
            f"the first two moments (variance excess {excess:.3e})")
    with np.errstate(divide="ignore"):
        log_alpha = np.log(alpha[built])
        log_kappa = np.log(beta[built] - alpha[built])
    i = int(built[np.argmin(np.hypot(log_alpha - math.log(a0),
                                     log_kappa - math.log(b0 - a0)))])
    report = make_report(params[i], flags)
    if not report.converged:
        _warn(f"no admissible parameters reach residual {TOL} x max(1, M_i) "
              f"(best residual {report.residual_norm:.3e} from init {report.init})")
    return report


def estimate(events: EventSequence, config: EstimateConfig) -> EstimateReport:
    """Empirical moments followed by the moment-system solve.

    The solve starts from config.init, and its report's init is config.init.
    The report is the solver's, with the window statistics attached and,
    at t0 = 0, the "t0_in_transient" flag: a fit that missed the tolerance
    comes back with converged = False after the solver's UserWarning, so
    harness callers keep partial results.  InsufficientData propagates, and
    so does the solver's NoConvergence (no admissible parameters match the
    first two moments).  Its warnings, the few windows', t0 = 0's and the
    solver's, name the caller of estimate() (_warn).
    """
    emp = empirical_moments(events, config.t0, config.delta)
    extra_flags: tuple[str, ...] = ()
    if config.t0 == 0.0:
        _warn("t0 = 0 applies stationary-limit moment formulas from the start of "
              "the record; consider discarding a burn-in interval")
        extra_flags = ("t0_in_transient",)

    report = solve_moment_system(emp.triple, config.init)
    return replace(report, window_stats=emp, flags=report.flags + extra_flags)
