"""Method-of-moments calibration of (alpha, beta, lambda_inf).

Empirical moments M_i are arithmetic means of i-th powers of window counts
over consecutive windows of length delta.  The fit solves

    stationary_mi(alpha, beta, lambda_inf; delta) = M_i,   i = 1, 2, 3

through an exact dimensional reduction.  M1 fixes lambda* = M1/delta, and
the variance excess obeys the identity

    (M2 - M1 - M1^2)/M1 = G(eta) phi(x),
    G(eta) = eta (2 - eta)/(1 - eta)^2,  phi(x) = 1 - (1 - e^{-x})/x,

with eta = alpha/beta and x = kappa delta, G invertible in closed form.
That leaves the third-moment equation as a scalar root-find in x, which is
solved by bracketing on a log grid -- far more robust than Newton iteration
on the raw 3-by-3 system, whose Jacobian is near-singular along a
beta-degenerate direction (condition number ~1e6 at typical roots).  The
grid is evaluated in one numpy pass that repeats the scalar residual's float
operations in order, with libm's pow, exp, expm1 and sqrt applied
element-wise, so every grid value equals the scalar residual's bit for bit
and the brackets, roots and reports do not depend on which form ran.
Positivity constraints hold by construction: x > 0 and eta in [0, 1) map to
beta > alpha >= 0, lambda_inf > 0.  lambda0 is not identifiable from
stationary window moments; fitted parameter records carry
lambda0 = lambda_inf.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from ._libm import elementwise, power
from .core import EventSequence, HawkesParams
from .errors import HawkesError, InsufficientData, NoConvergence
from .moments import (MomentTriple, _stationary_m3_array, stationary_m1, stationary_m2,
                      stationary_m3)
from .simulate import windowed_counts

__all__ = [
    "MIN_WINDOWS",
    "DEFAULT_INIT",
    "EmpiricalMoments",
    "EstimateConfig",
    "EstimateReport",
    "empirical_from_counts",
    "empirical_moments",
    "solve_moment_system",
    "default_multistart",
    "estimate",
]

MIN_WINDOWS = 30
# alpha-hat this far below beta-hat (relatively) is reported as a boundary
# fit: the data look Poisson and beta is then unidentified.
BOUNDARY_ALPHA_RATIO = 1e-6
# the solver's default starting point (alpha, beta, lambda_inf)
DEFAULT_INIT = (0.5, 1.5, 2.0)


@dataclass(frozen=True)
class EmpiricalMoments:
    """Windowed-count moments M_i = (1/J) sum_j counts[j]^i."""

    triple: MomentTriple
    delta: float
    window_count: int
    t0: float


@dataclass(frozen=True)
class EstimateReport:
    """Fitted parameters plus solver diagnostics and the window statistics used.

    params_hat carries lambda0 = lambda_inf (lambda0 is not identified by
    the moment system).  converged means the solver reached its target: each
    residual at or below tol * max(1, M_i) when the system has an exact root,
    or the constrained least-squares point when it does not (then
    residual_norm honestly exceeds the tolerance and "m3_best_fit" is set).
    Other flags: "boundary_alpha" (alpha-hat at the Poisson boundary, beta
    unidentified) and "t0_in_transient" (windows start at t0 = 0 where the
    stationary-limit formulas are biased by the transient).  Harness
    placeholders for runs that failed outright carry params_hat = None.
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
    """Windowing and solver settings for estimate()."""

    delta: float
    t0: float = 0.0
    init: tuple[float, float, float] = DEFAULT_INIT
    tol: float = 1e-9


def empirical_from_counts(counts, delta: float, t0: float = 0.0) -> EmpiricalMoments:
    """Moment triple from an existing vector of window counts; no windows, or
    only empty ones, are InsufficientData."""
    counts = np.asarray(counts, dtype=float)
    if counts.size == 0:
        raise InsufficientData("no count windows")
    if not counts.any():
        raise InsufficientData(f"all {counts.size} count windows are empty")
    if counts.size < MIN_WINDOWS:
        warnings.warn(
            f"only {counts.size} windows; moment estimates will be noisy "
            f"(fewer than {MIN_WINDOWS})",
            UserWarning,
            stacklevel=2,
        )
    triple = MomentTriple(
        m1=float(counts.mean()),
        m2=float((counts**2).mean()),
        m3=float((counts**3).mean()),
        delta=float(delta),
    )
    return EmpiricalMoments(triple=triple, delta=float(delta),
                            window_count=int(counts.size), t0=float(t0))


def empirical_moments(events: EventSequence, t0: float, delta: float) -> EmpiricalMoments:
    """Empirical M_1, M_2, M_3 over the maximal whole number of windows in
    [t0, horizon]."""
    if delta <= 0.0:
        raise ValueError(f"delta must be > 0, got {delta}")
    if t0 < 0.0 or t0 >= events.horizon:
        raise InsufficientData(
            f"window start t0={t0} leaves no room before horizon {events.horizon}"
        )
    n_windows = int((events.horizon - t0) / delta + 1e-12)
    if n_windows < 1:
        raise InsufficientData(
            f"no window of length {delta} fits in [{t0}, {events.horizon}]"
        )
    sample = windowed_counts(events, t0, delta, n_windows)
    return empirical_from_counts(sample.counts, delta, t0)


def _check_start(theta) -> tuple[float, float, float]:
    a, b, li = theta
    if not (b > a > 0.0 and li > 0.0):
        raise ValueError(f"start point must satisfy beta > alpha > 0, lambda_inf > 0; got {theta}")
    return float(a), float(b), float(li)


def _excess_shape(x: float) -> float:
    """phi(x) = 1 - (1 - e^{-x})/x, the window-shape factor of the variance
    excess; increases from 0 to 1 as x = kappa * delta grows."""
    if x < 1e-4:
        return _excess_shape_series(x, math.pow)
    return 1.0 + math.expm1(-x) / x


def _excess_shape_series(x, pw):
    # phi's Taylor series, for floats with pw = math.pow and for arrays with
    # pw = _libm.power
    return x / 2.0 - x * x / 6.0 + pw(x, 3) / 24.0 - pw(x, 4) / 120.0


def _manifold(x, phi, lam_star: float, excess: float, delta: float, sqrt):
    # (alpha, beta, lambda_inf) at x given phi(x), for floats and arrays alike
    g = excess / phi
    one_minus_eta = 1.0 / sqrt(1.0 + g)
    kappa = x / delta
    beta = kappa / one_minus_eta
    return beta - kappa, beta, lam_star * one_minus_eta


def _params_on_manifold(x: float, lam_star: float, excess: float, delta: float) -> HawkesParams:
    """The unique parameters matching m1 and m2 exactly for a given x = kappa delta.

    The variance excess factors as (M2 - M1 - M1^2)/M1 = G(eta) phi(x) with
    eta = alpha/beta and G(eta) = eta (2 - eta)/(1 - eta)^2, so G inverts in
    closed form: 1 - eta = 1/sqrt(1 + G).  lambda* is pinned by M1 = lambda* delta.
    """
    return HawkesParams(*_manifold(x, _excess_shape(x), lam_star, excess, delta, math.sqrt))


def _m3_residual(x: float, lam_star: float, excess: float, delta: float, m3: float) -> float:
    """stationary_m3 - M3 at the parameters _params_on_manifold gives for x;
    inf where those are invalid, where the formula raises (a pow overflow,
    a zero division) or where its value is not finite."""
    try:
        # in Python floats: numpy scalars would overflow or divide by zero to
        # inf where Python raises
        p = _params_on_manifold(float(x), lam_star, excess, delta)
        val = stationary_m3(p, delta) - m3
    except (OverflowError, ZeroDivisionError, ValueError, HawkesError):
        return math.inf
    return val if math.isfinite(val) else math.inf


def _m3_residual_on_grid(grid: np.ndarray, lam_star: float, excess: float, delta: float,
                         m3: float) -> np.ndarray:
    """_m3_residual at every grid point in one numpy pass, bit for bit.

    The float operations repeat _params_on_manifold's and stationary_m3's in
    their order, with libm's pow, expm1, sqrt and exp applied element-wise.
    Where the scalar code raises (invalid parameters, a pow overflow, a zero
    division), the array path's value is non-finite, and so becomes inf.
    """
    with np.errstate(all="ignore"):
        small = grid < 1e-4
        phi = np.empty(grid.size)
        phi[small] = _excess_shape_series(grid[small], power)
        x = grid[~small]
        phi[~small] = 1.0 + elementwise(math.expm1, -x) / x
        alpha, beta, lam_inf = _manifold(grid, phi, lam_star, excess, delta,
                                         partial(elementwise, math.sqrt))
        # HawkesParams' checks
        ok = (np.isfinite(alpha) & np.isfinite(beta) & np.isfinite(lam_inf)
              & (alpha >= 0.0) & (lam_inf > 0.0) & (beta > alpha)).nonzero()[0]
        vals = np.full(grid.size, np.inf)
        res = _stationary_m3_array(alpha[ok], beta[ok], lam_inf[ok], delta) - m3
        vals[ok] = np.where(np.isfinite(res), res, np.inf)
    return vals


_SCAN_LO, _SCAN_HI, _SCAN_POINTS = 1e-7, 200.0, 600
# half an e-fold each way: how far the third-moment fit may pull x away from
# the starting point when the system has no exact root
_LOCAL_BRACKET_HALF_WIDTH = 0.5


def _residuals(p: HawkesParams, triple: MomentTriple, delta: float) -> tuple[float, float, float]:
    return (stationary_m1(p, delta) - triple.m1,
            stationary_m2(p, delta) - triple.m2,
            stationary_m3(p, delta) - triple.m3)


def solve_moment_system(
    triple: MomentTriple,
    delta: float,
    init: tuple[float, float, float],
    *,
    tol: float = 1e-9,
    multistart: tuple = (),
    window_stats: EmpiricalMoments | None = None,
) -> EstimateReport:
    """Solve the three-equation moment system for (alpha, beta, lambda_inf).

    The system is reduced exactly: M1 pins lambda*, the variance excess pins
    eta = alpha/beta as a closed-form function of x = kappa delta, and the
    third equation becomes a scalar root-find in x.  All sign changes of the
    scalar residual on a wide log-grid are bracketed and refined; among exact
    roots the one nearest the starting point (in (ln alpha, ln kappa)) is
    returned with each residual at or below ``tol * max(1, M_i)``: relative
    to the moment once it exceeds 1, since M3 reaches 1e4 on bursty data and
    an absolute 1e-9 would then sit below float64 rounding.

    Sampled moments frequently admit no exact root: given (M1, M2) the model
    constrains the attainable third moment to a band a fraction of a percent
    wide, and noisy M3 falls outside it.  The solve then returns the
    least-squares point on the (m1, m2)-exact curve within half an e-fold of
    the start's x (the third moment carries almost no information there, so
    the fit is not allowed to chase its noise across the whole curve).  Such
    fits are flagged "m3_best_fit" and count as converged with an honest
    residual_norm; genuinely infeasible data (variance at or below Poisson,
    no positive-excess solution) yield NoConvergence carrying the best
    attempt.

    The 600-point bracketing grid is evaluated as arrays in one pass
    (_m3_residual_on_grid), equal bit for bit to the scalar residual at every
    point, inf included; brentq and the bounded least-squares search call
    the scalar residual.  ``iterations`` reports the number of residual
    evaluations, each grid point counting as one.
    """
    for name, v in (("m1", triple.m1), ("m2", triple.m2), ("m3", triple.m3)):
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"moment {name} must be finite and positive, got {v}")
    starts = [_check_start(theta) for theta in (init, *multistart)]

    m1, m2, m3 = triple.m1, triple.m2, triple.m3
    lam_star = m1 / delta
    excess = (m2 - m1 - m1 * m1) / m1
    evaluations = 0

    def make_report(p: HawkesParams, order: int, flags: tuple[str, ...]) -> EstimateReport:
        residuals = _residuals(p, triple, delta)
        norm = max(map(abs, residuals))
        within = [abs(r) <= tol * max(1.0, m) for r, m in zip(residuals, (m1, m2, m3))]
        if p.alpha < BOUNDARY_ALPHA_RATIO * p.beta:
            flags = flags + ("boundary_alpha",)
        # a best-fit point still matches the first two moments exactly
        converged = all(within) or ("m3_best_fit" in flags and within[0] and within[1])
        return EstimateReport(
            params_hat=p,
            residual_norm=norm,
            iterations=evaluations,
            init=tuple(starts[order]),
            converged=converged,
            window_stats=window_stats,
            flags=flags,
        )

    if excess <= 0.0:
        # at or below Poisson variance: the only candidate is the alpha -> 0
        # boundary, with beta unidentified (kept at the start's value)
        beta0 = starts[0][1]
        alpha = 1e-12 * beta0
        p = HawkesParams(alpha, beta0, lam_star * (1.0 - alpha / beta0))
        report = make_report(p, 0, ())
        if report.converged:
            return report
        raise NoConvergence(
            f"window variance is at or below the Poisson level (excess {excess:.3e}); "
            f"best boundary fit has residual {report.residual_norm:.3e}",
            best_report=report,
        )

    def scalar_residual(x: float) -> float:
        nonlocal evaluations
        evaluations += 1
        return _m3_residual(x, lam_star, excess, delta, m3)

    # bracket every exact root on a wide dimensionless grid
    from scipy.optimize import brentq, minimize_scalar

    grid = np.geomspace(_SCAN_LO, _SCAN_HI, _SCAN_POINTS)
    vals = _m3_residual_on_grid(grid, lam_star, excess, delta, m3)
    evaluations += grid.size
    left, right = vals[:-1], vals[1:]
    with np.errstate(all="ignore"):
        sign_change = np.isfinite(left) & np.isfinite(right) & (left * right < 0.0)
    roots: list[float] = []
    for i in (sign_change | (left == 0.0)).nonzero()[0].tolist():
        if sign_change[i]:
            roots.append(brentq(scalar_residual, grid[i], grid[i + 1],
                                xtol=1e-15, rtol=8.9e-16, maxiter=200))
        else:
            roots.append(float(grid[i]))

    if roots:
        # selection by (converged, residual, start order); every start sees
        # the same root set, so this reduces to nearest-root-per-start
        attempts: list[tuple[bool, float, int, EstimateReport]] = []
        for order, start in enumerate(starts):
            a0, b0 = start[0], start[1]

            def distance(x: float) -> float:
                p = _params_on_manifold(x, lam_star, excess, delta)
                return math.hypot(math.log(p.alpha) - math.log(a0),
                                  math.log(p.kappa) - math.log(b0 - a0))

            best_x = min(roots, key=distance)
            report = make_report(_params_on_manifold(best_x, lam_star, excess, delta),
                                 order, ())
            attempts.append((not report.converged, report.residual_norm, order, report))
        attempts.sort(key=lambda t: t[:3])
        best = attempts[0][3]
    else:
        # no exact root: local least-squares in x anchored at the primary
        # start (competing by residual across multistart brackets would just
        # chase third-moment noise along the nearly flat curve)
        a0, b0 = starts[0][0], starts[0][1]
        x0 = min(max((b0 - a0) * delta, _SCAN_LO), _SCAN_HI)
        lo = max(x0 * math.exp(-_LOCAL_BRACKET_HALF_WIDTH), _SCAN_LO)
        hi = min(x0 * math.exp(_LOCAL_BRACKET_HALF_WIDTH), _SCAN_HI)
        res = minimize_scalar(lambda x: abs(scalar_residual(x)), bounds=(lo, hi),
                              method="bounded", options={"xatol": 1e-10, "maxiter": 200})
        best = make_report(_params_on_manifold(float(res.x), lam_star, excess, delta),
                           0, ("m3_best_fit",))
    if not best.converged:
        raise NoConvergence(
            f"no admissible parameters reach residual {tol} x max(1, M_i) "
            f"(best residual {best.residual_norm:.3e} from init {best.init})",
            best_report=best,
        )
    return best


def default_multistart(emp: EmpiricalMoments) -> tuple[tuple[float, float, float], ...]:
    """Extra starting points: the default init and a data-driven one seeding
    lambda_inf with M1/delta at alpha = beta/2, beta = 1.

    Root choice reads only a start's alpha and beta, so starts differing
    only in lambda_inf never change the fit."""
    return DEFAULT_INIT, (0.5, 1.0, emp.triple.m1 / emp.delta)


def estimate(events: EventSequence, config: EstimateConfig) -> EstimateReport:
    """Empirical moments followed by the moment-system solve.

    The solve starts from config.init with default_multistart's points as
    extra starts.  On non-convergence it warns and returns the solver's best
    attempt (converged = False) rather than raising, so harness callers can
    keep partial results.  InsufficientData propagates.
    """
    emp = empirical_moments(events, config.t0, config.delta)
    extra_flags: tuple[str, ...] = ()
    if config.t0 == 0.0:
        warnings.warn(
            "t0 = 0 applies stationary-limit moment formulas from the start of "
            "the record; consider discarding a burn-in interval",
            UserWarning,
            stacklevel=2,
        )
        extra_flags = ("t0_in_transient",)

    try:
        report = solve_moment_system(
            emp.triple, config.delta, config.init, tol=config.tol,
            multistart=default_multistart(emp), window_stats=emp,
        )
    except NoConvergence as exc:
        warnings.warn(str(exc), UserWarning, stacklevel=2)
        report = exc.best_report
    if extra_flags:
        report = replace(report, flags=report.flags + extra_flags)
    return report
