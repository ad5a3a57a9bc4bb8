"""Method-of-moments calibration: empirical moments and the nonlinear solve."""

import importlib
import math
import sys
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from closed_forms_mp import m2_mp, m3_mp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hawkesmom import (
    EstimateConfig,
    EventSequence,
    ExplosionRisk,
    HawkesError,
    HawkesParams,
    InsufficientData,
    MomentTriple,
    NoConvergence,
    NonPositiveBase,
    empirical_moments,
    estimate,
    integrate_moments,
    moment_triple,
    simulate_batch,
    simulate_cluster,
    simulate_exact,
    solve_moment_system,
    stationary_m1,
    validate_params,
    windowed_counts,
)
from hawkesmom.estimate import (
    _SCAN_HI,
    _SCAN_LO,
    _SCAN_POINTS,
    DEFAULT_INIT,
    TOL,
    _curve,
    _k3_residual,
    _window_count,
    empirical_from_counts,
)

GRID = np.geomspace(_SCAN_LO, _SCAN_HI, _SCAN_POINTS)


def residual_and_params(m1, excess, delta, k3_ratio, x=GRID):
    """The solver's third-cumulant residual at x, and the parameters on the
    (M1, M2)-exact curve there, or the error HawkesParams raises for them."""
    res = _k3_residual(x, m1 / delta, excess, delta, k3_ratio)
    with np.errstate(all="ignore"):
        _, _, alpha, beta, lam_inf = _curve(x, m1 / delta, excess, delta)
    params = []
    for a, b, li in zip(alpha.tolist(), beta.tolist(), lam_inf.tolist()):
        try:
            params.append(HawkesParams(a, b, li))
        except (HawkesError, ValueError) as exc:
            params.append(exc)
    return res, params


class TestEmpiricalMoments:
    def test_power_means(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # fewer than 30 windows
            emp = empirical_from_counts([1, 2], 2, delta=0.5)
        assert (emp.triple.m1, emp.triple.m2, emp.triple.m3) == (1.5, 2.5, 4.5)
        assert emp.window_count == 2

    def test_cubes_are_exact(self):
        # cubes above 2^53 (counts above 208,063) are rounded once, as
        # products; numpy's SIMD power loop misses some of them by an ulp
        for c in np.random.default_rng(3).integers(208_064, 2**21, size=2_000, endpoint=True):
            counts = np.zeros(32, dtype=np.int64)  # at least MIN_WINDOWS
            counts[0] = c
            exact = np.zeros(32)
            exact[0] = float(int(c) ** 3)
            assert empirical_from_counts(counts, 32, delta=0.5).triple.m3 == exact.mean(), c

    def test_empty_windows_are_insufficient_data(self):
        with pytest.raises(InsufficientData, match="^no count windows$"):
            empirical_from_counts([], 0, delta=0.5)
        with pytest.raises(InsufficientData, match="all 40 count windows are empty"):
            empirical_from_counts([], 40, delta=0.5)
        events = EventSequence(times=np.array([0.5]), horizon=10.0)
        with warnings.catch_warnings(), \
                pytest.raises(InsufficientData, match="all 9 count windows are empty"):
            warnings.simplefilter("ignore")  # fewer than 30 windows
            estimate(events, EstimateConfig(delta=1.0, t0=1.0))

    def test_insufficient_data(self):
        events = EventSequence(times=np.array([0.5]), horizon=1.0)
        with pytest.raises(InsufficientData):
            empirical_moments(events, t0=0.0, delta=2.0)
        with pytest.raises(InsufficientData):
            empirical_moments(events, t0=5.0, delta=0.5)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_delta_is_named(self, delta):
        events = EventSequence(times=np.array([0.5, 1.5, 2.5]), horizon=10.0)
        for fit in (lambda: empirical_moments(events, t0=1.0, delta=delta),
                    lambda: estimate(events, EstimateConfig(delta=delta, t0=1.0))):
            with pytest.raises(ValueError, match=f"delta must be > 0 and finite, got {delta}"):
                fit()

    @pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_t0_is_named(self, t0):
        events = EventSequence(times=np.array([0.5, 1.5, 2.5]), horizon=10.0)
        for fit in (lambda: empirical_moments(events, t0=t0, delta=1.0),
                    lambda: estimate(events, EstimateConfig(delta=1.0, t0=t0))):
            with pytest.raises(ValueError, match=f"t0 must be finite and >= 0, got {t0}"):
                fit()

    def test_few_windows_warns(self):
        events = EventSequence(times=np.array([0.5, 1.5, 2.5]), horizon=10.0)
        with pytest.warns(UserWarning, match="windows"):
            empirical_moments(events, t0=0.0, delta=1.0)

    def test_uses_maximal_whole_window_count(self):
        events = EventSequence(times=np.sort(np.random.default_rng(1).uniform(0, 100, 300)),
                               horizon=100.0)
        emp = empirical_moments(events, t0=10.0, delta=0.7)
        assert emp.window_count == int((100.0 - 10.0) / 0.7)
        assert emp.t0 == 10.0

    # the quotient (horizon - t0) / delta rounds below 2691 and 40489,
    # whose last edges t0 + delta n equal the horizon; 0.1 * 8718 rounds
    # past 871.8, and the 1e-12 tolerance still counts that window
    @pytest.mark.parametrize("horizon, t0, delta, windows", [
        (3026.91, 3000.0, 0.01, 2691),
        (2124.45, 100.0, 0.05, 40489),
        (871.8, 0.0, 0.1, 8718),
        (10000.0, 3000.0, 0.5, 14000),
    ])
    def test_window_count_keeps_every_window_that_fits(self, horizon, t0, delta, windows):
        assert _window_count(horizon, t0, delta) == windows
        assert t0 + delta * (windows - 1) < horizon < t0 + delta * (windows + 1)
        events = EventSequence(times=np.array([t0]), horizon=horizon)
        assert empirical_moments(events, t0=t0, delta=delta).window_count == windows

    def test_simulated_mean_near_stationary_m1(self):
        p = validate_params(0.2, 1.0, 1.0, 1.0)
        traj = simulate_exact(p, 10_000.0, 1234)
        emp = empirical_moments(traj.events, t0=3_000.0, delta=0.5)
        assert emp.window_count == 14_000
        assert abs(emp.triple.m1 - stationary_m1(p, 0.5)) <= 0.03  # ~3.5 adjusted SE

    def test_memory_follows_the_events(self):
        # epoch-like times from t0 = 0: 33,333,334 windows, one of them
        # non-empty; 16 bytes a window would be 533 MB
        times = 1e8 + np.array([0.5, 1.0, 1.5, 4.0])
        events = EventSequence(times=times, horizon=float(times[-1]))
        tracemalloc.start()
        try:
            emp = empirical_moments(events, t0=0.0, delta=3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert emp.window_count == 33_333_334
        assert emp.triple.m3 == 27.0 / 33_333_334
        assert peak < 1 << 20


class TestM3ResidualScan:
    """The third-moment residual k3/M1 - k3_hat/M1 on the (M1, M2)-exact
    curve, one numpy pass over the scan grid: equal to one-point calls, and
    within 1e-14 of 50-digit evaluation of the printed closed forms."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(log_m1=st.floats(-6.0, 6.0), log_excess=st.floats(-13.0, 6.0),
           log_m3=st.floats(-8.0, 12.0), log_delta=st.floats(-60.0, 60.0))
    def test_array_equals_scalar(self, log_m1, log_excess, log_m3, log_delta):
        # a point's value does not depend on the other points of its call, so
        # the scan and the refinement's sub-grids agree bit for bit
        m1, excess, m3, delta = 10.0**log_m1, 10.0**log_excess, 10.0**log_m3, 10.0**log_delta
        k3_ratio = (m3 - 3.0 * (m1 + m1 * m1 + excess * m1) * m1 + 2.0 * m1**3) / m1
        array, _ = residual_and_params(m1, excess, delta, k3_ratio)
        some = range(0, GRID.size, 7)
        scalar = [residual_and_params(m1, excess, delta, k3_ratio, GRID[i:i + 1])[0][0]
                  for i in some]
        assert np.array_equal(array[some], scalar)

    def test_both_branches_and_the_phi_series(self):
        # the grid runs through the window shapes' Taylor form (x < 1) and
        # direct form (x >= 1), and through kappa delta = 5e-3, where the
        # moments once switched branch; the residual is finite throughout
        # and continuous where the shapes change form
        m1, excess, delta = 0.625, 0.36, 0.5
        res, params = residual_and_params(m1, excess, delta, 1.0)
        assert np.isfinite(res).all()
        kd = np.array([p.kappa * delta for p in params])
        assert (kd < 5e-3).any() and (kd >= 5e-3).any()
        assert (GRID < 1.0).any() and (GRID >= 1.0).any()
        below, at = residual_and_params(m1, excess, delta, 0.0,
                                        np.array([np.nextafter(1.0, 0.0), 1.0]))[0]
        assert below == pytest.approx(at, rel=1e-14, abs=0.0)

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(log_m1=st.floats(-3.0, 3.0), log_excess=st.floats(-12.0, 4.0),
           log_delta=st.floats(-3.0, 3.0))
    def test_matches_high_precision_closed_form(self, log_m1, log_excess, log_delta):
        m1, excess, delta = 10.0**log_m1, 10.0**log_excess, 10.0**log_delta
        x = GRID[::25]
        k3 = _k3_residual(x, m1 / delta, excess, delta, 0.0)
        _, u, _, _, _ = _curve(x, m1 / delta, excess, delta)
        for value, xi, ui in zip(k3, x, u):
            # k3/M1 of the printed closed forms at kappa delta = x, beta/kappa = u
            with mp.workdps(50):
                kappa = mp.mpf(xi) / delta
                beta = kappa * mp.mpf(ui)
                mu = beta / kappa * delta
                m2, m3 = (f(beta - kappa, beta, 1, delta) for f in (m2_mp, m3_mp))
                ref = float((m3 - 3 * m2 * mu + 2 * mu**3) / mu)
            assert value == pytest.approx(ref, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("excess", [1e-12, 1e-20], ids=["small_alpha", "alpha_zero"])
    def test_alpha_to_zero(self, excess):
        res, params = residual_and_params(0.8, excess, 0.5, 1.0)
        assert np.isfinite(res).all()
        zero = np.array([p.alpha == 0.0 for p in params])
        assert zero.any() == (excess == 1e-20)
        # at alpha = 0 the counts are Poisson: k3/M1 = sum_j g_j(x) = 1
        assert np.abs(res[zero]).max(initial=0.0) <= 1e-15

    @pytest.mark.parametrize("m1, excess, delta, error", [
        (1.0, 1.0, 1e-55, None),  # kappa^6 overflowed in the kappa-factored form
        (1.0, 1.0, 1e55, None),  # kappa^6 underflowed to a zero divisor there
        (1.0, 1e40, 1.0, ExplosionRisk),  # beta == alpha in floats at every point
        (1e-300, 1e12, 1e20, NonPositiveBase),  # lambda_inf underflows to 0
        (1.0, 1.0, 1e-310, ValueError),  # lambda* or kappa overflow: non-finite params
    ])
    def test_inf_exactly_where_the_scalar_code_raises(self, m1, excess, delta, error):
        # the scalar code: HawkesParams at each point of the curve
        res, params = residual_and_params(m1, excess, delta, 1.0)
        raised = [isinstance(p, Exception) for p in params]
        assert np.array_equal(np.isinf(res), raised)
        assert np.isfinite(res[~np.array(raised)]).all()
        if error is None:
            assert not any(raised)
        else:
            assert any(isinstance(p, error) for p in params)
        # the solve returns a report or raises a library error, never crashes
        triple = MomentTriple(m1, m1 + m1 * m1 + excess * m1, 2.0, delta)
        try:
            report = solve_moment_system(triple, init=DEFAULT_INIT)
        except NoConvergence:
            # no candidate can be built: a decline with no attempt to report
            assert error is not None
        else:
            assert error is None and math.isfinite(report.residual_norm)


class TestSolveMomentSystem:
    def test_round_trip_reference_point(self):
        p = validate_params(0.2, 1.0, 1.0)
        triple = moment_triple(p, 0.5)
        report = solve_moment_system(triple, init=(0.5, 1.5, 2.0))
        assert report.converged
        assert report.residual_norm <= 1e-9
        assert report.params_hat.alpha == pytest.approx(0.2, abs=1e-6)
        assert report.params_hat.beta == pytest.approx(1.0, abs=1e-6)
        assert report.params_hat.lambda_inf == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("alpha", [0.1, 0.2, 0.4])
    @pytest.mark.parametrize("beta", [1.0, 2.0])
    @pytest.mark.parametrize("lam_inf", [0.5, 1.0])
    @pytest.mark.parametrize("delta", [0.25, 0.5])
    def test_round_trip_grid_from_scaled_init(self, alpha, beta, lam_inf, delta):
        p = validate_params(alpha, beta, lam_inf)
        triple = moment_triple(p, delta)
        init = (1.5 * alpha, 1.5 * beta, 1.5 * lam_inf)
        report = solve_moment_system(triple, init=init)
        assert report.converged
        assert report.params_hat.alpha == pytest.approx(alpha, abs=1e-6)
        assert report.params_hat.beta == pytest.approx(beta, abs=1e-6)
        assert report.params_hat.lambda_inf == pytest.approx(lam_inf, abs=1e-6)

    # kappa delta on both sides of 5e-3, where the moments once switched to
    # series; eta from 0 (alpha -> 0, hypothesis tries the bound) to 1 - 1e-4
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(log_one_minus_eta=st.floats(-4.0, 0.0), log_x=st.floats(-3.0, -1.0),
           log_m1=st.floats(-2.0, 1.0), log_delta=st.floats(-2.0, 1.0))
    def test_exact_triple_round_trip(self, log_one_minus_eta, log_x, log_m1, log_delta):
        eta, delta = 1.0 - 10.0**log_one_minus_eta, 10.0**log_delta
        kappa = 10.0**log_x / delta
        beta = kappa / (1.0 - eta)
        p = validate_params(beta - kappa, beta, 10.0**log_m1 / delta * (1.0 - eta))
        triple = moment_triple(p, delta)
        report = solve_moment_system(triple, init=(max(p.alpha, 1e-9 * beta), beta,
                                                   p.lambda_inf))
        # an exact root: every moment matched, the third one too
        assert report.converged
        assert report.residual_norm <= 1e-9 * max(1.0, triple.m3)
        if eta >= 0.2 and "m3_best_fit" not in report.flags:
            # the start's own root; m3_best_fit marks a close pair of roots
            # inside one scan cell, which the scan does not bracket
            hat = report.params_hat
            for name in ("alpha", "beta", "lambda_inf"):
                assert getattr(hat, name) == pytest.approx(getattr(p, name), rel=1e-5), name

    # (M1, M2, M3, delta) of two bursty posts (alpha/beta near 0.9) whose
    # best roots left an M3 residual of 1.2e-9 and 1.5e-8 when M3 was
    # evaluated in kappa-factored form: float64 rounding at M3 ~ 2e3 and 1e4,
    # not a failed solve; the cumulant form leaves a few ulp of M3
    @pytest.mark.parametrize("m1, m2, m3, delta", [
        (1.925593329057088, 49.801796023091725, 2439.134060295061, 0.41997830710484774),
        (2.279503105590062, 114.88819875776397, 11321.894409937888, 0.3342530784287687),
    ], ids=["m3_2e3", "m3_1e4"])
    def test_tolerance_scales_with_large_m3(self, m1, m2, m3, delta):
        triple = MomentTriple(m1=m1, m2=m2, m3=m3, delta=delta)
        report = solve_moment_system(triple, init=(0.5, 1.5, 2.0))
        assert report.converged and report.flags == ()
        assert report.residual_norm <= 1e-14 * m3  # reported unscaled
        hat = report.params_hat
        assert stationary_m1(hat, delta) == pytest.approx(m1, rel=1e-12)
        assert hat.alpha / hat.beta > 0.9

    def test_constraints_hold_by_construction(self):
        p = validate_params(0.3, 1.4, 0.8)
        triple = moment_triple(p, 0.4)
        report = solve_moment_system(triple, init=(0.1, 2.5, 0.3))
        hat = report.params_hat
        assert hat.beta > hat.alpha > 0.0 and hat.lambda_inf > 0.0

    def test_poisson_triple_hits_alpha_boundary(self):
        mu = 0.8  # lambda_inf * delta for a Poisson stream
        from hawkesmom import MomentTriple

        triple = MomentTriple(m1=mu, m2=mu + mu**2, m3=mu + 3 * mu**2 + mu**3, delta=0.5)
        report = solve_moment_system(triple, init=(0.5, 1.5, 2.0))
        assert report.converged
        assert "boundary_alpha" in report.flags
        assert report.params_hat.lambda_inf == pytest.approx(mu / 0.5, rel=1e-6)

    def test_weak_excitation_is_not_a_boundary_fit(self):
        # alpha/beta = 1e-4 is far above BOUNDARY_ALPHA_RATIO
        truth = validate_params(1e-4, 1.0, 1.0)
        report = solve_moment_system(moment_triple(truth, 0.5), init=DEFAULT_INIT)
        assert report.converged and report.flags == ()
        hat = report.params_hat
        assert hat.alpha / hat.beta == pytest.approx(1e-4, rel=1e-4)

    def test_best_fit_missing_m2_is_not_converged(self):
        # near criticality the least-squares point on the (M1, M2)-exact
        # curve matches M1 within TOL but misses M2 by 1.26e-9 relative
        triple = MomentTriple(m1=810346265611.3002, m2=6.566746099475116e+23,
                              m3=5.319421034250102e+35, delta=0.0033583157605554374)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = solve_moment_system(triple, init=(0.9999998716386658, 1.0, 1.0))
        assert [w.category for w in caught] == [UserWarning]
        assert report.flags == ("m3_best_fit",) and not report.converged
        exact = moment_triple(report.params_hat, triple.delta)
        assert abs(exact.m1 - triple.m1) <= TOL * triple.m1
        assert abs(exact.m2 - triple.m2) > TOL * triple.m2

    def test_no_convergence_on_infeasible_triple(self):
        from hawkesmom import MomentTriple

        # m2 < m1^2 cannot come from any point process: negative variance
        triple = MomentTriple(m1=2.0, m2=1.0, m3=1.0, delta=0.5)
        with pytest.warns(UserWarning, match="Poisson level"):
            best = solve_moment_system(triple, init=(0.5, 1.5, 2.0))
        assert not best.converged
        assert math.isfinite(best.residual_norm)

    # beta == alpha in floats at every point of the (M1, M2)-exact curve;
    # below Poisson variance with a subnormal delta, lambda* = M1/delta
    # overflows before any curve is formed, and the error says so
    @pytest.mark.parametrize("m2, delta, message", [
        (1e40 + 2, 1.0, "^no admissible parameters"),
        (1.5, 1e-310, r"^lambda\* = m1/delta overflows float64 \(m1 1, delta 1e-310\)$"),
    ], ids=["excess", "sub_poisson"])
    def test_no_admissible_candidate_declines(self, m2, delta, message):
        from hawkesmom import MomentTriple

        with pytest.raises(NoConvergence, match=message):
            solve_moment_system(MomentTriple(1, m2, 2, delta), DEFAULT_INIT)

    @pytest.mark.parametrize("m3_scale, flags", [(1.0, ()), (1.5, ("m3_best_fit",))],
                             ids=["root", "least_squares"])
    def test_missed_tolerance_warns_and_returns_the_fit(self, monkeypatch, m3_scale, flags):
        # no float residual reaches a tolerance of 0, on either path
        estimate_module = importlib.import_module("hawkesmom.estimate")
        monkeypatch.setattr(estimate_module, "TOL", 0.0)
        t = moment_triple(validate_params(0.2, 1.0, 1.0), 0.5)
        triple = MomentTriple(t.m1, t.m2, m3_scale * t.m3, 0.5)
        with pytest.warns(UserWarning, match=r"^no admissible parameters reach residual 0\.0 "):
            report = solve_moment_system(triple, init=DEFAULT_INIT)
        assert not report.converged
        assert report.flags == flags
        assert report.params_hat is not None and report.residual_norm > 0.0

    def test_rejects_nonpositive_moments(self):
        from hawkesmom import MomentTriple

        with pytest.raises(ValueError):
            solve_moment_system(MomentTriple(0.0, 1.0, 1.0, 0.5), (0.5, 1.5, 2.0))

    def test_rejects_inadmissible_init(self):
        p = validate_params(0.2, 1.0, 1.0)
        with pytest.raises(ValueError):
            solve_moment_system(moment_triple(p, 0.5), init=(1.5, 1.0, 1.0))

    @pytest.mark.parametrize("init", [
        (0.5, math.inf, 2.0), (math.nan, 1.5, 2.0), (0.5, 1.5, math.inf), (0.5, 1.5, math.nan),
    ])
    def test_rejects_non_finite_init(self, init):
        triple = moment_triple(validate_params(0.2, 1.0, 1.0), 0.5)
        with pytest.raises(ValueError, match="start point must be finite"):
            solve_moment_system(triple, init=init)

    # root choice reads only the start's alpha and beta, so starts differing
    # only in lambda_inf give the same fit and report their own init
    @pytest.mark.parametrize("m3_scale", [1.0, 1.01], ids=["exact_root", "m3_best_fit"])
    @pytest.mark.parametrize("init, other", [
        (DEFAULT_INIT, (0.5, 1.5, 0.75)),
        ((0.1, 2.5, 0.3), (0.1, 2.5, 7.0)),
    ])
    def test_start_differing_only_in_lambda_inf_changes_nothing(self, m3_scale, init, other):
        exact = moment_triple(validate_params(0.2, 1.0, 1.0), 0.5)
        triple = MomentTriple(exact.m1, exact.m2, exact.m3 * m3_scale, 0.5)
        first = solve_moment_system(triple, init=init)
        second = solve_moment_system(triple, init=other)
        assert ("m3_best_fit" in first.flags) == (m3_scale != 1.0)
        assert (first.init, second.init) == (init, other)
        for name in ("params_hat", "iterations", "residual_norm", "flags", "converged"):
            assert getattr(second, name) == getattr(first, name), name

    # a triple with two exact roots: each start gets the root nearest it in
    # (ln alpha, ln(beta - alpha)), and both roots are exact
    @pytest.mark.parametrize("init, root", [
        (DEFAULT_INIT, (1.5309344604270365, 2.3104082639382697, 3.023678025887512)),
        ((1.0, 1.3, 2.0), (1.0167845160400812, 1.2787350843487018, 1.835952805023765)),
    ], ids=["default_init", "near_truth"])
    def test_root_nearest_the_start(self, init, root):
        truth = validate_params(1.0167845160400812, 1.2787350843487018, 1.835952805023765)
        delta = 0.08570525505752138
        report = solve_moment_system(moment_triple(truth, delta), init=init)
        assert report.converged and report.flags == () and report.init == init
        assert report.residual_norm <= 1e-14
        hat = report.params_hat
        assert (hat.alpha, hat.beta, hat.lambda_inf) == pytest.approx(root, rel=1e-10, abs=0)

    def test_deterministic(self):
        p = validate_params(0.25, 1.2, 0.9)
        triple = moment_triple(p, 0.5)
        r1 = solve_moment_system(triple, init=(0.5, 1.5, 2.0))
        r2 = solve_moment_system(triple, init=(0.5, 1.5, 2.0))
        assert r1.params_hat == r2.params_hat
        assert r1.iterations == r2.iterations
        assert r1.residual_norm == r2.residual_norm


class TestEstimate:
    def _simulated_events(self, seed=42):
        p = validate_params(0.2, 1.0, 1.0, 1.0)
        return simulate_exact(p, 10_000.0, seed).events

    def test_single_trajectory_lands_in_plausible_range(self):
        events = self._simulated_events()
        cfg = EstimateConfig(delta=0.5, t0=3_000.0, init=(0.5, 1.5, 2.0))
        report = estimate(events, cfg)
        assert report.converged
        # per-trajectory scatter: alpha-hat ~ 0.2 +- 0.03, beta-hat is wide
        assert 0.05 <= report.params_hat.alpha <= 0.4
        assert 0.4 <= report.params_hat.beta <= 3.0
        assert 0.8 <= report.params_hat.lambda_inf <= 1.3

    def test_determinism(self):
        events = self._simulated_events()
        cfg = EstimateConfig(delta=0.5, t0=3_000.0, init=(0.5, 1.5, 2.0))
        r1, r2 = estimate(events, cfg), estimate(events, cfg)
        assert r1.params_hat == r2.params_hat and r1.init == r2.init

    def test_t0_zero_warns_and_flags(self):
        events = self._simulated_events()
        with pytest.warns(UserWarning, match="burn-in"):
            report = estimate(events, EstimateConfig(delta=0.5, t0=0.0))
        assert "t0_in_transient" in report.flags

    def test_insufficient_data_propagates(self):
        events = EventSequence(times=np.array([0.2, 0.3]), horizon=0.4)
        with pytest.raises(InsufficientData):
            estimate(events, EstimateConfig(delta=0.5, t0=0.0))

    @pytest.mark.parametrize("times, tol, unconverged", [
        (np.arange(0.5, 20.0), TOL, "window variance is at or below the Poisson level"),
        # no float residual reaches a tolerance of 0
        (np.array([0.1, 0.2, 0.3, 5.0, 9.1, 9.2, 13.0]), 0.0,
         "no admissible parameters reach residual"),
    ], ids=["sub_poisson", "missed_tolerance"])
    def test_warnings_name_the_caller(self, monkeypatch, times, tol, unconverged):
        # 20 windows from t0 = 0: the few-windows, t0 = 0 and solver
        # warnings, in that order, each at this file's estimate() call
        monkeypatch.setattr(importlib.import_module("hawkesmom.estimate"), "TOL", tol)
        events = EventSequence(times=times, horizon=20.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = estimate(events, EstimateConfig(delta=1.0, t0=0.0))
            line = sys._getframe().f_lineno - 1
        assert not report.converged
        starts = ["only 20 windows;", "t0 = 0 applies", unconverged]
        assert [str(w.message)[:len(start)] for w, start in zip(caught, starts)] == starts
        assert [(w.category, w.filename, w.lineno) for w in caught] == [
            (UserWarning, __file__, line)] * 3

    def test_scale_equivariance(self):
        events = self._simulated_events(seed=77)
        c = 60.0  # e.g. minutes -> hours rescale of the timeline
        cfg = EstimateConfig(delta=0.5, t0=3_000.0, init=(0.5, 1.5, 2.0))
        base = estimate(events, cfg)
        scaled_events = EventSequence(times=events.times / c, horizon=events.horizon / c)
        cfg_scaled = EstimateConfig(delta=0.5 / c, t0=3_000.0 / c,
                                    init=(0.5 * c, 1.5 * c, 2.0 * c))
        scaled = estimate(scaled_events, cfg_scaled)
        assert scaled.converged and base.converged
        assert scaled.params_hat.alpha == pytest.approx(c * base.params_hat.alpha, rel=1e-6)
        assert scaled.params_hat.beta == pytest.approx(c * base.params_hat.beta, rel=1e-6)
        assert scaled.params_hat.lambda_inf == pytest.approx(
            c * base.params_hat.lambda_inf, rel=1e-6)

    # at rates near 2^520 and 2^-530, beta lambda_inf overflows or is
    # subnormal while lambda* is a normal float
    @pytest.mark.parametrize("alpha", [0.2, 0.8])
    def test_fit_at_extreme_time_units(self, alpha):
        events = simulate_exact(validate_params(alpha, 1.0, 1.0), 10_000.0, 30001).events
        init = (0.5, 1.5, 2.0)
        base = estimate(events, EstimateConfig(delta=0.5, t0=3_000.0, init=init))
        assert base.converged
        unit = base.params_hat
        for c in (2.0**-520, 2.0**530):
            scaled = estimate(EventSequence(times=events.times * c, horizon=events.horizon * c),
                              EstimateConfig(delta=0.5 * c, t0=3_000.0 * c,
                                             init=tuple(v / c for v in init)))
            assert (scaled.converged, scaled.flags) == (base.converged, base.flags), c
            hat = scaled.params_hat
            assert (hat.alpha * c, hat.beta * c, hat.lambda_inf * c) == (
                unit.alpha, unit.beta, unit.lambda_inf), c

    def test_reports_best_attempt_when_nothing_converges(self):
        # two events -> degenerate moments the system cannot match
        events = EventSequence(times=np.array([0.1, 5.0]), horizon=40.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = estimate(events, EstimateConfig(delta=1.0, t0=0.0))
        assert not report.converged
        assert math.isfinite(report.residual_norm)

    def test_sub_poisson_windows_warn_once_and_return(self):
        # one event per window: the window variance is 0, below Poisson
        events = EventSequence(times=np.arange(1.0, 2001.0), horizon=2000.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = estimate(events, EstimateConfig(delta=1.0, t0=5.0))
        assert [str(w.message).split(" (")[0] for w in caught] == [
            "window variance is at or below the Poisson level"]
        assert caught[0].category is UserWarning
        assert not report.converged
        assert report.window_stats.window_count == 1995
        assert report.flags == ("boundary_alpha",)

    def test_tol_is_a_constant(self):
        assert EstimateConfig(delta=0.5).tol == TOL == 1e-9
        with pytest.raises(TypeError):
            EstimateConfig(delta=0.5, tol=1e-6)
        triple = moment_triple(validate_params(0.2, 1.0, 1.0), 0.5)
        with pytest.raises(TypeError):
            solve_moment_system(triple, DEFAULT_INIT, tol=1e-6)

    def test_window_stats_attached(self):
        events = self._simulated_events()
        report = estimate(events, EstimateConfig(delta=0.5, t0=3_000.0))
        assert report.window_stats is not None
        assert report.window_stats.window_count == 14_000
        assert report.window_stats.t0 == 3_000.0


class TestTimeScaleEquivariance:
    """Event times carry no unit: times scaled by c = 2^k, with every rate
    divided by c, give the same process.  A power of 2 scales each float
    exactly, so every layer whose arithmetic is products and quotients of
    scaled values is equivariant bit for bit; the generator's matrix
    exponential is not, since the scaling of A t sets its squarings."""

    # the generator's mixed moments up to total degree 3
    INDICES = [(m, l) for m in range(4) for l in range(4 - m)]

    @staticmethod
    def scaled(p, c):
        return validate_params(p.alpha / c, p.beta / c, p.lambda_inf / c, p.lambda0 / c)

    @given(k=st.integers(-150, 150), alpha=st.sampled_from([0.2, 0.5, 0.8]),
           t=st.sampled_from([0.1, 1.0, 3.0, 30.0]))
    @example(k=-150, alpha=0.8, t=3.0)
    @example(k=150, alpha=0.2, t=30.0)
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_every_layer_commutes_with_the_time_unit(self, k, alpha, t):
        c = 2.0**k
        p = validate_params(alpha, 1.0, 1.0, 2.0)
        q = self.scaled(p, c)
        # the samplers, and a lockstep batch, bit for bit
        for sample in (simulate_exact, simulate_cluster):
            assert np.array_equal(sample(p, 200.0, 5).events.times * c,
                                  sample(q, 200.0 * c, 5).events.times), sample.__name__
        for a, b in zip(simulate_batch(p, 20.0, 100, 64), simulate_batch(q, 20.0 * c, 100, 64),
                        strict=True):
            assert np.array_equal(a.events.times * c, b.events.times), a.seed
        # windows, empirical and closed-form moments: equal at both scales
        events = simulate_exact(p, 2000.0, 7).events
        rescaled = EventSequence(times=events.times * c, horizon=events.horizon * c)
        pairs = windowed_counts(events, 100.0, 0.5, 3800)
        pairs_c = windowed_counts(rescaled, 100.0 * c, 0.5 * c, 3800)
        assert np.array_equal(pairs.index, pairs_c.index)
        assert np.array_equal(pairs.counts, pairs_c.counts)
        emp = empirical_moments(events, 100.0, 0.5).triple
        emp_c = empirical_moments(rescaled, 100.0 * c, 0.5 * c).triple
        exact, exact_c = moment_triple(p, 0.5), moment_triple(q, 0.5 * c)
        for unit, other in ((emp, emp_c), (exact, exact_c)):
            assert (unit.m1, unit.m2, unit.m3, unit.delta * c) == (
                other.m1, other.m2, other.m3, other.delta)
        # E[lambda^m N^l] scales as c^-m, up to the exponential's rounding:
        # over every k, alpha and t that can be drawn here it is within 1.83e-15
        moments = integrate_moments(p, self.INDICES, t)
        moments_c = integrate_moments(q, self.INDICES, t * c)
        for (m, l), v in moments.items():
            assert moments_c[m, l] * c**m == pytest.approx(v, rel=4e-15, abs=0.0), (m, l)
        # the fit: the unit fit's parameters, divided by c
        init = (0.5, 1.5, 2.0)
        unit = estimate(events, EstimateConfig(delta=0.5, t0=100.0, init=init))
        fit = estimate(rescaled, EstimateConfig(delta=0.5 * c, t0=100.0 * c,
                                                init=tuple(v / c for v in init)))
        assert (fit.converged, fit.flags) == (unit.converged, unit.flags)
        for name in ("alpha", "beta", "lambda_inf"):
            assert getattr(fit.params_hat, name) * c == pytest.approx(
                getattr(unit.params_hat, name), rel=1e-15, abs=0.0), name
