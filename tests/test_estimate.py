"""Method-of-moments calibration: empirical moments and the nonlinear solve."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from closed_forms_mp import m2_mp, m3_mp
from hypothesis import given, settings
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
    moment_triple,
    simulate_exact,
    solve_moment_system,
    stationary_m1,
    validate_params,
)
from hawkesmom.estimate import (
    _SCAN_HI,
    _SCAN_LO,
    _SCAN_POINTS,
    DEFAULT_INIT,
    _curve,
    _k3_residual,
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
            emp = empirical_from_counts([1, 2], delta=0.5)
        assert (emp.triple.m1, emp.triple.m2, emp.triple.m3) == (1.5, 2.5, 4.5)
        assert emp.window_count == 2

    def test_empty_windows_are_insufficient_data(self):
        with pytest.raises(InsufficientData, match="all 40 count windows are empty"):
            empirical_from_counts(np.zeros(40), delta=0.5)
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

    @pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf])
    def test_non_finite_t0_is_named(self, t0):
        events = EventSequence(times=np.array([0.5, 1.5, 2.5]), horizon=10.0)
        for fit in (lambda: empirical_moments(events, t0=t0, delta=1.0),
                    lambda: estimate(events, EstimateConfig(delta=1.0, t0=t0))):
            with pytest.raises(ValueError, match=f"t0 must be finite, got {t0}"):
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

    def test_simulated_mean_near_stationary_m1(self):
        p = validate_params(0.2, 1.0, 1.0, 1.0)
        traj = simulate_exact(p, 10_000.0, 1234)
        emp = empirical_moments(traj.events, t0=3_000.0, delta=0.5)
        assert emp.window_count == 14_000
        assert abs(emp.triple.m1 - stationary_m1(p, 0.5)) <= 0.03  # ~3.5 adjusted SE


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
            report = solve_moment_system(triple, delta, init=DEFAULT_INIT)
        except NoConvergence as exc:
            # no candidate can be built: a decline with no best attempt
            assert error is not None and exc.best_report is None
        else:
            assert error is None and math.isfinite(report.residual_norm)


class TestSolveMomentSystem:
    def test_round_trip_reference_point(self):
        p = validate_params(0.2, 1.0, 1.0)
        triple = moment_triple(p, 0.5)
        report = solve_moment_system(triple, 0.5, init=(0.5, 1.5, 2.0))
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
        report = solve_moment_system(triple, delta, init=init)
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
        report = solve_moment_system(triple, delta, init=(max(p.alpha, 1e-9 * beta), beta,
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
        report = solve_moment_system(triple, delta, init=(0.5, 1.5, 2.0))
        assert report.converged and report.flags == ()
        assert report.residual_norm <= 1e-14 * m3  # reported unscaled
        hat = report.params_hat
        assert stationary_m1(hat, delta) == pytest.approx(m1, rel=1e-12)
        assert hat.alpha / hat.beta > 0.9

    def test_constraints_hold_by_construction(self):
        p = validate_params(0.3, 1.4, 0.8)
        triple = moment_triple(p, 0.4)
        report = solve_moment_system(triple, 0.4, init=(0.1, 2.5, 0.3))
        hat = report.params_hat
        assert hat.beta > hat.alpha > 0.0 and hat.lambda_inf > 0.0

    def test_poisson_triple_hits_alpha_boundary(self):
        mu = 0.8  # lambda_inf * delta for a Poisson stream
        from hawkesmom import MomentTriple

        triple = MomentTriple(m1=mu, m2=mu + mu**2, m3=mu + 3 * mu**2 + mu**3, delta=0.5)
        report = solve_moment_system(triple, 0.5, init=(0.5, 1.5, 2.0))
        assert report.converged
        assert "boundary_alpha" in report.flags
        assert report.params_hat.lambda_inf == pytest.approx(mu / 0.5, rel=1e-6)

    def test_no_convergence_on_infeasible_triple(self):
        from hawkesmom import MomentTriple

        # m2 < m1^2 cannot come from any point process: negative variance
        triple = MomentTriple(m1=2.0, m2=1.0, m3=1.0, delta=0.5)
        with pytest.raises(NoConvergence) as excinfo:
            solve_moment_system(triple, 0.5, init=(0.5, 1.5, 2.0))
        best = excinfo.value.best_report
        assert best is not None and not best.converged
        assert math.isfinite(best.residual_norm)

    # beta == alpha in floats at every point of the (M1, M2)-exact curve;
    # below Poisson variance, lambda* = M1/delta overflows at the boundary
    @pytest.mark.parametrize("m2, delta", [(1e40 + 2, 1.0), (1.5, 1e-310)],
                             ids=["excess", "sub_poisson"])
    def test_no_admissible_candidate_declines(self, m2, delta):
        from hawkesmom import MomentTriple

        with pytest.raises(NoConvergence, match="admissible") as excinfo:
            solve_moment_system(MomentTriple(1, m2, 2, delta), delta, DEFAULT_INIT)
        assert excinfo.value.best_report is None

    def test_rejects_nonpositive_moments(self):
        from hawkesmom import MomentTriple

        with pytest.raises(ValueError):
            solve_moment_system(MomentTriple(0.0, 1.0, 1.0, 0.5), 0.5, (0.5, 1.5, 2.0))

    def test_rejects_inadmissible_init(self):
        p = validate_params(0.2, 1.0, 1.0)
        with pytest.raises(ValueError):
            solve_moment_system(moment_triple(p, 0.5), 0.5, init=(1.5, 1.0, 1.0))

    @pytest.mark.parametrize("init", [
        (0.5, math.inf, 2.0), (math.nan, 1.5, 2.0), (0.5, 1.5, math.inf), (0.5, 1.5, math.nan),
    ])
    def test_rejects_non_finite_init(self, init):
        triple = moment_triple(validate_params(0.2, 1.0, 1.0), 0.5)
        with pytest.raises(ValueError, match="start point must be finite"):
            solve_moment_system(triple, 0.5, init=init)

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
        first = solve_moment_system(triple, 0.5, init=init)
        second = solve_moment_system(triple, 0.5, init=other)
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
        report = solve_moment_system(moment_triple(truth, delta), delta, init=init)
        assert report.converged and report.flags == () and report.init == init
        assert report.residual_norm <= 1e-14
        hat = report.params_hat
        assert (hat.alpha, hat.beta, hat.lambda_inf) == pytest.approx(root, rel=1e-10, abs=0)

    def test_deterministic(self):
        p = validate_params(0.25, 1.2, 0.9)
        triple = moment_triple(p, 0.5)
        r1 = solve_moment_system(triple, 0.5, init=(0.5, 1.5, 2.0))
        r2 = solve_moment_system(triple, 0.5, init=(0.5, 1.5, 2.0))
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

    def test_reports_best_attempt_when_nothing_converges(self):
        # two events -> degenerate moments the system cannot match
        events = EventSequence(times=np.array([0.1, 5.0]), horizon=40.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = estimate(events, EstimateConfig(delta=1.0, t0=0.0))
        assert not report.converged
        assert math.isfinite(report.residual_norm)

    def test_tol_is_a_constant(self):
        assert EstimateConfig(delta=0.5).tol == 1e-9
        with pytest.raises(TypeError):
            EstimateConfig(delta=0.5, tol=1e-6)

    def test_window_stats_attached(self):
        events = self._simulated_events()
        report = estimate(events, EstimateConfig(delta=0.5, t0=3_000.0))
        assert report.window_stats is not None
        assert report.window_stats.window_count == 14_000
        assert report.window_stats.t0 == 3_000.0
