"""Method-of-moments calibration: empirical moments and the nonlinear solve."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkesmom import (
    EstimateConfig,
    EventSequence,
    ExplosionRisk,
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
    stationary_m3,
    validate_params,
)
from hawkesmom.estimate import (
    _SCAN_HI,
    _SCAN_LO,
    _SCAN_POINTS,
    DEFAULT_INIT,
    _m3_residual,
    _m3_residual_on_grid,
    _params_on_manifold,
    default_multistart,
    empirical_from_counts,
)
from hawkesmom.moments import NEAR_CRITICAL_THRESHOLD, _stationary_m3_array

GRID = np.geomspace(_SCAN_LO, _SCAN_HI, _SCAN_POINTS)


def scan_both_ways(m1, excess, m3, delta):
    """The solver's M3 scan as one array pass and point by point."""
    lam_star = m1 / delta
    array = _m3_residual_on_grid(GRID, lam_star, excess, delta, m3)
    scalar = np.array([_m3_residual(x, lam_star, excess, delta, m3) for x in GRID])
    return array, scalar


class TestEmpiricalMoments:
    def test_power_means(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # fewer than 30 windows
            emp = empirical_from_counts([1, 2], delta=0.5)
        assert (emp.triple.m1, emp.triple.m2, emp.triple.m3) == (1.5, 2.5, 4.5)
        assert emp.window_count == 2

    def test_insufficient_data(self):
        events = EventSequence(times=np.array([0.5]), horizon=1.0)
        with pytest.raises(InsufficientData):
            empirical_moments(events, t0=0.0, delta=2.0)
        with pytest.raises(InsufficientData):
            empirical_moments(events, t0=5.0, delta=0.5)

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
    """The array scan equals the scalar residual bit for bit, inf included."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(log_m1=st.floats(-6.0, 6.0), log_excess=st.floats(-13.0, 6.0),
           log_m3=st.floats(-8.0, 12.0), log_delta=st.floats(-60.0, 60.0))
    def test_array_equals_scalar(self, log_m1, log_excess, log_m3, log_delta):
        array, scalar = scan_both_ways(10.0**log_m1, 10.0**log_excess, 10.0**log_m3,
                                       10.0**log_delta)
        assert np.array_equal(array, scalar)

    def test_both_branches_and_the_phi_series(self):
        m1, excess, m3, delta = 0.625, 0.36, 2.35, 0.5
        array, scalar = scan_both_ways(m1, excess, m3, delta)
        assert np.array_equal(array, scalar) and np.isfinite(array).all()
        kd = np.array([_params_on_manifold(float(x), m1 / delta, excess, delta).kappa * delta
                       for x in GRID])
        assert (kd < NEAR_CRITICAL_THRESHOLD).any() and (kd >= NEAR_CRITICAL_THRESHOLD).any()
        assert (GRID < 1e-4).any()

    @pytest.mark.parametrize("excess", [1e-12, 1e-20], ids=["small_alpha", "alpha_zero"])
    def test_alpha_to_zero(self, excess):
        m1, delta = 0.8, 0.5
        array, scalar = scan_both_ways(m1, excess, m1 + 3 * m1**2 + m1**3, delta)
        assert np.array_equal(array, scalar) and np.isfinite(array).all()
        params = [_params_on_manifold(float(x), m1 / delta, excess, delta) for x in GRID]
        if excess == 1e-20:
            # the series branch at alpha = 0, whose pole coefficients vanish
            assert any(p.alpha == 0.0 and p.kappa * delta < NEAR_CRITICAL_THRESHOLD
                       for p in params)
        else:
            assert 0.0 < min(p.alpha for p in params) < 1e-11

    def test_zero_coefficient_skips_its_power(self):
        # alpha = 0 and kappa = 1e-110: kappa^-3 overflows, but its coefficient
        # vanishes, and the scalar Laurent sum never evaluates it
        expected = stationary_m3(validate_params(0.0, 1e-110, 1.0), 1.0)
        assert math.isfinite(expected)
        got = _stationary_m3_array(np.zeros(1), np.full(1, 1e-110), np.ones(1), 1.0)
        assert np.array_equal(got, [expected])

    @pytest.mark.parametrize("m1, excess, delta, error", [
        (1.0, 1.0, 1e-55, OverflowError),  # kappa^6 overflows at the large-x end
        (1.0, 1.0, 1e55, ZeroDivisionError),  # kappa^6 underflows to a zero divisor
        (1.0, 1e40, 1.0, ExplosionRisk),  # beta == alpha in floats at every point
        (1e-300, 1e12, 1e20, NonPositiveBase),  # lambda_inf underflows to 0
        (1.0, 1.0, 1e-310, ValueError),  # lambda* or kappa overflow: non-finite params
    ])
    def test_inf_exactly_where_the_scalar_code_raises(self, m1, excess, delta, error):
        array, scalar = scan_both_ways(m1, excess, 2.0, delta)
        assert np.array_equal(array, scalar)
        raised = []
        for x in GRID:
            try:
                stationary_m3(_params_on_manifold(float(x), m1 / delta, excess, delta), delta)
            except error:
                raised.append(True)
            else:
                raised.append(False)
        assert any(raised)
        assert np.array_equal(np.isinf(array), raised)


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

    # (M1, M2, M3, delta) of two bursty posts (alpha/beta near 0.9) whose
    # best roots leave an M3 residual of 1.2e-9 and 1.5e-8: float64 rounding
    # at M3 ~ 2e3 and 1e4, not a failed solve
    @pytest.mark.parametrize("m1, m2, m3, delta", [
        (1.925593329057088, 49.801796023091725, 2439.134060295061, 0.41997830710484774),
        (2.279503105590062, 114.88819875776397, 11321.894409937888, 0.3342530784287687),
    ], ids=["m3_2e3", "m3_1e4"])
    def test_tolerance_scales_with_large_m3(self, m1, m2, m3, delta):
        triple = MomentTriple(m1=m1, m2=m2, m3=m3, delta=delta)
        report = solve_moment_system(triple, delta, init=(0.5, 1.5, 2.0))
        assert report.converged and report.flags == ()
        assert 1e-9 < report.residual_norm <= 1e-9 * m3  # reported unscaled
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

    def test_rejects_nonpositive_moments(self):
        from hawkesmom import MomentTriple

        with pytest.raises(ValueError):
            solve_moment_system(MomentTriple(0.0, 1.0, 1.0, 0.5), 0.5, (0.5, 1.5, 2.0))

    def test_rejects_inadmissible_init(self):
        p = validate_params(0.2, 1.0, 1.0)
        with pytest.raises(ValueError):
            solve_moment_system(moment_triple(p, 0.5), 0.5, init=(1.5, 1.0, 1.0))

    # a start that differs from init only in lambda_inf picks the same root
    # (root choice reads a start's alpha and beta), so it never changes the fit
    @pytest.mark.parametrize("m3_scale", [1.0, 1.01], ids=["exact_root", "m3_best_fit"])
    @pytest.mark.parametrize("init, extra", [
        (DEFAULT_INIT, (0.5, 1.5, 0.75)),
        ((0.1, 2.5, 0.3), (0.1, 2.5, 7.0)),
    ])
    def test_start_differing_only_in_lambda_inf_changes_nothing(self, m3_scale, init, extra):
        exact = moment_triple(validate_params(0.2, 1.0, 1.0), 0.5)
        triple = MomentTriple(exact.m1, exact.m2, exact.m3 * m3_scale, 0.5)
        alone = solve_moment_system(triple, 0.5, init=init)
        both = solve_moment_system(triple, 0.5, init=init, multistart=(extra,))
        assert ("m3_best_fit" in alone.flags) == (m3_scale != 1.0)
        for name in ("params_hat", "init", "iterations", "residual_norm", "flags"):
            assert getattr(both, name) == getattr(alone, name), name

    def test_inadmissible_extra_start_rejected(self):
        triple = moment_triple(validate_params(0.2, 1.0, 1.0), 0.5)
        with pytest.raises(ValueError, match="start point"):
            solve_moment_system(triple, 0.5, init=DEFAULT_INIT, multistart=((1.5, 1.0, 1.0),))

    def test_default_multistart(self):
        emp = empirical_from_counts(np.arange(40) % 3, delta=0.5)
        assert default_multistart(emp) == (DEFAULT_INIT, (0.5, 1.0, emp.triple.m1 / 0.5))

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

    def test_window_stats_attached(self):
        events = self._simulated_events()
        report = estimate(events, EstimateConfig(delta=0.5, t0=3_000.0))
        assert report.window_stats is not None
        assert report.window_stats.window_count == 14_000
        assert report.window_stats.t0 == 3_000.0
