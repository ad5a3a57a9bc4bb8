"""Closed-form moment formulas against independent oracles.

Oracles used here:
* quadrature of mean_intensity for expected counts;
* the generator/ODE system started from the stationary intensity law for
  the limiting window moments (m1, m2, m3);
* mpmath high-precision evaluation of the printed closed forms, at every
  kappa delta and up to criticality;
* Monte Carlo for a spot check (the heavy version lives in the acceptance
  suite).
"""

import math
import re
import tracemalloc
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from closed_forms_mp import helper_integrals, limit_intensity_mp, m2_mp, m3_mp
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (dense_counts, increment_mean_exact, integrate_polynomial_on_path,
                     mean_intensity, second_moment_intensity)
from scipy.integrate import quad

from hawkesmom import (
    BivariatePolynomial,
    EstimateConfig,
    EventSequence,
    apply_generator,
    count_at,
    integrate_moments,
    intensity_at,
    intensity_on_grid,
    limit_intensity_moments,
    mean_count,
    moment_triple,
    parse_events,
    post_jump_intensities,
    simulate_batch,
    simulate_cluster,
    simulate_exact,
    solve_moment_system,
    stationary_m1,
    stationary_m2,
    stationary_m3,
    validate_params,
    windowed_counts,
)
from hawkesmom.cli import _step_grid, build_parser, cmd_validate
from hawkesmom.core import _times
from hawkesmom.estimate import DEFAULT_INIT
from hawkesmom.moments import _SHAPES, _taylor_coefficient
from hawkesmom.simulate import map_batch

P = validate_params(0.2, 1.0, 1.0, 1.0)
SPARSE = validate_params(0.2, 1.0, 1e-3)
VALIDATE = ["validate", "--alpha", "0.2", "--beta", "1.0", "--lambda-inf", "1.0",
            "--horizon", "50", "--t0", "10", "--delta", "0.5", "--seed", "1", "--count"]

# frozen from the generator/ODE oracle (stationary start, RK tolerances 1e-11):
M1_REF = 0.625
M2_REF = 1.0774297279610112
M3_REF = 2.3546087582594266


def stationary_increment_moments_by_ode(params, delta):
    """Window moments from the moment ODE system started at the stationary
    intensity law with the counter reset to zero."""
    lam = limit_intensity_moments(params)
    init = {1: lam[0], 2: lam[1], 3: lam[2]}
    out = integrate_moments(params, [(0, 1), (0, 2), (0, 3)], delta,
                            initial_intensity_moments=init)
    return out[(0, 1)], out[(0, 2)], out[(0, 3)]


class TestMeanIntensity:
    def test_initial_value(self):
        p = validate_params(0.3, 1.1, 0.9, 1.7)
        assert mean_intensity(p, 0.0) == pytest.approx(1.7, rel=1e-15, abs=0.0)

    def test_stationary_start_constant(self):
        p = validate_params(0.2, 1.0, 1.0, 1.25)
        for t in (0.1, 1.0, 10.0, 100.0):
            assert mean_intensity(p, t) == pytest.approx(1.25, rel=1e-12)

    def test_limit_is_lambda_star(self):
        assert mean_intensity(P, 200.0) == pytest.approx(1.25, rel=1e-12)
        assert P.lambda_star == pytest.approx(0.2 * 0 + 1.0 * 1.0 / 0.8)


class TestSecondMomentIntensity:
    def test_limit(self):
        # beta li (alpha^2 + 2 beta li) / (2 kappa^2) = 2.04 / 1.28
        assert second_moment_intensity(P, 200.0) == pytest.approx(1.59375, rel=1e-12)

    def test_initial_value(self):
        p = validate_params(0.3, 1.4, 0.6, 1.9)
        assert second_moment_intensity(p, 0.0) == pytest.approx(1.9**2, rel=1e-12)

    def test_deterministic_intensity_when_poisson(self):
        p = validate_params(0.0, 1.3, 1.7, 1.7)
        for t in (0.0, 0.4, 3.0, 40.0):
            assert second_moment_intensity(p, t) == pytest.approx(1.7**2, rel=1e-12)

    def test_transient_against_ode(self):
        p = validate_params(0.35, 1.5, 0.6, 2.0)
        for t in (0.3, 1.0, 5.0, 20.0):
            ode = integrate_moments(p, [(2, 0)], t)[(2, 0)]
            assert second_moment_intensity(p, t) == pytest.approx(ode, rel=1e-7)


class TestMeanCount:
    def test_stationary_start_linear(self):
        p = validate_params(0.2, 1.0, 1.0, 1.25)
        assert mean_count(p, 10.0) == pytest.approx(12.5, rel=1e-12)

    def test_quadrature_oracle_unit_time(self):
        val, err = quad(lambda s: mean_intensity(P, s), 0.0, 1.0, epsabs=1e-12)
        assert val == pytest.approx(1.0779153012866318, abs=1e-10)  # frozen
        assert mean_count(P, 1.0) == pytest.approx(val, abs=max(1e-10, 10 * err))

    def test_retweet_parameters_quadrature_oracle(self):
        p = validate_params(0.772, 1.133, 0.243, 0.243)
        val, err = quad(lambda s: mean_intensity(p, s), 0.0, 600.0, limit=500)
        assert mean_count(p, 600.0) == pytest.approx(val, rel=1e-9)
        assert mean_count(p, 600.0) == pytest.approx(456.154, abs=5e-3)  # frozen

    def test_zero_time(self):
        assert mean_count(P, 0.0) == 0.0


class TestIncrementMeanExact:
    def test_stationary_start(self):
        p = validate_params(0.2, 1.0, 1.0, 1.25)
        for t in (0.0, 3.0, 17.0):
            assert increment_mean_exact(p, t, 0.5) == pytest.approx(0.625, rel=1e-12)

    def test_large_t_limit(self):
        assert increment_mean_exact(P, 1e4, 0.5) == pytest.approx(stationary_m1(P, 0.5), rel=1e-12)

    def test_telescoping_from_zero(self):
        assert increment_mean_exact(P, 0.0, 0.5) == pytest.approx(mean_count(P, 0.5), rel=1e-12)

    def test_equals_mean_count_difference(self):
        p = validate_params(0.45, 1.7, 0.3, 2.2)
        for t, d in [(0.0, 0.25), (1.3, 0.5), (8.0, 2.0), (50.0, 0.1)]:
            diff = mean_count(p, t + d) - mean_count(p, t)
            assert increment_mean_exact(p, t, d) == pytest.approx(diff, rel=1e-12, abs=1e-12)

    def test_window_sum_telescopes(self):
        p = validate_params(0.3, 1.2, 0.9, 1.8)
        t0, d, n = 0.7, 0.4, 12
        total = sum(increment_mean_exact(p, t0 + j * d, d) for j in range(n))
        assert total == pytest.approx(mean_count(p, t0 + n * d) - mean_count(p, t0), rel=1e-11)

    def test_transient_against_monte_carlo(self):
        # the lambda0-dependent transient term, checked from a start far
        # above the stationary level
        p = validate_params(0.2, 1.0, 1.0, 3.0)
        t, d, n_paths = 1.0, 2.0, 4000
        incs = np.empty(n_paths)
        for i, traj in enumerate(simulate_batch(p, t + d, 90_000, n_paths)):
            times = traj.events.times
            incs[i] = np.searchsorted(times, t + d, side="right") - np.searchsorted(
                times, t, side="right")
        se = incs.std(ddof=1) / math.sqrt(n_paths)
        assert abs(incs.mean() - increment_mean_exact(p, t, d)) <= 3.0 * se


class TestStationaryMoments:
    def test_m1_value(self):
        assert stationary_m1(P, 0.5) == pytest.approx(0.625, rel=1e-15, abs=0.0)

    def test_m1_poisson(self):
        p = validate_params(0.0, 1.0, 1.7, 1.7)
        assert stationary_m1(p, 0.4) == pytest.approx(1.7 * 0.4, rel=1e-15, abs=0.0)

    def test_m1_linear_in_delta(self):
        assert stationary_m1(P, 1.0) == pytest.approx(2.0 * stationary_m1(P, 0.5),
                                                      rel=1e-15, abs=0.0)

    def test_m2_value(self):
        assert stationary_m2(P, 0.5) == pytest.approx(M2_REF, rel=1e-12)

    def test_m3_value(self):
        assert stationary_m3(P, 0.5) == pytest.approx(M3_REF, rel=1e-12)

    @pytest.mark.parametrize("li", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("delta", [0.1, 0.5, 1.0])
    def test_poisson_reduction(self, li, delta):
        p = validate_params(0.0, 1.0, li, li)
        mu = li * delta
        assert stationary_m1(p, delta) == pytest.approx(mu, rel=1e-9)
        assert stationary_m2(p, delta) == pytest.approx(mu + mu**2, rel=1e-9)
        assert stationary_m3(p, delta) == pytest.approx(mu + 3 * mu**2 + mu**3, rel=1e-9)

    @pytest.mark.parametrize("theta", [(0.2, 1.0, 1.0, 0.5), (0.4, 1.3, 0.7, 0.25),
                                       (0.1, 2.0, 0.5, 1.0), (0.772, 1.133, 0.243, 1.0 / 60.0)])
    def test_against_stationary_start_ode_oracle(self, theta):
        a, b, li, d = theta
        p = validate_params(a, b, li)
        ode = stationary_increment_moments_by_ode(p, d)
        assert stationary_m1(p, d) == pytest.approx(ode[0], rel=1e-8)
        assert stationary_m2(p, d) == pytest.approx(ode[1], rel=1e-8)
        assert stationary_m3(p, d) == pytest.approx(ode[2], rel=1e-7)

    def test_variance_nonnegative_on_grid(self):
        for a in (0.05, 0.2, 0.5, 0.9):
            for b in (1.0, 2.0):
                if a >= b:
                    continue
                for li in (0.5, 1.0):
                    for d in (0.1, 0.5, 2.0):
                        p = validate_params(a, b, li)
                        assert stationary_m2(p, d) >= stationary_m1(p, d) ** 2

    def test_skewness_positive_on_grid(self):
        for a in (0.1, 0.3, 0.6):
            for b in (1.0, 1.5):
                for li in (0.5, 1.0):
                    for d in (0.25, 0.5, 1.0):
                        p = validate_params(a, b, li)
                        m1 = stationary_m1(p, d)
                        m2 = stationary_m2(p, d)
                        m3 = stationary_m3(p, d)
                        assert m3 - 3 * m2 * m1 + 2 * m1**3 > 0.0

    def test_monte_carlo_spot_check(self):
        # one long path; the 200-path version is acceptance criterion 2
        traj = simulate_exact(P, 10_000.0, 909)
        pairs = windowed_counts(traj.events, 3_000.0, 0.5, 14_000)
        counts = dense_counts(pairs, 14_000).astype(float)
        # correlation-inflated standard errors on this window sample
        for power, ref, tol in [(1, M1_REF, 0.030), (2, M2_REF, 0.075), (3, M3_REF, 0.30)]:
            assert abs((counts**power).mean() - ref) <= tol

    def test_continuity_as_alpha_vanishes(self):
        for d in (0.1, 0.5, 1.0):
            tiny = validate_params(1e-8, 1.0, 1.0)
            zero = validate_params(0.0, 1.0, 1.0)
            assert stationary_m1(tiny, d) == pytest.approx(stationary_m1(zero, d), rel=1e-6)
            assert stationary_m2(tiny, d) == pytest.approx(stationary_m2(zero, d), rel=1e-6)
            assert stationary_m3(tiny, d) == pytest.approx(stationary_m3(zero, d), rel=1e-6)

    def test_moment_triple_bundles(self):
        t = moment_triple(P, 0.5)
        assert (t.m1, t.m2, t.m3, t.delta) == (
            stationary_m1(P, 0.5), stationary_m2(P, 0.5), stationary_m3(P, 0.5), 0.5)

    def test_m2_finite_where_m3_overflows(self):
        # M1 = 2e150: M1^2 fits in float64, M1^3 does not
        p = validate_params(1e150, 2e150, 1e150)
        with np.errstate(over="ignore"):
            assert math.isfinite(stationary_m2(p, 1.0))
            for m3 in (stationary_m3, moment_triple):
                with pytest.raises(OverflowError):
                    m3(p, 1.0)


def mp_reference(a, b, li, d):
    """(m2, m3) of the printed closed forms at 50 digits."""
    with mp.workdps(50):
        return [float(m2_mp(a, b, li, d)), float(m3_mp(a, b, li, d))]


def cumulant_form(p, d):
    return stationary_m2(p, d), stationary_m3(p, d)


class TestCumulantForm:
    """The window moments against 50-digit evaluation of the printed closed
    forms (parameters as given, in floats), from alpha = 0 to eta = 1 - 1e-4
    and over kappa delta from 1e-9 to 1e3."""

    @pytest.mark.parametrize("eta", [0.0, 1e-12, 1e-6, 0.2, 0.5, 0.9, 0.99, 1.0 - 1e-4])
    def test_within_1e_14_of_high_precision(self, eta):
        for x in np.geomspace(1e-9, 1e3, 25):
            for li in (0.01, 1.0, 100.0):
                p = validate_params(eta, 1.0, li)
                d = float(x / p.kappa)
                for got, ref in zip(cumulant_form(p, d), mp_reference(eta, 1.0, li, d)):
                    assert got == pytest.approx(ref, rel=1e-14, abs=0.0), (x, li)

    def test_shapes_have_no_pole_at_zero(self):
        # each numerator N(x) of N(x)/x has constant term [x^-1] N(x)/x = 0
        for coefficients in _SHAPES:
            assert _taylor_coefficient(coefficients, -1) == 0.0

    def test_poisson_at_vanishing_kappa(self):
        # alpha = 0 with kappa = beta = 1e-110: every kappa power of the
        # printed forms overflows; the counts are Poisson with mean 1
        p = validate_params(0.0, 1e-110, 1.0)
        assert stationary_m2(p, 1.0) == pytest.approx(2.0, rel=1e-15, abs=0.0)
        assert stationary_m3(p, 1.0) == pytest.approx(5.0, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("beta", [1e155, 1e200, 1e300])
    def test_poisson_at_huge_kappa(self, beta):
        # alpha = 0 with kappa delta = beta, past 1.34e154, where an x^2 term
        # of the window shapes once overflowed and made every shape NaN; the
        # counts are Poisson with mean 1
        triple = moment_triple(validate_params(0.0, beta, 1.0), 1.0)
        assert [triple.m1, triple.m2, triple.m3] == pytest.approx([1.0, 2.0, 5.0],
                                                                  rel=1e-15, abs=0.0)


class TestNearCriticalBranch:
    """Small kappa delta, where the printed forms cancel through kappa^-6 and
    were once replaced by Laurent series below kappa delta = 5e-3, each side
    of that switch accurate to about 1e-8: the cumulant form has no branch
    and stays within 1e-14 of 50-digit evaluation (kappa chosen exactly
    representable)."""

    @pytest.mark.parametrize("kappa", [2.0**-21, 2.0**-30, 2.0**-40])
    def test_m2_m3_series_match_high_precision(self, kappa):
        a, li, d = 0.5, 1.0, 1.0
        p = validate_params(a, a + kappa, li)
        for got, ref in zip(cumulant_form(p, d), mp_reference(a, a + kappa, li, d)):
            assert got == pytest.approx(ref, rel=1e-14, abs=0.0)

    def test_small_delta_large_kappa_side(self):
        # kappa * delta small through delta, with kappa of order one
        a, li, d = 1.0, 0.7, 2.0**-24
        p = validate_params(a, a + 1.0, li)
        for got, ref in zip(cumulant_form(p, d), mp_reference(a, a + 1.0, li, d)):
            assert got == pytest.approx(ref, rel=1e-14, abs=0.0)

    def test_branch_crossover_is_continuous(self):
        a, li, d = 0.5, 1.0, 1.0
        for kappa in (2.5e-3, 1.0e-2):  # on either side of the old switch
            p = validate_params(a, a + kappa, li)
            for got, ref in zip(cumulant_form(p, d), mp_reference(a, p.beta, li, d)):
                assert got == pytest.approx(ref, rel=1e-14, abs=0.0)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(log_alpha=st.floats(-3.0, 2.0), log_lam=st.floats(-2.0, 1.0),
           log_delta=st.floats(-3.0, 2.0))
    def test_branches_agree_at_the_threshold(self, log_alpha, log_lam, log_delta):
        a, li, d = 10.0**log_alpha, 10.0**log_lam, 10.0**log_delta
        for s in (1.0 - 1e-9, 1.0 + 1e-9):
            p = validate_params(a, a + 5e-3 * s / d, li)
            for got, ref in zip(cumulant_form(p, d), mp_reference(a, p.beta, li, d)):
                assert got == pytest.approx(ref, rel=1e-14, abs=0.0)


class TestLimitIntensityMoments:
    def test_poisson_degenerate(self):
        p = validate_params(0.0, 1.0, 1.0, 1.0)
        assert limit_intensity_moments(p) == pytest.approx((1.0, 1.0, 1.0), rel=1e-12)

    def test_poisson_at_huge_kappa(self):
        # beta lambda_inf squared is 1e400, past float64's range; the
        # intensity is the constant 1
        p = validate_params(0.0, 1e200, 1.0)
        assert limit_intensity_moments(p) == (1.0, 1.0, 1.0)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(log_beta=st.floats(-3.0, 3.0), eta=st.floats(0.0, 0.999),
           log_lam=st.floats(-3.0, 3.0))
    def test_against_mpmath(self, log_beta, eta, log_lam):
        b = 10.0**log_beta
        p = validate_params(eta * b, b, 10.0**log_lam)
        with mp.workdps(50):
            want = limit_intensity_mp(p.alpha, p.beta, p.lambda_inf)
            for got, ref in zip(limit_intensity_moments(p), want):
                assert got == pytest.approx(float(ref), rel=2e-15, abs=0.0)

    # alpha^3 alone would leave float64's range; each moment does not
    @pytest.mark.parametrize("a, b, li", [(1e100, 2e100, 1e100), (1e120, 2e120, 1e-100)])
    def test_finite_where_alpha_cubed_is_not(self, a, b, li):
        with mp.workdps(50):
            want = limit_intensity_mp(a, b, li)
            for got, ref in zip(limit_intensity_moments(validate_params(a, b, li)), want):
                assert got == pytest.approx(float(ref), rel=2e-15, abs=0.0)

    def test_reference_values(self):
        lam1, lam2, lam3 = limit_intensity_moments(P)
        assert lam1 == pytest.approx(1.25, rel=1e-12)
        assert lam2 == pytest.approx(1.59375, rel=1e-12)
        assert lam3 == pytest.approx(2.0760416666666663, rel=1e-12)  # frozen (ODE oracle)

    def test_second_moment_dominates_mean_squared(self):
        for a in (0.1, 0.4, 0.8):
            for b in (1.0, 2.0):
                if a >= b:
                    continue
                for li in (0.3, 1.0, 2.5):
                    lam1, lam2, _ = limit_intensity_moments(validate_params(a, b, li))
                    assert lam2 >= lam1**2

    def test_ode_long_run_consistency(self):
        # integrate_moments at t = 50 / kappa reproduces all three limits
        t = 50.0 / P.kappa
        out = integrate_moments(P, [(1, 0), (2, 0), (3, 0)], t)
        lam1, lam2, lam3 = limit_intensity_moments(P)
        assert out[(1, 0)] == pytest.approx(lam1, rel=1e-6)
        assert out[(2, 0)] == pytest.approx(lam2, rel=1e-6)
        assert out[(3, 0)] == pytest.approx(lam3, rel=1e-6)

    def test_stationarity_of_lambda_chain(self):
        # the limits annihilate the generator: 0 = d/dt E[lambda^m] at the limit
        p = validate_params(0.37, 1.21, 0.83)
        lam = {0: 1.0}
        lam[1], lam[2], lam[3] = limit_intensity_moments(p)
        for m in (1, 2, 3):
            rhs = sum(c * lam[dep_m] for (dep_m, dep_l), c
                      in apply_generator(p, BivariatePolynomial.monomial(m, 0))
                      .coefficients.items())
            assert rhs == pytest.approx(0.0, abs=1e-10 * lam[m])


class TestHelperIntegrals:
    def test_taylor_orders_as_delta_vanishes(self):
        # I2 = d^2/2 (1 - kappa d/3 + ...), I1 = d^3/6 (1 - kappa d/4 + ...),
        # so the leading ratios converge at first order in kappa*d
        for d in (1e-3, 1e-4, 1e-5):
            i1, i2 = helper_integrals(P, d)
            assert abs(i1 / d**3 - 1.0 / 6.0) <= 0.05 * P.kappa * d
            assert abs(i2 / d**2 - 0.5) <= 0.2 * P.kappa * d

    def test_reference_value(self):
        i1, i2 = helper_integrals(P, 0.5)
        assert i2 == pytest.approx(0.625 + math.expm1(-0.4) / 0.64, rel=1e-12)
        assert i2 == pytest.approx(0.10987507193068628, rel=1e-10)  # frozen

    def test_i2_by_double_quadrature(self):
        k = P.kappa
        inner = lambda u: quad(lambda s: math.exp(-k * (u - s)), 0.0, u)[0]
        val, _ = quad(inner, 0.0, 0.5, limit=200)
        _, i2 = helper_integrals(P, 0.5)
        assert i2 == pytest.approx(val, rel=1e-8)

    def test_i1_by_triple_quadrature(self):
        k = P.kappa
        # int_0^D int_0^u int_0^s e^{-k(u-s)} dr ds du = int_0^D int_0^u s e^{-k(u-s)} ds du
        inner = lambda u: quad(lambda s: s * math.exp(-k * (u - s)), 0.0, u)[0]
        val, _ = quad(inner, 0.0, 0.5, limit=200)
        i1, _ = helper_integrals(P, 0.5)
        assert i1 == pytest.approx(val, rel=1e-8)

    @pytest.mark.parametrize("theta", [(0.2, 1.0, 1.0), (0.45, 1.6, 0.8), (0.05, 0.9, 2.0)])
    @pytest.mark.parametrize("delta", [0.1, 0.5, 2.0])
    def test_second_moment_reconstruction(self, theta, delta):
        p = validate_params(*theta)
        lam1, lam2, _ = limit_intensity_moments(p)
        i1, i2 = helper_integrals(p, delta)
        rebuilt = (lam1 * delta + 2.0 * p.beta * p.lambda_inf * lam1 * i1
                   + 2.0 * (lam2 + p.alpha * lam1) * i2)
        assert rebuilt == pytest.approx(stationary_m2(p, delta), rel=1e-12)


TEN_EVENTS = np.arange(1.0, 11.0)
NAN = math.nan


class TestNanArguments:
    """A NaN time or window length fails each closed form's range check, as
    a negative one does, instead of flowing through as a NaN result; so do
    an infinite window length or path-integral time, a NaN event time and a
    NaN or negative intensity grid.  The solver checks its triple's window
    length and moments by the same rule.  Every entry point of core's four
    argument rules on times (a length, a time, an evaluation point, a sorted
    time array) raises that rule's one message for 0, -0.0, -1, NaN and
    +-inf, or admits the value as the rule does; so does every entry point
    of its count and finite rules, for the values each argument can take."""

    @pytest.mark.parametrize("fn, args, message", [
        (mean_intensity, (P, NAN), "t must be >= 0"),
        (second_moment_intensity, (P, NAN), "t must be >= 0"),
        (mean_count, (P, NAN), "t must be >= 0"),
        (increment_mean_exact, (P, NAN, 0.5), "need t >= 0"),
        (increment_mean_exact, (P, 1.0, NAN), "need t >= 0"),
        (moment_triple, (P, NAN), "delta must be > 0"),
        (helper_integrals, (P, NAN), "delta must be > 0"),
        (stationary_m1, (P, math.inf), "delta must be > 0 and finite, got inf"),
        (moment_triple, (P, math.inf), "delta must be > 0 and finite, got inf"),
        (helper_integrals, (P, math.inf), "delta must be > 0 and finite, got inf"),
        (intensity_at, (P, TEN_EVENTS, NAN), "t must be >= 0"),
        (count_at, (TEN_EVENTS, NAN), "t must be >= 0"),
        (integrate_polynomial_on_path, (P, TEN_EVENTS, BivariatePolynomial({(1, 0): 1.0}), NAN),
         "t must be finite and >= 0"),
        # over an empty path, 1 - lambda_u would integrate to inf - inf
        (integrate_polynomial_on_path,
         (P, [], BivariatePolynomial({(0, 0): 1.0, (1, 0): -1.0}), math.inf),
         "t must be finite and >= 0, got inf"),
        (intensity_on_grid, (P, TEN_EVENTS, np.array([NAN])), "grid must be >= 0, got nan"),
        (intensity_on_grid, (P, TEN_EVENTS, np.array([-1.0])), r"grid must be >= 0, got -1\.0"),
        (EventSequence, (np.array([NAN]), 1.0), "times must be >= 0, got nan"),
        *[(solve_moment_system, (replace(moment_triple(P, 0.5), delta=d), DEFAULT_INIT),
           rf"^delta must be > 0 and finite, got {d}$") for d in (0.0, -0.5, NAN, math.inf)],
    ], ids=["mean_intensity", "second_moment_intensity", "mean_count",
            "increment_mean_exact_t", "increment_mean_exact_delta", "moment_triple",
            "helper_integrals", "stationary_m1_inf", "moment_triple_inf",
            "helper_integrals_inf", "intensity_at", "count_at", "integrate_polynomial_on_path",
            "integrate_polynomial_on_path_inf", "intensity_on_grid_nan",
            "intensity_on_grid_negative", "event_sequence", "solve_moment_system_zero",
            "solve_moment_system_negative", "solve_moment_system_nan",
            "solve_moment_system_inf"])
    def test_nan_rejected(self, fn, args, message):
        with pytest.raises(ValueError, match=message):
            fn(*args)

    def test_infinite_time_is_the_limit(self):
        assert mean_intensity(P, math.inf) == P.lambda_star
        assert count_at(TEN_EVENTS, math.inf) == TEN_EVENTS.size

    # Each argument rule: its one message, and the values it admits.
    RULES = {
        "length": ("{name} must be > 0 and finite, got {x}", lambda x: 0.0 < x < math.inf),
        "time": ("{name} must be finite and >= 0, got {x}", lambda x: 0.0 <= x < math.inf),
        "point": ("{name} must be >= 0, got {x}", lambda x: x >= 0.0),
    }
    # Every entry point of each rule, as (rule, argument name, call); a
    # sorted time array's first point is an evaluation point.  parse_events
    # reads events.txt in the working directory.
    ENTRY_POINTS = [
        ("length", "delta", lambda x: stationary_m1(P, x)),
        ("length", "delta", lambda x: moment_triple(P, x)),
        ("length", "delta", lambda x: stationary_m2(P, x)),
        ("length", "delta", lambda x: solve_moment_system(
            replace(moment_triple(P, 0.5), delta=x), DEFAULT_INIT)),
        *[("length", m, lambda x, m=m: solve_moment_system(
            replace(moment_triple(P, 0.5), **{m: x}), DEFAULT_INIT)) for m in ("m1", "m2", "m3")],
        ("length", "delta", lambda x: EstimateConfig(delta=x)),
        ("length", "delta", lambda x: windowed_counts(TEN_EVENTS, 0.0, x, 1)),
        ("length", "horizon", lambda x: simulate_exact(P, x, 1)),
        ("length", "horizon", lambda x: simulate_cluster(P, x, 1)),
        ("length", "horizon", lambda x: simulate_batch(P, x, 1, 2)),
        ("length", "horizon", lambda x: _step_grid("--grid-step", x, 1.0)),
        ("length", "--grid-step", lambda x: _step_grid("--grid-step", 10.0, x)),
        ("length", "--envelope-step", lambda x: _step_grid("--envelope-step", 10.0, x)),
        ("time", "t0", lambda x: EstimateConfig(delta=0.5, t0=x)),
        ("time", "t0", lambda x: windowed_counts(TEN_EVENTS, x, 0.5, 1)),
        ("time", "horizon", lambda x: EventSequence(np.empty(0), x)),
        ("time", "horizon", lambda x: parse_events("events.txt", horizon=x)),
        ("time", "t", lambda x: integrate_moments(P, [(0, 1)], x)),
        ("point", "t", lambda x: mean_count(P, x)),
        ("point", "t", lambda x: intensity_at(P, TEN_EVENTS, x)),
        ("point", "t", lambda x: count_at(TEN_EVENTS, x)),
        ("point", "t", lambda x: count_at(TEN_EVENTS, np.array([1.0, x]))),
        ("point", "grid", lambda x: intensity_on_grid(P, TEN_EVENTS, [x])),
        ("point", "times", lambda x: post_jump_intensities(P, [x])),
        ("point", "times", lambda x: count_at([x], 1.0)),
        ("point", "times", lambda x: windowed_counts(np.array([x]), 0.0, 0.5, 1)),
    ]

    @pytest.mark.parametrize("x", [0.0, -0.0, -1.0, NAN, math.inf, -math.inf])
    @pytest.mark.parametrize("rule, name, call", ENTRY_POINTS,
                             ids=[f"{rule}-{name}-{i}" for i, (rule, name, _)
                                  in enumerate(ENTRY_POINTS)])
    def test_each_rule_has_one_message(self, tmp_path, monkeypatch, rule, name, call, x):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "events.txt").write_text("0.0\n")
        form, admits = self.RULES[rule]
        if admits(x):
            call(x)
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(form.format(name=name, x=x))}$"):
                call(x)

    # Every entry point of the count rule, with the least admitted count,
    # the one below it and the non-finite values the rule decides: -inf
    # fails for each, and a cap's NaN and inf pass as caps that never bind
    # (a seed or n_paths of NaN or inf passes the rule and fails in range(),
    # and --count is an integer flag).  SPARSE draws no event on [0, 1] at
    # these seeds, so a cap of 1 passes too.
    COUNT_POINTS = [
        ("seed", 0, (0, -1, -math.inf), lambda x: simulate_exact(SPARSE, 1.0, x)),
        ("seed", 0, (0, -1, -math.inf), lambda x: simulate_cluster(SPARSE, 1.0, x)),
        ("seed", 0, (0, -1, -math.inf), lambda x: simulate_batch(SPARSE, 1.0, x, 2)),
        ("cap", 1, (1, 0, NAN, math.inf, -math.inf),
         lambda x: simulate_exact(SPARSE, 1.0, 1, cap=x)),
        ("cap", 1, (1, 0, NAN, math.inf, -math.inf),
         lambda x: simulate_cluster(SPARSE, 1.0, 1, cap=x)),
        ("cap", 1, (1, 0, NAN, math.inf, -math.inf),
         lambda x: simulate_batch(SPARSE, 1.0, 1, 2, cap=x)),
        ("n_paths", 0, (0, -1, -math.inf), lambda x: map_batch(SPARSE, 1.0, 1, x, len)),
        ("--count", 2, (2, 1),
         lambda x: cmd_validate(build_parser().parse_args(VALIDATE + [str(x)]))),
    ]
    COUNT_CASES = [(name, least, x, call) for name, least, values, call in COUNT_POINTS
                   for x in values]

    @pytest.mark.parametrize("name, least, x, call", COUNT_CASES,
                             ids=[f"{name}-{i}-{x}" for i, (name, _, x, _)
                                  in enumerate(COUNT_CASES)])
    def test_each_count_rule_has_one_message(self, tmp_path, monkeypatch, name, least, x, call):
        monkeypatch.chdir(tmp_path)  # validate writes to the working directory
        if x < least:
            message = f"{name} must be >= {least}, got {x}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(x)
        else:
            call(x)

    # Every entry point of the finite rule.
    FINITE_POINTS = [
        ("alpha", lambda x: validate_params(x, 1.0, 1.0)),
        ("beta", lambda x: validate_params(0.2, x, 1.0)),
        ("lambda_inf", lambda x: validate_params(0.2, 1.0, x)),
        ("lambda0", lambda x: validate_params(0.2, 1.0, 1.0, x)),
        ("coefficient of exponents (1, 0)", lambda x: BivariatePolynomial({(1, 0): x})),
        ("initial_intensity_moments[1]",
         lambda x: integrate_moments(P, [(1, 0)], 1.0, initial_intensity_moments={1: x})),
    ]

    @pytest.mark.parametrize("x", [0.5, NAN, math.inf, -math.inf])
    @pytest.mark.parametrize("name, call", FINITE_POINTS, ids=[n for n, _ in FINITE_POINTS])
    def test_each_finite_rule_has_one_message(self, name, call, x):
        if math.isfinite(x):
            call(x)
        else:
            message = f"{name} must be finite, got {x!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(x)

    def test_sorted_check_holds_no_array_sized_temporary(self):
        # the order is checked a block at a time: np.diff of the whole array
        # would take 8 MB, and its comparison 1 MB more
        times = np.arange(1e6)
        tracemalloc.start()
        try:
            assert _times(times) is times
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < times.nbytes / 8
