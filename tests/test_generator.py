"""Generator action on polynomials and the assembled moment ODE system."""

import hashlib
import math

import mpmath as mp
import numpy as np
import pytest
from oracles import integrate_polynomial_on_path, mean_intensity, second_moment_intensity

from hawkesmom import (
    BivariatePolynomial,
    apply_generator,
    integrate_moments,
    intensity_at,
    mean_count,
    moment_closure,
    simulate_batch,
    simulate_exact,
    validate_params,
)
from hawkesmom.generator import MAX_EXPONENT, _expm_triangular, _system, _triangular_system

P = validate_params(0.2, 1.0, 1.0, 1.0)


def poly(coeffs):
    return BivariatePolynomial(coeffs)


def image(params, m, l):
    """The generator image of the monomial lambda^m n^l."""
    return apply_generator(params, BivariatePolynomial.monomial(m, l))


def random_coeffs(rng, max_exp=4, n_terms=5):
    coeffs = {}
    for _ in range(n_terms):
        m = int(rng.integers(0, max_exp + 1))
        l = int(rng.integers(0, max_exp + 1))
        coeffs[(m, l)] = float(rng.normal())
    return coeffs


def add(*tables):
    """Sum of coefficient tables, a missing key counting as 0."""
    out = {}
    for table in tables:
        for key, c in table.items():
            out[key] = out.get(key, 0.0) + c
    return out


def assert_coefficients(p, expected, rel=1e-12, abs=1e-12):
    """``p``'s coefficients approximately ``expected``, a missing key counting as 0."""
    keys = p.coefficients.keys() | expected.keys()
    got = {key: p.coefficients.get(key, 0.0) for key in keys}
    assert got == pytest.approx({key: expected.get(key, 0.0) for key in keys}, rel=rel, abs=abs)


class TestPolynomialAlgebra:
    def test_zero_coefficients_dropped(self):
        p = poly({(1, 0): 0.0, (0, 1): 2.0})
        assert p.coefficients == {(0, 1): 2.0}

    def test_exponent_cap(self):
        with pytest.raises(ValueError):
            poly({(MAX_EXPONENT + 1, 0): 1.0})
        with pytest.raises(ValueError):
            integrate_moments(P, [(0, MAX_EXPONENT + 1)], 1.0)
        with pytest.raises(ValueError):
            integrate_moments(P, [(-1, 0)], 1.0)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_names_its_exponents(self, c):
        with pytest.raises(ValueError, match=r"exponents \(1, 0\) must be finite"):
            poly({(0, 2): 1.0, (1, 0): c})

    def test_evaluate(self):
        p = poly({(2, 1): 3.0, (0, 0): -1.0})
        assert p.evaluate(2.0, 5.0) == pytest.approx(3.0 * 4.0 * 5.0 - 1.0)


class TestApplyGenerator:
    def test_counting_monomial(self):
        # image of n is lambda
        assert apply_generator(P, poly({(0, 1): 1.0})).coefficients == {(1, 0): 1.0}

    def test_counting_square(self):
        # image of n^2 is 2 lambda n + lambda
        out = apply_generator(P, poly({(0, 2): 1.0}))
        assert out.coefficients == {(1, 1): 2.0, (1, 0): 1.0}

    def test_intensity_monomial(self):
        # image of lambda is beta lambda_inf - (beta - alpha) lambda
        out = apply_generator(P, poly({(1, 0): 1.0}))
        assert_coefficients(out, {(0, 0): P.beta * P.lambda_inf, (1, 0): -(P.beta - P.alpha)})

    def test_constant_in_kernel(self):
        assert apply_generator(P, poly({(0, 0): 4.0})).coefficients == {}

    def test_linearity_random(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            p, q = random_coeffs(rng), random_coeffs(rng)
            a = float(rng.normal())
            left = apply_generator(P, poly(add(p, q)))
            right = add(apply_generator(P, poly(p)).coefficients,
                        apply_generator(P, poly(q)).coefficients)
            assert_coefficients(left, right, rel=1e-9)
            scaled = apply_generator(P, poly({key: a * c for key, c in p.items()}))
            assert_coefficients(scaled, {key: a * c for key, c
                                         in apply_generator(P, poly(p)).coefficients.items()},
                                rel=1e-9)

    def test_headroom_guard(self):
        with pytest.raises(ValueError):
            apply_generator(P, poly({(MAX_EXPONENT, 1): 1.0}))

    def test_monte_carlo_semigroup_drift(self):
        # brute-force (E[k(X_h)] - k(X_0)) / h against the generator image,
        # evaluated at the start state (lambda0, 0)
        params = validate_params(0.2, 1.0, 1.0, 1.5)
        h = 0.01
        n_paths = 40_000
        lam_h = np.empty(n_paths)
        n_h = np.empty(n_paths)
        for i in range(n_paths):
            traj = simulate_exact(params, h, 9_000 + i)
            n_h[i] = len(traj.events)
            lam_h[i] = intensity_at(params, traj.events, h)
        x0 = (params.lambda0, 0.0)
        for k_poly, samples in [(poly({(1, 0): 1.0}), lam_h),
                                (poly({(0, 1): 1.0}), n_h),
                                (poly({(0, 2): 1.0}), n_h**2)]:
            k0 = k_poly.evaluate(*x0)
            drift_mc = (samples.mean() - k0) / h
            se = samples.std(ddof=1) / math.sqrt(n_paths) / h
            drift_exact = apply_generator(params, k_poly).evaluate(*x0)
            # allow O(h) semigroup curvature on top of 3 SE
            bias_allowance = 2.0 * h
            assert abs(drift_mc - drift_exact) <= 3.0 * se + bias_allowance, (
                f"{k_poly}: mc={drift_mc}, exact={drift_exact}, se={se}")


class TestMomentOdeRhs:
    def test_first_count_moment(self):
        assert image(P, 0, 1).coefficients == {(1, 0): 1.0}

    def test_first_intensity_moment(self):
        assert_coefficients(image(P, 1, 0), {(0, 0): P.beta * P.lambda_inf, (1, 0): -P.kappa})

    def test_mixed_moment(self):
        # d/dt E[lambda N] = beta lambda_inf n + lambda^2 + alpha lambda - kappa lambda n
        assert_coefficients(image(P, 1, 1), {
            (0, 1): P.beta * P.lambda_inf,
            (2, 0): 1.0,
            (1, 0): P.alpha,
            (1, 1): -P.kappa,
        })

    def test_second_intensity_moment(self):
        # d/dt E[lambda^2] = (alpha^2 + 2 beta lambda_inf) lambda - 2 kappa lambda^2
        assert_coefficients(image(P, 2, 0), {
            (1, 0): P.alpha**2 + 2.0 * P.beta * P.lambda_inf,
            (2, 0): -2.0 * P.kappa,
        })

    @pytest.mark.parametrize("m,l", [(m, l) for m in range(5) for l in range(5) if m + l <= 4])
    def test_matches_expectation_pattern(self, m, l):
        """Independent reconstruction of the moment equations:

        d/dt E[N^l]            = sum_{k<l} C(l,k) E[lambda N^k]
        d/dt E[lambda^m]       = m b li E[lambda^{m-1}] - m b E[lambda^m]
                                 + sum_{j<m} C(m,j) a^{m-j} E[lambda^{j+1}]
        d/dt E[lambda^m N^l]   = m b li E[lambda^{m-1} N^l] - m b E[lambda^m N^l]
                                 + sum_{j<=m} sum_{k<=l} C(m,j) C(l,k) a^{m-j}
                                   E[lambda^{j+1} N^k] - E[lambda^{m+1} N^l]
        """
        a, b, li = P.alpha, P.beta, P.lambda_inf
        expected: dict = {}

        def add(key, c):
            expected[key] = expected.get(key, 0.0) + c

        if m == 0 and l == 0:
            pass
        elif m == 0:
            for k in range(l):
                add((1, k), math.comb(l, k))
        elif l == 0:
            add((m - 1, 0), m * b * li)
            add((m, 0), -m * b)
            for j in range(m):
                add((j + 1, 0), math.comb(m, j) * a ** (m - j))
        else:
            add((m - 1, l), m * b * li)
            add((m, l), -m * b)
            for j in range(m + 1):
                for k in range(l + 1):
                    add((j + 1, k), math.comb(m, j) * math.comb(l, k) * a ** (m - j))
            add((m + 1, l), -1.0)
        assert_coefficients(image(P, m, l), expected)


class TestClosure:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_closure_terminates_within_total_degree(self, d):
        idxs = [(m, l) for m in range(d + 1) for l in range(d + 1 - m)]
        closed = moment_closure(P, idxs)
        assert all(m + l <= d for m, l in closed)
        assert set(idxs) <= set(closed)

    def test_mixed_index_pulls_in_higher_lambda_power(self):
        closed = moment_closure(P, [(1, 1)])
        assert (2, 0) in closed

    def test_closure_is_in_solve_order(self):
        # (total degree descending, m, l): the rows of the triangular system
        assert moment_closure(P, [(0, 2)]) == [(0, 2), (1, 1), (2, 0), (0, 1), (1, 0), (0, 0)]


class TestIntegrateMoments:
    def test_stationary_start_gives_linear_mean_count(self):
        # lambda0 = lambda* makes E[lambda] constant, so E[N_t] = lambda* t
        params = validate_params(0.2, 1.0, 1.0, 1.25)
        out = integrate_moments(params, [(0, 1)], 10.0)
        assert out[(0, 1)] == pytest.approx(12.5, rel=1e-8)

    def test_initial_condition(self):
        params = validate_params(0.3, 1.2, 0.8, 1.7)
        out = integrate_moments(params, [(1, 0), (2, 0), (0, 1)], 0.0)
        assert out[(1, 0)] == pytest.approx(1.7)
        assert out[(2, 0)] == pytest.approx(1.7**2)
        assert out[(0, 1)] == 0.0

    def test_second_intensity_moment_vs_closed_form(self):
        out = integrate_moments(P, [(2, 0)], 30.0)
        assert out[(2, 0)] == pytest.approx(second_moment_intensity(P, 30.0), abs=1e-8)

    def test_closed_form_transient_cross_check(self):
        params = validate_params(0.35, 1.5, 0.6, 2.0)
        for t in (0.5, 2.0, 7.0):
            out = integrate_moments(params, [(2, 0)], t)
            assert out[(2, 0)] == pytest.approx(second_moment_intensity(params, t), rel=1e-7)

    @pytest.mark.parametrize("lambda0", [0.3, 1.0, 2.5])
    def test_matrix_exponential_matches_closed_forms(self, lambda0):
        params = validate_params(0.35, 1.5, 0.6, lambda0)
        for t in (0.01, 0.5, 3.0, 40.0, 500.0):
            out = integrate_moments(params, [(1, 0), (2, 0), (0, 1)], t)
            assert out[(1, 0)] == pytest.approx(mean_intensity(params, t), rel=1e-12)
            assert out[(2, 0)] == pytest.approx(second_moment_intensity(params, t), rel=1e-12)
            assert out[(0, 1)] == pytest.approx(mean_count(params, t), rel=1e-12)

    def test_cascade_forecast_moments_pinned(self):
        # criterion 8's forecast curve, E[N_t] and E[N_t^2] at t = 10, 20,
        # ..., 600: a sha256 over the 120 values' float.hex, one a line
        p = validate_params(0.772, 1.133, 0.243, 0.243)
        values = []
        for k in range(1, 61):
            moments = integrate_moments(p, [(0, 1), (0, 2)], 10.0 * k)
            values += [moments[(0, 1)].hex(), moments[(0, 2)].hex()]
        assert values[:2] == ["0x1.8e7704a3cf7e1p+2", "0x1.3c2942fef5f68p+6"]
        assert values[-2:] == ["0x1.c82787aeb7fa0p+8", "0x1.9f2144d1aa0c3p+17"]
        assert hashlib.sha256("\n".join(values).encode()).hexdigest() == (
            "1f64232381e58e9fd219a721689cf10a2b2961f4a7e5cd6ad49866c360e949fb")

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    def test_rejects_negative_or_non_finite_t(self, t):
        with pytest.raises(ValueError, match="t must be finite and >= 0"):
            integrate_moments(P, [(0, 1)], t)

    @pytest.mark.parametrize("t", [1e300, 1e307, 1e308])
    def test_huge_t_whose_column_sum_overflows(self, t):
        # at 1e308 the scaling norm's column sum passes float64's range,
        # though every entry of A t, and E[N_t] = 1.25e308, is within it
        with np.errstate(over="raise", invalid="raise"):
            out = integrate_moments(P, [(0, 1), (1, 0)], t)
        assert out[(0, 1)] == pytest.approx(mean_count(P, t), rel=1e-14)
        assert out[(1, 0)] == pytest.approx(mean_intensity(P, t), rel=1e-14)

    def test_a_t_beyond_float64_names_t(self):
        # E[lambda_t^3]'s diagonal entry -3 kappa t passes float64's range
        with np.errstate(over="raise", invalid="raise"), \
                pytest.raises(ValueError, match=r"t=1e\+308"):
            integrate_moments(P, [(3, 0)], 1e308)

    def test_moment_beyond_float64_names_t(self):
        # every entry of A t is finite, but E[N_t^2] ~ (1.25 t)^2 is not
        with np.errstate(over="raise", invalid="raise"), \
                pytest.raises(ValueError, match=r"t=1e\+300"):
            integrate_moments(P, [(0, 2)], 1e300)

    def test_overflowed_image_names_t(self):
        # beta lambda_inf, the constant of lambda's image, is inf: the image
        # keeps it, and the system reports the overflow
        params = validate_params(1e307, 1.5e307, 1e10)
        assert apply_generator(params, poly({(1, 0): 1.0})).coefficients[(0, 0)] == math.inf
        with pytest.raises(ValueError, match=r"moments overflow at t=1\.0"):
            integrate_moments(params, [(1, 0)], 1.0)

    def test_overflowed_alpha_power_names_t(self):
        # alpha^3 of the closure's top degree is past float64: the image
        # keeps an inf rather than raising OverflowError
        params = validate_params(1e103, 2e103, 1.0)
        image = apply_generator(params, poly({(3, 0): 1.0})).coefficients
        assert image[(1, 0)] == math.inf
        with pytest.raises(ValueError, match=r"moments overflow at t=1\.0"):
            integrate_moments(params, [(0, 3)], 1.0)

    @pytest.mark.parametrize("initial, m", [
        ({1: 1.0}, 2),
        ({1: 1.0, 2: math.nan}, 2),
        ({1: math.inf, 2: 3.0}, 1),
    ], ids=["missing", "nan", "inf"])
    def test_initial_intensity_moment_missing_or_not_finite_names_m(self, initial, m):
        with pytest.raises(ValueError, match=rf"initial_intensity_moments.*(\[{m}\]|m={m})"):
            integrate_moments(P, [(1, 1)], 1.0, initial_intensity_moments=initial)


def moments_mp(params, indices, t):
    """Every moment of the closure of ``indices`` at t, from 50-digit mpmath's
    expm of the ODE matrix assembled in moment_closure's order."""
    closed = moment_closure(params, indices)
    pos = {ix: i for i, ix in enumerate(closed)}
    with mp.workdps(50):
        A = mp.matrix(len(closed))
        for ix in closed:
            for dep, c in image(params, *ix).coefficients.items():
                A[pos[ix], pos[dep]] += c
        y0 = mp.matrix([mp.mpf(params.lambda0) ** m if l == 0 else 0 for m, l in closed])
        y = mp.expm(A * mp.mpf(t)) * y0
        return {ix: float(y[pos[ix]]) for ix in closed}


DEGREE3 = [(m, l) for m in range(4) for l in range(4 - m)]


class TestTriangularExponential:
    """The generator's matrix is upper triangular in (total degree
    descending, m, l) order, and integrate_moments' exponential of it holds
    every moment within 1e-13 of 50-digit mpmath, from eta 1e-12 to
    criticality, at unit scales 1e-3 and 1e3 and t beta from 1e-3 to 1e3."""

    @pytest.mark.parametrize("eta", [0.0, 1e-12, 0.5, 1 - 1e-6])
    @pytest.mark.parametrize("beta,lambda_inf", [(1e-3, 1e3), (1.0, 1.0), (1e3, 1e-3)])
    def test_matrix_is_upper_triangular(self, eta, beta, lambda_inf):
        params = validate_params(eta * beta, beta, lambda_inf)
        for degree in range(1, MAX_EXPONENT + 1):
            indices = [(m, degree - m) for m in range(min(degree, MAX_EXPONENT - 1) + 1)]
            pos, A = _triangular_system(params, indices)
            assert list(pos) == moment_closure(params, indices)
            assert all(pos[ix] == i for i, ix in enumerate(pos))
            assert not np.tril(A, -1).any()
            assert (np.triu(A, 1) >= 0.0).all()
            m = np.array([m for m, _ in pos], dtype=float)
            # m alpha - m beta, rounded: within an ulp or so of -m kappa
            assert (np.abs(np.diag(A) + m * params.kappa) <= 1e-15 * m * beta).all()

    @staticmethod
    def check(params, indices, t):
        expected = moments_mp(params, indices, t)
        out = integrate_moments(params, list(expected), t)
        for ix, value in expected.items():
            assert out[ix] == pytest.approx(value, rel=1e-13, abs=0), ix

    @pytest.mark.parametrize("t_beta", [1e-3, 1.0, 30.0, 1e3])
    @pytest.mark.parametrize("lambda_inf", [1e-3, 1e3])
    @pytest.mark.parametrize("beta", [1e-3, 1e3])
    @pytest.mark.parametrize("eta", [1e-12, 0.5, 1 - 1e-6])
    def test_degree_3_within_1e_13_of_high_precision(self, eta, beta, lambda_inf, t_beta):
        self.check(validate_params(eta * beta, beta, lambda_inf), DEGREE3, t_beta / beta)

    def test_degree_8_within_1e_13_of_high_precision(self):
        # the full 45-moment closure, near criticality
        self.check(validate_params(1 - 1e-6, 1.0, 1.0, 2.0), [(0, 8)], 30.0)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0, 1e3])
    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_any_matrix_of_that_structure(self, n, scale):
        """Every entry of exp(T) within 1e-13 of 50-digit mpmath, for random
        upper-triangular T with non-negative entries above a diagonal of
        repeated and distinct non-positive values."""
        rng = np.random.default_rng(n)
        T = np.triu(rng.exponential(size=(n, n)), 1) * scale
        T[np.diag_indices(n)] = -rng.integers(0, 4, size=n) * rng.exponential() * scale
        with mp.workdps(50):
            expected = np.array(mp.expm(mp.matrix(T.tolist())).tolist(), dtype=float)
        np.testing.assert_allclose(_expm_triangular(T), expected, rtol=1e-13, atol=0)


class TestSystemCache:
    """integrate_moments builds each (alpha, beta, lambda_inf, indices)
    system once: the cached system is read-only, shared across lambda0 and
    equal to a fresh build, and alpha = -0.0 keeps a system of its own."""

    INDICES = [(0, 1), (0, 2)]

    @staticmethod
    def fresh(params, indices):
        """The system built without the cache, and integrate_moments' values
        at a few times from an empty cache."""
        _system.cache_clear()
        built = _system.__wrapped__(float(params.alpha).hex(), float(params.beta).hex(),
                                    float(params.lambda_inf).hex(), tuple(indices))
        values = [integrate_moments(params, indices, t) for t in (0.5, 10.0, 600.0)]
        _system.cache_clear()
        return built, values

    def test_built_once_shared_across_lambda0_and_read_only(self):
        first = _triangular_system(validate_params(0.772, 1.133, 0.243, 0.1), self.INDICES)
        again = _triangular_system(validate_params(0.772, 1.133, 0.243, 5.0), self.INDICES)
        assert first[0] is again[0] and first[1] is again[1]
        pos, A = first
        assert not A.flags.writeable
        with pytest.raises(TypeError):
            pos[(9, 9)] = 0

    @pytest.mark.parametrize("order", [(0.0, -0.0), (-0.0, 0.0)], ids=["plus_first",
                                                                          "minus_first"])
    def test_signed_zero_alpha(self, order):
        # a list, not a dict: 0.0 and -0.0 are one dict key
        params = [validate_params(a, 1.0, 1.0, 2.0) for a in order]
        expected = [self.fresh(p, self.INDICES) for p in params]
        for p, ((pos, A), values) in zip(params, expected):
            got_pos, got_A = _triangular_system(p, self.INDICES)
            assert dict(got_pos) == dict(pos) and got_A.tobytes() == A.tobytes()
            assert [integrate_moments(p, self.INDICES, t) for t in (0.5, 10.0, 600.0)] == values
        plus, minus = (_triangular_system(p, self.INDICES)[1] for p in params)
        assert plus is not minus


class TestDynkinIdentity:
    def test_martingale_mean_zero_small(self):
        """E[k(X_t)] - k(X_0) - int_0^t E[A k(X_u)] du = 0, checked pathwise
        with the exact piecewise integral (small-n version of the full
        acceptance run)."""
        params = validate_params(0.2, 1.0, 1.0, 1.0)
        t_end = 1.0
        n_paths = 2000
        kfuncs = [poly({(0, 1): 1.0}), poly({(0, 2): 1.0}),
                  poly({(1, 0): 1.0}), poly({(1, 1): 1.0})]
        images = [apply_generator(params, k) for k in kfuncs]
        defects = np.empty((len(kfuncs), n_paths))
        for i, traj in enumerate(simulate_batch(params, t_end, 50_000, n_paths)):
            times = traj.events.times
            n_t = len(times)
            lam_t = intensity_at(params, times, t_end)
            for j, (k, ak) in enumerate(zip(kfuncs, images)):
                integral = integrate_polynomial_on_path(params, times, ak, t_end)
                defects[j, i] = k.evaluate(lam_t, n_t) - k.evaluate(params.lambda0, 0.0) - integral
        for j, k in enumerate(kfuncs):
            mean = defects[j].mean()
            se = defects[j].std(ddof=1) / math.sqrt(n_paths)
            assert abs(mean) <= 3.0 * se, f"{k}: mean defect {mean}, se {se}"


class TestPathwiseIntegral:
    def test_matches_fine_trapezoid(self):
        from hawkesmom import intensity_on_grid

        params = validate_params(0.3, 1.4, 0.9, 1.6)
        events = np.array([0.4, 1.1, 1.15, 2.7])
        p = poly({(2, 1): 0.7, (1, 0): -0.3, (0, 2): 1.1})
        t_end = 3.5
        # quadrature oracle on a fine grid, splitting exactly at events; the
        # first point of each segment is nudged right so the left-continuous
        # intensity picks up the jump at the segment-start event
        total = 0.0
        bounds = [0.0, *events[events < t_end], t_end]
        for a, b in zip(bounds, bounds[1:]):
            n_ev = int(np.searchsorted(events, a, side="right"))
            grid = np.linspace(a, b, 8001)
            grid_eval = grid.copy()
            grid_eval[0] = np.nextafter(a, b)
            lam = intensity_on_grid(params, events[:n_ev], grid_eval)
            vals = [p.evaluate(v, n_ev) for v in lam]
            total += np.trapezoid(vals, grid)
        exact = integrate_polynomial_on_path(params, events, p, t_end)
        assert exact == pytest.approx(total, rel=1e-6)

    @pytest.mark.parametrize("t_end", [0.0, 0.4, 1.1, 1.12, 3.5])
    @pytest.mark.parametrize("lambda0", [0.2, 1.6])
    def test_matches_segment_loop(self, t_end, lambda0):
        """Against a scalar loop over segments whose starting excess is the
        direct sum over earlier events; tied events, and t_end at an event
        (which the integral excludes), included."""
        params = validate_params(0.3, 1.4, 0.9, lambda0)
        events = np.array([0.4, 1.1, 1.1, 1.1, 2.7])
        terms = {(2, 1): 0.7, (1, 0): 0.3, (0, 2): 1.1, (3, 0): 0.2}
        beta, lam_inf = params.beta, params.lambda_inf
        bounds = [0.0, *events[events < t_end].tolist(), t_end]
        total = 0.0
        for n, (a, b) in enumerate(zip(bounds, bounds[1:])):
            exc = ((lambda0 - lam_inf) * math.exp(-beta * a)
                   + params.alpha * float(np.exp(-beta * (a - events[:n])).sum()))
            for (m, l), c in terms.items():
                acc = lam_inf**m * (b - a) + sum(
                    math.comb(m, j) * lam_inf ** (m - j) * exc**j
                    * -math.expm1(-j * beta * (b - a)) / (j * beta) for j in range(1, m + 1))
                total += c * n**l * acc
        exact = integrate_polynomial_on_path(params, events, poly(terms), t_end)
        assert exact == pytest.approx(total, rel=1e-14, abs=0)
