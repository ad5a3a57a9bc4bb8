"""Parameter validation, intensity evaluation and counting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from hawkesmom import (
    EventSequence,
    ExplosionRisk,
    NegativeInput,
    NonPositiveBase,
    count_at,
    intensity_at,
    intensity_on_grid,
    post_jump_intensities,
    simulate_cluster,
    simulate_exact,
    validate_params,
)
from hawkesmom.core import _GRID_BLOCK


def intensity_by_ode(params, events, t, rtol=1e-12, atol=1e-14):
    """Independent oracle: integrate d lambda/dt = beta (lambda_inf - lambda)
    between jumps and add alpha at each event."""
    lam = params.lambda0
    prev = 0.0
    for tk in np.asarray(events, float):
        if tk >= t:
            break
        if tk > prev:
            sol = solve_ivp(lambda _t, y: params.beta * (params.lambda_inf - y[0]),
                            (prev, tk), [lam], rtol=rtol, atol=atol)
            lam = float(sol.y[0, -1])
        lam += params.alpha
        prev = tk
    if t > prev:
        sol = solve_ivp(lambda _t, y: params.beta * (params.lambda_inf - y[0]),
                        (prev, t), [lam], rtol=rtol, atol=atol)
        lam = float(sol.y[0, -1])
    return lam


class TestValidateParams:
    def test_reference_parameters_ok(self):
        p = validate_params(0.15, 1.0, 1.0, 1.2)
        assert p.alpha == 0.15 and p.beta == 1.0
        assert p.lambda_inf == 1.0 and p.lambda0 == 1.2

    def test_beta_equal_alpha_is_explosive(self):
        with pytest.raises(ExplosionRisk):
            validate_params(0.5, 0.5, 1.0, 1.0)
        with pytest.raises(ExplosionRisk):
            validate_params(1.2, 1.0, 1.0, 1.0)

    def test_retweet_fit_parameters(self):
        p = validate_params(0.772, 1.133, 0.243, 0.243)
        # lambda* = beta lambda_inf / (beta - alpha)
        assert p.lambda_star == pytest.approx(1.133 * 0.243 / (1.133 - 0.772), rel=1e-12)
        assert p.lambda_star == pytest.approx(0.7627, abs=5e-5)
        assert p.kappa == pytest.approx(0.361, rel=1e-12)

    def test_nonpositive_base(self):
        with pytest.raises(NonPositiveBase):
            validate_params(0.1, 1.0, 0.0, 1.0)
        with pytest.raises(NonPositiveBase):
            validate_params(0.1, 1.0, -1.0, 1.0)

    def test_negative_inputs(self):
        with pytest.raises(NegativeInput):
            validate_params(-0.1, 1.0, 1.0, 1.0)
        with pytest.raises(NegativeInput):
            validate_params(0.1, 1.0, 1.0, -0.5)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            validate_params(float("nan"), 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            validate_params(0.1, float("inf"), 1.0, 1.0)

    def test_alpha_zero_poisson_case_admitted(self):
        p = validate_params(0.0, 1.0, 2.0, 2.0)
        assert p.lambda_star == pytest.approx(2.0)

    def test_lambda0_defaults_to_base(self):
        assert validate_params(0.1, 1.0, 0.7).lambda0 == 0.7

    def test_derived_invariants(self):
        p = validate_params(0.3, 1.1, 0.9, 0.2)
        assert p.lambda_star >= p.lambda_inf
        assert p.kappa > 0


class TestEventSequence:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            EventSequence(times=np.array([2.0, 1.0]), horizon=3.0)

    def test_rejects_beyond_horizon(self):
        with pytest.raises(ValueError):
            EventSequence(times=np.array([1.0, 5.0]), horizon=3.0)

    def test_ties_permitted(self):
        seq = EventSequence(times=np.array([1.0, 1.0, 1.0]), horizon=2.0)
        assert len(seq) == 3

    def test_times_read_only(self):
        seq = EventSequence(times=np.array([1.0]), horizon=2.0)
        with pytest.raises(ValueError):
            seq.times[0] = 0.5


class TestIntensityAt:
    def test_no_events_at_zero(self):
        p = validate_params(0.15, 1.0, 1.0, 1.2)
        assert intensity_at(p, [], 0.0) == pytest.approx(1.2, rel=1e-15, abs=0.0)

    def test_flat_when_started_at_base(self):
        p = validate_params(0.15, 1.0, 1.0, 1.0)
        for t in (0.0, 0.3, 2.0, 50.0):
            assert intensity_at(p, [], t) == pytest.approx(1.0, rel=1e-15, abs=0.0)

    def test_single_event_closed_form_and_ode_oracle(self):
        p = validate_params(0.15, 1.0, 1.0, 1.2)
        events = [1.0]
        expected = 1.0 + 0.2 * math.exp(-2.0) + 0.15 * math.exp(-1.0)
        assert expected == pytest.approx(1.0822489728230389, rel=1e-12)  # frozen
        assert intensity_at(p, events, 2.0) == pytest.approx(expected, rel=1e-12)
        assert intensity_by_ode(p, events, 2.0) == pytest.approx(expected, rel=1e-8)

    def test_left_continuity_excludes_event_at_t(self):
        p = validate_params(0.5, 2.0, 1.0, 1.0)
        assert intensity_at(p, [1.0], 1.0) == pytest.approx(1.0, rel=1e-15, abs=0.0)

    def test_lower_bound(self):
        rng = np.random.default_rng(3)
        p = validate_params(0.3, 1.5, 0.8, 1.6)
        events = np.sort(rng.uniform(0, 10, size=25))
        floor = min(p.lambda_inf, p.lambda0)
        for t in rng.uniform(0, 12, size=50):
            assert intensity_at(p, events, float(t)) >= floor - 1e-12

    def test_piecewise_decay_matches_ode_between_events(self):
        rng = np.random.default_rng(11)
        p = validate_params(0.25, 1.3, 0.9, 1.4)
        events = np.sort(rng.uniform(0, 5, size=12))
        for t in [0.5, 1.7, 3.2, 4.9, 5.5]:
            assert intensity_at(p, events, t) == pytest.approx(
                intensity_by_ode(p, events, t), abs=1e-8)

    def test_sum_is_libms(self):
        # a criterion-8 path, at times where numpy's SIMD exp in place of
        # libm's changed the sum's last bits
        p = validate_params(0.772, 1.133, 0.243, 0.243)
        times = simulate_exact(p, 600.0, 1).events.times
        at = np.linspace(0.0, 600.0, 500)
        got = np.array([intensity_at(p, times, t) for t in at])
        expected = []
        for t in at.tolist():
            before = times[:np.searchsorted(times, t, side="left")].tolist()
            base = p.lambda_inf + (p.lambda0 - p.lambda_inf) * math.exp(-p.beta * t)
            decay = np.array([math.exp(-p.beta * (t - s)) for s in before])
            expected.append(base + p.alpha * float(decay.sum()) if before else base)
        assert np.array_equal(got.view(np.int64), np.array(expected).view(np.int64))

    def test_jump_relation(self):
        p = validate_params(0.4, 1.2, 1.0, 1.0)
        events = np.array([0.5, 1.0, 1.0, 2.5])  # double event at t=1
        h = 1e-9
        for tk, mult in [(0.5, 1), (1.0, 2), (2.5, 1)]:
            jump = intensity_at(p, events, tk + h) - intensity_at(p, events, tk)
            assert jump == pytest.approx(p.alpha * mult, abs=1e-6)


class TestRecursiveSweep:
    def test_matches_direct_summation(self):
        rng = np.random.default_rng(7)
        p = validate_params(0.35, 1.4, 0.7, 1.9)
        events = np.sort(rng.uniform(0, 20, size=60))
        post = post_jump_intensities(p, events)
        for k, tk in enumerate(events):
            direct = intensity_at(p, events, float(tk)) + p.alpha
            assert post[k] == pytest.approx(direct, rel=1e-12)

    def test_tied_events_accumulate_alpha(self):
        p = validate_params(0.2, 1.0, 1.0, 1.0)
        post = post_jump_intensities(p, np.array([1.0, 1.0, 1.0]))
        assert np.allclose(np.diff(post), p.alpha)

    def test_grid_sweep_matches_pointwise(self):
        rng = np.random.default_rng(19)
        p = validate_params(0.3, 1.1, 0.6, 1.1)
        events = np.sort(rng.uniform(0, 8, size=30))
        grid = np.linspace(0.0, 9.0, 181)
        vals = intensity_on_grid(p, events, grid)
        for i in range(0, grid.size, 17):
            assert vals[i] == pytest.approx(intensity_at(p, events, float(grid[i])), rel=1e-12)


def _kernel_cases():
    """(params, events, grid) triples the doubling-scan kernel must get right."""
    rng = np.random.default_rng(29)
    # beta * horizon = 4000, and a grid of three evaluation blocks
    many = validate_params(0.5, 2.0, 1.0, 1.5)
    many_events = simulate_cluster(many, 2000.0, 3).events.times
    tied = np.repeat(np.sort(rng.uniform(0.0, 40.0, size=25)), rng.integers(1, 4, size=25))
    below = validate_params(0.3, 1.1, 1.0, 0.3)
    # beta ~ 1e5 per day and ~ 1e-5 per second
    days = validate_params(4e4, 1e5, 2e4, 3e4)
    seconds = validate_params(4e-6, 1e-5, 2e-6, 1e-6)
    # beta not a power of two, so beta * (T_k - T_j) rounds for most pairs
    odd = validate_params(0.5, 1.7, 1.0, 2.0)
    fast = validate_params(2000.0, 7000.5, 5000.0, 3000.0)
    cases = {
        "many_blocks": (many, many_events, np.linspace(0.0, 2000.0, 20_011)),
        "tied": (validate_params(0.4, 1.2, 1.0, 1.0), tied, np.linspace(0.0, 41.0, 801)),
        "grid_at_events": (validate_params(0.3, 1.1, 0.6, 1.1), tied, np.unique(tied)),
        "lambda0_above": (validate_params(0.3, 1.1, 0.6, 2.4), tied, np.linspace(0.0, 41.0, 401)),
        "lambda0_below": (below, simulate_exact(below, 700.0, 5).events.times,
                          np.linspace(0.0, 700.0, 1401)),
        "alpha_zero": (validate_params(0.0, 1.3, 0.8, 1.9), tied, np.linspace(0.0, 41.0, 401)),
        "empty": (validate_params(0.2, 1.0, 1.0, 1.6), np.empty(0), np.linspace(0.0, 5.0, 51)),
        "days": (days, simulate_cluster(days, 0.05, 8).events.times,
                 np.linspace(0.0, 0.05, 1001)),
        "seconds": (seconds, simulate_cluster(seconds, 5e8, 8).events.times,
                    np.linspace(0.0, 5e8, 1001)),
        # every gap 1000 / beta: each event sees only alpha on top of lambda_inf
        "sparse": (many, np.arange(1, 10_001) * (1000.0 / many.beta),
                   np.linspace(0.0, 5.1e6, 1001)),
        "beta_1_7": (odd, simulate_cluster(odd, 2000.0, 3).events.times,
                     np.linspace(0.0, 2000.0, 1001)),
        "beta_7000_5": (fast, simulate_cluster(fast, 0.5, 3).events.times,
                        np.linspace(0.0, 0.5, 1001)),
    }
    return [pytest.param(*case, id=name) for name, case in cases.items()]


class TestIntensityKernel:
    """post_jump_intensities and intensity_on_grid against the direct sum."""

    @pytest.mark.parametrize("params, events, grid", _kernel_cases())
    def test_post_jump_matches_direct_sum(self, params, events, grid):
        post = post_jump_intensities(params, events)
        assert post.shape == events.shape
        for k, tk in enumerate(events):
            tied_before = k - int(np.searchsorted(events, tk, side="left"))
            direct = intensity_at(params, events, float(tk)) + params.alpha * (tied_before + 1)
            # abs=0: approx's default abs=1e-12 would swamp rel at intensities near 1
            assert post[k] == pytest.approx(direct, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("params, events, grid", _kernel_cases())
    def test_grid_matches_direct_sum(self, params, events, grid):
        vals = intensity_on_grid(params, events, grid)
        direct = np.array([intensity_at(params, events, float(t)) for t in grid])
        np.testing.assert_allclose(vals, direct, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("at", [1, _GRID_BLOCK - 1, _GRID_BLOCK, 2 * _GRID_BLOCK + 5])
    @pytest.mark.parametrize("bad", ["step_back", "nan"])
    def test_grid_out_of_order_rejected(self, at, bad):
        # the grid is checked a block at a time: a step back to the first
        # point of a block is seen only where that block meets the one before
        grid = np.arange(3.0 * _GRID_BLOCK)
        grid[at] = grid[at - 1] - 0.5 if bad == "step_back" else math.nan
        with pytest.raises(ValueError, match="^grid must be nondecreasing$"):
            intensity_on_grid(validate_params(0.2, 1.0, 1.0), [1.0, 2.0], grid)

    @pytest.mark.parametrize("grid", [np.array(1.0), np.ones((2, 2))], ids=["0-d", "2-d"])
    def test_grid_must_be_one_dimensional(self, grid):
        with pytest.raises(ValueError, match="^grid must be one-dimensional$"):
            intensity_on_grid(validate_params(0.2, 1.0, 1.0), [1.0, 2.0], grid)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(log_beta=st.floats(-5.0, 5.0), alpha_frac=st.just(0.0) | st.floats(0.0, 0.95),
           log_lambda0_ratio=st.floats(-1.0, 1.0),
           gaps=st.lists(st.just(0.0) | st.floats(0.0, 2000.0), max_size=300))
    def test_post_jump_matches_scalar_recurrence(self, log_beta, alpha_frac,
                                                 log_lambda0_ratio, gaps):
        """Gaps are in units of 1/beta; 0 draws ties.  lambda0 within a factor
        10 of lambda_inf keeps lambda >= lambda_inf / 10, so no cancellation."""
        beta = 10.0**log_beta
        params = validate_params(alpha_frac * beta, beta, 1.0, 10.0**log_lambda0_ratio)
        events = np.cumsum(gaps) / beta
        excess, prev, expected = params.lambda0 - params.lambda_inf, 0.0, []
        for tk in events.tolist():
            excess = excess * math.exp(-beta * (tk - prev)) + params.alpha
            prev = tk
            expected.append(params.lambda_inf + excess)
        post = post_jump_intensities(params, events)
        assert post.tolist() == pytest.approx(expected, rel=1e-13, abs=0.0)


class TestCountAt:
    def test_empty(self):
        assert count_at([], 5.0) == 0

    def test_inclusive_right_continuous(self):
        assert count_at([1.0, 2.0, 3.0], 2.0) == 2

    def test_ties_counted_with_multiplicity(self):
        assert count_at([1.0, 1.0, 1.0], 1.0) == 3

    def test_nondecreasing_and_total(self):
        rng = np.random.default_rng(23)
        times = np.sort(rng.uniform(0, 10, size=40))
        seq = EventSequence(times=times, horizon=10.0)
        grid = np.linspace(0, 10, 101)
        counts = [count_at(seq, float(t)) for t in grid]
        assert all(c1 <= c2 for c1, c2 in zip(counts, counts[1:]))
        assert count_at(seq, seq.horizon) == len(seq)

    def test_array_of_times(self):
        times = [1.0, 1.0, 2.0, 3.5]
        grid = np.array([0.0, 1.0, 1.5, 3.5, 9.0])
        counts = count_at(times, grid)
        assert counts.dtype.kind == "i"
        assert counts.tolist() == [0, 2, 2, 4, 4]
        assert counts.tolist() == [count_at(times, float(t)) for t in grid]
        assert type(count_at(times, 2.0)) is int

    @pytest.mark.parametrize("t", [-0.5, np.array([0.0, 1.0, -1e-9])])
    def test_negative_time_rejected(self, t):
        with pytest.raises(ValueError):
            count_at([1.0, 2.0], t)
