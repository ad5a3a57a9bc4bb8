"""Distributional checks for both samplers and the window extraction."""

import copy
import hashlib
import importlib
import math
import os
import pickle
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dense_counts, windowed_counts_reference
from scipy import stats

from hawkesmom import (
    CapacityExceeded,
    EventSequence,
    HawkesParams,
    InsufficientData,
    count_at,
    WindowOutOfRange,
    mean_count,
    post_jump_intensities,
    simulate_batch,
    simulate_cluster,
    simulate_exact,
    stationary_m1,
    validate_params,
    windowed_counts,
)
from hawkesmom import _fork, _libm, _seeding
from hawkesmom import simulate as simulate_module
from hawkesmom.simulate import Trajectory, _spawn_offspring, map_batch, sampler


# The scalar exact loop as it read when it took one uniform per call of
# ``draw``, kept verbatim (but for its name) as the reference that
# TestScalarLoopOracle checks the block loop against.

def _redraw_nonzero(draw) -> float:
    """Next nonzero uniform draw.

    Used as ``draw() or _redraw_nonzero(draw)``: a draw of exactly 0, whose
    log is undefined, is replaced by the next nonzero one, and every other
    draw leaves the stream as it was.
    """
    u = draw()
    while u == 0.0:
        u = draw()
    return u


def _reference_run_exact(draw, params: HawkesParams, horizon: float, cap: int, t: float,
                         lam: float, recorded: int = 0) -> tuple[list[float], list[float]]:
    """simulate_exact's loop from time t and intensity lam, on a path that
    already holds ``recorded`` events, taking its uniforms from ``draw()``
    (see simulate's _log_pairs); returns the new events and post-jump intensities."""
    alpha, beta, lam_inf = params.alpha, params.beta, params.lambda_inf
    room = cap - recorded
    events: list[float] = []
    post: list[float] = []
    while True:
        excess = lam - lam_inf
        u1 = draw() or _redraw_nonzero(draw)
        if excess > 0.0:
            d = 1.0 + beta * math.log(u1) / excess
            s1 = -math.log(d) / beta if d > 0.0 else math.inf
            s2 = -math.log(draw() or _redraw_nonzero(draw)) / lam_inf
            s = min(s1, s2)
            if t + s > horizon:
                break
            t += s
            lam = lam_inf + excess * math.exp(-beta * s) + alpha
        elif excess == 0.0:
            s = -math.log(draw() or _redraw_nonzero(draw)) / lam_inf
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
            if draw() * lam_inf <= lam_here:
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


@pytest.fixture
def libm_probed():
    """Run _libm's first-use probes of log and exp, which draw from
    np.random.default_rng, before the test scripts that generator: without
    it the test's outcome would depend on whether an earlier one probed."""
    for fn in (math.log, math.exp):
        _libm.elementwise(fn, np.ones(2))


@pytest.fixture
def per_seed_default_rng(monkeypatch, libm_probed):
    """Turn off the seeding seam's array pass (_seeding.generators), as a
    failed probe does, so that every generator the samplers make, a lockstep
    group's included, comes from np.random.default_rng, which the test
    scripts."""
    monkeypatch.setattr(_seeding, "_HASHED", False)


class ScriptedRng:
    """PCG64 of ``seed`` with exact 0s at the stream positions ``zeros`` when
    ``seed`` is ``target``, drawn one at a time, in blocks (size) or into
    rows (out)."""

    def __init__(self, seed, zeros, target):
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.zeros = set(zeros) if seed == target else set()
        self.pos = 0

    def draw(self):
        self.pos += 1
        return 0.0 if self.pos - 1 in self.zeros else self.rng.random()

    def random(self, size=None, out=None):
        if size is None and out is None:
            return self.draw()
        block = [self.draw() for _ in range(size or out.size)]
        if out is None:
            return np.array(block)
        out[:] = block
        return out


class TestSimulateExact:
    def test_poisson_reduction_rate(self):
        # alpha = 0 is a homogeneous Poisson(lambda_inf) process
        p = validate_params(0.0, 1.0, 1.0, 1.0)
        traj = simulate_exact(p, 10_000.0, 101)
        rate = len(traj.events) / 10_000.0
        assert 0.97 <= rate <= 1.03  # 3 sigma: sd of rate = 0.01

    def test_long_run_rate_matches_lambda_star(self):
        p = validate_params(0.2, 1.0, 1.0, 1.0)
        traj = simulate_exact(p, 10_000.0, 202)
        rate = len(traj.events) / 10_000.0
        # asymptotic sd of the rate is sqrt(lambda* (beta/kappa)^2 / H) ~ 0.014
        assert abs(rate - 1.25) <= 0.042

    def test_deterministic_given_seed(self):
        p = validate_params(0.2, 1.0, 1.0, 1.0)
        a = simulate_exact(p, 500.0, 7)
        b = simulate_exact(p, 500.0, 7)
        assert np.array_equal(a.events.times, b.events.times)
        c = simulate_exact(p, 500.0, 8)
        assert not np.array_equal(a.events.times, c.events.times)

    def test_interarrivals_exponential_when_poisson(self):
        p = validate_params(0.0, 1.0, 1.0, 1.0)
        traj = simulate_exact(p, 2_500.0, 303)
        gaps = np.diff(np.concatenate([[0.0], traj.events.times]))
        res = stats.kstest(gaps, "expon", args=(0.0, 1.0))
        assert res.pvalue >= 0.01

    def test_post_jump_intensity_invariant(self):
        # the reference loop's intensity state after each event against
        # core's scan of simulate_exact's times, on validate's 20 paths at
        # horizon 10^4 and one path from above the base level: the loop
        # decays by each unrounded interarrival, the scan by differences of
        # the rounded times, and the two differed by at most 1.006e-12 relative
        for raw, horizon, seeds in [((0.2, 1.0, 1.0), 1e4, range(7, 27)),
                                    ((0.3, 1.2, 0.8, 1.5), 50.0, [11])]:
            p = validate_params(*raw)
            for seed in seeds:
                events, post = _reference_run_exact(np.random.default_rng(seed).random, p,
                                                    horizon, 10**9, 0.0, p.lambda0)
                times = simulate_exact(p, horizon, seed).events.times
                assert times.tobytes() == np.asarray(events).tobytes()
                np.testing.assert_allclose(post, post_jump_intensities(p, times),
                                           rtol=1.1e-12, atol=0.0)

    def test_capacity_guard(self):
        p = validate_params(0.95, 1.0, 5.0, 5.0)  # near-critical, lambda* = 100
        with pytest.raises(CapacityExceeded):
            simulate_exact(p, 10_000.0, 5, cap=1000)

    def test_cap_where_lambda_star_overflows(self):
        # lambda* = 2e308 overflows, so the expected count that sizes the
        # first block is NaN: the path still runs into its cap
        p = validate_params(0.5e300, 1e300, 1e308)
        assert math.isnan(mean_count(p, 1.0))
        for run in (lambda: simulate_exact(p, 1.0, 1, cap=1000),
                    lambda: simulate_batch(p, 1.0, 1, 2 * simulate_module._MIN_LOCKSTEP,
                                           cap=1000)):
            with pytest.raises(CapacityExceeded, match="exceeded 1000 events"):
                run()

    def test_deficit_start_mean_count(self):
        # lambda0 below the base level exercises the thinning branch
        p = validate_params(0.3, 1.0, 2.0, 0.2)
        n = np.array([len(t.events) for t in simulate_batch(p, 8.0, 40_000, 3000)], float)
        se = n.std(ddof=1) / math.sqrt(n.size)
        assert abs(n.mean() - mean_count(p, 8.0)) <= 3.0 * se

    def test_events_within_horizon(self):
        p = validate_params(0.2, 1.0, 1.0, 1.0)
        traj = simulate_exact(p, 123.0, 55)
        assert traj.events.horizon == 123.0
        assert traj.events.times[-1] <= 123.0

    # (lambda0, draws that come before the PCG64 stream): the first draw
    # feeds ln(u1) in the excess and deficit branches; in the equal branch it
    # is unused and the second draw feeds ln, as does s2 in the excess branch
    @pytest.mark.parametrize("lambda0, script", [
        (1.6, (0.0,)), (1.6, (0.5, 0.0)),
        (1.0, (0.0,)), (1.0, (0.5, 0.0)),
        (0.4, (0.0,)),
    ], ids=["excess", "excess_s2", "equal_unused", "equal", "deficit"])
    @pytest.mark.usefixtures("libm_probed")
    def test_zero_uniform_draw_is_redrawn(self, monkeypatch, lambda0, script):
        class ScriptedRng:
            def __init__(self, draws, seed):
                self.draws = list(draws)
                self.rng = np.random.Generator(np.random.PCG64(seed))

            def random(self, size=None, out=None):
                # a deficit start draws one float at a time, blocks are drawn
                # by size, their refills past a 0 into out
                if size is None and out is None:
                    return float(self.random(1)[0])
                n = size or out.size
                head, self.draws = self.draws[:n], self.draws[n:]
                block = np.concatenate([head, self.rng.random(n - len(head))])
                if out is None:
                    return block
                out[:] = block
                return out

        p = validate_params(0.3, 1.0, 1.0, lambda0)
        runs = []
        for draws in (script, [u for u in script if u != 0.0]):
            monkeypatch.setattr(np.random, "default_rng",
                                lambda seed, draws=draws: ScriptedRng(draws, seed))
            runs.append(simulate_exact(p, 40.0, 17))
        with_zero, without_zero = runs
        assert len(with_zero.events) > 0
        assert np.array_equal(with_zero.events.times, without_zero.events.times)


class TestSimulateCluster:
    def test_poisson_reduction_immigrants_only(self):
        p = validate_params(0.0, 1.0, 1.5, 1.5)
        traj = simulate_cluster(p, 5_000.0, 17)
        rate = len(traj.events) / 5_000.0
        assert abs(rate - 1.5) <= 3.0 * math.sqrt(1.5 / 5_000.0)

    def test_offspring_generation_law(self):
        # each parent spawns K ~ Poisson((alpha/beta)(1 - e^{-beta (H-T)}))
        # children displaced by a truncated exponential
        p = validate_params(0.5, 1.25, 1.0, 1.0)
        horizon, parent = 10.0, 4.0
        frac = 1.0 - math.exp(-p.beta * (horizon - parent))
        expected_mean = p.alpha / p.beta * frac
        rng = np.random.default_rng(23)
        parents = np.full(60_000, parent)
        children = _spawn_offspring(rng, parents, p, horizon)
        mean = children.size / parents.size
        se = math.sqrt(expected_mean / parents.size)  # Poisson variance
        assert abs(mean - expected_mean) <= 3.0 * se
        assert children.min() > parent and children.max() <= horizon
        # KS against the truncated-exponential displacement law
        disp = children - parent
        cdf = lambda s: (1.0 - np.exp(-p.beta * s)) / frac
        res = stats.kstest(disp, cdf)
        assert res.pvalue >= 0.01

    def test_mean_cluster_size_subcritical_limit(self):
        # total / immigrants -> 1 / (1 - alpha/beta) for long horizons
        p = validate_params(0.2, 1.0, 1.0, 1.0)
        horizon = 2_000.0
        totals, immigrants = [], []
        for i in range(40):
            rng_traj = simulate_cluster(p, horizon, 600 + i)
            totals.append(len(rng_traj.events))
            # immigrant count has Poisson(lambda_inf * horizon) law; recover its
            # mean from the closed-form expected total instead of instrumenting
            immigrants.append(horizon * p.lambda_inf)
        ratio = np.mean(totals) / np.mean(immigrants)
        se_ratio = np.std(totals, ddof=1) / math.sqrt(len(totals)) / np.mean(immigrants)
        assert abs(ratio - 1.0 / (1.0 - p.alpha / p.beta)) <= 3.0 * se_ratio + 0.001

    def test_mean_count_matches_closed_form(self):
        p = validate_params(0.2, 1.0, 1.0, 1.0)
        n = np.array([len(simulate_cluster(p, 10.0, 7_000 + i).events) for i in range(3000)], float)
        se = n.std(ddof=1) / math.sqrt(n.size)
        assert abs(n.mean() - mean_count(p, 10.0)) <= 3.0 * se

    def test_two_samplers_agree_small(self):
        # reduced version of the acceptance cross-validation
        p = validate_params(0.2, 1.0, 1.0, 1.0)
        n_paths = 3000
        n_exact = np.array([len(t.events) for t in simulate_batch(p, 10.0, 1_000, n_paths)],
                           float)
        n_clust = np.array([len(simulate_cluster(p, 10.0, 2_000 + i).events)
                            for i in range(n_paths)], float)
        se = math.sqrt(n_exact.var(ddof=1) / n_paths + n_clust.var(ddof=1) / n_paths)
        assert abs(n_exact.mean() - n_clust.mean()) <= 3.0 * se

    # alpha = 0 has no offspring generation, so only the immigrants can
    # pass the cap
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_capacity_guard(self, alpha):
        p = validate_params(alpha, 1.0, 1.0)
        n = len(simulate_cluster(p, 1000.0, 1).events)
        assert n > 10
        assert len(simulate_cluster(p, 1000.0, 1, cap=n).events) == n
        for cap in (n - 1, 10):
            with pytest.raises(CapacityExceeded, match=f"exceeded {cap} events"):
                simulate_cluster(p, 1000.0, 1, cap=cap)

    def test_cap_checked_before_the_proposals(self):
        # at lambda0 = lambda_inf every proposal is an immigrant: 2e7 of
        # them would hold 320 MB of draws
        p = validate_params(0.0, 1.0, 2e7)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityExceeded, match="exceeded 1 events"):
                simulate_cluster(p, 1.0, 1, cap=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_cap_checked_per_thinning_block(self):
        # at lambda0 = 2e6 the rate falls below its bound, so the proposals
        # are drawn and sorted, 8 bytes each; a path over the cap fails at
        # its first block of them, before the rates and accept draws of the rest
        proposals = int(np.random.default_rng(1).poisson(2e6))
        tracemalloc.start()
        try:
            with pytest.raises(CapacityExceeded, match="exceeded 1 events"):
                simulate_cluster(validate_params(0.0, 1.0, 1.0, 2e6), 1.0, 1, cap=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8 * proposals

    def test_thinning_blocks_read_one_stream(self):
        # alpha = 0: the path is its immigrants, about three blocks of
        # proposals, here thinned as one array
        lam0 = 2e5
        rng = np.random.default_rng(3)
        proposals = np.sort(rng.random(int(rng.poisson(lam0))))
        rate = 1.0 + (lam0 - 1.0) * np.array([math.exp(-x) for x in proposals.tolist()])
        expected = proposals[rng.random(proposals.size) * lam0 <= rate]
        traj = simulate_cluster(validate_params(0.0, 1.0, 1.0, lam0), 1.0, 3)
        assert proposals.size > 3 * simulate_module._THIN_BLOCK
        assert traj.events.times.tobytes() == expected.tobytes()

    def test_deterministic_given_seed(self):
        p = validate_params(0.2, 1.0, 1.0, 1.2)
        a = simulate_cluster(p, 200.0, 9)
        b = simulate_cluster(p, 200.0, 9)
        assert np.array_equal(a.events.times, b.events.times)


class TestSelfExcitationOrdering:
    def test_mean_window_counts_nondecreasing_in_alpha(self):
        horizon, t0, delta = 4_000.0, 500.0, 0.5
        means, ses = [], []
        for alpha, seed in [(0.0, 31), (0.2, 32), (0.5, 33)]:
            p = validate_params(alpha, 1.0, 1.0, 1.0)
            traj = simulate_exact(p, horizon, seed)
            count = int((horizon - t0) / delta)
            counts = dense_counts(windowed_counts(traj.events, t0, delta, count), count)
            means.append(counts.mean())
            ses.append(counts.std(ddof=1) / math.sqrt(counts.size))
        # expected means 0.5, 0.625, 1.0 are separated far beyond 3 sigma
        for lo, hi in ((0, 1), (1, 2)):
            combined = math.hypot(ses[lo], ses[hi])
            assert means[hi] >= means[lo] - 3.0 * combined
        assert means[0] < means[1] < means[2]


class TestWindowedCounts:
    def test_basic(self):
        out = windowed_counts([0.1, 0.6, 0.7], 0.0, 0.5, 2)
        assert list(out.index) == [0, 1]
        assert list(out.counts) == [1, 2]

    def test_empty_events(self):
        out = windowed_counts([], 0.0, 1.0, 5)
        assert out.index.size == out.counts.size == 0
        assert list(dense_counts(out, 5)) == [0, 0, 0, 0, 0]

    def test_half_open_windows(self):
        # event exactly at a window edge belongs to the right window
        out = windowed_counts([0.5], 0.0, 0.5, 2)
        assert list(dense_counts(out, 2)) == [0, 1]

    def test_out_of_range(self):
        p = validate_params(0.2, 1.0, 1.0, 1.0)
        traj = simulate_exact(p, 10.0, 3)
        with pytest.raises(WindowOutOfRange):
            windowed_counts(traj.events, 5.0, 1.0, 6)
        with pytest.raises(ValueError):
            windowed_counts(traj.events, -1.0, 1.0, 2)
        with pytest.raises(ValueError):
            windowed_counts(traj.events, 0.0, 0.0, 2)
        # a non-finite t0 or delta, for a path and for its raw times alike
        for events in (traj.events, traj.events.times):
            for t0, delta in [(math.nan, 1.0), (0.0, math.nan), (math.inf, 1.0),
                              (0.0, math.inf)]:
                with pytest.raises(ValueError):
                    windowed_counts(events, t0, delta, 2)

    # a path's bound is the _window_count of its horizon, with no slack: a
    # relative slack of 1e-12 would pass 10 unobserved windows at horizon
    # 1e13, and one at t0 = 1e9 - 100 with delta = 1e-3
    @pytest.mark.parametrize("horizon, t0, delta", [(1e13, 0.0, 1.0), (1e9, 1e9 - 100.0, 1e-3)])
    def test_no_window_past_the_horizon(self, horizon, t0, delta):
        events = EventSequence(times=np.array([t0]), horizon=horizon)
        fit = importlib.import_module("hawkesmom.estimate")._window_count(horizon, t0, delta)
        assert list(windowed_counts(events, t0, delta, fit).counts) == [1]
        with pytest.raises(WindowOutOfRange):
            windowed_counts(events, t0, delta, fit + 1)

    def test_no_whole_window_is_insufficient_data(self):
        events = EventSequence(times=np.array([0.5]), horizon=1.0)
        with pytest.raises(InsufficientData):
            windowed_counts(events, 0.0, 2.0, 1)

    def test_raw_times_take_at_most_2_53_windows(self):
        # past 2^53 the edges t0 + j delta collide: at 10^17 windows t = 0.5
        # would land in window 50000000000000004, not 5e16
        with pytest.raises(WindowOutOfRange):
            windowed_counts([0.5], 0.0, 1e-17, 10**17)
        assert windowed_counts([0.5], 0.0, 1e-17, 2**53).index.size == 0

    def test_partition_invariance(self):
        rng = np.random.default_rng(77)
        events = np.sort(rng.uniform(0, 30, size=200))
        whole = dense_counts(windowed_counts(events, 2.0, 0.7, 20), 20)
        first = dense_counts(windowed_counts(events, 2.0, 0.7, 8), 8)
        second = dense_counts(windowed_counts(events, 2.0 + 8 * 0.7, 0.7, 12), 12)
        assert np.array_equal(whole, np.concatenate([first, second]))

    def test_total_matches_counting(self):
        rng = np.random.default_rng(78)
        events = np.sort(rng.uniform(0, 25, size=150))
        sample = windowed_counts(events, 1.3, 0.9, 20)
        total = count_at(events, 1.3 + 20 * 0.9) - count_at(events, 1.3)
        assert sample.counts.sum() == total

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(ticks=st.lists(st.integers(0, 60), max_size=200),
           quantum=st.sampled_from([0.1, 0.25, 1.0 / 3.0]),
           t0_ticks=st.integers(0, 20), delta_ticks=st.integers(1, 6),
           pairs=st.integers(1, 15))
    def test_halving_windows_with_ties(self, ticks, quantum, t0_ticks, delta_ticks, pairs):
        # timestamps on a coarse lattice: many ties, some on window edges
        times = np.sort(np.array(ticks, dtype=float)) * quantum
        t0, delta = t0_ticks * quantum, delta_ticks * quantum
        end = t0 + delta * (2 * pairs)
        events = EventSequence(times=times, horizon=max(end, times.max(initial=0.0)))
        fine = dense_counts(windowed_counts(events, t0, delta, 2 * pairs), 2 * pairs)
        coarse = dense_counts(windowed_counts(events, t0, 2.0 * delta, pairs), pairs)
        assert np.array_equal(fine[0::2] + fine[1::2], coarse)
        # windows are [t0, end), count_at is right-continuous
        total = (count_at(events, end) - count_at(events, t0)
                 - np.count_nonzero(times == end) + np.count_nonzero(times == t0))
        assert fine.sum() == total

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(t0=st.one_of(st.sampled_from([0.0, 0.3, 1e9, 2.0**53]), st.floats(0.0, 1e9)),
           delta=st.one_of(st.sampled_from([5e-324, 1e-8, 1e-6, 0.5, 1.0 / 3.0]),
                           st.floats(1e-8, 10.0)),
           count=st.integers(1, 40),
           on_edge=st.lists(st.integers(0, 40), max_size=20),
           offsets=st.lists(st.floats(-3.0, 43.0), max_size=30))
    def test_equals_one_search_per_edge(self, t0, delta, count, on_edge, offsets):
        # events on the edges and one ulp either side of them, before t0
        # and past the last edge; t0 = 2^53 with delta = 0.5, or a subnormal
        # delta, collapses edges, and at t0 = 1e9 a delta of 1e-8 is under
        # one ulp of t0.  Raw times below 0 raise (see
        # test_negative_raw_times_raise), so they are dropped
        edges = t0 + delta * np.arange(count + 1)
        ties = edges[np.minimum(np.array(on_edge, dtype=np.int64), count)]
        times = np.sort(np.concatenate([
            ties, np.nextafter(ties, -math.inf), np.nextafter(ties, math.inf),
            t0 + delta * np.array(offsets, dtype=float)]))
        times = times[times >= 0.0]
        pairs = windowed_counts(times, t0, delta, count)
        assert pairs.index.dtype == pairs.counts.dtype == np.int64
        assert (pairs.counts > 0).all()
        assert (np.diff(pairs.index) > 0).all()
        assert np.array_equal(dense_counts(pairs, count),
                              windowed_counts_reference(times, t0, delta, count))

    @pytest.mark.parametrize("times", [[-1.0, 0.5, 1.0], [-5e-324, 0.0, 0.25]])
    def test_negative_raw_times_raise(self, times):
        with pytest.raises(ValueError, match=f"^times must be >= 0, got {times[0]}$"):
            windowed_counts(np.array(times), 0.0, 0.5, 4)

    @staticmethod
    def _searches_for_strays(monkeypatch) -> list:
        # the sizes of the strays handed to the one-pass count's bisection
        estimate_module = importlib.import_module("hawkesmom.estimate")
        strays, bisect = [], estimate_module._bisect_windows

        def spy(t, *args):
            strays.append(t.size)
            return bisect(t, *args)

        monkeypatch.setattr(estimate_module, "_bisect_windows", spy)
        return strays

    def test_far_guesses_fall_back_to_a_search(self, monkeypatch):
        # at t0 = 1e9 the edges are 1e-8 apart but rounded to ulps of 1.2e-7,
        # so the quotient (t - t0) / delta is off by up to 6 windows
        t0, delta, count = 1e9, 1e-8, 500
        times = t0 + np.linspace(0.0, count * delta, 200, endpoint=False)
        expected = windowed_counts_reference(times, t0, delta, count)
        strays = self._searches_for_strays(monkeypatch)
        assert np.array_equal(dense_counts(windowed_counts(times, t0, delta, count), count),
                              expected)
        assert strays and sum(strays) > 0

    def test_edge_hugging_events_match_the_reference(self):
        # on the edges 0.3 + 0.1 j and one ulp either side, about 100 of
        # 3000 quotients fall one window too high or too low
        edges = 0.3 + 0.1 * np.arange(1001)
        times = np.sort(np.concatenate([edges, np.nextafter(edges, -math.inf),
                                        np.nextafter(edges, math.inf)]))
        assert np.array_equal(dense_counts(windowed_counts(times, 0.3, 0.1, 1000), 1000),
                              windowed_counts_reference(times, 0.3, 0.1, 1000))

    @pytest.mark.parametrize("chunk", [1, 2, 7, 64, None])
    def test_chunks_match_the_reference(self, monkeypatch, chunk):
        # windows that straddle chunk boundaries, ties on edges, strays and
        # empty stretches; None keeps the real chunk, which 3 chunks + 17
        # events span
        estimate_module = importlib.import_module("hawkesmom.estimate")
        size = 3 * estimate_module._COUNT_CHUNK_EVENTS + 17
        if chunk is not None:
            monkeypatch.setattr(estimate_module, "_COUNT_CHUNK_EVENTS", chunk)
            size = 500
        rng = np.random.default_rng(79)
        lattice = np.round(rng.uniform(0.0, 40.0, size // 2), 1)
        times = np.sort(np.concatenate([lattice, rng.uniform(0.0, 40.0, size - lattice.size),
                                        np.full(5, 12.3)]))
        for t0, delta, count in [(0.3, 0.1, 300), (1.0, 0.7, 50), (2.0, 5.0, 7)]:
            assert np.array_equal(dense_counts(windowed_counts(times, t0, delta, count), count),
                                  windowed_counts_reference(times, t0, delta, count))

    def test_stationary_window_mean(self):
        p = validate_params(0.2, 1.0, 1.0, 1.0)
        traj = simulate_exact(p, 10_000.0, 404)
        counts = dense_counts(windowed_counts(traj.events, 3_000.0, 0.5, 14_000), 14_000)
        # correlation-adjusted SE of the window mean is ~ 0.0084
        assert abs(counts.mean() - stationary_m1(p, 0.5)) <= 0.03


class TestBatch:
    # criterion 8's cascade batch, from the base level and from a deficit
    # start: a sha256 over every path's times, pinned
    @pytest.mark.parametrize("lambda0, digest", [
        (0.243, "707ec6b758dfcf516d001f6c39a606891c44550542bec45f295a31a7d0cefc86"),
        (0.1, "3d63275c59718134eab9dfdaaa9904500d99a2e6ddfd1066f3eb082dfdb2caf6"),
    ])
    def test_cascade_batch_digest(self, lambda0, digest):
        sha = hashlib.sha256()
        for traj in simulate_batch(validate_params(0.772, 1.133, 0.243, lambda0), 600.0, 1, 1000):
            sha.update(traj.events.times.tobytes())
        assert sha.hexdigest() == digest

    def test_order_and_determinism(self):
        p = validate_params(0.2, 1.0, 1.0, 1.0)
        batch = simulate_batch(p, 50.0, 1000, 5)
        assert [t.seed for t in batch] == [1000, 1001, 1002, 1003, 1004]
        again = simulate_batch(p, 50.0, 1000, 5)
        for a, b in zip(batch, again):
            assert np.array_equal(a.events.times, b.events.times)
        single = simulate_exact(p, 50.0, 1003)
        assert np.array_equal(batch[3].events.times, single.events.times)

    # (alpha, beta, lambda_inf, lambda0, horizon, paths): lambda0 equal to,
    # above and below lambda_inf, with enough excess paths that numpy's log
    # in place of libm's changes some; the cascade forecast's near-critical
    # parameters; alpha = 0 from each side; a horizon so short that most
    # paths hold no event; one path; paths of many blocks; one group and a
    # remainder
    REGIMES = {
        "equal": (0.2, 1.0, 1.0, 1.0, 60.0, 30),
        "excess": (0.3, 1.0, 1.0, 2.5, 40.0, 100),
        "criterion8": (0.772, 1.133, 0.243, 0.243, 600.0, 40),
        "deficit": (0.3, 1.0, 2.0, 0.1, 10.0, 40),
        "alpha0": (0.0, 1.0, 1.0, 1.0, 60.0, 20),
        "alpha0_excess": (0.0, 1.0, 1.0, 3.0, 20.0, 20),
        "alpha0_deficit": (0.0, 1.0, 1.0, 0.3, 20.0, 20),
        "short": (0.2, 1.0, 1.0, 1.0, 0.05, 40),
        "one_path": (0.2, 1.0, 1.0, 1.2, 300.0, 1),
        "many_blocks": (0.2, 1.0, 1.0, 1.0, 2000.0, 64),
        "group_and_remainder": (0.2, 1.0, 1.0, 1.0, 4.0, simulate_module._GROUP + 13),
    }

    @staticmethod
    def _assert_bitwise_exact(batch, params, horizon, seed, n_paths):
        assert [t.seed for t in batch] == [seed + i for i in range(n_paths)]
        for i, traj in enumerate(batch):
            ref = simulate_exact(params, horizon, seed + i)
            assert traj.events.times.tobytes() == ref.events.times.tobytes(), i
            assert traj.events.horizon == horizon

    # 1 steps every path in lockstep to its end; the default hands the last
    # few live paths to the scalar loop mid-stream
    @pytest.mark.parametrize("min_lockstep", [1, simulate_module._MIN_LOCKSTEP],
                             ids=["lockstep", "default"])
    @pytest.mark.parametrize("regime", list(REGIMES))
    def test_bitwise_equal_to_simulate_exact(self, monkeypatch, regime, min_lockstep):
        monkeypatch.setattr(simulate_module, "_MIN_LOCKSTEP", min_lockstep)
        *raw, horizon, n_paths = self.REGIMES[regime]
        p = validate_params(*raw)
        batch = simulate_batch(p, horizon, 3_000, n_paths)
        self._assert_bitwise_exact(batch, p, horizon, 3_000, n_paths)
        sizes = [len(t.events) for t in batch]
        if regime == "short":
            assert 0 in sizes and max(sizes) > 0
        if regime == "many_blocks":
            # more loop iterations than the group's first four blocks hold,
            # each capped at _BLOCK_CELLS across the live paths
            cells = simulate_module._BLOCK_CELLS // n_paths
            size = min(simulate_module._first_block(p, horizon, 0.0, p.lambda0) // 2, cells)
            held = size + 3 * cells
            assert size == cells and min(sizes) > held

    def test_deficit_regime_rejects_proposals(self, monkeypatch):
        # the deficit case above must exercise thinning rejections: each
        # proposal the deficit start reads takes two rng.random() calls, but
        # for the one that ends the path, which takes one, so more calls
        # than two per accepted event plus one means some proposal was
        # rejected
        class CountingRng:
            def __init__(self, rng):
                self.rng = rng
                self.draws = 0

            def random(self, *args, **kwargs):
                self.draws += not (args or kwargs)  # one float per call
                return self.rng.random(*args, **kwargs)

        start = simulate_module._base_level_start
        reads = []

        def counting_start(rng, *args):
            counted = CountingRng(rng)
            t, lam, events = start(counted, *args)
            reads.append((counted.draws, len(events)))
            return t, lam, events

        monkeypatch.setattr(simulate_module, "_base_level_start", counting_start)
        *raw, horizon, n_paths = self.REGIMES["deficit"]
        p = validate_params(*raw)
        rejected = 0
        for i in range(n_paths):
            reads.clear()
            simulate_exact(p, horizon, 3_000 + i)
            [(draws, events)] = reads
            rejected += draws > 2 * events + 1
        assert rejected >= n_paths // 2

    @pytest.mark.parametrize("later", [False, True], ids=["first_block", "later_block"])
    @pytest.mark.usefixtures("per_seed_default_rng")
    def test_zero_draw_path_matches_simulate_exact(self, monkeypatch, later):
        """A scripted stream puts an exact 0 at one draw of one path, in the
        group's first block or its second: that path skips it in the
        lockstep and still equals simulate_exact."""
        target = 3_005
        p = validate_params(0.2, 1.0, 1.0, 1.0)
        # enough paths that _BLOCK_CELLS caps the group's first block below
        # the paths' expected events
        horizon, n_paths = 600.0, 2 * simulate_module._MIN_LOCKSTEP
        first = min(simulate_module._first_block(p, horizon, 0.0, p.lambda0) // 2,
                    simulate_module._BLOCK_CELLS // n_paths)
        assert first < mean_count(p, horizon) / 2
        position = 2 * first + 3 if later else 3
        plain = simulate_exact(p, horizon, target)
        # one group, stepped in lockstep to its end, whatever the CPU count
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(simulate_module, "_MIN_LOCKSTEP", 1)
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: ScriptedRng(seed, (position,), target))
        batch = simulate_batch(p, horizon, 3_000, n_paths)
        self._assert_bitwise_exact(batch, p, horizon, 3_000, n_paths)
        # the zero fell inside the used stream and was redrawn
        assert len(plain.events) > position
        assert batch[target - 3_000].events.times.tobytes() == plain.events.times.tobytes()

    def test_capacity_exceeded(self):
        p = validate_params(0.95, 1.0, 5.0, 5.0)  # near-critical, lambda* = 100
        with pytest.raises(CapacityExceeded):
            simulate_batch(p, 10_000.0, 5, 20, cap=1000)

    def test_unknown_method(self):
        p = validate_params(0.2, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="unknown simulation method"):
            simulate_batch(p, 10.0, 1, 3, method="thinning")
        with pytest.raises(ValueError, match="unknown simulation method"):
            sampler("thinning")
        assert sampler("exact") is simulate_exact
        assert sampler("cluster") is simulate_cluster

    def test_cluster_method_uses_per_path_seeds(self):
        p = validate_params(0.2, 1.0, 1.0, 1.0)
        batch = simulate_batch(p, 30.0, 40, 3, method="cluster")
        for i, traj in enumerate(batch):
            ref = simulate_cluster(p, 30.0, 40 + i)
            assert np.array_equal(traj.events.times, ref.events.times)

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(regime=st.sampled_from(list(REGIMES)), seed=st.integers(0, 2**32),
           scale=st.floats(min_value=0.01, max_value=1.0))
    def test_sampled_times_within_horizon(self, regime, seed, scale):
        # the samplers build EventSequences without __post_init__'s checks
        *raw, horizon, n_paths = self.REGIMES[regime]
        p, horizon = validate_params(*raw), horizon * scale
        batch = simulate_batch(p, horizon, seed, n_paths)
        for traj in batch + [simulate_exact(p, horizon, seed)]:
            times = traj.events.times
            assert np.all(np.diff(times) >= 0.0)
            assert times.size == 0 or (times[0] >= 0.0 and times[-1] <= horizon)
            assert times.dtype == np.float64 and not times.flags.writeable
            assert traj.events.horizon == horizon


class TestScalarLoopOracle:
    """simulate_exact and the exact batch, byte for byte against the
    draw-by-draw reference loop: the batch-vs-simulate_exact tests cannot see
    a fault in the scalar loop the two share."""

    # (alpha, beta, lambda_inf, lambda0, horizon): a deficit start that
    # leaves the deficit, and one that stays in it to the horizon; alpha = 0
    # at lambda0 = lambda_inf, where the excess stays 0; lambda0 above
    CASES = {
        "deficit": (0.3, 1.0, 2.0, 0.1, 30.0),
        "alpha0_deficit": (0.0, 1.0, 1.0, 0.3, 20.0),
        "alpha0_equal": (0.0, 1.0, 1.0, 1.0, 60.0),
        "excess": (0.3, 1.0, 1.0, 2.5, 60.0),
    }
    SEED, N_PATHS = 4_000, 12
    # paths long enough that every exact loop's first block holds
    # _MAX_UNIFORMS draws (_first_block): simulate_exact's blocks, and the
    # first lockstep row of a group of N_PATHS, end after every
    # _MAX_UNIFORMS // 2 events; the group's second row is capped at
    # _BLOCK_CELLS across its paths
    LONG = {"long_excess": (0.3, 1.0, 1.0, 2.5, 3500.0),
            "long_equal": (0.0, 1.0, 1.0, 1.0, 5000.0)}
    EDGE = simulate_module._MAX_UNIFORMS
    ROW = EDGE + 2 * min(EDGE, simulate_module._BLOCK_CELLS // N_PATHS)
    # (case, stream positions of exact 0s in the target path): with lambda0
    # above lambda_inf draws 2k and 2k + 1 are event k's u1 and u2; from a
    # deficit start draw 0 is a proposal and draw 1 its accept draw, which
    # a 0 accepts without a redraw
    # a block of n draws is the path's next n nonzero draws: a 0 at the
    # last draw of the first block is refilled by the next one, and two
    # zeros there make that refill a 0 too; ROW - 1 and ROW do the same at
    # the end of a path's second lockstep row
    ZEROS = {
        "u1": ("excess", (4,)),
        "u2": ("excess", (5,)),
        "two_zeros": ("excess", (0, 3)),
        "deficit_proposal": ("deficit", (0,)),
        "deficit_accept": ("deficit", (1,)),
        "block_end": ("long_excess", (EDGE - 1,)),
        "block_end_equal": ("long_equal", (EDGE - 1,)),
        "across_block_edge": ("long_excess", (EDGE - 1, EDGE)),
        "lockstep_row_edge": ("long_excess", (ROW - 1, ROW)),
    }

    @staticmethod
    def reference(params, horizon, seed, cap=10**9):
        draws = []

        def draw():
            draws.append(None)
            return rng.random()

        rng = np.random.default_rng(seed)
        events, _ = _reference_run_exact(draw, params, horizon, cap, 0.0, params.lambda0)
        return np.asarray(events), len(draws)

    def assert_matches_reference(self, monkeypatch, params, horizon, min_lockstep):
        monkeypatch.setattr(simulate_module, "_MIN_LOCKSTEP", min_lockstep)
        batch = simulate_batch(params, horizon, self.SEED, self.N_PATHS)
        for i, traj in enumerate(batch):
            times, _ = self.reference(params, horizon, self.SEED + i)
            single = simulate_exact(params, horizon, self.SEED + i)
            for got in (single, traj):
                assert got.events.times.tobytes() == times.tobytes(), i

    @pytest.mark.parametrize("min_lockstep", [1, simulate_module._MIN_LOCKSTEP],
                             ids=["lockstep", "default"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_equals_reference(self, monkeypatch, case, min_lockstep):
        *raw, horizon = self.CASES[case]
        self.assert_matches_reference(monkeypatch, validate_params(*raw), horizon, min_lockstep)

    @pytest.mark.parametrize("min_lockstep", [1, simulate_module._MIN_LOCKSTEP],
                             ids=["lockstep", "default"])
    @pytest.mark.parametrize("name", list(ZEROS))
    @pytest.mark.usefixtures("per_seed_default_rng")
    def test_scripted_zeros_equal_reference(self, monkeypatch, name, min_lockstep):
        case, zeros = self.ZEROS[name]
        *raw, horizon = {**self.CASES, **self.LONG}[case]
        p = validate_params(*raw)
        if case in self.LONG:
            assert simulate_module._first_block(p, horizon, 0.0, p.lambda0) == self.EDGE
        target = self.SEED + 3
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: ScriptedRng(seed, zeros, target))
        times, draws = self.reference(p, horizon, target)
        # the zeros fall inside the stream the path uses
        assert len(times) > 3 and draws > max(zeros) + 2
        self.assert_matches_reference(monkeypatch, p, horizon, min_lockstep)

    @pytest.mark.parametrize("min_lockstep", [1, simulate_module._MIN_LOCKSTEP],
                             ids=["lockstep", "default"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_cap_at_and_below_the_event_count(self, monkeypatch, case, min_lockstep):
        monkeypatch.setattr(simulate_module, "_MIN_LOCKSTEP", min_lockstep)
        *raw, horizon = self.CASES[case]
        p = validate_params(*raw)
        times, _ = self.reference(p, horizon, self.SEED)
        n = len(times)
        with pytest.raises(CapacityExceeded) as expected:
            self.reference(p, horizon, self.SEED, cap=n - 1)
        for run in (lambda cap: simulate_exact(p, horizon, self.SEED, cap=cap),
                    lambda cap: simulate_batch(p, horizon, self.SEED, 1, cap=cap)[0]):
            traj = run(n)
            assert traj.events.times.tobytes() == times.tobytes()
            with pytest.raises(CapacityExceeded) as raised:
                run(n - 1)
            assert str(raised.value) == str(expected.value)


    # a long path that starts at or above the base level reads
    # simulate_exact's blocks of _MAX_UNIFORMS draws, and a lone path's
    # first lockstep row as many, in its first _MAX_UNIFORMS // 2 events,
    # and simulate_exact's second block in the next as many: a cap one
    # below, at and one above each of those block ends
    @pytest.mark.parametrize("min_lockstep", [1, simulate_module._MIN_LOCKSTEP],
                             ids=["lockstep", "default"])
    @pytest.mark.parametrize("cap", [k * simulate_module._MAX_UNIFORMS // 2 + d
                                     for k in (1, 2) for d in (-1, 0, 1)])
    @pytest.mark.parametrize("case", list(LONG))
    def test_cap_at_a_block_edge(self, monkeypatch, case, cap, min_lockstep):
        monkeypatch.setattr(simulate_module, "_MIN_LOCKSTEP", min_lockstep)
        *raw, horizon = self.LONG[case]
        p = validate_params(*raw)
        assert simulate_module._first_block(p, horizon, 0.0, p.lambda0) == self.EDGE
        times, _ = self.reference(p, horizon, self.SEED)
        assert len(times) > cap + 1
        with pytest.raises(CapacityExceeded) as expected:
            self.reference(p, horizon, self.SEED, cap=cap)
        for run in (lambda: simulate_exact(p, horizon, self.SEED, cap=cap),
                    lambda: simulate_batch(p, horizon, self.SEED, 1, cap=cap)):
            with pytest.raises(CapacityExceeded) as raised:
                run()
            assert str(raised.value) == str(expected.value)


class TestLockstepAssembly:
    """One lockstep group's paths, assembled by one scatter from every route
    their times take: deficit starts, blocks, one of which skips an exact 0
    in place, and the scalar tails."""

    SEED = 6_000

    @pytest.mark.usefixtures("per_seed_default_rng")
    def test_every_route_equals_simulate_exact(self, monkeypatch):
        # the cascade forecast's parameters from a deficit start, which its
        # first event leaves: with twice _MIN_LOCKSTEP paths _BLOCK_CELLS
        # caps each block at about half a path's expected events, so the
        # group steps two blocks, and the paths' lengths spread widely, so
        # fewer than _MIN_LOCKSTEP are live after them
        p = validate_params(0.772, 1.133, 0.243, 0.1)
        horizon, n_paths = 600.0, 2 * simulate_module._MIN_LOCKSTEP
        first = min(simulate_module._first_block(p, horizon, 0.0, p.lambda0) // 2,
                    simulate_module._BLOCK_CELLS // n_paths)
        target = self.SEED + 23  # a path of 608 events
        rng = ScriptedRng(target, (), target)
        t, _, start = simulate_module._base_level_start(rng, p, horizon, 10**6)
        assert start and t < horizon
        # an exact 0 inside the target's second lockstep block
        zero = rng.pos + 2 * first + 3
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: ScriptedRng(seed, (zero,), target))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        calls, shapes = [], []
        run_exact, skip_zeros = simulate_module._run_exact, simulate_module._skip_zeros
        assemble = simulate_module._assemble

        def recording_run_exact(*args):
            calls.append("run_exact")
            return run_exact(*args)

        def recording_skip_zeros(rng, u):
            if not u.all():
                calls.append("skip_zeros")
            return skip_zeros(rng, u)

        def recording_assemble(pieces, n):
            shapes.append(([ids.size for ids, _, _ in pieces], int(pieces[0][1].sum())))
            return assemble(pieces, n)

        monkeypatch.setattr(simulate_module, "_run_exact", recording_run_exact)
        monkeypatch.setattr(simulate_module, "_skip_zeros", recording_skip_zeros)
        monkeypatch.setattr(simulate_module, "_assemble", recording_assemble)
        batch = simulate_batch(p, horizon, self.SEED, n_paths)
        # one group: the deficit starts' piece holds events, every block's
        # piece holds at least _MIN_LOCKSTEP paths and the tails' fewer
        [(paths, start_events)] = shapes
        assert start_events > 0 and len(paths) >= 4
        assert paths[0] == n_paths and paths[-1] < simulate_module._MIN_LOCKSTEP
        assert min(paths[1:-1]) >= simulate_module._MIN_LOCKSTEP
        # no route hands a block back: the one block holding a 0 skipped it in
        # the lockstep, and the scalar loop ran only the tails
        assert calls.index("skip_zeros") < calls.index("run_exact")
        assert calls.count("skip_zeros") == 1 and calls.count("run_exact") == paths[-1]
        TestBatch._assert_bitwise_exact(batch, p, horizon, self.SEED, n_paths)
        assert len(batch[target - self.SEED].events) > len(start) + 2 * first + 3

    def test_tail_first_block_from_expected_events(self, monkeypatch):
        # two uniforms per expected remaining event (E[N] is 456 over the
        # cascade's 600), even, from _FIRST_UNIFORMS up to _MAX_UNIFORMS
        p = validate_params(0.772, 1.133, 0.243)
        lam_inf = p.lambda_inf
        first_block = simulate_module._first_block
        assert first_block(p, 600.0, 0.0, lam_inf) == 2 * math.ceil(mean_count(p, 600.0))
        sizes = [first_block(p, horizon, t, lam)
                 for horizon, t, lam in [(600.0, 600.0, lam_inf), (600.0, 590.0, lam_inf),
                                         (600.0, 590.0, 20 * lam_inf), (600.0, 0.0, lam_inf),
                                         (1e4, 0.0, lam_inf)]]
        assert sizes[0] == simulate_module._FIRST_UNIFORMS
        assert sizes[-1] == simulate_module._MAX_UNIFORMS
        assert sizes == sorted(sizes) and all(size % 2 == 0 for size in sizes)
        # simulate_exact's loop takes the rule's first block from t = 0, and
        # from where a deficit start reaches the base level
        log_pairs, firsts = simulate_module._log_pairs, []

        def recording_log_pairs(rng, params, size):
            firsts.append(size)
            return log_pairs(rng, params, size)

        monkeypatch.setattr(simulate_module, "_log_pairs", recording_log_pairs)
        simulate_exact(p, 600.0, self.SEED)
        assert firsts == [sizes[3]]
        deficit = validate_params(0.772, 1.133, 0.243, 0.1)
        t, lam, _ = simulate_module._base_level_start(
            np.random.default_rng(self.SEED), deficit, 600.0, 10**6)
        firsts.clear()
        simulate_exact(deficit, 600.0, self.SEED)
        assert 0.0 < t and firsts == [first_block(deficit, 600.0, t, lam)]

    @pytest.mark.parametrize("min_lockstep", [1, simulate_module._MIN_LOCKSTEP],
                             ids=["lockstep", "default"])
    def test_cap_names_the_first_path_over_it(self, monkeypatch, min_lockstep):
        # from the base level every live path finds one event per loop
        # iteration, so every path over the cap crosses it in the same
        # block, and the first of them in seed order raises, with the
        # scalar loop's message; path 0 holds exactly cap events
        monkeypatch.setattr(simulate_module, "_MIN_LOCKSTEP", min_lockstep)
        p = validate_params(0.3, 1.0, 1.0, 1.0)
        horizon, n_paths = 60.0, 100
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        sizes = [len(t.events) for t in simulate_batch(p, horizon, self.SEED, n_paths)]
        cap = sizes[0]
        over = [i for i, size in enumerate(sizes) if size > cap]
        assert len(over) > 1 and over[0] > 0
        with pytest.raises(CapacityExceeded) as expected:
            simulate_exact(p, horizon, self.SEED + over[0], cap=cap)
        with pytest.raises(CapacityExceeded) as raised:
            simulate_batch(p, horizon, self.SEED, n_paths, cap=cap)
        assert str(raised.value) == str(expected.value)


class TestPickle:
    """A path's times pickle and copy as their raw float64 bytes, and come
    back read-only with the horizon and the seed they had."""

    @pytest.fixture
    def traj(self):
        return simulate_exact(validate_params(0.3, 1.0, 1.0, 2.5), 40.0, 11)

    @staticmethod
    def assert_same(got, traj):
        assert type(got) is Trajectory and got is not traj
        assert got.seed == traj.seed and got.events.horizon == traj.events.horizon
        times = got.events.times
        assert times.dtype == np.float64 and times.tobytes() == traj.events.times.tobytes()
        assert not times.flags.writeable

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, traj, protocol):
        self.assert_same(pickle.loads(pickle.dumps(traj, protocol)), traj)
        events = pickle.loads(pickle.dumps(traj.events, protocol))
        self.assert_same(Trajectory(events, traj.seed), traj)

    def test_out_of_band_buffer(self, traj):
        # protocol 5 hands the times to buffer_callback without a copy; a
        # writable copy of them still comes back read-only
        buffers = []
        data = pickle.dumps(traj, protocol=5, buffer_callback=buffers.append)
        [buffer] = buffers
        assert buffer.raw().tobytes() == traj.events.times.tobytes()
        assert len(data) < traj.events.times.nbytes
        for given in (buffers, [bytearray(buffer.raw())]):
            self.assert_same(pickle.loads(data, buffers=given), traj)

    @pytest.mark.parametrize("how", [copy.copy, copy.deepcopy])
    def test_copy(self, traj, how):
        events = how(traj.events)
        assert events is not traj.events
        self.assert_same(Trajectory(events, traj.seed), traj)
        self.assert_same(copy.deepcopy(traj), traj)

    def test_empty_and_strided_times(self):
        for events in (EventSequence(np.empty(0), 3.0),
                       EventSequence(np.arange(10.0)[::2], 9.0)):
            for protocol in (4, 5):
                got = pickle.loads(pickle.dumps(events, protocol))
                assert got.times.tobytes() == events.times.tobytes()
                assert got.horizon == events.horizon and not got.times.flags.writeable


class TestBatchSlices:
    """simulate_batch spreads its seeds over one forked child per CPU."""

    N_PATHS = 2 * simulate_module._GROUP + 7  # three groups on one CPU

    @staticmethod
    def count_forks(monkeypatch, cpus):
        """Count os.fork calls at ``cpus`` CPUs, with the per-worker event
        floor low enough that these small batches fork."""
        forks = []
        real_fork = os.fork

        def counting_fork():
            forks.append(os.getpid())
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(simulate_module, "MIN_EVENTS_PER_WORKER", 1)
        return forks

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("regime", ["excess", "deficit"])
    def test_bitwise_equal_for_any_cpu_count(self, monkeypatch, regime, cpus):
        *raw, horizon, _ = TestBatch.REGIMES[regime]
        p = validate_params(*raw)
        forks = self.count_forks(monkeypatch, cpus)
        batch = simulate_batch(p, horizon, 3_000, self.N_PATHS)
        assert len(forks) == min(cpus, 3) - 1
        TestBatch._assert_bitwise_exact(batch, p, horizon, 3_000, self.N_PATHS)

    def test_cluster_method_in_slices(self, monkeypatch):
        p = validate_params(0.2, 1.0, 1.0, 1.5)
        forks = self.count_forks(monkeypatch, 3)
        batch = simulate_batch(p, 5.0, 40, self.N_PATHS, method="cluster")
        assert len(forks) == 2
        assert [t.seed for t in batch] == [40 + i for i in range(self.N_PATHS)]
        for i, traj in enumerate(batch):
            ref = simulate_cluster(p, 5.0, 40 + i)
            assert traj.events.times.tobytes() == ref.events.times.tobytes(), i

    # validate's K = 20 is cut into one slice per CPU; N_PATHS runs as
    # groups of _GROUP, _GROUP and 7 paths at 1 CPU, as _GROUP and a few in
    # each half at 2, and as one group per third at 3 (the exact method's
    # are checked above)
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("n_paths, method", [(20, "exact"), (20, "cluster"),
                                                 (N_PATHS, "cluster")])
    def test_batch_split_over_cpus(self, monkeypatch, n_paths, method, cpus):
        p = validate_params(0.3, 1.0, 1.0, 2.5)
        forks = self.count_forks(monkeypatch, cpus)
        batch = simulate_batch(p, 40.0, 3_000, n_paths, method=method)
        assert len(forks) == min(cpus, n_paths) - 1
        assert [t.seed for t in batch] == [3_000 + i for i in range(n_paths)]
        for i, traj in enumerate(batch):
            ref = sampler(method)(p, 40.0, 3_000 + i)
            assert traj.events.times.tobytes() == ref.events.times.tobytes(), i

    def test_paths_from_children_are_read_only(self, monkeypatch):
        # a child's paths come back pickled, their times as raw bytes
        p = validate_params(0.2, 1.0, 1.0, 1.0)
        forks = self.count_forks(monkeypatch, 2)
        batch = simulate_batch(p, 40.0, 3_000, 40)
        assert len(forks) == 1
        TestBatch._assert_bitwise_exact(batch, p, 40.0, 3_000, 40)
        for traj in batch:
            assert traj.events.times.dtype == np.float64
            assert not traj.events.times.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                traj.events.times[:1] = 0.0

    def test_one_path_never_forks(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        monkeypatch.setattr(simulate_module, "MIN_EVENTS_PER_WORKER", 1)
        p = validate_params(0.2, 1.0, 1.0, 1.0)
        [traj] = simulate_batch(p, 4.0, 1, 1)
        assert traj.events.times.tobytes() == simulate_exact(p, 4.0, 1).events.times.tobytes()

    # (paths, horizon) at validate's parameters, 1.25 expected events per
    # unit of time after a short transient, and the workers at 64 CPUs: the
    # cascade forecast's 2-path warm-up stays here, a batch forks once each
    # of its slices expects MIN_EVENTS_PER_WORKER events
    @pytest.mark.parametrize("n_paths, horizon, workers", [
        (2, 600.0, 1), (4, 400.0, 1), (20, 600.0, 1), (4, 4000.0, 2), (8, 4000.0, 4),
    ])
    def test_forks_only_for_enough_events(self, monkeypatch, n_paths, horizon, workers):
        p = validate_params(0.2, 1.0, 1.0, 1.0)
        expected = n_paths * mean_count(p, horizon)
        assert workers == max(1, int(expected / simulate_module.MIN_EVENTS_PER_WORKER))
        forks = []
        real_fork = os.fork

        def counting_fork():
            forks.append(None)
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        batch = simulate_batch(p, horizon, 3_000, n_paths)
        assert len(forks) == workers - 1
        TestBatch._assert_bitwise_exact(batch, p, horizon, 3_000, n_paths)

    @staticmethod
    def _error(p, seed, cap, **kwargs):
        with pytest.raises(CapacityExceeded) as info:
            simulate_batch(p, 4.0, seed, TestBatchSlices.N_PATHS, cap=cap, **kwargs)
        return type(info.value), str(info.value)

    @pytest.mark.parametrize("method", ["exact", "cluster"])
    def test_child_error_is_raised_as_in_one_process(self, monkeypatch, method):
        # with two CPUs this process samples the first half of the seeds and
        # the child the second; the batch starts at the first seed from 11
        # on whose second half holds a longer path than its first, and the
        # cap is the first half's longest, so only the child fails
        half = self.N_PATHS // 2
        p = validate_params(0.5, 1.0, 2.0, 2.0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        sizes = [len(t.events)
                 for t in simulate_batch(p, 4.0, 11, 2 * self.N_PATHS, method=method)]
        start = next(lo for lo in range(self.N_PATHS + 1)
                     if max(sizes[lo + half:lo + self.N_PATHS]) > max(sizes[lo:lo + half]))
        cap = max(sizes[start:start + half])
        serial = self._error(p, 11 + start, cap, method=method)
        forks = self.count_forks(monkeypatch, 2)
        assert self._error(p, 11 + start, cap, method=method) == serial
        assert len(forks) == 1

    def test_parent_error_reaps_children(self, monkeypatch):
        p = validate_params(0.5, 1.0, 2.0, 2.0)
        forks = self.count_forks(monkeypatch, 3)
        with pytest.raises(CapacityExceeded):
            simulate_batch(p, 4.0, 11, self.N_PATHS, cap=1)
        assert len(forks) == 2

    def test_dead_child_raises(self, monkeypatch):
        parent = os.getpid()
        lockstep = simulate_module._lockstep

        def die_in_child(*args):
            if os.getpid() != parent:
                os._exit(3)
            return lockstep(*args)

        monkeypatch.setattr(simulate_module, "_lockstep", die_in_child)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(simulate_module, "MIN_EVENTS_PER_WORKER", 1)
        p = validate_params(0.2, 1.0, 1.0, 1.0)
        # the child samples the second half of seeds 1 to N_PATHS
        child = f"seeds {1 + self.N_PATHS // 2} to {self.N_PATHS}"
        with pytest.raises(OSError, match=f"{child} exited with status 3"):
            simulate_batch(p, 4.0, 1, self.N_PATHS)


class TestSliceRule:
    """_fork.in_slices alone decides how many slices a batch or a file gets."""

    @staticmethod
    def forbid_forks(monkeypatch, cpus):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))

    def test_nan_expectation_never_forks(self, monkeypatch):
        # lambda* = 2e308 overflows, so the batch's expected events are NaN:
        # one slice, whose first path passes the cap at once
        p = validate_params(0.5e300, 1e300, 1e308)
        assert math.isnan(mean_count(p, 1.0))
        self.forbid_forks(monkeypatch, 2)
        with pytest.raises(CapacityExceeded, match="exceeded 1000 events"):
            simulate_batch(p, 1.0, 1, 2 * simulate_module._MIN_LOCKSTEP, cap=1000)

    def test_one_path_is_one_slice(self, monkeypatch):
        # enough expected events for two slices, but only one path
        p = validate_params(0.2, 1.0, 1.0, 1.0)
        horizon = 20_000.0
        assert mean_count(p, horizon) > 2 * simulate_module.MIN_EVENTS_PER_WORKER
        self.forbid_forks(monkeypatch, 4)
        [traj] = simulate_batch(p, horizon, 5, 1)
        assert traj.events.times.tobytes() == simulate_exact(p, horizon, 5).events.times.tobytes()

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(cpus=st.integers(1, 4), start=st.integers(-5, 5), n=st.integers(0, 12),
           work=st.one_of(st.floats(0.0, 1e3), st.just(math.nan), st.just(math.inf)),
           min_work=st.floats(1e-3, 1e3))
    def test_slices_cover_the_items_in_order(self, cpus, start, n, work, min_work):
        # each child sends back the slice it ran; the first runs here
        parent, seen = os.getpid(), []

        def run(lo, hi, out):
            if out is None:
                seen.append((lo, hi, os.getpid() == parent))
            else:
                pickle.dump((lo, hi, os.getpid() == parent), out)

        items = range(start, start + n)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            _fork.in_slices(items, work, min_work, run,
                            lambda file: seen.append(pickle.load(file)), "testing")
        count = 1 if math.isnan(work) else max(1, int(min(cpus, n, work / min_work)))
        assert len(seen) == count
        assert [here for _, _, here in seen] == [True] + [False] * (count - 1)
        bounds = [lo for lo, _, _ in seen] + [seen[-1][1]]
        assert bounds[0] == items.start and bounds[-1] == items.stop
        assert [hi for _, hi, _ in seen] == bounds[1:]
        sizes = [hi - lo for lo, hi, _ in seen]
        assert max(sizes) - min(sizes) <= 1


class TestMapBatch:
    """map_batch hands each path to a function in the worker that draws it,
    as it draws it; results and warnings come back in path order at any CPU
    count."""

    N_PATHS = 20

    @staticmethod
    def fit(traj):
        """Warns once in the same words for every path and once in its own."""
        warnings.warn("every path", UserWarning)
        warnings.warn(f"path {traj.seed}", UserWarning)
        return traj.seed, traj.events.times.tobytes()

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_results_and_warnings_in_path_order(self, monkeypatch, cpus):
        p = validate_params(0.3, 1.0, 1.0, 2.5)
        forks = TestBatchSlices.count_forks(monkeypatch, cpus)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = map_batch(p, 40.0, 3_000, self.N_PATHS, self.fit)
        assert len(forks) == cpus - 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = [self.fit(t) for t in simulate_batch(p, 40.0, 3_000, self.N_PATHS)]
        assert results == expected
        assert [str(w.message) for w in caught] == [
            text for i in range(self.N_PATHS) for text in ("every path", f"path {3_000 + i}")]
        assert {(w.filename, w.category) for w in caught} == {(__file__, UserWarning)}

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_replay_keeps_the_once_per_location_registry(self, monkeypatch, cpus):
        p = validate_params(0.3, 1.0, 1.0, 2.5)
        TestBatchSlices.count_forks(monkeypatch, cpus)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            map_batch(p, 40.0, 3_000, self.N_PATHS, self.fit)
        assert [str(w.message) for w in caught] == ["every path"] + [
            f"path {3_000 + i}" for i in range(self.N_PATHS)]

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_cap_breach_comes_before_any_warning(self, monkeypatch, cpus):
        # the last path alone passes the cap; at 3 CPUs this process fits its
        # own slice first, but no warning of it is issued
        p = validate_params(0.3, 1.0, 1.0, 2.5)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        sizes = [len(t.events) for t in simulate_batch(p, 40.0, 3_020, self.N_PATHS)]
        cap = max(sizes[:-1])
        assert sizes[-1] > cap
        TestBatchSlices.count_forks(monkeypatch, cpus)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(CapacityExceeded):
                map_batch(p, 40.0, 3_020, self.N_PATHS, self.fit, cap=cap)
        assert caught == []

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("method", ["exact", "cluster"])
    def test_a_worker_holds_one_scalar_path_at_a_time(self, monkeypatch, method, cpus):
        # 20 paths are drawn one at a time by the single-path sampler: each
        # is gone by the time fn gets the next
        held = []

        def fit(traj):
            assert all(ref() is None for ref in held), f"path {traj.seed}"
            held.append(weakref.ref(traj))
            return traj.seed

        p = validate_params(0.3, 1.0, 1.0, 2.5)
        forks = TestBatchSlices.count_forks(monkeypatch, cpus)
        results = map_batch(p, 40.0, 3_000, self.N_PATHS, fit, method=method)
        assert results == list(range(3_000, 3_000 + self.N_PATHS))
        assert len(forks) == cpus - 1

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_sampler_warnings_cross_the_fork_like_fns(self, monkeypatch, cpus):
        cluster = simulate_module.simulate_cluster

        def warning_cluster(params, horizon, seed, **kwargs):
            warnings.warn(f"drawn {seed}", UserWarning)
            return cluster(params, horizon, seed, **kwargs)

        monkeypatch.setattr(simulate_module, "simulate_cluster", warning_cluster)
        p = validate_params(0.3, 1.0, 1.0, 2.5)
        forks = TestBatchSlices.count_forks(monkeypatch, cpus)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            map_batch(p, 40.0, 3_000, self.N_PATHS, self.fit, method="cluster")
        assert len(forks) == cpus - 1
        assert [str(w.message) for w in caught] == [
            text for seed in range(3_000, 3_000 + self.N_PATHS)
            for text in (f"drawn {seed}", "every path", f"path {seed}")]

    @pytest.mark.parametrize("cpus, error", [(1, CapacityExceeded), (2, ZeroDivisionError)])
    def test_error_is_the_first_failure_of_the_lowest_failing_slice(self, monkeypatch, cpus,
                                                                    error):
        # fn fails on path 5 and a path in 300 to 511 passes the cap: one
        # CPU steps paths 0 to 511 as one lockstep group, which fails before
        # fn sees any of them; on two CPUs the first slice, paths 0 to 299,
        # passes no cap, and fn fails on path 5 first
        n_paths, p = 600, validate_params(0.5, 1.0, 2.0, 2.0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        sizes = [len(t.events) for t in simulate_batch(p, 4.0, 11, n_paths)]
        cap = max(sizes[:300])
        assert max(sizes[300:512]) > cap

        def fail_on_path_5(traj):
            warnings.warn(f"path {traj.seed}", UserWarning)
            if traj.seed == 11 + 5:
                raise ZeroDivisionError(f"path {traj.seed}")
            return traj.seed

        forks = TestBatchSlices.count_forks(monkeypatch, cpus)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(error):
                map_batch(p, 4.0, 11, n_paths, fail_on_path_5, cap=cap)
        assert len(forks) == cpus - 1
        assert caught == []

    def test_replay_of_a_file_that_is_no_module(self):
        with pytest.warns(UserWarning, match="^from nowhere$") as caught:
            _fork.replay_warnings([("from nowhere", UserWarning, "/no/such/module.py", 7)])
        assert [(w.filename, w.lineno) for w in caught] == [("/no/such/module.py", 7)]

    def test_child_exception_is_raised_unchanged(self, monkeypatch):
        def fail_late(traj):
            if traj.seed == 3_000 + self.N_PATHS - 1:
                raise ZeroDivisionError(f"path {traj.seed}")
            return traj.seed

        p = validate_params(0.3, 1.0, 1.0, 2.5)
        forks = TestBatchSlices.count_forks(monkeypatch, 2)
        with pytest.raises(ZeroDivisionError, match=f"path {3_000 + self.N_PATHS - 1}"):
            map_batch(p, 40.0, 3_000, self.N_PATHS, fail_late)
        assert len(forks) == 1


class TestPathCount:
    @pytest.mark.parametrize("batch", [
        lambda p, n: simulate_batch(p, 10.0, 1, n),
        lambda p, n: map_batch(p, 10.0, 1, n, len),
    ], ids=["simulate_batch", "map_batch"])
    def test_negative_rejected_before_sampling_and_zero_is_empty(self, monkeypatch, batch):
        def no_fork():
            raise AssertionError("forked")

        p = validate_params(0.2, 1.0, 1.0, 1.0)
        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: pytest.fail("sampling started"))
        with pytest.raises(ValueError, match="n_paths must be >= 0, got -3"):
            batch(p, -3)
        assert batch(p, 0) == []


class TestHorizonCheck:
    SAMPLERS = {
        "exact": lambda p, h: simulate_exact(p, h, 1),
        "cluster": lambda p, h: simulate_cluster(p, h, 1),
        "batch_exact": lambda p, h: simulate_batch(p, h, 1, 3),
        "batch_cluster": lambda p, h: simulate_batch(p, h, 1, 3, method="cluster"),
    }

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name", list(SAMPLERS))
    def test_rejected_before_sampling(self, monkeypatch, name, horizon):
        def no_rng(seed):
            raise AssertionError("sampling started")

        p = validate_params(0.2, 1.0, 1.0, 1.0)
        monkeypatch.setattr(np.random, "default_rng", no_rng)
        with pytest.raises(ValueError, match=f"^horizon must be > 0 and finite, got {horizon}$"):
            self.SAMPLERS[name](p, horizon)


class TestSeedAndCapCheck:
    SAMPLERS = {
        "exact": lambda p, seed, cap: simulate_exact(p, 10.0, seed, cap=cap),
        "cluster": lambda p, seed, cap: simulate_cluster(p, 10.0, seed, cap=cap),
        "batch_exact": lambda p, seed, cap: simulate_batch(p, 10.0, seed, 100, cap=cap),
        "batch_cluster": lambda p, seed, cap: simulate_batch(p, 10.0, seed, 3, cap=cap,
                                                             method="cluster"),
        "map_batch": lambda p, seed, cap: map_batch(p, 10.0, seed, 0, len, cap=cap),
    }

    @pytest.mark.parametrize("seed, cap, message", [
        (-1, 10, "seed must be >= 0, got -1"),
        (1, 0, "cap must be >= 1, got 0"),
        (1, -1, "cap must be >= 1, got -1"),
    ])
    @pytest.mark.parametrize("name", list(SAMPLERS))
    def test_rejected_before_any_draw_or_fork(self, monkeypatch, name, seed, cap, message):
        def no_draw(*args, **kwargs):
            raise AssertionError("drawing started")

        p = validate_params(0.2, 1.0, 1.0, 1.0)
        monkeypatch.setattr(simulate_module, "generators", no_draw)
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        monkeypatch.setattr(os, "fork", no_draw)
        with pytest.raises(ValueError, match=f"^{message}$"):
            self.SAMPLERS[name](p, seed, cap)


class TestGeneratorSeam:
    """Both samplers take their generator from one seam, _seeding.generators."""

    @pytest.mark.parametrize("sampler", [simulate_exact, simulate_cluster])
    def test_a_failing_seam_fails_before_any_draw(self, monkeypatch, sampler):
        class SeamClosed(Exception):
            pass

        def closed(seeds):
            raise SeamClosed(list(seeds))

        monkeypatch.setattr(simulate_module, "generators", closed)
        with pytest.raises(SeamClosed, match=r"^\[7\]$"):
            sampler(validate_params(0.2, 1.0, 1.0, 2.0), 10.0, 7)
