"""Distributional checks for both samplers and the window extraction."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from hawkesmom import (
    CapacityExceeded,
    EventSequence,
    count_at,
    WindowOutOfRange,
    intensity_at,
    mean_count,
    simulate_batch,
    simulate_cluster,
    simulate_exact,
    stationary_m1,
    validate_params,
    windowed_counts,
)
from hawkesmom import simulate as simulate_module
from hawkesmom.simulate import _run_exact, _spawn_offspring, sampler


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
        assert np.array_equal(a.intensity_at_events, b.intensity_at_events)
        c = simulate_exact(p, 500.0, 8)
        assert not np.array_equal(a.events.times, c.events.times)

    def test_interarrivals_exponential_when_poisson(self):
        p = validate_params(0.0, 1.0, 1.0, 1.0)
        traj = simulate_exact(p, 2_500.0, 303)
        gaps = np.diff(np.concatenate([[0.0], traj.events.times]))
        res = stats.kstest(gaps, "expon", args=(0.0, 1.0))
        assert res.pvalue >= 0.01

    def test_post_jump_intensity_invariant(self):
        p = validate_params(0.3, 1.2, 0.8, 1.5)
        traj = simulate_exact(p, 50.0, 11)
        times = traj.events.times
        for k in np.linspace(0, len(times) - 1, 12).astype(int):
            expected = intensity_at(p, times, float(times[k])) + p.alpha
            assert traj.intensity_at_events[k] == pytest.approx(expected, rel=1e-9)

    def test_capacity_guard(self):
        p = validate_params(0.95, 1.0, 5.0, 5.0)  # near-critical, lambda* = 100
        with pytest.raises(CapacityExceeded):
            simulate_exact(p, 10_000.0, 5, cap=1000)

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
    def test_zero_uniform_draw_is_redrawn(self, monkeypatch, lambda0, script):
        class ScriptedRng:
            def __init__(self, draws, seed):
                self.draws = list(draws)
                self.rng = np.random.Generator(np.random.PCG64(seed))

            def random(self):
                return self.draws.pop(0) if self.draws else self.rng.random()

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
            counts = windowed_counts(traj.events, t0, delta,
                                     int((horizon - t0) / delta)).counts
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
        assert list(out.counts) == [1, 2]

    def test_empty_events(self):
        out = windowed_counts([], 0.0, 1.0, 5)
        assert list(out.counts) == [0, 0, 0, 0, 0]

    def test_half_open_windows(self):
        # event exactly at a window edge belongs to the right window
        out = windowed_counts([0.5], 0.0, 0.5, 2)
        assert list(out.counts) == [0, 1]

    def test_out_of_range(self):
        p = validate_params(0.2, 1.0, 1.0, 1.0)
        traj = simulate_exact(p, 10.0, 3)
        with pytest.raises(WindowOutOfRange):
            windowed_counts(traj.events, 5.0, 1.0, 6)
        with pytest.raises(WindowOutOfRange):
            windowed_counts(traj.events, -1.0, 1.0, 2)
        with pytest.raises(WindowOutOfRange):
            windowed_counts(traj.events, 0.0, 0.0, 2)

    def test_partition_invariance(self):
        rng = np.random.default_rng(77)
        events = np.sort(rng.uniform(0, 30, size=200))
        whole = windowed_counts(events, 2.0, 0.7, 20).counts
        first = windowed_counts(events, 2.0, 0.7, 8).counts
        second = windowed_counts(events, 2.0 + 8 * 0.7, 0.7, 12).counts
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
        fine = windowed_counts(events, t0, delta, 2 * pairs).counts
        coarse = windowed_counts(events, t0, 2.0 * delta, pairs).counts
        assert np.array_equal(fine[0::2] + fine[1::2], coarse)
        # windows are [t0, end), count_at is right-continuous
        total = (count_at(events, end) - count_at(events, t0)
                 - np.count_nonzero(times == end) + np.count_nonzero(times == t0))
        assert fine.sum() == total

    def test_stationary_window_mean(self):
        p = validate_params(0.2, 1.0, 1.0, 1.0)
        traj = simulate_exact(p, 10_000.0, 404)
        counts = windowed_counts(traj.events, 3_000.0, 0.5, 14_000).counts
        # correlation-adjusted SE of the window mean is ~ 0.0084
        assert abs(counts.mean() - stationary_m1(p, 0.5)) <= 0.03


class TestBatch:
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
        "many_blocks": (0.2, 1.0, 1.0, 1.0, 500.0, 13),
        "group_and_remainder": (0.2, 1.0, 1.0, 1.0, 4.0, simulate_module._GROUP + 13),
    }

    @staticmethod
    def _assert_bitwise_exact(batch, params, horizon, seed, n_paths):
        assert [t.seed for t in batch] == [seed + i for i in range(n_paths)]
        for i, traj in enumerate(batch):
            ref = simulate_exact(params, horizon, seed + i)
            assert traj.events.times.tobytes() == ref.events.times.tobytes(), i
            assert traj.intensity_at_events.tobytes() == ref.intensity_at_events.tobytes(), i
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
            # more loop iterations than the first four blocks hold
            assert min(sizes) > 15 * simulate_module._FIRST_BLOCK

    def test_deficit_regime_rejects_proposals(self):
        # the deficit case above must exercise thinning rejections: every
        # loop iteration draws two uniforms, so more draws than two per
        # event (plus the final one or two) means some proposal was rejected
        class CountingRng:
            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)
                self.draws = 0

            def random(self):
                self.draws += 1
                return self.rng.random()

        *raw, horizon, n_paths = self.REGIMES["deficit"]
        p = validate_params(*raw)
        rejected = 0
        for i in range(n_paths):
            rng = CountingRng(3_000 + i)
            events, _ = _run_exact(rng, p, horizon, 10**6, 0.0, p.lambda0)
            rejected += rng.draws > 2 * len(events) + 2
        assert rejected >= n_paths // 2

    @pytest.mark.parametrize("position", [3, 301], ids=["first_block", "later_block"])
    def test_zero_draw_path_matches_simulate_exact(self, monkeypatch, position):
        """A scripted stream puts an exact 0 at one draw of one path: that
        path leaves the lockstep and still equals simulate_exact."""
        target = 3_005

        class ScriptedRng:
            def __init__(self, seed):
                self.rng = np.random.Generator(np.random.PCG64(seed))
                self.pos = 0
                self.zero_at = position if seed == target else -1

            def random(self, out=None):
                if out is not None:
                    out[:] = [self.random() for _ in range(out.size)]
                    return out
                self.pos += 1
                return 0.0 if self.pos - 1 == self.zero_at else self.rng.random()

        p = validate_params(0.2, 1.0, 1.0, 1.0)
        horizon, n_paths = 400.0, 16
        plain = simulate_exact(p, horizon, target)
        monkeypatch.setattr(np.random, "default_rng", ScriptedRng)
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


class TestBatchSlices:
    """simulate_batch spreads its groups over one forked child per CPU."""

    N_PATHS = 2 * simulate_module._GROUP + 7  # three groups

    @staticmethod
    def count_forks(monkeypatch, cpus):
        forks = []
        real_fork = os.fork

        def counting_fork():
            forks.append(os.getpid())
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
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
            assert traj.intensity_at_events.tobytes() == ref.intensity_at_events.tobytes(), i

    def test_one_group_never_forks(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        p = validate_params(0.2, 1.0, 1.0, 1.0)
        assert len(simulate_batch(p, 4.0, 1, simulate_module._GROUP)) == simulate_module._GROUP

    @staticmethod
    def _error(p, cap, **kwargs):
        with pytest.raises(CapacityExceeded) as info:
            simulate_batch(p, 4.0, 11, TestBatchSlices.N_PATHS, cap=cap, **kwargs)
        return type(info.value), str(info.value)

    @pytest.mark.parametrize("method", ["exact", "cluster"])
    def test_child_error_is_raised_as_in_one_process(self, monkeypatch, method):
        # with two CPUs this process samples group 0 and the child groups 1 and 2
        p = validate_params(0.5, 1.0, 2.0, 2.0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        sizes = [len(t.events) for t in simulate_batch(p, 4.0, 11, self.N_PATHS, method=method)]
        cap = max(sizes[:simulate_module._GROUP])
        assert max(sizes[simulate_module._GROUP:]) > cap
        serial = self._error(p, cap, method=method)
        forks = self.count_forks(monkeypatch, 2)
        assert self._error(p, cap, method=method) == serial
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
        p = validate_params(0.2, 1.0, 1.0, 1.0)
        with pytest.raises(OSError, match="seeds 251 to 507 exited with status 3"):
            simulate_batch(p, 4.0, 1, self.N_PATHS)


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
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            self.SAMPLERS[name](p, horizon)
