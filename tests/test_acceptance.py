"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py -v` to see them).

Monte Carlo criteria are seeded and compare against 3-standard-error bands;
analytic criteria pin exact tolerances.
"""

import math
import time

import numpy as np
from oracles import dense_counts, integrate_polynomial_on_path
from scipy import stats

from hawkesmom import (
    BivariatePolynomial,
    EstimateConfig,
    apply_generator,
    estimate,
    integrate_moments,
    intensity_at,
    limit_intensity_moments,
    mean_count,
    moment_triple,
    simulate_cluster,
    simulate_exact,
    solve_moment_system,
    stationary_m1,
    stationary_m2,
    stationary_m3,
    validate_params,
    windowed_counts,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


class TestCriterion1PoissonReduction:
    def test_poisson_reduction_identities(self):
        t0 = time.time()
        worst = 0.0
        for lam_inf in (0.5, 1.0, 2.0):
            for delta in (0.1, 0.5, 1.0):
                p = validate_params(0.0, 1.0, lam_inf)
                mu = lam_inf * delta
                targets = (mu, mu + mu**2, mu + 3 * mu**2 + mu**3)
                got = (stationary_m1(p, delta), stationary_m2(p, delta),
                       stationary_m3(p, delta))
                worst = max(worst, *(abs(g - t) / t for g, t in zip(got, targets)))
        elapsed = time.time() - t0
        ok = worst <= 1e-9 and elapsed < 1.0
        report("criterion 1 (Poisson reduction)",
               ok, f"worst relative error {worst:.2e}, {elapsed:.2f}s")
        assert worst <= 1e-9
        assert elapsed < 1.0


class TestCriterion2MonteCarloVsClosedForm:
    def test_window_moments_within_three_se(self):
        params = validate_params(0.2, 1.0, 1.0, 1.0)
        delta, horizon, burn_in, n_traj = 0.5, 2000.0, 500.0, 200
        n_windows = int((horizon - burn_in) / delta)
        per_traj = np.empty((n_traj, 3))
        for i in range(n_traj):
            traj = simulate_exact(params, horizon, 20_000 + i)
            pairs = windowed_counts(traj.events, burn_in, delta, n_windows)
            counts = dense_counts(pairs, n_windows).astype(float)
            per_traj[i] = [counts.mean(), (counts**2).mean(), (counts**3).mean()]
        means = per_traj.mean(axis=0)
        ses = per_traj.std(axis=0, ddof=1) / math.sqrt(n_traj)
        targets = np.array([stationary_m1(params, delta),
                            stationary_m2(params, delta),
                            stationary_m3(params, delta)])
        z = (means - targets) / ses
        ok = bool(np.all(np.abs(z) <= 3.0))
        report("criterion 2 (MC vs closed-form moments)",
               ok, f"z-scores {np.round(z, 2).tolist()} over {n_traj} trajectories")
        assert ok, f"empirical moments {means} vs {targets} (z={z})"


class TestCriterion3RoundTrip:
    def test_grid_recovery(self):
        t0 = time.time()
        worst = 0.0
        for alpha in (0.1, 0.2, 0.4):
            for beta in (1.0, 2.0):
                for lam_inf in (0.5, 1.0):
                    for delta in (0.25, 0.5):
                        p = validate_params(alpha, beta, lam_inf)
                        rep = solve_moment_system(
                            moment_triple(p, delta),
                            init=(1.5 * alpha, 1.5 * beta, 1.5 * lam_inf))
                        assert rep.converged and rep.residual_norm <= 1e-9
                        worst = max(worst,
                                    abs(rep.params_hat.alpha - alpha),
                                    abs(rep.params_hat.beta - beta),
                                    abs(rep.params_hat.lambda_inf - lam_inf))
        elapsed = time.time() - t0
        ok = worst <= 1e-6 and elapsed < 10.0
        report("criterion 3 (round-trip estimation, 24-point grid)",
               ok, f"worst parameter error {worst:.2e}, {elapsed:.2f}s")
        assert worst <= 1e-6
        assert elapsed < 10.0


class TestCriterion4TableReproduction:
    def test_twenty_trajectory_means(self):
        t0 = time.time()
        params = validate_params(0.2, 1.0, 1.0, 1.0)
        cfg = EstimateConfig(delta=0.5, t0=3000.0, init=(0.5, 1.5, 2.0))
        fitted = []
        for i in range(20):
            traj = simulate_exact(params, 10_000.0, 30_000 + i)
            rep = estimate(traj.events, cfg)
            if rep.converged:
                fitted.append([rep.params_hat.alpha, rep.params_hat.beta,
                               rep.params_hat.lambda_inf])
        fitted = np.array(fitted)
        means = fitted.mean(axis=0)
        elapsed = time.time() - t0
        ok = (0.15 <= means[0] <= 0.25 and 0.80 <= means[1] <= 2.00
              and 0.90 <= means[2] <= 1.20 and elapsed < 900.0)
        report("criterion 4 (twenty-trajectory calibration study)",
               ok, f"means alpha={means[0]:.3f} beta={means[1]:.3f} "
                   f"lambda_inf={means[2]:.3f} over {len(fitted)}/20 fits, {elapsed:.1f}s")
        assert len(fitted) >= 15
        assert 0.15 <= means[0] <= 0.25
        assert 0.80 <= means[1] <= 2.00
        assert 0.90 <= means[2] <= 1.20
        assert elapsed < 900.0


class TestCriterion5DynkinIdentity:
    def test_martingale_defect_within_three_se(self):
        params = validate_params(0.2, 1.0, 1.0, 1.0)
        t_end, n_paths = 1.0, 10_000
        kfuncs = {
            "n": BivariatePolynomial.monomial(0, 1),
            "n^2": BivariatePolynomial.monomial(0, 2),
            "lam": BivariatePolynomial.monomial(1, 0),
            "lam*n": BivariatePolynomial.monomial(1, 1),
        }
        images = {name: apply_generator(params, k) for name, k in kfuncs.items()}
        defects = {name: np.empty(n_paths) for name in kfuncs}
        t0 = time.time()
        for i in range(n_paths):
            traj = simulate_exact(params, t_end, 40_000 + i)
            times = traj.events.times
            n_t = len(times)
            lam_t = intensity_at(params, times, t_end)
            for name, k in kfuncs.items():
                integral = integrate_polynomial_on_path(params, times, images[name], t_end)
                defects[name][i] = (k.evaluate(lam_t, n_t)
                                    - k.evaluate(params.lambda0, 0.0) - integral)
        elapsed = time.time() - t0
        all_ok = True
        details = []
        for name, d in defects.items():
            mean = d.mean()
            se = d.std(ddof=1) / math.sqrt(n_paths)
            z = mean / se
            details.append(f"{name}: z={z:+.2f}")
            all_ok &= abs(mean) <= 3.0 * se
        report("criterion 5 (martingale identity, 4 test functions)",
               all_ok and elapsed < 120.0, f"{'; '.join(details)}; {elapsed:.1f}s")
        assert all_ok, details
        assert elapsed < 120.0


class TestCriterion6SimulatorCrossValidation:
    def test_two_samplers_agree_and_poisson_interarrivals(self):
        params = validate_params(0.2, 1.0, 1.0, 1.0)
        n_paths, t_end = 10_000, 10.0
        t0 = time.time()
        n_exact = np.array([len(simulate_exact(params, t_end, 50_000 + i).events)
                            for i in range(n_paths)], dtype=float)
        n_clust = np.array([len(simulate_cluster(params, t_end, 60_000 + i).events)
                            for i in range(n_paths)], dtype=float)
        # mean comparison
        se_mean = math.sqrt(n_exact.var(ddof=1) / n_paths + n_clust.var(ddof=1) / n_paths)
        z_mean = (n_exact.mean() - n_clust.mean()) / se_mean
        # variance comparison via the delta method: Var(s^2) ~ (m4 - s^4)/n
        def var_se(x):
            s2 = x.var(ddof=1)
            m4 = np.mean((x - x.mean()) ** 4)
            return s2, math.sqrt(max(m4 - s2 * s2, 0.0) / len(x))
        v1, se1 = var_se(n_exact)
        v2, se2 = var_se(n_clust)
        z_var = (v1 - v2) / math.hypot(se1, se2)
        # exactness at alpha = 0: KS of interarrivals against Exponential(1)
        poisson = validate_params(0.0, 1.0, 1.0, 1.0)
        traj = simulate_exact(poisson, 10_500.0, 70_000)
        gaps = np.diff(np.concatenate([[0.0], traj.events.times]))[:10_000]
        ks = stats.kstest(gaps, "expon", args=(0.0, 1.0))
        elapsed = time.time() - t0
        ok = abs(z_mean) <= 3.0 and abs(z_var) <= 3.0 and ks.pvalue >= 0.01 and elapsed < 120.0
        report("criterion 6 (sampler cross-validation)",
               ok, f"mean z={z_mean:+.2f}, var z={z_var:+.2f}, "
                   f"KS p={ks.pvalue:.3f} on {len(gaps)} gaps; {elapsed:.1f}s")
        assert abs(z_mean) <= 3.0
        assert abs(z_var) <= 3.0
        assert ks.pvalue >= 0.01
        assert elapsed < 120.0


class TestCriterion7GeneratorOdeConsistency:
    def test_long_run_intensity_moments(self):
        t0 = time.time()
        params = validate_params(0.2, 1.0, 1.0, 1.0)
        t_end = 50.0 / params.kappa
        out = integrate_moments(params, [(1, 0), (2, 0), (3, 0)], t_end)
        lams = limit_intensity_moments(params)
        rel = [abs(out[(m, 0)] - lam) / lam for m, lam in zip((1, 2, 3), lams)]
        elapsed = time.time() - t0
        ok = max(rel) <= 1e-6 and elapsed < 1.0
        report("criterion 7 (generator ODE reproduces intensity-moment limits)",
               ok, f"relative errors {[f'{r:.1e}' for r in rel]}, {elapsed:.2f}s")
        assert max(rel) <= 1e-6
        assert elapsed < 1.0


class TestCriterion8CascadeForecastConsistency:
    def test_closed_form_against_monte_carlo(self):
        params = validate_params(0.772, 1.133, 0.243, 0.243)
        t_end, n_paths = 600.0, 1000
        t0 = time.time()
        counts = np.array([len(simulate_exact(params, t_end, 80_000 + i).events)
                           for i in range(n_paths)], dtype=float)
        se = counts.std(ddof=1) / math.sqrt(n_paths)
        expected = mean_count(params, t_end)
        z = (counts.mean() - expected) / se
        elapsed = time.time() - t0
        # the closed form itself is pinned against the quadrature oracle value
        ok = abs(z) <= 3.0 and abs(expected - 456.154) <= 5e-3 and elapsed < 300.0
        report("criterion 8 (cascade-fit forecast: closed form vs MC)",
               ok, f"closed form {expected:.3f}, MC {counts.mean():.2f} "
                   f"(z={z:+.2f}); {elapsed:.1f}s")
        assert abs(expected - 456.154) <= 5e-3
        assert abs(z) <= 3.0
        assert elapsed < 300.0
