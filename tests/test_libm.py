"""_libm.elementwise: numpy's reversed-output libm loop, its probe and its
map fallback, bit for bit math.* on every input the package gives it."""

import hashlib
import math
import subprocess
import sys

import numpy as np
import pytest

from hawkesmom import _libm, simulate_batch, validate_params
from hawkesmom import core as core_module
from hawkesmom import generator as generator_module
from hawkesmom import moments as moments_module
from hawkesmom import simulate as simulate_module
from hawkesmom.cli import main
from hawkesmom.core import intensity_on_grid, post_jump_intensities
from hawkesmom.estimate import _SCAN_HI, _SCAN_LO
from hawkesmom.generator import (BivariatePolynomial, apply_generator, integrate_moments,
                                 integrate_polynomial_on_path)
from hawkesmom.moments import _window_shapes
from hawkesmom.simulate import simulate_cluster, simulate_exact

N = 100_000
TINY = 5e-324
BELOW_ONE = 1.0 - 2.0**-53
# exp arguments whose result is subnormal or underflows to 0
UNDERFLOW = [-708.5, -745.1, -745.2, -746.0, -800.0, -1e4, -1e300]


def _libm_bits(fn, x):
    return np.array([fn(v) for v in x.tolist()], dtype=np.float64).view(np.int64)


def _uniforms(rng):
    u = rng.random(N)
    return np.concatenate(([TINY, BELOW_ONE, 2.0**-53, 0.5], u[u > 0.0]))


def _d_positive(rng):
    # the lockstep's d = 1 + beta ln(u1) / excess, where it is positive
    excess = np.exp(rng.uniform(-12.0, 6.0, 4 * N))
    d = 1.0 + 1.133 * np.log(rng.random(4 * N)) / excess
    return np.concatenate(([TINY, BELOW_ONE, 1.0], d[d > 0.0][:N]))


def _minus_beta_s(rng):
    # -beta s for interarrivals s at intensities from 1e-3 to 1e3
    lam = np.exp(rng.uniform(-7.0, 7.0, N))
    s = -np.log(rng.random(N)) / lam
    return np.concatenate(([-0.0, -TINY], UNDERFLOW, s * -1.133))


def _minus_window_x(rng):
    # _window_shapes takes exp(-x) for x >= 1, up to the scan's top and past it
    x = np.exp(rng.uniform(0.0, math.log(1e3), N))
    return np.concatenate(([-1.0, -_SCAN_HI], UNDERFLOW, -x))


def _cluster_expm1(rng):
    # -beta (horizon - T) for parents T on [0, horizon], and a little past it
    return np.concatenate(([0.0, TINY, 1e-15], -rng.uniform(0.0, 50.0, N)))


def _cluster_log1p(rng):
    # -U F with U uniform and F = 1 - e^{-beta (horizon - T)} in (0, 1]
    return np.concatenate(([-0.0, -TINY, -BELOW_ONE], -rng.random(N) * rng.random(N)))


INPUTS = {
    "log-uniforms": (math.log, _uniforms),
    "log-d": (math.log, _d_positive),
    "exp-minus-beta-s": (math.exp, _minus_beta_s),
    "exp-window-shapes": (math.exp, _minus_window_x),
    "expm1-offspring": (math.expm1, _cluster_expm1),
    "log1p-offspring": (math.log1p, _cluster_log1p),
}


class TestBitForBit:
    @pytest.mark.parametrize("name", list(INPUTS))
    def test_equals_libm(self, name):
        fn, draw = INPUTS[name]
        x = draw(np.random.default_rng(24))
        assert x.size > N
        assert np.array_equal(_libm.elementwise(fn, x).view(np.int64), _libm_bits(fn, x))

    def test_underflow_gives_zero(self):
        assert not _libm.elementwise(math.exp, np.array(UNDERFLOW[3:])).any()

    # numpy runs a one-element array as contiguous, on its SIMD loop
    @pytest.mark.parametrize("fn", [math.log, math.exp, math.expm1, math.log1p])
    def test_short_arrays(self, fn):
        rng = np.random.default_rng(7)
        for size in range(10):
            for _ in range(300):
                x = rng.random(size) if fn in (math.log, math.log1p) else rng.normal(0, 20, size)
                assert np.array_equal(_libm.elementwise(fn, x).view(np.int64),
                                      _libm_bits(fn, x)), size

    # numpy flips a backward input with the reversed output, onto its SIMD loop
    def test_backward_and_strided_inputs(self):
        x = np.random.default_rng(8).normal(0.0, 20.0, 2 * N)
        for view in (x[::-1], x[::2], x[::-3]):
            assert np.array_equal(_libm.elementwise(math.exp, view).view(np.int64),
                                  _libm_bits(math.exp, view))


class TestProbe:
    @staticmethod
    def counted(ufunc, flip_every=None):
        """A stand-in for ufunc(x, out=out) that counts its calls and, given
        ``flip_every``, flips the last bit of every such element."""
        calls = []

        def stand_in(x, out):
            calls.append(x.size)
            ufunc(x, out=out)
            if flip_every:
                out.view(np.int64)[::flip_every] ^= 1
            return out

        return stand_in, calls

    def test_rejects_one_flipped_bit_in_500(self, monkeypatch):
        stand_in, calls = self.counted(np.log, flip_every=500)
        monkeypatch.setattr(_libm, "_UFUNCS", {math.log: stand_in})
        monkeypatch.setattr(_libm, "_ROUTE", {})
        x = np.random.default_rng(1).random(1000)
        for _ in range(2):
            assert np.array_equal(_libm.elementwise(math.log, x).view(np.int64),
                                  _libm_bits(math.log, x))
        assert _libm._ROUTE == {math.log: None}
        assert calls == [_libm._PROBE_SIZE]  # the probe, then only the map

    def test_accepts_an_exact_route_and_caches_it(self, monkeypatch):
        def exact_log(x, out):
            out[:] = [math.log(v) for v in x.tolist()]
            return out

        stand_in, calls = self.counted(exact_log)
        monkeypatch.setattr(_libm, "_UFUNCS", {math.log: stand_in})
        monkeypatch.setattr(_libm, "_ROUTE", {})
        x = np.random.default_rng(2).random(1000)
        for _ in range(2):
            assert np.array_equal(_libm.elementwise(math.log, x).view(np.int64),
                                  _libm_bits(math.log, x))
        _libm.elementwise(math.log, x[:1])  # one element takes the map
        assert _libm._ROUTE == {math.log: stand_in}
        assert calls == [_libm._PROBE_SIZE, 1000, 1000]

    def test_not_run_on_import(self):
        code = ("import hawkesmom.cli, hawkesmom._libm as libm; "
                "assert libm._ROUTE == {}, libm._ROUTE")
        subprocess.run([sys.executable, "-c", code], check=True)


def _digest(batch) -> str:
    sha = hashlib.sha256()
    for traj in batch:
        sha.update(traj.events.times.tobytes())
    return sha.hexdigest()


MAP_ONLY = {fn: None for fn in _libm._UFUNCS}


class TestMapFallback:
    """With every function forced onto the map, the outputs are the probed
    route's, byte for byte."""

    @pytest.mark.parametrize("raw, horizon", [((0.3, 1.0, 1.0, 2.5), 40.0),
                                              ((0.3, 1.0, 2.0, 0.1), 10.0)],
                             ids=["excess", "deficit"])
    def test_batch_digest(self, monkeypatch, raw, horizon):
        p = validate_params(*raw)
        n_paths = simulate_module._MIN_LOCKSTEP + 50  # steps in lockstep
        routed = _digest(simulate_batch(p, horizon, 11, n_paths))
        monkeypatch.setattr(_libm, "_ROUTE", dict(MAP_ONLY))
        assert _digest(simulate_batch(p, horizon, 11, n_paths)) == routed

    def test_simulate_files(self, monkeypatch, tmp_path, capsys):
        argv = ["simulate", "--method", "cluster", "--alpha", "0.5", "--beta", "1",
                "--lambda-inf", "1", "--lambda0", "0.2", "--horizon", "200", "--seed", "4"]
        assert main(argv + ["--out-dir", str(tmp_path / "routed")]) == 0
        monkeypatch.setattr(_libm, "_ROUTE", dict(MAP_ONLY))
        assert main(argv + ["--out-dir", str(tmp_path / "mapped")]) == 0
        for name in ("events.txt", "intensity.csv"):
            assert ((tmp_path / "routed" / name).read_bytes()
                    == (tmp_path / "mapped" / name).read_bytes()), name

    def test_generator_moments(self, monkeypatch):
        # the cascade forecast's curve, and criterion 5's pathwise integral
        p = validate_params(0.772, 1.133, 0.243, 0.243)
        times = simulate_exact(p, 600.0, 1).events.times
        image = apply_generator(p, BivariatePolynomial.monomial(2, 2))

        def bits():
            curve = [integrate_moments(p, [(0, 1), (0, 2), (2, 1)], 10.0 * k)
                     for k in range(1, 61)]
            integral = integrate_polynomial_on_path(p, times, image, 600.0)
            return [v.hex() for moments in curve for v in moments.values()] + [integral.hex()]

        routed = bits()
        monkeypatch.setattr(_libm, "_ROUTE", dict(MAP_ONLY))
        assert bits() == routed


class TestDomain:
    """Every caller's inputs have finite results, where math.* returns and
    the route does not warn."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_callers_stay_in_the_domain(self, monkeypatch):
        seen = set()  # (module, fn)

        def checked(module, fn, x):
            seen.add((module, fn))
            with np.errstate(divide="warn", over="warn", invalid="warn"):
                out = _libm.elementwise(fn, x)
            assert np.isfinite(out).all(), fn
            return out

        for module in (simulate_module, core_module, moments_module, generator_module):
            monkeypatch.setattr(module, "elementwise",
                                lambda fn, x, module=module: checked(module, fn, x))
        monkeypatch.setattr(simulate_module, "_MIN_LOCKSTEP", 1)
        for raw, horizon in [((0.3, 1.0, 1.0, 2.5), 40.0), ((0.3, 1.0, 2.0, 0.1), 10.0),
                             ((0.772, 1.133, 0.243, 0.243), 600.0),
                             ((0.0, 1.0, 1.0, 3.0), 20.0), ((1e-6, 1e3, 1e-3, 1e3), 5.0)]:
            p = validate_params(*raw)
            for traj in (simulate_batch(p, horizon, 5, 20) + simulate_batch(p, horizon, 5, 20,
                                                                              method="cluster")
                         + [simulate_exact(p, horizon, 9), simulate_cluster(p, horizon, 9)]):
                post_jump_intensities(p, traj.events)
                intensity_on_grid(p, traj.events, np.linspace(0.0, horizon + 1.0, 4001))
        _window_shapes(np.geomspace(_SCAN_LO, 1e100, 4000))
        assert {fn for _, fn in seen} == set(_libm._UFUNCS)
        # the generator's exp and expm1 are libm's too: the matrix
        # exponential's, and the pathwise integral's expm1
        seen.clear()
        params = [validate_params(*raw) for raw in [(0.772, 1.133, 0.243, 0.243),
                                                    (0.2, 1.0, 1.0, 3.0), (0.999, 1.0, 1.0)]]
        for p in params:
            for t in (0.0, 1e-3, 10.0, 600.0):
                integrate_moments(p, [(0, 2), (3, 1)], t)
            with pytest.raises(ValueError, match="moments overflow"):
                integrate_moments(p, [(0, 2)], 1e300)
        assert seen == {(generator_module, math.exp), (generator_module, math.expm1)}
        seen.clear()
        for p in params:
            integrate_polynomial_on_path(p, simulate_exact(p, 50.0, 3).events, apply_generator(
                p, BivariatePolynomial.monomial(3, 1)), 50.0)
        assert (generator_module, math.expm1) in seen
