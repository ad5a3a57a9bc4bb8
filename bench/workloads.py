"""The four user workloads of the benchmark.

Each workload builds its inputs from the benchmark seed, runs one pass of its
user task per call to ``run_pass`` (timed operation by operation), and checks
the outputs of a pass outside the timed region.  The program is reached only
through its public entry points: ``hawkesmom.cli.main`` in-process and, for the
cascade forecast, the library functions.  Module attributes are looked up at
call time so that the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import re
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# import_module, because the package re-exports the function ``estimate``
# under the name of its module
hm_cli = importlib.import_module("hawkesmom.cli")
hm_core = importlib.import_module("hawkesmom.core")
hm_estimate = importlib.import_module("hawkesmom.estimate")
hm_generator = importlib.import_module("hawkesmom.generator")
hm_io = importlib.import_module("hawkesmom.io")
hm_moments = importlib.import_module("hawkesmom.moments")
hm_simulate = importlib.import_module("hawkesmom.simulate")

# Statistical checks allow this many standard errors, so that a correct change
# that re-rolls the random streams almost never fails them.
CHECK_SE = 4.0


@dataclass
class Pass:
    """One timed pass of a workload and what its checks found."""

    wall_s: float
    op_s: list[float]
    items: int
    failed_ops: int = 0
    declined_ops: int = 0  # failed operations that the program reported as failed
    messages: list[str] = field(default_factory=list)
    bytes_written: int = 0
    outputs: object = None
    layer: dict | None = None  # per-layer metrics of a traced pass
    ref_s: float = 0.0  # reference computation timed next to the pass


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``hawkesmom.cli.main`` in-process with its output sent to a sink."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = hm_cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 1
    return code, sink.getvalue()


def program_seed(seed: int, workload: str) -> int:
    """A 32-bit seed for the program, derived from the benchmark seed."""
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Workload:
    """One user task: ``prepare`` builds inputs, ``run_pass`` is timed, ``check``
    is not.  ``run_pass(clock)`` times with ``clock``, which stands still while
    the benchmark's reference runs."""

    name = ""
    item = ""
    system_size = 0  # length of the generator's moment closure, where used

    def prepare(self) -> None:
        pass


def _failure(p: Pass, message: str) -> None:
    """A failed operation whose output is wrong or missing."""
    p.failed_ops += 1
    p.messages.append(message)


def _declined(p: Pass, message: str) -> None:
    """A failed operation that the program reported as such: ``estimate`` exited
    with its no-convergence code and a report that says so.  It counts in
    ``failed`` but is not a wrong output."""
    _failure(p, message)
    p.declined_ops += 1


# --------------------------------------------------------------------------
# estimate_corpus


def sample_post(rng: np.random.Generator, alpha: float, beta: float, lam_inf: float,
                n_events: int) -> np.ndarray:
    """First ``n_events`` event times of a path started at lambda0 = lambda_inf.

    The benchmark's own branching sampler: immigrants at rate lambda_inf, each
    event spawning Poisson(alpha/beta) children at Exponential(beta) delays.
    It shares no code with ``hawkesmom.simulate``, so a sampler change in the
    program leaves the corpus the estimator is timed on unchanged.
    """
    eta = alpha / beta
    horizon = 1.5 * n_events * (1.0 - eta) / lam_inf
    while True:
        generation = np.sort(rng.uniform(0.0, horizon, rng.poisson(lam_inf * horizon)))
        events = [generation]
        while generation.size:
            kids = rng.poisson(eta, generation.size)
            generation = np.repeat(generation, kids) + rng.exponential(1.0 / beta, int(kids.sum()))
            generation = generation[generation < horizon]
            events.append(generation)
        times = np.sort(np.concatenate(events))
        if times.size >= n_events:
            return times[:n_events]
        horizon *= 1.5


def window_moments(times: np.ndarray, t0: float, delta: float) -> tuple[float, float, int]:
    """M1, M2 and the window count over whole windows of [t0, last event]."""
    n_windows = int((float(times[-1]) - t0) / delta + 1e-12)
    edges = t0 + delta * np.arange(n_windows + 1)
    counts = np.diff(np.searchsorted(times, edges, side="left")).astype(float)
    return float(counts.mean()), float((counts**2).mean()), n_windows


@dataclass(frozen=True)
class Post:
    path: Path
    events: int
    delta: float
    t0: float
    m1: float
    m2: float
    windows: int


class EstimateCorpus(Workload):
    """``hawkesmom estimate`` on each post of a corpus of event files."""

    name = "estimate_corpus"
    item = "posts"
    # post sizes are quantiles of a Pareto law with this tail index, truncated
    # to [min_events, max_events]: most posts are small, a few are large
    TAIL_INDEX = 0.6

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.n_posts, self.min_events, self.max_events = (
            (6, 300, 1_000) if tiny else (120, 300, 30_000))
        self.posts: list[Post] = []

    def prepare(self) -> None:
        rng = np.random.Generator(np.random.PCG64(self.seed))
        # stratified quantiles keep the corpus's total work the same for every
        # seed; the seed sets their order, the parameters and the event times
        u = (np.arange(self.n_posts) + 0.5) / self.n_posts
        lo, hi, a = self.min_events, self.max_events, self.TAIL_INDEX
        sizes = np.round(lo / (1.0 - u * (1.0 - (lo / hi) ** a)) ** (1.0 / a)).astype(int)
        data = self.workdir / "posts"
        data.mkdir()
        for i, size in enumerate(rng.permutation(sizes)):
            # branching ratio, base rate and x = kappa * delta (the window length
            # in relaxation times); beta follows from x.  At x < 1 small posts
            # can show less variance than Poisson, which no parameters fit.
            eta = rng.uniform(0.3, 0.9)
            lam_inf = math.exp(rng.uniform(math.log(0.2), math.log(2.0)))
            x = math.exp(rng.uniform(0.0, math.log(3.0)))
            beta = x * lam_inf / (2.0 * (1.0 - eta) ** 2)
            times = sample_post(rng, eta * beta, beta, lam_inf, int(size))
            delta = 2.0 * (1.0 - eta) / lam_inf  # 2 / lambda*
            t0 = 0.05 * float(times[-1])
            path = data / f"post{i:03d}.txt"
            path.write_text("t\n" + "\n".join(map(repr, times.tolist())) + "\n", encoding="utf-8")
            m1, m2, windows = window_moments(times, t0, delta)
            self.posts.append(Post(path, int(size), delta, t0, m1, m2, windows))

    def _argv(self, post: Post, out: Path) -> list[str]:
        return ["estimate", "--events", str(post.path), "--delta", repr(post.delta),
                "--t0", repr(post.t0), "--out-dir", str(out)]

    def warm_up(self) -> None:
        call_cli(self._argv(self.posts[0], self.workdir / "warm"))

    def run_pass(self, clock) -> Pass:
        out = self.workdir / "out"
        codes, op_s = [], []
        for i, post in enumerate(self.posts):
            t = clock()
            try:
                code, _ = call_cli(self._argv(post, out / f"post{i:03d}"))
            except Exception:
                code = traceback.format_exc()
            op_s.append(clock() - t)
            codes.append(code)
        # the pass is its operations, not the loop around them
        return Pass(wall_s=sum(op_s), op_s=op_s, items=len(self.posts), outputs=codes)

    def check(self, p: Pass) -> None:
        out = self.workdir / "out"
        p.bytes_written = dir_bytes(out)
        for i, (post, code) in enumerate(zip(self.posts, p.outputs)):
            if code not in (0, hm_cli.EXIT_CONVERGENCE):
                _failure(p, f"post {i}: exit code {code}")
                continue
            try:
                report = json.loads((out / f"post{i:03d}" / "estimate.json").read_text())
                fit = report["params_hat"]
                params = hm_core.validate_params(fit["alpha"], fit["beta"], fit["lambda_inf"])
                windows = report["window_stats"]["count"]
                converged = report["converged"]
            except (OSError, ValueError, KeyError, TypeError) as exc:
                _failure(p, f"post {i}: unreadable report: {exc!r}")
                continue
            if code != 0:
                if converged is False:
                    _declined(p, f"post {i} ({post.events} events): no fit, exit code {code}, "
                                 f"residual {report.get('residual_norm')}")
                else:
                    _failure(p, f"post {i}: exit code {code} with a converged report")
                continue
            tol = hm_estimate.EstimateConfig(delta=post.delta).tol
            r1 = hm_moments.stationary_m1(params, post.delta) - post.m1
            r2 = hm_moments.stationary_m2(params, post.delta) - post.m2
            # the solver's tolerance, plus rounding of sums over the windows
            if (abs(r1) > tol + 1e-12 * post.m1 or abs(r2) > tol + 1e-12 * post.m2
                    or windows != post.windows):
                _failure(p, f"post {i}: fit misses M1/M2 (residuals {r1:.3e}, {r2:.3e}) "
                            f"or window count {windows} != {post.windows}")

    def sizes(self) -> dict:
        events = [p.events for p in self.posts]
        return {"posts": len(self.posts), "events": int(sum(events)),
                "events_min": min(events), "events_median": int(np.median(events)),
                "events_max": max(events), "windows": sum(p.windows for p in self.posts)}


# --------------------------------------------------------------------------
# validate_k20

# criterion-4 parameters and the box their means must fall in; where the box
# is narrower than CHECK_SE standard errors around the truth, it is widened
CRITERION4 = {"alpha": (0.2, 0.15, 0.25), "beta": (1.0, 0.80, 2.00),
              "lambda_inf": (1.0, 0.90, 1.20)}


class ValidateK20(Workload):
    """``hawkesmom validate`` with K = 20 at the criterion-4 parameters."""

    name = "validate_k20"
    item = "paths"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.workdir = workdir
        self.cli_seed = program_seed(seed, self.name)
        self.count = 20
        self.horizon, self.t0 = (4_000.0, 1_000.0) if tiny else (10_000.0, 3_000.0)

    def _argv(self, count: int, out: Path) -> list[str]:
        return ["validate", "--alpha", "0.2", "--beta", "1", "--lambda-inf", "1",
                "--lambda0", "1", "--horizon", repr(self.horizon), "--count", str(count),
                "--delta", "0.5", "--t0", repr(self.t0), "--envelope",
                "--seed", str(self.cli_seed), "--out-dir", str(out)]

    def warm_up(self) -> None:
        call_cli(self._argv(2, self.workdir / "warm"))

    def run_pass(self, clock) -> Pass:
        start = clock()
        try:
            code, _ = call_cli(self._argv(self.count, self.workdir / "out"))
        except Exception:
            code = traceback.format_exc()
        wall = clock() - start
        return Pass(wall_s=wall, op_s=[wall], items=self.count, outputs=code)

    def check(self, p: Pass) -> None:
        out = self.workdir / "out"
        p.bytes_written = dir_bytes(out)
        if p.outputs != 0:
            return _failure(p, f"exit code {p.outputs}")
        try:
            report = json.loads((out / "validate.json").read_text())
            table_rows = len((out / "table.csv").read_text().splitlines()) - 1
            converged = report["summary"]["converged_runs"]
            fits = {k: [r["params_hat"][k] for r in report["runs"] if r["converged"]]
                    for k in CRITERION4}
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return _failure(p, f"unreadable report: {exc!r}")
        if converged < 15 or table_rows != self.count:
            return _failure(p, f"{converged}/{self.count} fits converged, {table_rows} table rows")
        outside = {}
        for k, (truth, lo, hi) in CRITERION4.items():
            mean = float(np.mean(fits[k]))
            se = float(np.std(fits[k], ddof=1)) / math.sqrt(len(fits[k]))
            if not min(lo, truth - CHECK_SE * se) <= mean <= max(hi, truth + CHECK_SE * se):
                outside[k] = mean
        if outside:
            _failure(p, f"means outside the criterion-4 box: {outside}")

    def sizes(self) -> dict:
        return {"paths": self.count, "horizon": self.horizon, "t0": self.t0,
                "windows": self.count * int((self.horizon - self.t0) / 0.5),
                "cli_seed": self.cli_seed}


# --------------------------------------------------------------------------
# cascade_forecast

CRITERION8 = (0.772, 1.133, 0.243, 0.243)


class CascadeForecast(Workload):
    """1000 exact cascade paths plus the generator-ODE forecast curve."""

    name = "cascade_forecast"
    item = "paths"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.base_seed = program_seed(seed, self.name)
        self.horizon = 600.0
        self.n_paths, n_times = (100, 5) if tiny else (1_000, 60)
        self.times = self.horizon * np.arange(1, n_times + 1) / n_times
        self.params = hm_core.validate_params(*CRITERION8)
        closure = getattr(hm_generator, "moment_closure", None)  # absent: reported as 0
        if closure is not None:
            self.system_size = len(closure(self.params, [(0, 1), (0, 2)]))

    def warm_up(self) -> None:
        hm_simulate.simulate_batch(self.params, self.horizon, self.base_seed, 2, method="exact")
        hm_generator.integrate_moments(self.params, [(0, 1), (0, 2)], self.horizon)

    def run_pass(self, clock) -> Pass:
        start = clock()
        try:
            paths = hm_simulate.simulate_batch(self.params, self.horizon, self.base_seed,
                                               self.n_paths, method="exact")
            curve = [hm_generator.integrate_moments(self.params, [(0, 1), (0, 2)], float(t))
                     for t in self.times]
            closed = [hm_moments.mean_count(self.params, float(t)) for t in self.times]
            outputs = (np.array([len(p.events) for p in paths], dtype=float), curve, closed)
        except Exception:
            outputs = traceback.format_exc()
        wall = clock() - start
        return Pass(wall_s=wall, op_s=[wall], items=self.n_paths, outputs=outputs)

    def check(self, p: Pass) -> None:
        if isinstance(p.outputs, str):
            return _failure(p, p.outputs)
        counts, curve, closed = p.outputs
        n = counts.size
        ode_mean = np.array([c[(0, 1)] for c in curve])
        ode_var = curve[-1][(0, 2)] - ode_mean[-1] ** 2
        mc_mean, mc_var = counts.mean(), counts.var(ddof=1)
        m4 = np.mean((counts - mc_mean) ** 4)
        z_mean = (mc_mean - closed[-1]) / math.sqrt(mc_var / n)
        z_var = (mc_var - ode_var) / math.sqrt(max(m4 - mc_var**2, 0.0) / n)
        rel = np.max(np.abs(ode_mean - closed) / np.abs(closed))
        if not (abs(z_mean) <= CHECK_SE and abs(z_var) <= CHECK_SE and rel <= 1e-6):
            _failure(p, f"forecast check: mean z={z_mean:+.2f}, variance z={z_var:+.2f}, "
                        f"ODE vs mean_count relative difference {rel:.2e}")

    def sizes(self) -> dict:
        return {"paths": self.n_paths, "horizon": self.horizon,
                "forecast_times": int(self.times.size), "base_seed": self.base_seed}


# --------------------------------------------------------------------------
# simulate_plot


class SimulatePlot(Workload):
    """``hawkesmom simulate --method cluster`` with a 0.01-step intensity grid."""

    name = "simulate_plot"
    item = "grid points"
    PARAMS = (0.2, 1.0, 1.0, 1.0)
    STEP = 0.01
    CHECKED_POINTS = 1_000

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.workdir = workdir
        self.cli_seed = program_seed(seed, self.name)
        self.horizon = 100.0 if tiny else 10_000.0
        self.points = int(round(self.horizon / self.STEP)) + 1
        self.params = hm_core.validate_params(*self.PARAMS)
        self.events = 0

    def _argv(self, horizon: float, out: Path) -> list[str]:
        a, b, li, l0 = self.PARAMS
        return ["simulate", "--method", "cluster", "--alpha", repr(a), "--beta", repr(b),
                "--lambda-inf", repr(li), "--lambda0", repr(l0), "--horizon", repr(horizon),
                "--grid-step", repr(self.STEP), "--seed", str(self.cli_seed),
                "--out-dir", str(out)]

    def warm_up(self) -> None:
        call_cli(self._argv(10.0, self.workdir / "warm"))

    def run_pass(self, clock) -> Pass:
        start = clock()
        try:
            code, text = call_cli(self._argv(self.horizon, self.workdir / "out"))
        except Exception:
            code, text = traceback.format_exc(), ""
        wall = clock() - start
        return Pass(wall_s=wall, op_s=[wall], items=self.points, outputs=(code, text))

    def check(self, p: Pass) -> None:
        """Streams the intensity CSV, so the check adds little to peak_rss_mb."""
        out = self.workdir / "out"
        code, text = p.outputs
        if code != 0:
            return _failure(p, f"exit code {code}")
        p.bytes_written = dir_bytes(out)
        reported = re.search(r"simulated (\d+) events", text)
        events = hm_io.parse_events(out / "events.txt")
        rng = np.random.default_rng(self.cli_seed)
        sample = {0, self.points - 1}
        sample.update(rng.choice(self.points, self.CHECKED_POINTS, replace=False).tolist())
        rows, worst = 0, 0.0
        with (out / "intensity.csv").open(encoding="utf-8") as fh:
            next(fh, None)  # header
            for i, line in enumerate(fh):
                rows = i + 1
                if i in sample:
                    t, value = map(float, line.split(","))
                    oracle = hm_core.intensity_at(self.params, events, t)
                    worst = max(worst, abs(value - oracle) / abs(oracle))
        if reported is None or int(reported.group(1)) != len(events) or rows != self.points:
            return _failure(p, f"{len(events)} events read back (reported: "
                               f"{reported and reported.group(1)}), {rows} grid rows "
                               f"for {self.points} points")
        if worst > 1e-9:
            return _failure(p, f"intensity grid differs from the direct sum by {worst:.2e}")
        self.events = len(events)

    def sizes(self) -> dict:
        return {"grid_points": self.points, "horizon": self.horizon, "events": self.events,
                "cli_seed": self.cli_seed}


WORKLOADS = {w.name: w for w in (EstimateCorpus, ValidateK20, CascadeForecast, SimulatePlot)}
