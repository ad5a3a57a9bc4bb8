"""Command-line surface: simulate | moments | estimate | validate.

Exit codes: 0 success, 2 event-file parse errors, 3 estimation/convergence
failures, 4 trajectory capacity exceeded, 1 anything else.  Seeds come from
--seed, falling back to the HAWKES_SEED environment variable; stochastic
subcommands refuse to run without one so every run is reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .core import HawkesParams, count_at, intensity_on_grid, validate_params
from .errors import (
    CapacityExceeded,
    HawkesError,
    InsufficientData,
    NoConvergence,
    ParseError,
)
from .estimate import DEFAULT_INIT, EstimateConfig, EstimateReport, _check_start, estimate
from .io import (
    parse_events,
    report_to_dict,
    write_envelope_csv,
    write_events,
    write_intensity_csv,
    write_report_json,
    write_table_csv,
)
from .simulate import DEFAULT_EVENT_CAP, _check_horizon, sampler, simulate_batch

__all__ = [
    "EXIT_OK",
    "EXIT_FAILURE",
    "EXIT_PARSE",
    "EXIT_CONVERGENCE",
    "EXIT_CAPACITY",
    "RunConfig",
    "HarnessReport",
    "cmd_simulate",
    "cmd_moments",
    "cmd_estimate",
    "cmd_validate",
    "main",
]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARSE = 2
EXIT_CONVERGENCE = 3
EXIT_CAPACITY = 4

SEED_ENV_VAR = "HAWKES_SEED"


@dataclass
class RunConfig:
    """Resolved parameters of one CLI invocation; the field names are the
    parser's dest names, so main builds it as RunConfig(**vars(args))."""

    command: str
    alpha: float | None = None
    beta: float | None = None
    lambda_inf: float | None = None
    lambda0: float | None = None
    horizon: float | None = None
    seed: int | None = None
    count: int = 20
    delta: float | None = None
    t0: float = 0.0
    init: tuple[float, float, float] = DEFAULT_INIT
    unit: str = "minutes"
    method: str = "exact"
    grid_step: float = 0.01
    cap: int = DEFAULT_EVENT_CAP
    events_path: Path | None = None
    real_events_path: Path | None = None
    out_dir: Path = field(default_factory=lambda: Path("."))
    envelope: bool = False
    envelope_step: float | None = None

    def params(self) -> HawkesParams:
        return validate_params(self.alpha, self.beta, self.lambda_inf, self.lambda0)

    def require_seed(self) -> int:
        if self.seed is not None:
            return self.seed
        env = os.environ.get(SEED_ENV_VAR)
        if env is not None:
            return int(env)
        raise ValueError(
            f"a seed is required for stochastic runs: pass --seed or set {SEED_ENV_VAR}"
        )


def _step_grid(flag: str, horizon: float, step: float) -> np.ndarray:
    """The grid 0, step, 2 step, ... up to horizon, built before anything is
    sampled or written, so a bad step or horizon, or a grid too large to
    allocate, is an error with no output."""
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"{flag} must be positive and finite, got {step}")
    _check_horizon(horizon)
    n_pts = int(round(horizon / step)) + 1
    try:
        grid = np.arange(n_pts, dtype=np.float64)
    except (MemoryError, ValueError):  # numpy's ValueError: "Maximum allowed size exceeded"
        raise ValueError(f"{flag} {step} asks for {n_pts} grid points, "
                         f"more than can be allocated") from None
    grid *= step  # in place: no second grid-sized array
    return grid


def _check_windows(delta: float, t0: float) -> None:
    """Reject a window length or start before anything is sampled or
    written: NaN or infinity would reach the window count unchecked."""
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"--delta must be positive and finite, got {delta}")
    if not (math.isfinite(t0) and t0 >= 0.0):
        raise ValueError(f"--t0 must be finite and >= 0, got {t0}")


def _check_cap(cap: int) -> None:
    """Reject a cap below 1 before anything is sampled, not after the first path."""
    if cap < 1:
        raise ValueError(f"--cap must be at least 1, got {cap}")


@dataclass
class HarnessReport:
    """Per-trajectory estimates with summary statistics and envelope data."""

    reports: list[EstimateReport]
    summary: dict
    non_converged: list[int]
    envelope_grid: np.ndarray | None = None
    envelope_counts: np.ndarray | None = None
    real_counts: np.ndarray | None = None


def cmd_simulate(cfg: RunConfig) -> list[Path]:
    """Simulate one trajectory; write the events file and an intensity grid."""
    _check_cap(cfg.cap)
    grid = _step_grid("--grid-step", cfg.horizon, cfg.grid_step)
    params = cfg.params()
    seed = cfg.require_seed()
    traj = sampler(cfg.method)(params, cfg.horizon, seed, cap=cfg.cap, unit=cfg.unit)

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    events_path = write_events(cfg.out_dir / "events.txt", traj.events)
    values = intensity_on_grid(params, traj.events, grid)
    intensity_path = write_intensity_csv(cfg.out_dir / "intensity.csv", grid, values)
    print(f"simulated {len(traj.events)} events on [0, {cfg.horizon}] (seed {seed})")
    print(f"wrote {events_path} and {intensity_path}")
    return [events_path, intensity_path]


def cmd_moments(cfg: RunConfig) -> dict:
    """Print theoretical stationary window moments and intensity moments."""
    from .moments import limit_intensity_moments, moment_triple

    _check_windows(cfg.delta, cfg.t0)
    params = cfg.params()
    triple = moment_triple(params, cfg.delta)
    lam1, lam2, lam3 = limit_intensity_moments(params)
    payload = {
        "params": asdict(params),
        "delta": cfg.delta,
        "m1": triple.m1,
        "m2": triple.m2,
        "m3": triple.m3,
        "Lambda1": lam1,
        "Lambda2": lam2,
        "Lambda3": lam3,
        "lambda_star": params.lambda_star,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return payload


def cmd_estimate(cfg: RunConfig) -> EstimateReport:
    """Fit (alpha, beta, lambda_inf) to an events file; write a JSON report."""
    _check_windows(cfg.delta, cfg.t0)
    _check_start(cfg.init)
    events = parse_events(cfg.events_path, unit=cfg.unit, horizon=cfg.horizon)
    report = estimate(events, EstimateConfig(delta=cfg.delta, t0=cfg.t0, init=cfg.init))
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    out = write_report_json(cfg.out_dir / "estimate.json", report_to_dict(report))
    p = report.params_hat
    print(f"alpha_hat={p.alpha:.6g} beta_hat={p.beta:.6g} lambda_inf_hat={p.lambda_inf:.6g} "
          f"converged={report.converged} residual={report.residual_norm:.3e}")
    print(f"wrote {out}")
    return report


def cmd_validate(cfg: RunConfig) -> HarnessReport:
    """Simulate K trajectories, estimate each, and emit the summary table.

    Non-converged runs are kept in the table (converged = False) and
    excluded from the mean/sd summary.  With --envelope, per-trajectory
    cumulative counts are written on a shared grid, optionally alongside a
    real events file for data-vs-simulation comparison.
    """
    if cfg.count < 2:
        raise ValueError(f"validate needs at least 2 trajectories, got {cfg.count}")
    if cfg.real_events_path is not None and not cfg.envelope:
        raise ValueError("--real-events is overlaid on the envelope; it needs --envelope")
    _check_windows(cfg.delta, cfg.t0)
    _check_start(cfg.init)
    _check_cap(cfg.cap)
    if cfg.envelope:
        step = cfg.envelope_step if cfg.envelope_step is not None else max(cfg.horizon / 600.0, cfg.delta)
        grid = _step_grid("--envelope-step", cfg.horizon, step)
    params = cfg.params()
    seed = cfg.require_seed()
    real = None
    if cfg.real_events_path is not None:
        # read before sampling, so a bad file costs no paths and writes nothing
        real_events = parse_events(cfg.real_events_path, unit=cfg.unit, horizon=cfg.horizon)
        real = count_at(real_events, grid)
    trajectories = simulate_batch(params, cfg.horizon, seed, cfg.count, method=cfg.method,
                                  cap=cfg.cap, unit=cfg.unit)

    reports: list[EstimateReport] = []
    est_cfg = EstimateConfig(delta=cfg.delta, t0=cfg.t0, init=cfg.init)
    for traj in trajectories:
        try:
            reports.append(estimate(traj.events, est_cfg))
        except (InsufficientData, NoConvergence) as exc:
            # no fit at all (no usable windows, or no admissible parameters):
            # keep the run in the table as non-converged rather than aborting
            reports.append(EstimateReport(
                params_hat=None, residual_norm=float("inf"), iterations=0,
                init=cfg.init, converged=False, window_stats=None,
                flags=(f"failed:{type(exc).__name__}",),
            ))

    converged = [r for r in reports if r.converged]
    non_converged = [i for i, r in enumerate(reports) if not r.converged]
    summary = {}
    for name in ("alpha", "beta", "lambda_inf"):
        vals = np.array([getattr(r.params_hat, name) for r in converged])
        summary[name] = {
            "mean": float(vals.mean()) if vals.size else float("nan"),
            "sd": float(vals.std(ddof=1)) if vals.size > 1 else float("nan"),
        }
    summary["converged_runs"] = len(converged)
    summary["total_runs"] = cfg.count

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    nan = float("nan")
    rows = [
        (i, r.params_hat.alpha, r.params_hat.beta, r.params_hat.lambda_inf, r.converged)
        if r.params_hat is not None else (i, nan, nan, nan, r.converged)
        for i, r in enumerate(reports)
    ]
    table_path = write_table_csv(cfg.out_dir / "table.csv", rows)
    payload = {
        "params": asdict(params),
        "delta": cfg.delta,
        "t0": cfg.t0,
        "seed": seed,
        "summary": summary,
        "runs": [report_to_dict(r) for r in reports],
    }
    report_path = write_report_json(cfg.out_dir / "validate.json", payload)
    written = [table_path, report_path]

    harness = HarnessReport(reports=reports, summary=summary, non_converged=non_converged)
    if cfg.envelope:
        counts = np.vstack([count_at(t.events, grid) for t in trajectories])
        harness.envelope_grid = grid
        harness.envelope_counts = counts
        harness.real_counts = real
        written.append(write_envelope_csv(cfg.out_dir / "envelope.csv", grid, counts, real))

    for name in ("alpha", "beta", "lambda_inf"):
        s = summary[name]
        print(f"{name}: mean={s['mean']:.4g} sd={s['sd']:.4g}")
    print(f"converged {len(converged)}/{cfg.count}; wrote {', '.join(map(str, written))}")
    return harness


def build_parser() -> argparse.ArgumentParser:
    init_help = ("solver start, finite, with BETA > ALPHA > 0 and LAMBDA_INF > 0 "
                 "(default %(default)s): the fit is the exact root nearest it in "
                 "(ln alpha, ln(beta - alpha)), or, with none, the least-squares point "
                 "within half an e-fold of (BETA - ALPHA) * delta, flagged m3_best_fit")
    parser = argparse.ArgumentParser(
        prog="hawkesmom",
        description="Simulate, analyze and calibrate the exponentially decaying "
                    "self-exciting (Hawkes) process.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p, with_lambda0=True):
        p.add_argument("--alpha", type=float, required=True, help="intensity jump per event")
        p.add_argument("--beta", type=float, required=True, help="intensity decay rate")
        p.add_argument("--lambda-inf", type=float, required=True, help="base intensity")
        if with_lambda0:
            p.add_argument("--lambda0", type=float, default=None,
                           help="initial intensity (default: lambda-inf)")

    def add_common(p):
        p.add_argument("--seed", type=int, default=None,
                       help=f"RNG seed (fallback: ${SEED_ENV_VAR})")
        p.add_argument("--unit", default="minutes", help="time unit label (default minutes)")
        p.add_argument("--out-dir", type=Path, default=Path("."), help="output directory")
        p.add_argument("--cap", type=int, default=DEFAULT_EVENT_CAP,
                       help="per-trajectory event cap")

    p_sim = sub.add_parser("simulate", help="simulate one trajectory and write plot-ready files")
    add_params(p_sim)
    add_common(p_sim)
    p_sim.add_argument("--horizon", type=float, required=True)
    p_sim.add_argument("--method", choices=("exact", "cluster"), default="exact")
    p_sim.add_argument("--grid-step", type=float, default=0.01,
                       help="intensity output grid resolution")

    p_mom = sub.add_parser("moments", help="print theoretical window and intensity moments")
    add_params(p_mom, with_lambda0=False)
    p_mom.add_argument("--delta", type=float, required=True, help="window length")

    p_est = sub.add_parser("estimate", help="fit parameters to an events file")
    p_est.add_argument("--events", dest="events_path", metavar="EVENTS", type=Path,
                       required=True, help="events file (one timestamp per line)")
    p_est.add_argument("--delta", type=float, required=True, help="window length")
    p_est.add_argument("--t0", type=float, default=0.0, help="burn-in start of the window grid")
    p_est.add_argument("--init", type=float, nargs=3, default=DEFAULT_INIT,
                       metavar=("ALPHA", "BETA", "LAMBDA_INF"), help=init_help)
    p_est.add_argument("--horizon", type=float, default=None,
                       help="truncate events beyond this time (default: last event)")
    p_est.add_argument("--unit", default="minutes")
    p_est.add_argument("--out-dir", type=Path, default=Path("."))

    p_val = sub.add_parser("validate", help="simulate K trajectories, estimate each, summarize")
    add_params(p_val)
    add_common(p_val)
    p_val.add_argument("--horizon", type=float, required=True)
    p_val.add_argument("--count", "-k", type=int, default=20, help="number of trajectories")
    p_val.add_argument("--delta", type=float, required=True)
    p_val.add_argument("--t0", type=float, default=3000.0,
                       help="burn-in before the window grid (default 3000)")
    p_val.add_argument("--init", type=float, nargs=3, default=DEFAULT_INIT,
                       metavar=("ALPHA", "BETA", "LAMBDA_INF"), help=init_help)
    p_val.add_argument("--method", choices=("exact", "cluster"), default="exact")
    p_val.add_argument("--envelope", action="store_true",
                       help="also write per-trajectory cumulative counts on a shared grid")
    p_val.add_argument("--envelope-step", type=float, default=None)
    p_val.add_argument("--real-events", dest="real_events_path", metavar="REAL_EVENTS",
                       type=Path, default=None,
                       help="overlay this events file on the envelope grid")
    return parser


_DISPATCH = {
    "simulate": cmd_simulate,
    "moments": cmd_moments,
    "estimate": cmd_estimate,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig(**vars(args))
    try:
        result = _DISPATCH[cfg.command](cfg)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NoConvergence, InsufficientData) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except CapacityExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (HawkesError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    if cfg.command == "estimate" and isinstance(result, EstimateReport) and not result.converged:
        print("error: estimation did not converge (report written for diagnostics)",
              file=sys.stderr)
        return EXIT_CONVERGENCE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
