"""Command-line surface: simulate | moments | estimate | validate.

Exit codes: 0 success, 2 event-file parse errors, 3 estimation/convergence
failures, 4 trajectory capacity exceeded, 1 anything else.  Seeds come from
--seed, falling back to the HAWKES_SEED environment variable; stochastic
subcommands refuse to run without one so every run is reproducible.

build_parser is the one configuration: each flag and its default are
declared there once, and main hands the parsed argparse.Namespace to the
cmd_* function of its subcommand, which reads the flags by their dest
names.  simulate and validate return the paths they wrote.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
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
from .simulate import DEFAULT_EVENT_CAP, _check_horizon, map_batch, sampler

__all__ = [
    "EXIT_OK",
    "EXIT_FAILURE",
    "EXIT_PARSE",
    "EXIT_CONVERGENCE",
    "EXIT_CAPACITY",
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


def _params(args: argparse.Namespace) -> HawkesParams:
    """The parameter flags as a HawkesParams; moments has no --lambda0."""
    return validate_params(args.alpha, args.beta, args.lambda_inf,
                           getattr(args, "lambda0", None))


def _require_seed(seed: int | None) -> int:
    """--seed, else $HAWKES_SEED; a stochastic run without either is an error."""
    if seed is not None:
        return seed
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


def _check_windows(delta: float, t0: float | None = None) -> None:
    """Reject a window length, and a start where the command has one, before
    anything is sampled or written: NaN or infinity would reach the window
    count unchecked."""
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"--delta must be positive and finite, got {delta}")
    if t0 is not None and not (math.isfinite(t0) and t0 >= 0.0):
        raise ValueError(f"--t0 must be finite and >= 0, got {t0}")


def _check_cap(cap: int) -> None:
    """Reject a cap below 1 before anything is sampled, not after the first path."""
    if cap < 1:
        raise ValueError(f"--cap must be at least 1, got {cap}")


def cmd_simulate(args: argparse.Namespace) -> list[Path]:
    """Simulate one trajectory; write the events file and an intensity grid."""
    _check_cap(args.cap)
    grid = _step_grid("--grid-step", args.horizon, args.grid_step)
    params = _params(args)
    seed = _require_seed(args.seed)
    traj = sampler(args.method)(params, args.horizon, seed, cap=args.cap, unit=args.unit)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    events_path = write_events(args.out_dir / "events.txt", traj.events)
    values = intensity_on_grid(params, traj.events, grid)
    intensity_path = write_intensity_csv(args.out_dir / "intensity.csv", grid, values)
    print(f"simulated {len(traj.events)} events on [0, {args.horizon}] (seed {seed})")
    print(f"wrote {events_path} and {intensity_path}")
    return [events_path, intensity_path]


def cmd_moments(args: argparse.Namespace) -> dict:
    """Print theoretical stationary window moments and intensity moments."""
    from .moments import limit_intensity_moments, moment_triple

    _check_windows(args.delta)
    params = _params(args)
    # past float64's range numpy's power rows overflow, ** raises and * gives inf
    try:
        with np.errstate(over="raise", invalid="raise"):
            triple = moment_triple(params, args.delta)
            lam1, lam2, lam3 = limit_intensity_moments(params)
    except (OverflowError, FloatingPointError):
        finite = False
    else:
        finite = all(map(math.isfinite, (triple.m1, triple.m2, triple.m3, lam1, lam2, lam3)))
    if not finite:
        raise ValueError("the moments at these parameters are beyond float64's range")
    payload = {
        "params": asdict(params),
        "delta": args.delta,
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


def cmd_estimate(args: argparse.Namespace) -> EstimateReport:
    """Fit (alpha, beta, lambda_inf) to an events file; write a JSON report."""
    _check_windows(args.delta, args.t0)
    _check_start(args.init)
    events = parse_events(args.events_path, unit=args.unit, horizon=args.horizon)
    report = estimate(events, EstimateConfig(delta=args.delta, t0=args.t0, init=args.init))
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = write_report_json(args.out_dir / "estimate.json", report_to_dict(report))
    p = report.params_hat
    print(f"alpha_hat={p.alpha:.6g} beta_hat={p.beta:.6g} lambda_inf_hat={p.lambda_inf:.6g} "
          f"converged={report.converged} residual={report.residual_norm:.3e}")
    print(f"wrote {out}")
    return report


def cmd_validate(args: argparse.Namespace) -> list[Path]:
    """Simulate K trajectories, estimate each, and write the summary table,
    the report and, with --envelope, the envelope; returns the paths written.

    Each worker of the batch (see simulate.map_batch) fits, and with
    --envelope counts on the shared grid, the paths it sampled, so only
    the reports and envelope rows cross the fork, never the paths; the
    fits' warnings are issued here in path order, as in a one-process run.
    Non-converged runs are kept in the table (converged = False) and
    excluded from the mean/sd summary.  With --envelope, per-trajectory
    cumulative counts are written on a shared grid, optionally alongside a
    real events file for data-vs-simulation comparison.
    """
    if args.count < 2:
        raise ValueError(f"validate needs at least 2 trajectories, got {args.count}")
    if args.real_events_path is not None and not args.envelope:
        raise ValueError("--real-events is overlaid on the envelope; it needs --envelope")
    _check_windows(args.delta, args.t0)
    _check_start(args.init)
    _check_cap(args.cap)
    if args.envelope:
        step = args.envelope_step
        if step is None:
            step = max(args.horizon / 600.0, args.delta)
        grid = _step_grid("--envelope-step", args.horizon, step)
    params = _params(args)
    seed = _require_seed(args.seed)
    real = None
    if args.real_events_path is not None:
        # read before sampling, so a bad file costs no paths and writes nothing
        real_events = parse_events(args.real_events_path, unit=args.unit, horizon=args.horizon)
        real = count_at(real_events, grid)
    est_cfg = EstimateConfig(delta=args.delta, t0=args.t0, init=args.init)

    def fit(traj):
        """One path's report, and its envelope row under --envelope."""
        try:
            report = estimate(traj.events, est_cfg)
        except (InsufficientData, NoConvergence) as exc:
            # no fit at all (no usable windows, or no admissible parameters):
            # keep the run in the table as non-converged rather than aborting
            report = EstimateReport(
                params_hat=None, residual_norm=float("inf"), iterations=0,
                init=args.init, converged=False, window_stats=None,
                flags=(f"failed:{type(exc).__name__}",),
            )
        return report, count_at(traj.events, grid) if args.envelope else None

    fitted = map_batch(params, args.horizon, seed, args.count, fit, method=args.method,
                       cap=args.cap, unit=args.unit)
    reports: list[EstimateReport] = [report for report, _ in fitted]

    converged = [r for r in reports if r.converged]
    summary = {}
    for name in ("alpha", "beta", "lambda_inf"):
        vals = np.array([getattr(r.params_hat, name) for r in converged])
        summary[name] = {  # None (JSON null) where too few runs converged
            "mean": float(vals.mean()) if vals.size else None,
            "sd": float(vals.std(ddof=1)) if vals.size > 1 else None,
        }
    summary["converged_runs"] = len(converged)
    summary["total_runs"] = args.count

    args.out_dir.mkdir(parents=True, exist_ok=True)
    nan = float("nan")
    rows = [
        (i, r.params_hat.alpha, r.params_hat.beta, r.params_hat.lambda_inf, r.converged)
        if r.params_hat is not None else (i, nan, nan, nan, r.converged)
        for i, r in enumerate(reports)
    ]
    table_path = write_table_csv(args.out_dir / "table.csv", rows)
    payload = {
        "params": asdict(params),
        "delta": args.delta,
        "t0": args.t0,
        "seed": seed,
        "summary": summary,
        "runs": [report_to_dict(r) for r in reports],
    }
    report_path = write_report_json(args.out_dir / "validate.json", payload)
    written = [table_path, report_path]

    if args.envelope:
        counts = np.vstack([row for _, row in fitted])
        written.append(write_envelope_csv(args.out_dir / "envelope.csv", grid, counts, real))

    for name in ("alpha", "beta", "lambda_inf"):
        mean, sd = ("nan" if v is None else format(v, ".4g")
                    for v in (summary[name]["mean"], summary[name]["sd"]))
        print(f"{name}: mean={mean} sd={sd}")
    print(f"converged {len(converged)}/{args.count}; wrote {', '.join(map(str, written))}")
    return written


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
    try:
        result = _DISPATCH[args.command](args)
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
    if args.command == "estimate" and isinstance(result, EstimateReport) and not result.converged:
        print("error: estimation did not converge (report written for diagnostics)",
              file=sys.stderr)
        return EXIT_CONVERGENCE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
