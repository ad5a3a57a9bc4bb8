"""Command-line surface: simulate | moments | estimate | validate.

Exit codes: 0 success, 2 event-file parse errors, 3 estimation/convergence
failures, 4 trajectory capacity exceeded, 1 anything else: main prints a
failure as one "error:" line and takes its code from one table, _EXIT_CODES.
Seeds come from --seed, falling back to the HAWKES_SEED environment variable;
stochastic subcommands refuse to run without one so every run is reproducible.

build_parser is the one configuration: each flag and its default are
declared there once, and each subcommand's parser sets its cmd_* function
as the namespace's func, to which main hands the parsed argparse.Namespace;
the function reads the flags by their dest names.  simulate and validate
return the paths they wrote, estimate its report, or NoConvergence once it
has written one that did not converge.  The library checks its own
settings: estimate and validate make their EstimateConfig, which checks
--delta, --t0 and --init, and validate counts its windows, before anything
is read or sampled; moments leaves --delta to moment_triple.
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

from .core import HawkesParams, _intensity_on_blocks, count_at, validate_params
from .errors import (
    CapacityExceeded,
    HawkesError,
    InsufficientData,
    NoConvergence,
    ParseError,
)
from .estimate import DEFAULT_INIT, EstimateConfig, EstimateReport, _window_count, estimate
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
    """--seed, else $HAWKES_SEED; a stochastic run without either, or with a
    seed that is not a non-negative integer, is an error."""
    if seed is not None:
        if seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {seed}")
        return seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        if not env.strip().isdecimal():
            raise ValueError(f"{SEED_ENV_VAR} must be a non-negative integer, got {env!r}")
        return int(env)
    raise ValueError(
        f"a seed is required for stochastic runs: pass --seed or set {SEED_ENV_VAR}"
    )


def _step_grid(flag: str, horizon: float, step: float) -> int:
    """The number of points of the grid 0, step, 2 step, ... up to horizon,
    checked before anything is sampled or written, so a bad step or horizon,
    or a grid too large to allocate, is an error with no output.  The check
    asks numpy for the whole grid, uninitialised, and releases it untouched:
    a block that large is mapped, never written, so it costs no resident
    memory."""
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"{flag} must be positive and finite, got {step}")
    _check_horizon(horizon)
    n_pts = horizon / step  # inf for a step as small as a subnormal
    try:
        n_pts = int(round(n_pts)) + 1  # OverflowError at inf
        np.empty(n_pts)  # numpy's ValueError: "Maximum allowed dimension exceeded"
    except (OverflowError, MemoryError, ValueError):
        raise ValueError(f"{flag} {step} asks for {n_pts:.3g} grid points, "
                         f"more than can be allocated") from None
    return n_pts


def _check_cap(cap: int) -> None:
    """Reject a cap below 1 before anything is sampled, not after the first path."""
    if cap < 1:
        raise ValueError(f"--cap must be at least 1, got {cap}")


def cmd_simulate(args: argparse.Namespace) -> list[Path]:
    """Simulate one trajectory; write the events file and its intensity on
    the grid.

    No grid-sized array is held: the grid's points and the intensity there
    are made chunk by chunk by the process that formats those rows (see
    io.write_intensity_csv).
    """
    _check_cap(args.cap)
    n_pts = _step_grid("--grid-step", args.horizon, args.grid_step)
    params = _params(args)
    seed = _require_seed(args.seed)
    traj = sampler(args.method)(params, args.horizon, seed, cap=args.cap)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    events_path = write_events(args.out_dir / "events.txt", traj.events)
    intensity_path = write_intensity_csv(args.out_dir / "intensity.csv", args.grid_step, n_pts,
                                         _intensity_on_blocks(params, traj.events))
    print(f"simulated {len(traj.events)} events on [0, {args.horizon}] (seed {seed})")
    print(f"wrote {events_path} and {intensity_path}")
    return [events_path, intensity_path]


def cmd_moments(args: argparse.Namespace) -> dict:
    """Print theoretical stationary window moments and intensity moments."""
    from .moments import limit_intensity_moments, moment_triple

    params = _params(args)
    # past float64's range numpy's products overflow, ** raises and * gives inf
    try:
        with np.errstate(over="raise", invalid="raise"):
            triple = moment_triple(params, args.delta)
            lam1, lam2, lam3 = limit_intensity_moments(params)
        if not all(map(math.isfinite, (triple.m1, triple.m2, triple.m3, lam1, lam2, lam3))):
            raise OverflowError
    except (OverflowError, FloatingPointError):
        raise ValueError("the moments at these parameters are beyond float64's range") from None
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
    """Fit (alpha, beta, lambda_inf) to an events file and write a JSON
    report; a report that did not converge is written, then NoConvergence."""
    config = EstimateConfig(delta=args.delta, t0=args.t0, init=args.init)
    events = parse_events(args.events_path, horizon=args.horizon)
    report = estimate(events, config)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = write_report_json(args.out_dir / "estimate.json", report_to_dict(report))
    p = report.params_hat
    print(f"alpha_hat={p.alpha:.6g} beta_hat={p.beta:.6g} lambda_inf_hat={p.lambda_inf:.6g} "
          f"converged={report.converged} residual={report.residual_norm:.3e}")
    print(f"wrote {out}")
    if not report.converged:
        raise NoConvergence("estimation did not converge (report written for diagnostics)")
    return report


def cmd_validate(args: argparse.Namespace) -> list[Path]:
    """Simulate K trajectories, estimate each, and write the summary table,
    the report and, with --envelope, the envelope; returns the paths written.

    Each worker of the batch (see simulate.map_batch) fits, and with
    --envelope counts on the shared grid, each path as it draws it, so only
    the reports and envelope rows cross the fork, never the paths; the
    sampler's and the fits' warnings are issued here in path order, as in
    a one-process run, and a failed batch issues none.
    Non-converged runs are kept in the table (converged = False) and
    excluded from the mean/sd summary.  With --envelope, per-trajectory
    cumulative counts are written on a shared grid, optionally alongside a
    real events file for data-vs-simulation comparison.
    """
    if args.count < 2:
        raise ValueError(f"validate needs at least 2 trajectories, got {args.count}")
    if args.real_events_path is not None and not args.envelope:
        raise ValueError("--real-events is overlaid on the envelope; it needs --envelope")
    if args.envelope_step is not None and not args.envelope:
        raise ValueError("--envelope-step spaces the envelope's grid; it needs --envelope")
    est_cfg = EstimateConfig(delta=args.delta, t0=args.t0, init=args.init)
    _check_cap(args.cap)
    if args.envelope:
        step = args.envelope_step
        if step is None:
            step = max(args.horizon / 600.0, args.delta)
        grid = np.arange(_step_grid("--envelope-step", args.horizon, step),
                         dtype=np.float64) * step
    params = _params(args)
    seed = _require_seed(args.seed)
    real = None
    if args.real_events_path is not None:
        # read before sampling, so a bad file costs no paths and writes nothing
        real_events = parse_events(args.real_events_path, horizon=args.horizon)
        real = count_at(real_events, grid)
    # no whole window, or more than 2^53 of them, fails before sampling
    _check_horizon(args.horizon)
    _window_count(args.horizon, args.t0, args.delta)

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
                       cap=args.cap)
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

    def add_common(p, sampled=True):  # sampling needs --horizon, --seed, --cap, --method
        p.add_argument("--out-dir", type=Path, default=Path("."), help="output directory")
        p.add_argument("--horizon", type=float, required=sampled, default=None,
                       help="time span to simulate" if sampled else
                       "truncate events beyond this time (default: last event)")
        if sampled:
            p.add_argument("--seed", type=int, default=None,
                           help=f"RNG seed (fallback: ${SEED_ENV_VAR})")
            p.add_argument("--cap", type=int, default=DEFAULT_EVENT_CAP,
                           help="per-trajectory event cap")
            p.add_argument("--method", choices=("exact", "cluster"), default="exact")

    def add_windows(p, t0=None):
        p.add_argument("--delta", type=float, required=True, help="window length")
        if t0 is not None:
            p.add_argument("--t0", type=float, default=t0,
                           help="burn-in start of the window grid (default %(default)s)")
            p.add_argument("--init", type=float, nargs=3, default=DEFAULT_INIT,
                           metavar=("ALPHA", "BETA", "LAMBDA_INF"),
                           help="solver start, finite, with BETA > ALPHA > 0 and "
                                "LAMBDA_INF > 0 (default %(default)s): the fit is the exact "
                                "root nearest it in (ln alpha, ln(beta - alpha)), or, with "
                                "none, the least-squares point within half an e-fold of "
                                "(BETA - ALPHA) * delta, flagged m3_best_fit")

    p_sim = sub.add_parser("simulate", help="simulate one trajectory and write plot-ready files")
    p_sim.set_defaults(func=cmd_simulate)
    add_params(p_sim)
    add_common(p_sim)
    p_sim.add_argument("--grid-step", type=float, default=0.01,
                       help="intensity output grid resolution")

    p_mom = sub.add_parser("moments", help="print theoretical window and intensity moments")
    p_mom.set_defaults(func=cmd_moments)
    add_params(p_mom, with_lambda0=False)
    add_windows(p_mom)

    p_est = sub.add_parser("estimate", help="fit parameters to an events file")
    p_est.set_defaults(func=cmd_estimate)
    p_est.add_argument("--events", dest="events_path", metavar="EVENTS", type=Path,
                       required=True, help="events file (one timestamp per line)")
    add_windows(p_est, t0=0.0)
    add_common(p_est, sampled=False)

    p_val = sub.add_parser("validate", help="simulate K trajectories, estimate each, summarize")
    p_val.set_defaults(func=cmd_validate)
    add_params(p_val)
    add_common(p_val)
    p_val.add_argument("--count", "-k", type=int, default=20, help="number of trajectories")
    add_windows(p_val, t0=3000.0)
    p_val.add_argument("--envelope", action="store_true",
                       help="also write per-trajectory cumulative counts on a shared grid")
    p_val.add_argument("--envelope-step", type=float, default=None)
    p_val.add_argument("--real-events", dest="real_events_path", metavar="REAL_EVENTS",
                       type=Path, default=None,
                       help="overlay this events file on the envelope grid")
    return parser


# The exit code of a failure is that of its first matching entry: a
# ParseError is a HawkesError, so it comes before the catch-all.
_EXIT_CODES = (
    (ParseError, EXIT_PARSE),
    ((NoConvergence, InsufficientData), EXIT_CONVERGENCE),
    (CapacityExceeded, EXIT_CAPACITY),
    (Exception, EXIT_FAILURE),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (HawkesError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
