"""The estimator study: what the fit recovers on simulated paths, as one JSON.

It runs acceptance criterion 4's procedure at (alpha, beta, lambda_inf) =
(0.2, 1, 1) and (0.8, 1, 1): simulate_exact seeds 30000 to 30039 at horizon
10^4, each path fitted by estimate() with delta 0.5, t0 3000 and the start
(0.5, 1.5, 2).  For each configuration it writes, per parameter, the mean,
bias, RMSE, median and interquartile range of the fitted values against the
truth, and, per flag, the share of runs that carry it, with the share of
runs that converged.  A fit that raises InsufficientData or NoConvergence
is a run with the flag "failed:<error>", and enters no parameter statistic.

Not collected by pytest.  It is deterministic for fixed seeds, so a change
to the estimator checks in its output from the parent and from the change.
Run it as

    python tests/studies.py OUT.json

It imports hawkesmom from PYTHONPATH or an installed copy where there is
one (PYTHONPATH=other/src runs another checkout's estimator), else from
this repository's src/.
"""

from __future__ import annotations

import json
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from hawkesmom import EstimateConfig, estimate, simulate_exact, validate_params  # noqa: E402
from hawkesmom.errors import InsufficientData, NoConvergence  # noqa: E402

SEEDS = range(30_000, 30_040)
HORIZON = 1e4
CONFIG = EstimateConfig(delta=0.5, t0=3000.0, init=(0.5, 1.5, 2.0))
TRUTHS = {"alpha_0.2": (0.2, 1.0, 1.0), "alpha_0.8": (0.8, 1.0, 1.0)}
NAMES = ("alpha", "beta", "lambda_inf")


def _fit(params, seed: int):
    """The flags and, where the fit ran, the fitted (alpha, beta, lambda_inf)."""
    events = simulate_exact(params, HORIZON, seed).events
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # few windows, missed tolerance
            report = estimate(events, CONFIG)
    except (InsufficientData, NoConvergence) as exc:
        return (f"failed:{type(exc).__name__}",), None, False
    p = report.params_hat
    return report.flags, (p.alpha, p.beta, p.lambda_inf), report.converged


def _summary(values: np.ndarray, truth: float) -> dict:
    q25, median, q75 = np.percentile(values, [25, 50, 75]).tolist()
    error = values - truth
    return {
        "mean": float(values.mean()),
        "bias": float(error.mean()),
        "rmse": float(np.sqrt(np.mean(error * error))),
        "median": median,
        "iqr": q75 - q25,
    }


def criterion_4(truth: tuple[float, float, float]) -> dict:
    """The study of one configuration, over every seed of SEEDS."""
    params = validate_params(*truth)
    runs = [_fit(params, seed) for seed in SEEDS]
    fitted = np.array([hat for _, hat, _ in runs if hat is not None]).reshape(-1, 3)
    flags = Counter(flag for run_flags, _, _ in runs for flag in run_flags)
    return {
        "truth": dict(zip(NAMES, truth)),
        "runs": len(runs),
        "fitted_runs": len(fitted),
        "converged_share": sum(converged for _, _, converged in runs) / len(runs),
        "flag_share": {flag: n / len(runs) for flag, n in sorted(flags.items())},
        "params": {name: _summary(fitted[:, i], truth[i]) for i, name in enumerate(NAMES)},
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        raise SystemExit("usage: python tests/studies.py OUT.json")
    study = {
        "procedure": {
            "sampler": "simulate_exact",
            "seeds": [SEEDS.start, SEEDS.stop - 1],
            "horizon": HORIZON,
            "delta": CONFIG.delta,
            "t0": CONFIG.t0,
            "init": list(CONFIG.init),
        },
        "criterion_4": {name: criterion_4(truth) for name, truth in TRUTHS.items()},
    }
    Path(argv[0]).write_text(json.dumps(study, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
