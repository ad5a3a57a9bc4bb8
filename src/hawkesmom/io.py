"""Event-file ingestion, unit conversion and plot-ready file writers.

Events file: UTF-8 text, one nonnegative decimal timestamp per line, with an
optional single header line "t".  Grids and tables are written as CSV,
reports as JSON; floats are serialized with repr so identical inputs give
byte-identical files.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from .core import EventSequence
from .errors import EmptyFile, NegativeTimestamp, ParseError
from .estimate import EstimateReport

__all__ = [
    "UNIT_IN_MINUTES",
    "parse_events",
    "convert_unit",
    "write_events",
    "write_intensity_csv",
    "write_table_csv",
    "write_envelope_csv",
    "report_to_dict",
    "write_report_json",
]

UNIT_IN_MINUTES = {
    "seconds": 1.0 / 60.0,
    "minutes": 1.0,
    "hours": 60.0,
    "days": 1440.0,
}


def parse_events(path, unit: str = "minutes", horizon: float | None = None) -> EventSequence:
    """Read an events file into a sorted EventSequence.

    The horizon defaults to the largest timestamp; passing ``horizon``
    overrides it and drops events beyond it (explicit truncation).  Unsorted
    input is sorted with a warning; ties are preserved.
    """
    path = Path(path)
    values: list[float] = []
    with path.open("r", encoding="utf-8") as fh:
        for line_number, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            if line_number == 1 and text.lower() == "t":
                continue
            try:
                v = float(text)
            except ValueError:
                raise ParseError(
                    f"{path}:{line_number}: cannot parse timestamp {text!r}",
                    line_number=line_number,
                ) from None
            if not np.isfinite(v):
                raise ParseError(
                    f"{path}:{line_number}: timestamp must be finite, got {text!r}",
                    line_number=line_number,
                )
            if v < 0.0:
                raise NegativeTimestamp(
                    f"{path}:{line_number}: negative timestamp {v}",
                    line_number=line_number,
                )
            values.append(v)
    if not values:
        raise EmptyFile(f"{path}: no timestamps found")

    times = np.asarray(values)
    if np.any(np.diff(times) < 0.0):
        warnings.warn(f"{path}: timestamps were not sorted; sorting", UserWarning, stacklevel=2)
        times = np.sort(times)
    if horizon is None:
        horizon = float(times[-1])
    else:
        dropped = int(np.sum(times > horizon))
        if dropped:
            warnings.warn(
                f"{path}: dropping {dropped} events beyond horizon {horizon}",
                UserWarning,
                stacklevel=2,
            )
            times = times[times <= horizon]
        if times.size == 0:
            raise EmptyFile(f"{path}: no timestamps at or before horizon {horizon}")
    return EventSequence(times=times, horizon=horizon, unit=unit)


def convert_unit(events: EventSequence, to_unit: str) -> EventSequence:
    """Rescale timestamps and horizon to another known time unit."""
    for u in (events.unit, to_unit):
        if u not in UNIT_IN_MINUTES:
            raise ValueError(f"unknown time unit {u!r}; known: {sorted(UNIT_IN_MINUTES)}")
    factor = UNIT_IN_MINUTES[events.unit] / UNIT_IN_MINUTES[to_unit]
    return EventSequence(times=events.times * factor, horizon=events.horizon * factor,
                         unit=to_unit)


def write_events(path, events: EventSequence) -> Path:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write("t\n")
        for t in events.times:
            fh.write(f"{float(t)!r}\n")
    return path


_CSV_CHUNK_ROWS = 4096


def write_intensity_csv(path, grid, values) -> Path:
    """Header ``t,intensity`` and one ``repr(t),repr(value)`` row per grid point.

    Rows are formatted from Python floats a chunk at a time, which keeps
    memory flat for any grid length.
    """
    path = Path(path)
    grid = np.asarray(grid, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    with path.open("w", encoding="utf-8") as fh:
        fh.write("t,intensity\n")
        for lo in range(0, min(grid.size, values.size), _CSV_CHUNK_ROWS):
            hi = lo + _CSV_CHUNK_ROWS
            fh.write("".join([f"{t!r},{v!r}\n" for t, v in
                              zip(grid[lo:hi].tolist(), values[lo:hi].tolist())]))
    return path


def write_table_csv(path, rows) -> Path:
    """Per-run estimation table mirroring the harness summary layout.

    rows: iterables (run, alpha_hat, beta_hat, lambda_inf_hat, converged).
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write("run,alpha_hat,beta_hat,lambda_inf_hat,converged\n")
        for run, a, b, li, conv in rows:
            fh.write(f"{int(run)},{float(a)!r},{float(b)!r},{float(li)!r},{bool(conv)}\n")
    return path


def write_envelope_csv(path, grid, counts, real_counts=None) -> Path:
    """Cumulative count paths on a shared grid, one column per trajectory.

    counts: array of shape (n_runs, len(grid)); optional real-data column
    is appended last for overlay comparisons.
    """
    path = Path(path)
    counts = np.asarray(counts)
    header = ["t"] + [f"run_{i}" for i in range(counts.shape[0])]
    if real_counts is not None:
        header.append("real")
    with path.open("w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for j, t in enumerate(grid):
            row = [repr(float(t))] + [str(int(counts[i, j])) for i in range(counts.shape[0])]
            if real_counts is not None:
                row.append(str(int(real_counts[j])))
            fh.write(",".join(row) + "\n")
    return path


def report_to_dict(report: EstimateReport) -> dict:
    """JSON-ready view of an estimation report."""
    out = {
        "params_hat": None if report.params_hat is None else {
            "alpha": report.params_hat.alpha,
            "beta": report.params_hat.beta,
            "lambda_inf": report.params_hat.lambda_inf,
        },
        "residual_norm": report.residual_norm,
        "iterations": report.iterations,
        "converged": report.converged,
        "init": list(report.init),
        "flags": list(report.flags),
    }
    if report.window_stats is not None:
        ws = report.window_stats
        out["window_stats"] = {
            "m1": ws.triple.m1,
            "m2": ws.triple.m2,
            "m3": ws.triple.m3,
            "delta": ws.delta,
            "count": ws.window_count,
            "t0": ws.t0,
        }
    return out


def write_report_json(path, payload: dict) -> Path:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
