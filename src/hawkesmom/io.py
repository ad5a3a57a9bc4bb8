"""Event-file ingestion, unit conversion and plot-ready file writers.

Events file: UTF-8 text, one nonnegative decimal timestamp per line, with an
optional single header line "t".  Grids and tables are written as CSV,
reports as JSON; floats are serialized with repr so identical inputs give
byte-identical files.

Every writer overwrites an existing file in place and cuts it to the length
written, so its bytes equal a write into an empty directory; a writer that
raises removes its file.  A process killed mid-write (SIGKILL, power loss)
can leave old bytes after the new ones: trust the exit status, not the file.
"""

from __future__ import annotations

import codecs
import contextlib
import json
import math
import os
import shutil
import stat
import warnings
from pathlib import Path

import numpy as np

from ._fork import in_slices, worker_count
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
    input is sorted with a warning; ties are preserved.  A negative or
    non-finite ``horizon`` is a ValueError before the file is opened.
    """
    if horizon is not None and not (math.isfinite(horizon) and horizon >= 0.0):
        raise ValueError(f"horizon must be finite and >= 0, got {horizon}")
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
            if not math.isfinite(v):
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


@contextlib.contextmanager
def _overwrite(path: Path):
    """UTF-8 text writer on ``path`` that reuses an existing file's blocks:
    opened without O_TRUNC, whose release of every old block some file
    systems do synchronously, and cut at the final position on success.
    Like O_TRUNC, the cut leaves alone what is not a regular file, such as a
    link to /dev/null.  If the body raises, the file is closed, removed and
    the error re-raised."""
    fh = open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8")
    try:
        with fh:
            yield fh
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def write_events(path, events: EventSequence) -> Path:
    path = Path(path)
    with _overwrite(path) as fh:
        fh.write("t\n")
        _write_rows(fh, _event_rows, events.times)
    return path


_CSV_CHUNK_ROWS = 4096
# Below 2 * MIN_ROWS_PER_WORKER rows (about 0.25 s of formatting) an
# intensity grid is written by this process alone.
MIN_ROWS_PER_WORKER = 1 << 16


def _write_rows(fh, format_rows, *columns) -> None:
    """Write the rows of equal-length 1-D arrays a chunk at a time:
    ``format_rows`` gets one chunk of each column as a list of Python
    scalars and returns that chunk's text lines.  Memory stays flat for any
    length."""
    for lo in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
        hi = lo + _CSV_CHUNK_ROWS
        fh.write("".join(format_rows(*[c[lo:hi].tolist() for c in columns])))


def _repr_rows(*columns):
    # repr of a Python int is its decimal digits
    return [",".join(map(repr, row)) + "\n" for row in zip(*columns)]


# The bytes of _repr_rows for one and two float columns; the f-strings take
# 15-45% less time.
def _event_rows(times):
    return [f"{t!r}\n" for t in times]


def _intensity_rows(grid, values):
    return [f"{t!r},{v!r}\n" for t, v in zip(grid, values)]


def write_intensity_csv(path, grid, values) -> Path:
    """Header ``t,intensity`` and one ``repr(t),repr(value)`` row per grid point.

    Large grids are formatted in contiguous slices, one process per
    available CPU and at least MIN_ROWS_PER_WORKER rows per process (see
    _fork.in_slices); every row is formatted by the same function in the
    same order, so the bytes are those of a one-process run.  No file is
    left at ``path`` when the call raises.
    """
    path = Path(path)
    grid = np.asarray(grid, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if grid.size != values.size:
        raise ValueError(f"grid has {grid.size} points but values has {values.size}")
    n = worker_count(grid.size, MIN_ROWS_PER_WORKER)

    def format_slice(lo, hi, out):
        dest = fh if out is None else codecs.getwriter("utf-8")(out)
        _write_rows(dest, _intensity_rows, grid[lo:hi], values[lo:hi])

    def append(lo, hi, file):
        fh.flush()
        shutil.copyfileobj(file, fh.buffer)

    with _overwrite(path) as fh:
        fh.write("t,intensity\n")
        in_slices([grid.size * k // n for k in range(n + 1)], format_slice, append,
                  "formatting rows")
    return path


def write_table_csv(path, rows) -> Path:
    """Per-run estimation table mirroring the harness summary layout.

    rows: iterables (run, alpha_hat, beta_hat, lambda_inf_hat, converged).
    """
    path = Path(path)
    with _overwrite(path) as fh:
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
    columns = [np.asarray(grid, dtype=np.float64), *counts.astype(np.int64)]
    if real_counts is not None:
        header.append("real")
        columns.append(np.asarray(real_counts).astype(np.int64))
    with _overwrite(path) as fh:
        fh.write(",".join(header) + "\n")
        _write_rows(fh, _repr_rows, *columns)
    return path


def report_to_dict(report: EstimateReport) -> dict:
    """JSON-ready view of an estimation report."""
    out = {
        "params_hat": None if report.params_hat is None else {
            "alpha": report.params_hat.alpha,
            "beta": report.params_hat.beta,
            "lambda_inf": report.params_hat.lambda_inf,
        },
        # a run that failed outright has no residual: null, not Infinity
        "residual_norm": report.residual_norm if math.isfinite(report.residual_norm) else None,
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
    """Strict JSON: a NaN or infinity in ``payload`` raises ValueError."""
    path = Path(path)
    with _overwrite(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return path
