"""Event-file ingestion and plot-ready file writers.

Events file: UTF-8 text, one nonnegative decimal timestamp per line, with an
optional single header line "t".  Timestamps are read as they are, never
rescaled: in a file of minutes, rates fitted to it are per minute.  A
leading byte order mark is skipped.  Grids and tables are written as CSV,
reports as JSON; floats are serialized with repr so identical inputs give
byte-identical files.  Every CSV, the events, intensity, table and
envelope files, goes through one writer, _write_csv, which formats rows a
chunk at a time, a large file in slices over the CPUs.  The intensity CSV
makes its grid's points a chunk at a time and takes the path's intensity
as a function of that chunk, both in whichever process formats the
chunk's rows, so its grid is never held whole.

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
from pathlib import Path

import numpy as np

from ._fork import in_slices
from .core import EventSequence, _check_time
from .errors import EmptyFile, NegativeTimestamp, ParseError, _warn
from .estimate import EstimateReport

__all__ = [
    "parse_events",
    "write_events",
    "write_intensity_csv",
    "write_table_csv",
    "write_envelope_csv",
    "report_to_dict",
    "write_report_json",
]

def parse_events(path, horizon: float | None = None) -> EventSequence:
    """Read an events file into a sorted EventSequence.

    The horizon defaults to the largest timestamp; passing ``horizon``
    overrides it and drops events beyond it (explicit truncation).  Unsorted
    input is sorted with a warning; ties are preserved.  A negative or
    non-finite ``horizon`` is a ValueError before the file is opened.
    """
    if horizon is not None:
        _check_time("horizon", horizon)
    path = Path(path)
    values: list[float] = []
    with path.open("r", encoding="utf-8-sig") as fh:
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
        _warn(f"{path}: timestamps were not sorted; sorting")
        times = np.sort(times)
    if horizon is None:
        horizon = float(times[-1])
    else:
        dropped = int(np.sum(times > horizon))
        if dropped:
            _warn(f"{path}: dropping {dropped} events beyond horizon {horizon}")
            times = times[times <= horizon]
        if times.size == 0:
            raise EmptyFile(f"{path}: no timestamps at or before horizon {horizon}")
    return EventSequence(times=times, horizon=horizon)


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


_CSV_CHUNK_ROWS = 4096
# Below 2 * MIN_ROWS_PER_WORKER rows (about 0.25 s of formatting) a column
# file is written by this process alone.
MIN_ROWS_PER_WORKER = 1 << 16


def _write_csv(path, header: str, n: int, rows) -> Path:
    """Write ``header``, then ``n`` rows a _CSV_CHUNK_ROWS chunk at a time:
    ``rows(lo, hi)`` returns the text lines of rows lo to hi - 1 and is
    called in the process that formats them, so no process holds more than
    a chunk of rows beyond what ``rows`` itself reads.  A file of at least
    2 * MIN_ROWS_PER_WORKER rows is formatted in contiguous slices, one
    process per available CPU and at least MIN_ROWS_PER_WORKER rows per
    process (see _fork.in_slices); every row is formatted by the same calls
    in the same order, so the bytes are those of a one-process run.  No
    file is left at ``path`` when the call raises.
    """
    path = Path(path)

    def format_slice(lo, hi, out):
        dest = fh if out is None else codecs.getwriter("utf-8")(out)
        for start in range(lo, hi, _CSV_CHUNK_ROWS):
            dest.write("".join(rows(start, min(start + _CSV_CHUNK_ROWS, hi))))

    def append(file):
        fh.flush()
        shutil.copyfileobj(file, fh.buffer)

    with _overwrite(path) as fh:
        fh.write(header)
        in_slices(range(n), n, MIN_ROWS_PER_WORKER, format_slice, append, "formatting rows")
    return path


def _repr_rows(*columns):
    # repr of a Python int is its decimal digits
    return [",".join(map(repr, row)) + "\n" for row in zip(*columns)]


# The bytes of _repr_rows for one and two float columns; the f-strings take
# 15-45% less time.
def _event_rows(times):
    return [f"{t!r}\n" for t in times]


def _intensity_rows(grid, values):
    return [f"{t!r},{v!r}\n" for t, v in zip(grid, values)]


def write_events(path, events: EventSequence) -> Path:
    """Header ``t`` and one ``repr(t)`` row per event time (_write_csv)."""
    times = events.times
    return _write_csv(path, "t\n", times.size,
                      lambda lo, hi: _event_rows(times[lo:hi].tolist()))


def write_intensity_csv(path, step: float, n: int, intensity) -> Path:
    """Header ``t,intensity`` and one ``repr(t),repr(value)`` row for each
    of the ``n`` grid points 0, step, 2 step, ...

    Rows lo to hi - 1 have the points ``np.arange(lo, hi, dtype=float64) *
    step``: every index is an integer-valued float, exact below 2**53, under
    one IEEE multiply, so each chunk's points equal those rows of
    ``np.arange(n) * step`` bit for bit.  ``intensity`` maps a chunk's
    points to the path's values there, one per point.  Each chunk's points
    and values are made in the process that formats its rows (_write_csv),
    so no process holds more than a chunk of them.
    """
    def rows(lo, hi):
        t = np.arange(lo, hi, dtype=np.float64) * step
        values = np.asarray(intensity(t), dtype=np.float64)
        if values.shape != t.shape:
            raise ValueError(f"grid has {t.size} points but values has {values.size}")
        return _intensity_rows(t.tolist(), values.tolist())

    return _write_csv(path, "t,intensity\n", n, rows)


def write_table_csv(path, rows) -> Path:
    """Per-run estimation table mirroring the harness summary layout (_write_csv).

    rows: a sequence of (run, alpha_hat, beta_hat, lambda_inf_hat, converged).
    """
    return _write_csv(path, "run,alpha_hat,beta_hat,lambda_inf_hat,converged\n", len(rows),
                      lambda lo, hi: [f"{int(run)},{float(a)!r},{float(b)!r},{float(li)!r},"
                                      f"{bool(conv)}\n" for run, a, b, li, conv in rows[lo:hi]])


def write_envelope_csv(path, grid, counts, real_counts=None) -> Path:
    """Cumulative count paths on a shared grid, one column per trajectory.

    counts: array of shape (n_runs, len(grid)); optional real-data column
    is appended last for overlay comparisons.
    """
    counts = np.asarray(counts)
    header = ["t"] + [f"run_{i}" for i in range(counts.shape[0])]
    columns = [np.asarray(grid, dtype=np.float64), *counts.astype(np.int64)]
    if real_counts is not None:
        header.append("real")
        columns.append(np.asarray(real_counts).astype(np.int64))
    return _write_csv(path, ",".join(header) + "\n", columns[0].size,
                      lambda lo, hi: _repr_rows(*[c[lo:hi].tolist() for c in columns]))


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
            "delta": ws.triple.delta,
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
