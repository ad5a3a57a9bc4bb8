"""Event-file ingestion, CLI subcommands, exit codes and the README's examples.

Timestamps are read as the file gives them: no command rescales them.
"""

import codecs
import functools
import hashlib
import importlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from closed_forms_mp import limit_intensity_mp, m2_mp, m3_mp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hawkesmom
from hawkesmom import (
    EventSequence,
    EmptyFile,
    NegativeTimestamp,
    ParseError,
    parse_events,
    simulate_exact,
    validate_params,
)
from hawkesmom import cli as cli_module
from hawkesmom.cli import (
    _step_grid,
    EXIT_CAPACITY,
    EXIT_CONVERGENCE,
    EXIT_OK,
    EXIT_PARSE,
    build_parser,
    cmd_estimate,
    cmd_moments,
    cmd_simulate,
    cmd_validate,
    main,
)
from hawkesmom.core import _intensity_on_blocks
from hawkesmom.estimate import DEFAULT_INIT
from hawkesmom import io as io_module
from hawkesmom.io import (
    _CSV_CHUNK_ROWS,
    MIN_ROWS_PER_WORKER,
    write_envelope_csv,
    write_events,
    write_intensity_csv,
    write_report_json,
    write_table_csv,
)
from hawkesmom.simulate import DEFAULT_EVENT_CAP

try:
    with open("/proc/sys/vm/overcommit_memory") as _fh:
        _OVERCOMMIT_ALWAYS = _fh.read().strip() == "1"
except OSError:
    _OVERCOMMIT_ALWAYS = False


def parse(*argv):
    """The parsed arguments of the command line ``argv``, each item as str:
    what main hands a cmd_* function, with the parser's own defaults."""
    return build_parser().parse_args(list(map(str, argv)))


def envelope_counts(path):
    """The per-run columns of an envelope.csv, one row per run."""
    header = path.read_text(encoding="utf-8").split("\n", 1)[0].split(",")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, [i for i, name in enumerate(header) if name.startswith("run_")]].T


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def strict_json(path):
    """The JSON file at ``path``, refusing NaN and Infinity."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


def values_on(grid, values):
    """The intensity function write_intensity_csv takes, reading ``values``
    at the points of a chunk of the strictly increasing ``grid``."""
    return lambda t: values[np.searchsorted(grid, t)]


class TestParseEvents:
    def test_header_and_ties(self, tmp_path):
        path = write(tmp_path, "ev.txt", "t\n0.5\n1.0\n1.0\n")
        seq = parse_events(path)
        assert list(seq.times) == [0.5, 1.0, 1.0]
        assert seq.horizon == 1.0

    def test_no_header(self, tmp_path):
        path = write(tmp_path, "ev.txt", "0.25\n2.5\n")
        assert list(parse_events(path).times) == [0.25, 2.5]

    def test_unsorted_sorted_with_warning(self, tmp_path):
        path = write(tmp_path, "ev.txt", "2\n1\n")
        with pytest.warns(UserWarning, match="sort"):
            seq = parse_events(path)
        assert list(seq.times) == [1.0, 2.0]

    def test_parse_error_reports_line(self, tmp_path):
        path = write(tmp_path, "ev.txt", "t\n1.0\nbogus\n2.0\n")
        with pytest.raises(ParseError) as excinfo:
            parse_events(path)
        assert excinfo.value.line_number == 3

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_timestamp(self, tmp_path, text):
        path = write(tmp_path, "ev.txt", f"t\n1.0\n2.0\n{text}\n3.0\n")
        with pytest.raises(ParseError, match="must be finite") as excinfo:
            parse_events(path)
        assert excinfo.value.line_number == 4

    def test_negative_timestamp(self, tmp_path):
        path = write(tmp_path, "ev.txt", "1.0\n-0.5\n")
        with pytest.raises(NegativeTimestamp):
            parse_events(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "ev.txt", "t\n\n")
        with pytest.raises(EmptyFile):
            parse_events(path)
        # every event beyond the horizon
        path = write(tmp_path, "late.txt", "5.0\n9.0\n")
        with pytest.warns(UserWarning, match="dropping 2 events"), \
                pytest.raises(EmptyFile, match="no timestamps at or before horizon 1.0"):
            parse_events(path, horizon=1.0)

    def test_cascade_shape_horizon(self, tmp_path):
        # 448 events spread over 600 minutes: horizon from the data
        rng = np.random.default_rng(4)
        times = np.sort(rng.uniform(0.0, 600.0, size=447))
        lines = "\n".join(repr(float(t)) for t in [*times, 600.0])
        path = write(tmp_path, "cascade.txt", "t\n" + lines + "\n")
        seq = parse_events(path)
        assert len(seq) == 448
        assert seq.horizon == 600.0

    def test_horizon_truncation_flagged(self, tmp_path):
        path = write(tmp_path, "ev.txt", "1.0\n5.0\n9.0\n")
        with pytest.warns(UserWarning, match="dropping"):
            seq = parse_events(path, horizon=6.0)
        assert list(seq.times) == [1.0, 5.0]
        assert seq.horizon == 6.0

    def test_warnings_name_the_caller(self, tmp_path):
        # the unsorted and dropped-events warnings, each at this file's call
        path = write(tmp_path, "ev.txt", "2.0\n1.0\n9.0\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            seq = parse_events(path, horizon=6.0)
            line = sys._getframe().f_lineno - 1
        assert list(seq.times) == [1.0, 2.0]
        assert [str(w.message) for w in caught] == [
            f"{path}: timestamps were not sorted; sorting",
            f"{path}: dropping 1 events beyond horizon 6.0"]
        assert [(w.category, w.filename, w.lineno) for w in caught] == [
            (UserWarning, __file__, line)] * 2

    @pytest.mark.parametrize("horizon", [-1.0, -math.inf, math.inf, math.nan])
    def test_bad_horizon_rejected_before_the_file_is_opened(self, tmp_path, horizon):
        with pytest.raises(ValueError, match=f"horizon must be finite and >= 0, got {horizon}"):
            parse_events(tmp_path / "missing.txt", horizon=horizon)

    @staticmethod
    def outcome(path):
        """What parse_events makes of ``path``: the times and horizon, or
        the error's type, line number and message after the path."""
        try:
            seq = parse_events(path)
        except ParseError as exc:
            return type(exc), exc.line_number, str(exc).split(":", 2)[2]
        return seq.times.tobytes(), seq.horizon

    # a BOM before the header, before a first timestamp, and before files
    # whose third and first lines do not parse
    @pytest.mark.parametrize("text", ["t\n0.5\n1.0\n", "0.25\n2.5\n", "t\n1.0\nbogus\n",
                                      "bogus\n1.0\n"],
                             ids=["header", "timestamp", "bad_line_3", "bad_line_1"])
    def test_byte_order_mark_is_skipped(self, tmp_path, text):
        plain = write(tmp_path, "plain.txt", text)
        marked = tmp_path / "marked.txt"
        marked.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        assert self.outcome(marked) == self.outcome(plain)



class TestRoundTrips:
    @settings(max_examples=100, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(times=st.lists(st.floats(min_value=0.0, max_value=1e15), min_size=1, max_size=50))
    def test_write_then_parse_is_bitwise(self, tmp_path, times):
        times = np.sort(np.array(times))
        events = EventSequence(times=times, horizon=float(times[-1]))
        parsed = parse_events(write_events(tmp_path / "ev.txt", events))
        assert parsed.times.tobytes() == times.tobytes()
        assert parsed.horizon == events.horizon


class TestStepGrid:
    """simulate's grid: its point count, and its points, made by the writer
    a chunk at a time, against the whole array."""

    # slices of at least 1000 rows, so the writer's chunks and its workers'
    # slices start at rows other than multiples of _CSV_CHUNK_ROWS
    MIN_ROWS = 1000
    EDGES = sorted({base + d for base in (_CSV_CHUNK_ROWS, 2 * _CSV_CHUNK_ROWS,
                                          2 * MIN_ROWS, 4 * MIN_ROWS)
                    for d in (-1, 0, 1)} | {1, 2})

    @settings(max_examples=40, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.one_of(st.sampled_from(EDGES), st.integers(1, 3 * _CSV_CHUNK_ROWS + 5)),
           step=st.floats(min_value=5e-324, max_value=1e300), cpus=st.integers(1, 4))
    def test_slices_equal_the_whole_grid(self, tmp_path, monkeypatch, n, step, cpus):
        monkeypatch.setattr(io_module, "MIN_ROWS_PER_WORKER", self.MIN_ROWS)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        path = write_intensity_csv(tmp_path / "grid.csv", step, n, lambda t: t)
        whole = (np.arange(n) * step).tolist()
        assert path.read_text() == "t,intensity\n" + "".join(f"{t!r},{t!r}\n" for t in whole)

    @pytest.mark.parametrize("horizon, step", [
        (20.0, 0.01), (10_000.0, 0.01), (100.0, 0.0003), (7.0, 3.0), (1e-300, 3e-302),
        # horizon / step rounds to 92.99999999999999, where 93 step <= 1, and
        # to 273.0, where 273 step > 3
        (1.0, 1 / 93), (3.0, 1 / 91),
    ])
    def test_step_grid_has_the_allocated_grids_points(self, horizon, step):
        # the grid's points as the writers form them, up to the last <= horizon
        points = np.arange(int(horizon / step) + 3, dtype=np.float64) * step
        assert _step_grid("--grid-step", horizon, step) == np.count_nonzero(points <= horizon)

    # a step that does not divide the horizon: round(horizon / step) points
    # past the first would put the last one past the horizon
    @pytest.mark.parametrize("argv, path, last", [
        (["simulate", "--horizon", "10", "--grid-step", "6"], "intensity.csv", "6.0"),
        (["validate", "--horizon", "100", "--delta", "0.7", "--t0", "10", "--envelope"],
         "envelope.csv", "99.39999999999999"),
    ], ids=["simulate", "validate_envelope"])
    def test_grid_stops_at_the_horizon(self, tmp_path, argv, path, last):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # some of the fits warn
            assert main([*argv, "--alpha", "0.2", "--beta", "1", "--lambda-inf", "1",
                         "--seed", "1", "--out-dir", str(tmp_path)]) == EXIT_OK
        rows = (tmp_path / path).read_text().splitlines()[1:]
        assert rows[-1].split(",")[0] == last


class TestWriteIntensityCsv:
    def test_chunked_rows_match_per_row_format(self, tmp_path):
        rng = np.random.default_rng(31)
        n = 2 * _CSV_CHUNK_ROWS + 123
        grid = np.arange(n) * 0.01
        values = rng.lognormal(0.0, 3.0, size=n)
        values[:4] = [1.0, 0.1, 1e-300, 12345678901234.5]
        path = write_intensity_csv(tmp_path / "intensity.csv", 0.01, n, values_on(grid, values))
        expected = "t,intensity\n" + "".join(
            f"{float(t)!r},{float(v)!r}\n" for t, v in zip(grid, values))
        assert path.read_bytes() == expected.encode("utf-8")

    def test_mismatched_lengths_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="grid has 3 points but values has 2"):
            write_intensity_csv(tmp_path / "intensity.csv", 1.0, 3, lambda t: np.ones(2))
        assert not (tmp_path / "intensity.csv").exists()

    def test_each_process_computes_its_own_rows(self, tmp_path, monkeypatch):
        # this process is asked for the first slice's values only, a chunk
        # at a time; the worker computes the second slice's
        n = 2 * MIN_ROWS_PER_WORKER + 5
        grid = np.arange(n * 1.0)
        parent, asked = os.getpid(), []

        def intensity(t):
            if os.getpid() == parent:
                asked.append((t[0], t.size))
            return t + 0.5

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        path = write_intensity_csv(tmp_path / "intensity.csv", 1.0, n, intensity)
        assert [start for start, _ in asked] == list(range(0, n // 2, _CSV_CHUNK_ROWS))
        assert [size for _, size in asked[:-1]] == [_CSV_CHUNK_ROWS] * (len(asked) - 1)
        assert sum(size for _, size in asked) == n // 2
        expected = "t,intensity\n" + "".join(f"{t!r},{t + 0.5!r}\n" for t in grid.tolist())
        assert path.read_bytes() == expected.encode("utf-8")

    def test_workers_write_the_serial_bytes(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(32)
        n = 3 * MIN_ROWS_PER_WORKER + 17
        grid = np.arange(n) * 0.01
        values = rng.lognormal(0.0, 3.0, size=n)
        # 17-digit reprs, exponent forms and integral values, some of them
        # on the rows where the slices of two and three workers meet
        special = [0.1 + 0.2, 1e-05, 1e+16, 1.0, 2.0 / 3.0, 1e-300, 12345678901234.5]
        for at in (0, n // 3 - 3, n // 2 - 3, 2 * n // 3 - 3, n - len(special)):
            values[at:at + len(special)] = special
        intensity = values_on(grid, values)
        forks = []
        real_fork = os.fork

        def counting_fork():
            forks.append(os.getpid())
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        default_workers = min(len(os.sched_getaffinity(0)), 3)
        default = write_intensity_csv(tmp_path / "default.csv", 0.01, n, intensity).read_bytes()
        assert len(forks) == default_workers - 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        three = write_intensity_csv(tmp_path / "three.csv", 0.01, n, intensity).read_bytes()
        assert len(forks) == default_workers - 1 + 2
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = write_intensity_csv(tmp_path / "serial.csv", 0.01, n, intensity).read_bytes()
        assert len(forks) == default_workers - 1 + 2
        assert default == serial
        assert three == serial
        assert serial.count(b"\n") == n + 1
        for v in (b",0.30000000000000004\n", b",1e-05\n", b",1e+16\n", b",1.0\n"):
            assert v in serial

    def test_step_grid_writes_the_array_bytes(self, tmp_path, monkeypatch):
        # simulate's grid and kernel at 1, 2 and 4 workers, whose slices end
        # off the chunk edges, against the equal array at one
        n = 4 * MIN_ROWS_PER_WORKER + 17
        step = 0.0037
        p = validate_params(0.3, 1.1, 0.7, 2.0)
        intensity = _intensity_on_blocks(p, simulate_exact(p, (n - 1) * step, 9).events)
        forks = []
        real_fork = os.fork

        def counting_fork():
            forks.append(os.getpid())
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        array = write_intensity_csv(tmp_path / "array.csv", step, n, intensity)
        expected = array.read_bytes()
        assert expected.count(b"\n") == n + 1
        for cpus in (1, 2, 4):
            forks.clear()
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            path = write_intensity_csv(tmp_path / f"grid_{cpus}.csv", step, n, intensity)
            assert len(forks) == cpus - 1
            assert path.read_bytes() == expected, cpus

    @staticmethod
    def fail_in_worker(monkeypatch, fail_on_call):
        """Make each forked worker call ``fail_on_call(k)`` before it formats
        its k-th chunk of rows (k from 1); this process formats as usual."""
        parent = os.getpid()
        rows = io_module._intensity_rows
        calls = []

        def rows_in_worker(grid, values):
            if os.getpid() != parent:
                calls.append(None)
                fail_on_call(len(calls))
            return rows(grid, values)

        monkeypatch.setattr(io_module, "_intensity_rows", rows_in_worker)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    @pytest.mark.parametrize("failing_chunk", [1, 2])
    def test_worker_exception_is_raised_unchanged(self, tmp_path, monkeypatch, failing_chunk):
        # on its second chunk the worker has rows in its file, which it
        # truncates before it pickles the exception there
        def fail(k):
            if k == failing_chunk:
                raise RuntimeError(f"worker failed on chunk {k}")

        self.fail_in_worker(monkeypatch, fail)
        n = 2 * MIN_ROWS_PER_WORKER
        grid = np.arange(n * 1.0)
        with pytest.raises(RuntimeError, match=f"^worker failed on chunk {failing_chunk}$"):
            write_intensity_csv(tmp_path / "intensity.csv", 1.0, n, values_on(grid, np.ones(n)))
        assert os.listdir(tmp_path) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failed_worker_raises_and_cli_exits_1(self, tmp_path, monkeypatch, capsys):
        self.fail_in_worker(monkeypatch, lambda k: os._exit(1))
        n = 2 * MIN_ROWS_PER_WORKER
        grid = np.arange(n * 1.0)
        with pytest.raises(OSError, match=f"formatting rows {n // 2} to {n - 1} exited with "
                                          f"status 1$"):
            write_intensity_csv(tmp_path / "intensity.csv", 1.0, n, values_on(grid, np.ones(n)))
        assert os.listdir(tmp_path) == []
        out = tmp_path / "out"
        code = main(["simulate", "--alpha", "0.2", "--beta", "1.0", "--lambda-inf", "1.0",
                     "--horizon", "20", "--grid-step", "0.0001", "--seed", "4",
                     "--out-dir", str(out)])
        assert code == 1
        assert "error: the worker formatting rows" in capsys.readouterr().err
        assert os.listdir(out) == ["events.txt"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failing_parent_reaps_workers(self, tmp_path, monkeypatch):
        parent = os.getpid()
        rows = io_module._intensity_rows

        def fail_in_parent(grid, values):
            if os.getpid() == parent:
                raise RuntimeError("parent failed")
            return rows(grid, values)

        monkeypatch.setattr(io_module, "_intensity_rows", fail_in_parent)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        n = 3 * MIN_ROWS_PER_WORKER
        grid = np.arange(n * 1.0)
        with pytest.raises(RuntimeError, match="parent failed"):
            write_intensity_csv(tmp_path / "intensity.csv", 1.0, n, values_on(grid, np.ones(n)))
        assert os.listdir(tmp_path) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_small_grid_never_forks(self, tmp_path, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        n = 2 * MIN_ROWS_PER_WORKER - 1
        grid = np.arange(n * 1.0)
        path = write_intensity_csv(tmp_path / "intensity.csv", 1.0, n, values_on(grid, np.ones(n)))
        assert path.read_bytes().count(b"\n") == n + 1


class TestColumnWriters:
    """The events and envelope CSVs take the intensity CSV's sliced writer:
    at any CPU count a large file has the bytes of a one-process run."""

    @staticmethod
    def outputs(n):
        """The events and envelope writers, by name, each writing ``n`` rows
        to the path it takes."""
        rng = np.random.default_rng(36)
        # among the times 17-digit reprs, exponent forms and integral values
        special = [0.1 + 0.2, 1e-05, 1e+16, 1.0, 2.0 / 3.0, 1e-300, 12345678901234.5]
        times = np.sort(np.concatenate([rng.uniform(0.0, 1e4, n - len(special)), special]))
        events = EventSequence(times=times, horizon=1e16)
        grid = np.arange(n) * 0.01
        counts = np.cumsum(rng.poisson(2.0, size=(3, n)), axis=1)
        return {
            "events": lambda path: write_events(path, events),
            "envelope": lambda path: write_envelope_csv(path, grid, counts, counts[0]),
        }

    @pytest.mark.parametrize("writer", ["events", "envelope"])
    def test_workers_write_the_serial_bytes(self, tmp_path, monkeypatch, writer):
        n = 3 * MIN_ROWS_PER_WORKER + 17
        write = self.outputs(n)[writer]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = write(tmp_path / "serial.csv").read_bytes()
        assert serial.count(b"\n") == n + 1
        forks = []
        real_fork = os.fork

        def counting_fork():
            forks.append(None)
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        for cpus in (1, 2, 3):
            forks.clear()
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            assert write(tmp_path / f"cpus_{cpus}.csv").read_bytes() == serial, cpus
            assert len(forks) == cpus - 1

    # the intensity CSV's case is TestWriteIntensityCsv::test_small_grid_never_forks
    @pytest.mark.parametrize("writer", ["events", "envelope"])
    def test_small_file_never_forks(self, tmp_path, monkeypatch, writer):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        n = 2 * MIN_ROWS_PER_WORKER - 1
        path = self.outputs(n)[writer](tmp_path / "out.csv")
        assert path.read_bytes().count(b"\n") == n + 1


class TestWriteEnvelopeCsv:
    def test_rows_match_per_cell_format(self, tmp_path):
        rng = np.random.default_rng(33)
        n = _CSV_CHUNK_ROWS + 5
        grid = np.arange(n) * (1.0 / 3.0)
        counts = np.cumsum(rng.poisson(2.0, size=(4, n)), axis=1)
        real = np.cumsum(rng.poisson(2.0, size=n))
        for overlay in (None, real):
            path = write_envelope_csv(tmp_path / "envelope.csv", grid, counts, overlay)
            lines = ["t,run_0,run_1,run_2,run_3" + ("" if overlay is None else ",real")]
            for j, t in enumerate(grid):
                cells = [repr(float(t))] + [str(int(c)) for c in counts[:, j]]
                if overlay is not None:
                    cells.append(str(int(overlay[j])))
                lines.append(",".join(cells))
            text = path.read_text(encoding="utf-8")
            assert text.endswith("\n")
            assert text.split("\n")[:-1] == lines


def _small_outputs():
    """One call per writer, by name, each taking only the output path."""
    rng = np.random.default_rng(34)
    n = _CSV_CHUNK_ROWS + 7
    grid = np.arange(n) * 0.01
    values = rng.lognormal(0.0, 3.0, size=n)
    counts = np.cumsum(rng.poisson(2.0, size=(3, n)), axis=1)
    events = EventSequence(times=np.sort(rng.uniform(0.0, 50.0, 300)), horizon=50.0)
    rows = [(i, 0.2 + i / 3, 1.0 / 3, 1e-05, i % 2 == 0) for i in range(5)]
    return {
        "events": lambda path: write_events(path, events),
        "intensity": lambda path: write_intensity_csv(path, 0.01, n, values_on(grid, values)),
        "table": lambda path: write_table_csv(path, rows),
        "envelope": lambda path: write_envelope_csv(path, grid, counts, counts[0]),
        "report": lambda path: write_report_json(path, {"b": [0.1, 1e-05], "a": None}),
    }


WRITERS = sorted(_small_outputs())


class TestWriteInPlace:
    """Writers overwrite an existing file and cut it to length: the bytes
    equal a write into an empty directory, whatever the file held."""

    @pytest.mark.parametrize("writer", WRITERS)
    def test_over_longer_and_shorter_files(self, tmp_path, writer):
        write = _small_outputs()[writer]
        (tmp_path / "fresh").mkdir()
        fresh = write(tmp_path / "fresh" / "out").read_bytes()
        for old in (b"x" * (2 * len(fresh) + 4097), fresh + b"tail\n",
                    b"y" * (len(fresh) // 2), fresh[:-1], b""):
            (tmp_path / "out").write_bytes(old)
            assert write(tmp_path / "out").read_bytes() == fresh

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_intensity_over_existing_files_at_cpus(self, tmp_path, monkeypatch, cpus):
        rng = np.random.default_rng(35)
        n = 3 * MIN_ROWS_PER_WORKER + 11
        grid = np.arange(n) * 0.01
        values = rng.lognormal(0.0, 3.0, size=n)
        intensity = values_on(grid, values)
        fresh = write_intensity_csv(tmp_path / "fresh.csv", 0.01, n, intensity).read_bytes()
        forks = []
        real_fork = os.fork

        def counting_fork():
            forks.append(None)
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        for old in (b"x" * (len(fresh) + MIN_ROWS_PER_WORKER), b"y" * (len(fresh) // 3)):
            (tmp_path / "out.csv").write_bytes(old)
            assert write_intensity_csv(tmp_path / "out.csv", 0.01, n,
                                       intensity).read_bytes() == fresh
        assert len(forks) == 2 * (cpus - 1)

    def test_no_writer_truncates_on_open(self, tmp_path, monkeypatch):
        opened = []
        real_open = os.open

        def recording_open(path, flags, *args, **kwargs):
            opened.append((os.fspath(path), flags))
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording_open)
        for name, write in _small_outputs().items():
            path = tmp_path / name
            path.write_bytes(b"z" * 100_000)
            opened.clear()
            write(path)
            assert [p for p, _ in opened] == [str(path)], name
            assert not opened[0][1] & os.O_TRUNC, name

    @pytest.mark.parametrize("writer", WRITERS)
    def test_directory_at_path_raises_and_stays(self, tmp_path, writer):
        target = tmp_path / "out"
        target.mkdir()
        (target / "keep").write_text("kept")
        with pytest.raises(IsADirectoryError):
            _small_outputs()[writer](target)
        assert (target / "keep").read_text() == "kept"

    @pytest.mark.parametrize("writer", WRITERS)
    def test_link_to_dev_null_is_written_and_kept(self, tmp_path, writer):
        (tmp_path / "out").symlink_to(os.devnull)
        _small_outputs()[writer](tmp_path / "out")
        assert os.readlink(tmp_path / "out") == os.devnull

    def test_failing_table_removes_the_old_file(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_bytes(b"x" * 1_000_000)
        # more than one buffer reaches the file before the last row fails
        rows = [(i, 0.1, 0.2, 0.3, True) for i in range(10_000)]
        rows.append((10_000, "not a float", 0.2, 0.3, True))
        with pytest.raises(ValueError, match="could not convert string to float"):
            write_table_csv(path, rows)
        assert os.listdir(tmp_path) == []

    def test_failing_worker_removes_the_old_file(self, tmp_path, monkeypatch):
        def fail(k):
            if k == 2:
                raise RuntimeError("worker failed")

        TestWriteIntensityCsv.fail_in_worker(monkeypatch, fail)
        path = tmp_path / "intensity.csv"
        n = 2 * MIN_ROWS_PER_WORKER
        grid = np.arange(n * 1.0)
        path.write_bytes(b"x" * (4 * n))
        with pytest.raises(RuntimeError, match="^worker failed$"):
            write_intensity_csv(path, 1.0, n, values_on(grid, np.ones(n)))
        assert os.listdir(tmp_path) == []

    RERUNS = {
        "simulate": ["simulate", "--alpha", "0.3", "--beta", "1", "--lambda-inf", "1",
                     "--horizon", "60", "--grid-step", "0.0005"],
        "validate": ["validate", "--alpha", "0.2", "--beta", "1", "--lambda-inf", "1",
                     "--horizon", "1500", "--count", "3", "--delta", "0.5", "--t0", "300",
                     "--envelope"],
    }

    @staticmethod
    def digests(out):
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}

    @pytest.mark.parametrize("command", sorted(RERUNS))
    def test_cli_reruns_equal_a_fresh_run(self, tmp_path, command):
        argv = self.RERUNS[command]
        fresh, rerun = tmp_path / "fresh", tmp_path / "rerun"
        assert main(argv + ["--seed", "7", "--out-dir", str(fresh)]) == EXIT_OK
        expected = self.digests(fresh)
        for seed in ("7", "8", "7"):
            assert main(argv + ["--seed", seed, "--out-dir", str(rerun)]) == EXIT_OK
        assert self.digests(rerun) == expected


class TestParserDefaults:
    """Each flag's default lives in build_parser alone; these are the ones
    the cmd_* functions see when a flag is left out."""

    PARAMS = ["--alpha", "0.2", "--beta", "1", "--lambda-inf", "1"]

    def test_validate(self):
        # --seed has no default: the parser requires it
        args = parse("validate", *self.PARAMS, "--horizon", 10, "--delta", 0.5, "--seed", 5)
        assert (args.t0, args.count, args.init, args.method, args.cap, args.envelope) == (
            3000.0, 20, DEFAULT_INIT, "exact", DEFAULT_EVENT_CAP, False)
        assert (args.lambda0, args.envelope_step, args.real_events_path) == (None, None, None)
        assert args.out_dir == Path(".") and not hasattr(args, "unit")

    def test_estimate(self):
        args = parse("estimate", "--events", "ev.txt", "--delta", 0.5)
        assert (args.t0, args.horizon) == (0.0, None) and not hasattr(args, "unit")
        assert (args.init, args.out_dir) == (DEFAULT_INIT, Path("."))

    def test_simulate(self):
        args = parse("simulate", *self.PARAMS, "--horizon", 10, "--seed", 5)
        assert (args.method, args.grid_step, args.cap) == ("exact", 0.01, DEFAULT_EVENT_CAP)
        assert not hasattr(args, "unit")
        assert (args.lambda0, args.out_dir) == (None, Path("."))

    def test_moments_has_no_window_start_or_lambda0(self):
        args = parse("moments", *self.PARAMS, "--delta", 0.5)
        assert not hasattr(args, "t0") and not hasattr(args, "lambda0")


class TestCmdSimulate:
    def test_deterministic_byte_identical(self, tmp_path):
        cfgs = [parse("simulate", "--alpha", 0.15, "--beta", 1.0, "--lambda-inf", 1.0,
                      "--lambda0", 1.2, "--horizon", 20.0, "--seed", 7, "--grid-step", 0.01,
                      "--out-dir", tmp_path / d) for d in ("a", "b")]
        files_a = cmd_simulate(cfgs[0])
        files_b = cmd_simulate(cfgs[1])
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()

    def test_poisson_run_intensity_bounds(self, tmp_path):
        cfg = parse("simulate", "--alpha", 0.0, "--beta", 1.0, "--lambda-inf", 1.0,
                    "--lambda0", 1.4, "--horizon", 15.0, "--seed", 3, "--out-dir", tmp_path)
        _, intensity_path = cmd_simulate(cfg)
        rows = intensity_path.read_text().strip().splitlines()[1:]
        values = np.array([float(r.split(",")[1]) for r in rows])
        assert np.all(values >= 1.0 - 1e-12) and np.all(values <= 1.4 + 1e-12)

    def test_grid_row_count(self, tmp_path):
        cfg = parse("simulate", "--alpha", 0.2, "--beta", 1.0, "--lambda-inf", 1.0,
                    "--horizon", 20.0, "--seed", 5, "--grid-step", 0.01, "--out-dir", tmp_path)
        _, intensity_path = cmd_simulate(cfg)
        rows = intensity_path.read_text().strip().splitlines()
        assert len(rows) - 1 == int(20.0 / 0.01) + 1

    def test_holds_no_grid_or_values_array(self, tmp_path, monkeypatch):
        # one CPU: every row is computed and formatted here, where
        # tracemalloc sees it (numpy reports its arrays to it)
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "fork", no_fork)
        argv = ["simulate", "--method", "cluster", "--alpha", "0.2", "--beta", "1",
                "--lambda-inf", "1", "--grid-step", "0.0003", "--seed", "5",
                "--out-dir", str(tmp_path)]
        points = int(round(100 / 0.0003)) + 1
        assert points >= 1 << 18
        # the peak counts from the grid's return: _step_grid's allocation
        # check asks numpy for the whole grid, which tracemalloc counts
        # though its pages are never touched
        step_grid = cli_module._step_grid

        def checked_grid(*args):
            grid = step_grid(*args)
            tracemalloc.reset_peak()
            return grid

        monkeypatch.setattr(cli_module, "_step_grid", checked_grid)
        # first-use imports and libm probes, outside the trace
        assert main(argv + ["--horizon", "1"]) == EXIT_OK
        tracemalloc.start()
        try:
            assert main(argv + ["--horizon", "100"]) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few chunks' worth of rows and temporaries, whatever the grid's
        # length: the grid alone would be 8 bytes a point, 2.7 MB here, and
        # a values array as much again
        assert peak < 1_500_000

    def test_events_file_round_trips(self, tmp_path):
        cfg = parse("simulate", "--alpha", 0.2, "--beta", 1.0, "--lambda-inf", 1.0,
                    "--horizon", 50.0, "--seed", 11, "--out-dir", tmp_path)
        events_path, _ = cmd_simulate(cfg)
        seq = parse_events(events_path, horizon=50.0)
        assert len(seq) > 0

    def test_seed_required(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("HAWKES_SEED", raising=False)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--alpha", "0.2", "--beta", "1.0", "--lambda-inf", "1.0",
                  "--horizon", "10", "--out-dir", str(out)])
        assert excinfo.value.code == 2
        assert "the following arguments are required: --seed" in capsys.readouterr().err
        assert not out.exists()


class TestCmdMoments:
    def test_payload(self, capsys):
        cfg = parse("moments", "--alpha", 0.2, "--beta", 1.0, "--lambda-inf", 1.0,
                    "--delta", 0.5)
        payload = cmd_moments(cfg)
        assert payload["m1"] == pytest.approx(0.625)
        assert payload["m2"] == pytest.approx(1.0774297279610112)
        assert payload["Lambda2"] == pytest.approx(1.59375)
        printed = json.loads(capsys.readouterr().out)
        assert printed == payload

    def test_poisson_at_huge_beta(self, capsys):
        # alpha = 0 with kappa delta = 1e200: Poisson counts and intensity,
        # with mean 1, where squares of beta overflow
        assert main(["moments", "--alpha", "0", "--beta", "1e200", "--lambda-inf", "1",
                     "--delta", "1"]) == EXIT_OK
        printed = json.loads(capsys.readouterr().out)
        assert [printed[k] for k in ("m1", "m2", "m3")] == [1.0, 2.0, 5.0]
        assert [printed[k] for k in ("Lambda1", "Lambda2", "Lambda3")] == [1.0, 1.0, 1.0]


class TestCmdEstimate:
    def _events_file(self, tmp_path, seed=21, horizon=4000.0):
        from hawkesmom import simulate_exact
        from hawkesmom.io import write_events

        p = validate_params(0.2, 1.0, 1.0, 1.0)
        traj = simulate_exact(p, horizon, seed)
        return write_events(tmp_path / "events.txt", traj.events)

    def test_report_schema(self, tmp_path):
        path = self._events_file(tmp_path)
        cfg = parse("estimate", "--events", path, "--delta", 0.5, "--t0", 500.0,
                    "--init", 0.5, 1.5, 2.0, "--out-dir", tmp_path)
        report = cmd_estimate(cfg)
        data = json.loads((tmp_path / "estimate.json").read_text())
        assert set(data["params_hat"]) == {"alpha", "beta", "lambda_inf"}
        for key in ("residual_norm", "iterations", "converged", "window_stats"):
            assert key in data
        assert set(data["window_stats"]) == {"m1", "m2", "m3", "delta", "count", "t0"}
        assert data["converged"] == report.converged
        assert data["params_hat"]["alpha"] == report.params_hat.alpha

    def test_retweet_workflow_shape(self, tmp_path):
        # a cascade fit in minutes with the documented starting point
        from hawkesmom import simulate_exact
        from hawkesmom.io import write_events

        p = validate_params(0.772, 1.133, 0.243, 0.243)
        traj = simulate_exact(p, 600.0, 13)
        path = write_events(tmp_path / "cascade.txt", traj.events)
        cfg = parse("estimate", "--events", path, "--delta", 1.0 / 60.0,
                    "--t0", 0.0, "--init", 0.5, 1.5, 0.75, "--out-dir", tmp_path)
        with pytest.warns(UserWarning):
            report = cmd_estimate(cfg)
        hat = report.params_hat
        assert hat.beta > hat.alpha > 0.0 and hat.lambda_inf > 0.0
        assert "t0_in_transient" in report.flags


class TestTimeUnitAtTheCli:
    """estimate on an events file whose times are scaled by c = 2^k, with
    --delta, --t0, --horizon and --init scaled to match, exits as the unit
    run does and writes its report up to the scale: the window moments,
    residual, iterations, flags and convergence equal, the parameters the
    unit fit's divided by c.  The path is simulate_exact seed 30001 at
    horizon 10^4, the one the lambda_star overflow was found on."""

    INIT = (0.5, 1.5, 2.0)

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def times(alpha):
        return simulate_exact(validate_params(alpha, 1.0, 1.0), 1e4, 30001).events.times

    def run(self, tmp_path, alpha, k, capsys):
        c = 2.0**k
        out = tmp_path / f"alpha{alpha}_k{k}"
        out.mkdir()
        events = out / "events.txt"
        events.write_text("".join(f"{t * c!r}\n" for t in self.times(alpha).tolist()))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an m3_best_fit fit warns
            code = main(["estimate", "--events", str(events), "--delta", repr(0.5 * c),
                         "--t0", repr(3000.0 * c), "--horizon", repr(1e4 * c),
                         "--init", *(repr(v / c) for v in self.INIT), "--out-dir", str(out)])
        report = out / "estimate.json"
        return code, json.loads(report.read_text()) if report.exists() else None, \
            capsys.readouterr().err

    @pytest.mark.parametrize("alpha, k", [(0.8, -150), (0.8, 150), (0.8, -1020), (0.8, -1021),
                                          (0.8, 1010), (0.2, -150), (0.2, 150)])
    def test_rescaled_file_fits_as_the_unit_file(self, tmp_path, capsys, alpha, k):
        unit_code, unit, _ = self.run(tmp_path, alpha, 0, capsys)
        code, report, _ = self.run(tmp_path, alpha, k, capsys)
        c = 2.0**k
        assert code == unit_code == EXIT_OK
        # alpha 0.2's fit is the least-squares point near the scaled start
        assert unit["flags"] == (["m3_best_fit"] if alpha == 0.2 else [])
        for key in ("residual_norm", "iterations", "converged", "flags"):
            assert report[key] == unit[key], key
        window, unit_window = report["window_stats"], unit["window_stats"]
        for key in ("m1", "m2", "m3", "count"):
            assert window[key] == unit_window[key], key
        assert (window["delta"], window["t0"]) == (0.5 * c, 3000.0 * c)
        assert report["init"] == [v / c for v in self.INIT]
        assert {name: v * c for name, v in report["params_hat"].items()} == unit["params_hat"]

    def test_lambda_star_past_float64_exits_3(self, tmp_path, capsys):
        # delta = 2^-1023 is subnormal, and lambda* = M1 / delta overflows
        code, report, err = self.run(tmp_path, 0.8, -1022, capsys)
        assert (code, report) == (EXIT_CONVERGENCE, None)
        assert err == ("error: lambda* = m1/delta overflows float64 "
                       "(m1 2.6150714285714285, delta 1.1125369292536007e-308)\n")

    def test_t0_past_float64_exits_1(self, tmp_path, capsys):
        # 3000 2^1020 overflows to inf, which EstimateConfig rejects first
        code, report, err = self.run(tmp_path, 0.8, 1020, capsys)
        assert (code, report) == (1, None)
        assert err == "error: t0 must be finite and >= 0, got inf\n"


class TestImports:
    SCRIPT = """
import sys


class NoScipy:
    \"\"\"Fails any scipy import where it happens, even one guarded by
    ``except ImportError``.\"\"\"

    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise AssertionError(f"import of {name}")
        return None


sys.meta_path.insert(0, NoScipy())
from hawkesmom import integrate_moments, simulate_batch, validate_params
from hawkesmom.cli import main
out, tests = sys.argv[1:]
# the tests' closed-form oracles load on numpy alone too
sys.path.insert(0, tests)
import oracles
params = ["--alpha", "0.2", "--beta", "1", "--lambda-inf", "1"]
assert main(["simulate", *params, "--horizon", "2000", "--seed", "3", "--out-dir", out]) == 0
assert main(["moments", *params, "--delta", "0.5"]) == 0
assert main(["estimate", "--events", out + "/events.txt", "--delta", "0.5", "--t0", "500",
             "--out-dir", out]) in (0, 3)
assert main(["validate", *params, "--horizon", "1000", "--count", "2", "--delta", "0.5",
             "--t0", "100", "--seed", "3", "--out-dir", out]) in (0, 3)
p = validate_params(0.2, 1.0, 1.0)
assert integrate_moments(p, [(0, 1), (0, 2)], 10.0)[(0, 1)] > 0.0
# enough paths that the exact batch steps them in lockstep
assert len(simulate_batch(p, 20.0, 5, 128)) == 128
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""

    def test_cli_commands_import_no_scipy(self, tmp_path):
        # a fresh process: the package runs on numpy alone
        src = str(Path(hawkesmom.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", self.SCRIPT, str(tmp_path),
                               str(Path(__file__).parent)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"


class TestPublicApi:
    """hawkesmom.__all__ is this list, every name in it resolves, and the
    closed forms that only the tests call are no longer part of it."""

    NAMES = {
        "__version__",
        # core
        "HawkesParams", "EventSequence", "validate_params",
        "intensity_at", "intensity_on_grid", "post_jump_intensities", "count_at",
        # generator
        "BivariatePolynomial", "apply_generator", "moment_closure", "integrate_moments",
        # simulate
        "Trajectory", "simulate_exact", "simulate_cluster", "sampler", "simulate_batch",
        # moments
        "MomentTriple", "mean_count", "stationary_m1", "stationary_m2", "stationary_m3",
        "moment_triple", "limit_intensity_moments",
        # estimate
        "WindowCounts", "windowed_counts", "EmpiricalMoments", "EstimateConfig",
        "EstimateReport", "empirical_moments", "solve_moment_system", "estimate",
        # io
        "parse_events",
        # errors
        "HawkesError", "ExplosionRisk", "NonPositiveBase", "NegativeInput",
        "CapacityExceeded", "WindowOutOfRange", "InsufficientData", "NoConvergence",
        "ParseError", "NegativeTimestamp", "EmptyFile",
    }
    REMOVED = ["mean_intensity", "second_moment_intensity", "increment_mean_exact",
               "helper_integrals", "integrate_polynomial_on_path"]

    def test_all_is_the_listed_set(self):
        assert len(hawkesmom.__all__) == len(set(hawkesmom.__all__))
        assert set(hawkesmom.__all__) == self.NAMES

    def test_every_name_resolves(self):
        for name in hawkesmom.__all__:
            assert getattr(hawkesmom, name) is not None, name

    @pytest.mark.parametrize("name", REMOVED)
    def test_test_only_closed_forms_are_gone(self, name):
        assert not hasattr(hawkesmom, name)
        for module in ("core", "generator", "moments", "simulate", "estimate"):
            assert not hasattr(importlib.import_module(f"hawkesmom.{module}"), name), module


class TestCmdValidate:
    def test_small_harness_with_partial_failures(self, tmp_path):
        # tiny horizon: some runs cannot even fill windows; harness keeps going
        cfg = parse("validate", "--alpha", 0.2, "--beta", 1.0, "--lambda-inf", 1.0,
                    "--horizon", 12.0, "--seed", 2, "--count", 2, "--delta", 0.5, "--t0", 0.0,
                    "--out-dir", tmp_path)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            written = cmd_validate(cfg)
        assert written == [tmp_path / "table.csv", tmp_path / "validate.json"]
        assert len(json.loads((tmp_path / "validate.json").read_text())["runs"]) == 2
        table = (tmp_path / "table.csv").read_text().strip().splitlines()
        assert table[0] == "run,alpha_hat,beta_hat,lambda_inf_hat,converged"
        assert len(table) == 3

    def test_envelope_shape_and_overlay(self, tmp_path):
        from hawkesmom import simulate_exact
        from hawkesmom.io import write_events

        p = validate_params(0.772, 1.133, 0.243, 0.243)
        real = simulate_exact(p, 600.0, 99)
        real_path = write_events(tmp_path / "real.txt", real.events)
        cfg = parse("validate", "--alpha", 0.772, "--beta", 1.133, "--lambda-inf", 0.243,
                    "--lambda0", 0.243, "--horizon", 600.0, "--seed", 1, "--count", 20,
                    "--delta", 1.0 / 60.0, "--t0", 0.0, "--out-dir", tmp_path, "--envelope",
                    "--envelope-step", 1.0, "--real-events", real_path)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            written = cmd_validate(cfg)
        assert written[-1] == tmp_path / "envelope.csv"
        counts = envelope_counts(tmp_path / "envelope.csv")
        assert counts.shape == (20, 601)
        header = (tmp_path / "envelope.csv").read_text().splitlines()[0].split(",")
        assert header == ["t"] + [f"run_{i}" for i in range(20)] + ["real"]
        # cumulative counts are nondecreasing along the grid
        assert np.all(np.diff(counts, axis=1) >= 0)

    def test_summary_over_converged_only(self, tmp_path):
        cfg = parse("validate", "--alpha", 0.2, "--beta", 1.0, "--lambda-inf", 1.0,
                    "--horizon", 3000.0, "--seed", 10, "--count", 3, "--delta", 0.5,
                    "--t0", 500.0, "--out-dir", tmp_path)
        cmd_validate(cfg)
        data = json.loads((tmp_path / "validate.json").read_text())
        assert data["summary"]["total_runs"] == 3
        runs = data["runs"]
        assert data["summary"]["converged_runs"] == len(runs) - sum(
            not r["converged"] for r in runs)

    def test_report_is_strict_json_when_fits_fail(self, tmp_path, capsys):
        # run 0 does not converge and run 1 has no window with an event: no
        # summary mean or sd, and no residual for run 1, each JSON null
        out = tmp_path / "out"
        with pytest.warns(UserWarning):
            code = main(["validate", "--alpha", "0.2", "--beta", "1", "--lambda-inf", "1",
                         "--horizon", "1", "--count", "2", "--delta", "0.5", "--t0", "0",
                         "--seed", "1", "--out-dir", str(out)])
        assert code == EXIT_OK
        data = strict_json(out / "validate.json")
        assert data["summary"]["converged_runs"] == 0
        for name in ("alpha", "beta", "lambda_inf"):
            assert data["summary"][name] == {"mean": None, "sd": None}
        assert [r["converged"] for r in data["runs"]] == [False, False]
        assert data["runs"][0]["residual_norm"] > 0.0
        assert data["runs"][1]["residual_norm"] is None
        assert "alpha: mean=nan sd=nan" in capsys.readouterr().out

    def test_report_writer_rejects_non_finite(self, tmp_path):
        path = tmp_path / "validate.json"
        path.write_text("old")
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                write_report_json(path, {"summary": {"mean": bad}})
            assert not path.exists()

    def test_byte_identical_outputs(self, tmp_path):
        outs = []
        for d in ("x", "y"):
            cfg = parse("validate", "--alpha", 0.2, "--beta", 1.0, "--lambda-inf", 1.0,
                        "--horizon", 2000.0, "--seed", 6, "--count", 2, "--delta", 0.5,
                        "--t0", 500.0, "--out-dir", tmp_path / d)
            cmd_validate(cfg)
            outs.append(tmp_path / d)
        for name in ("table.csv", "validate.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_cluster_method(self, tmp_path):
        cfg = parse("simulate", "--alpha", 0.2, "--beta", 1.0, "--lambda-inf", 1.0,
                    "--horizon", 100.0, "--seed", 8, "--method", "cluster",
                    "--out-dir", tmp_path)
        events_path, _ = cmd_simulate(cfg)
        seq = parse_events(events_path, horizon=100.0)
        assert len(seq) > 0


class TestValidateCpus:
    """validate fits each path in the worker that sampled it: the outputs,
    the warnings on stderr and the fork count are those of the one-process
    run, at any CPU count."""

    # counts each os.fork, at the CPU count given first, then runs main on
    # the remaining arguments in a fresh process, whose warning registries
    # and filters are a command line run's
    SCRIPT = """
import os
import sys

cpus = int(sys.argv[1])
os.sched_getaffinity = lambda pid: set(range(cpus))
forks, real_fork = [], os.fork


def counting_fork():
    forks.append(None)
    return real_fork()


os.fork = counting_fork
from hawkesmom.cli import main

code = main(sys.argv[2:])
print(f"forks {len(forks)}")
sys.exit(code)
"""
    # about 5000 events a path: three slices at three CPUs
    ARGS = ["validate", "--alpha", "0.2", "--beta", "1", "--lambda-inf", "1",
            "--horizon", "4000", "--count", "6", "--envelope", "--seed", "3"]
    T0 = "t0 = 0 applies stationary-limit moment formulas"
    SHORT = "only 20 windows"
    # window flags; the SHA-256 of table.csv, validate.json and envelope.csv,
    # the same at every CPU count; and how often each warning is on stderr
    RUNS = {
        "burn-in": (["--delta", "0.5", "--t0", "50"], (
            "2a30d09a4c746efa809b8850ebfa1c6152b8a664a6a451666bc6dc6e0c5fe7b4",
            "f0dcc6a7338246d082f42982cd7a61e1ec68cd27541e380e7fe938bdf1ef3f3e",
            "c91c95328ac66154c07b52a380ece62d22ea9538b6472d8ff3ff02b2b39e3c73"),
            {T0: 0, SHORT: 0}),
        "t0-zero": (["--delta", "0.5", "--t0", "0"], (
            "99dd140cb613dbf1aaa20970870d3c42bb02916e47464868d36bc7aee68edfd9",
            "6a6cce6f1f04e5a6f985e46da57b95973758de38c5ac3717a064cb77e7116479",
            "c91c95328ac66154c07b52a380ece62d22ea9538b6472d8ff3ff02b2b39e3c73"),
            {T0: 1, SHORT: 0}),
        "few-windows": (["--delta", "200", "--t0", "0"], (
            "931c5af598bdd8b84a62e586182433d5ade39a479a085f45350c5c29eed3d767",
            "5df60b9d7a1a36329cf5b0e4e53ec7577f4276dcea9ea9edc344134bc893b9a0",
            "65901ad15e8a47a8ab3ecda120b5ba765b38c7c37dccecb67f44ea5ae8f56bed"),
            {T0: 1, SHORT: 1}),
    }
    FILES = ("table.csv", "validate.json", "envelope.csv")

    def run(self, out: Path, cpus: int, argv: list[str]) -> subprocess.CompletedProcess:
        src = str(Path(hawkesmom.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("PYTHONWARNINGS", None)
        return subprocess.run([sys.executable, "-c", self.SCRIPT, str(cpus), *argv,
                               "--out-dir", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("name", list(RUNS))
    def test_outputs_stderr_and_forks_at_cpus(self, tmp_path, cpus, name):
        flags, digests, warned = self.RUNS[name]
        done = self.run(tmp_path / "out", cpus, self.ARGS + flags)
        assert done.returncode == EXIT_OK, done.stderr
        # one child per slice after the first
        assert done.stdout.splitlines()[-1] == f"forks {cpus - 1}"
        for rel, digest in zip(self.FILES, digests):
            assert hashlib.sha256((tmp_path / "out" / rel).read_bytes()).hexdigest() == digest
        lines = done.stderr.splitlines()
        assert len(lines) == 2 * sum(warned.values())  # each warning and its source line
        for text, count in warned.items():
            assert sum(text in line for line in lines) == count, done.stderr
        if cpus > 1:
            one = self.run(tmp_path / "one", 1, self.ARGS + flags)
            assert done.stderr == one.stderr

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_cap_breach_exits_4_before_any_warning(self, tmp_path, cpus):
        # path 4 alone passes 5100 events; at 2 and 3 CPUs it is in a child's
        # slice, while this process fits its own paths at t0 = 0
        done = self.run(tmp_path / "out", cpus,
                        self.ARGS + ["--delta", "0.5", "--t0", "0", "--cap", "5100"])
        assert done.returncode == EXIT_CAPACITY
        assert done.stderr.startswith("error: trajectory exceeded 5100 events")
        assert len(done.stderr.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_children_send_fits_not_paths(self, tmp_path, monkeypatch, cpus):
        simulate_module = importlib.import_module("hawkesmom.simulate")
        real_in_slices, sizes = simulate_module.in_slices, []

        def in_slices(items, work, min_work, run, collect, what):
            # the children's slices, as in_slices cuts them: one per CPU
            children = [items[len(items) * k // cpus:len(items) * (k + 1) // cpus]
                        for k in range(1, cpus)]

            def measured(file):
                part = children[len(sizes)]
                sizes.append((part.start, part.stop, os.fstat(file.fileno()).st_size))
                collect(file)

            real_in_slices(items, work, min_work, run, measured, what)

        monkeypatch.setattr(simulate_module, "in_slices", in_slices)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        cfg = parse("validate", "--alpha", 0.2, "--beta", 1.0, "--lambda-inf", 1.0,
                    "--horizon", 4000.0, "--seed", 3, "--count", 6, "--delta", 0.5,
                    "--t0", 50.0, "--envelope", "--out-dir", tmp_path)
        cmd_validate(cfg)
        assert len(sizes) == cpus - 1
        # every event lies before the horizon
        events = envelope_counts(tmp_path / "envelope.csv")[:, -1]
        for lo, hi, size in sizes:
            path_bytes = 8 * int(events[lo - cfg.seed:hi - cfg.seed].sum())
            # the paths' raw times are path_bytes; a report and a 601-count
            # envelope row are about 5 kB a path
            assert size < path_bytes / 4, (lo, hi, size, path_bytes)


class TestMainExitCodes:
    def test_ok(self, tmp_path):
        code = main(["simulate", "--alpha", "0.2", "--beta", "1.0", "--lambda-inf", "1.0",
                     "--horizon", "10", "--seed", "4", "--out-dir", str(tmp_path)])
        assert code == EXIT_OK

    def test_parse_error(self, tmp_path):
        bad = write(tmp_path, "bad.txt", "t\nnot-a-number\n")
        code = main(["estimate", "--events", str(bad), "--delta", "0.5",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_PARSE

    def test_convergence_error(self, tmp_path):
        # two events cannot fill a single window beyond t0
        sparse = write(tmp_path, "sparse.txt", "t\n0.2\n0.4\n")
        code = main(["estimate", "--events", str(sparse), "--delta", "0.5",
                     "--t0", "0.4", "--out-dir", str(tmp_path)])
        assert code == EXIT_CONVERGENCE

    def test_sub_poisson_estimate_warns_once_and_exits_3(self, tmp_path):
        # one event per window: the fit misses, warns once and is written
        events = write(tmp_path, "even.txt", "".join(f"{i}\n" for i in range(1, 2001)))
        out = tmp_path / "out"
        src = str(Path(hawkesmom.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("PYTHONWARNINGS", None)
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from hawkesmom.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "estimate", "--events", str(events),
             "--delta", "1", "--t0", "5", "--out-dir", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == EXIT_CONVERGENCE, done.stderr
        assert strict_json(out / "estimate.json")["converged"] is False
        lines = done.stderr.splitlines()
        warned = [i for i, line in enumerate(lines) if "UserWarning: " in line]
        assert len(warned) == 1, done.stderr
        assert "UserWarning: window variance is at or below the Poisson level" in lines[warned[0]]
        assert lines[-1] == "error: estimation did not converge (report written for diagnostics)"

    def test_capacity_error(self, tmp_path):
        code = main(["simulate", "--alpha", "0.95", "--beta", "1.0",
                     "--lambda-inf", "5.0", "--horizon", "5000", "--seed", "1",
                     "--cap", "500", "--out-dir", str(tmp_path)])
        assert code == EXIT_CAPACITY

    def test_validate_capacity_error(self, tmp_path):
        # enough paths that the batch steps them in lockstep
        code = main(["validate", "--alpha", "0.95", "--beta", "1.0", "--lambda-inf", "5.0",
                     "--horizon", "5000", "--count", "20", "--delta", "0.5", "--t0", "10",
                     "--seed", "1", "--cap", "500", "--out-dir", str(tmp_path)])
        assert code == EXIT_CAPACITY

    def test_validate_cluster_capacity_error_at_alpha_0(self, tmp_path):
        # about 1000 immigrants a path and no offspring
        code = main(["validate", "--alpha", "0", "--beta", "1.0", "--lambda-inf", "1.0",
                     "--horizon", "1000", "--count", "2", "--delta", "0.5", "--t0", "10",
                     "--method", "cluster", "--seed", "1", "--cap", "10",
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CAPACITY
        assert not (tmp_path / "out").exists()

    # at lambda0 = lambda_inf every immigrant proposal is kept, so the cap
    # fails before the proposals are drawn: 2e7 of them would hold 320 MB,
    # and 1e12 would ask numpy for 7.28 TiB
    @pytest.mark.parametrize("lambda_inf", ["2e7", "1e12"])
    @pytest.mark.parametrize("command", [
        ["simulate"], ["validate", "--count", "2", "--delta", "0.5", "--t0", "0"],
    ], ids=["simulate", "validate"])
    def test_cluster_cap_before_the_proposals(self, tmp_path, capsys, command, lambda_inf):
        out = tmp_path / "out"
        code = main(command + ["--alpha", "0", "--beta", "1", "--lambda-inf", lambda_inf,
                               "--horizon", "1", "--cap", "1", "--method", "cluster",
                               "--seed", "1", "--out-dir", str(out)])
        assert code == EXIT_CAPACITY
        assert capsys.readouterr().err == "error: cluster construction exceeded 1 events\n"
        assert not out.exists()

    # at lambda0 = 1e12 the rate falls from its bound, so the cap cannot fail
    # first, and about 1e12 proposals ask numpy for 7.28 TiB; validate's two
    # paths are two slices where two CPUs are available, and the fd-level
    # capture sees a child's stderr too
    @pytest.mark.skipif(_OVERCOMMIT_ALWAYS, reason="vm.overcommit_memory=1 would grant them")
    @pytest.mark.parametrize("command", [
        ["simulate"], ["validate", "--count", "2", "--delta", "0.5", "--t0", "0"],
    ], ids=["simulate", "validate"])
    def test_unallocatable_cluster_proposals_are_one_error_line(self, tmp_path, capfd,
                                                                 command):
        out = tmp_path / "out"
        code = main(command + ["--alpha", "0", "--beta", "1", "--lambda-inf", "1",
                               "--lambda0", "1e12", "--horizon", "1", "--cap", "1",
                               "--method", "cluster", "--seed", "1", "--out-dir", str(out)])
        assert code == 1
        n_prop = int(np.random.default_rng(1).poisson(1e12))
        assert capfd.readouterr().err == (f"error: cluster construction cannot allocate its "
                                          f"{n_prop} immigrant proposals\n")
        assert not out.exists()

    def test_validation_error(self, tmp_path):
        code = main(["simulate", "--alpha", "1.5", "--beta", "1.0",
                     "--lambda-inf", "1.0", "--horizon", "10", "--seed", "1",
                     "--out-dir", str(tmp_path)])
        assert code == 1

    def test_moments_ok(self):
        assert main(["moments", "--alpha", "0.2", "--beta", "1.0",
                     "--lambda-inf", "1.0", "--delta", "0.5"]) == EXIT_OK

    def test_moments_near_float64_limit_match_mpmath(self, capsys):
        # Lambda3 = 1.5667e301 fits, though alpha^3 Lambda1 = 2e400 would not
        a, b, li = 1e100, 2e100, 1e100
        code = main(["moments", "--alpha", "1e100", "--beta", "2e100", "--lambda-inf", "1e100",
                     "--delta", "1"])
        assert code == EXIT_OK
        printed = json.loads(capsys.readouterr().out)
        with mp.workdps(50):
            lam = limit_intensity_mp(a, b, li)
            want = {"Lambda1": lam[0], "Lambda2": lam[1], "Lambda3": lam[2],
                    # m1 = Lambda1 delta, with delta 1
                    "m1": lam[0], "m2": m2_mp(a, b, li, 1.0), "m3": m3_mp(a, b, li, 1.0)}
            for name, value in want.items():
                assert printed[name] == pytest.approx(float(value), rel=1e-15, abs=0.0), name

    # at 1e150 and at 1e200 m3's ** raises
    @pytest.mark.parametrize("scale", ["1e150", "1e200"])
    def test_moments_beyond_float64_is_one_error_line(self, capsys, scale):
        code = main(["moments", "--alpha", scale, "--beta", f"2{scale}", "--lambda-inf", scale,
                     "--delta", "1"])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: the moments at these parameters are beyond float64's range\n"

    def test_intensity_moments_beyond_float64_is_one_error_line(self, capsys):
        # the window moments fit float64, but Lambda2 and Lambda3 are products
        # that reach inf without raising
        code = main(["moments", "--alpha", "0", "--beta", "1", "--lambda-inf", "1e200",
                     "--delta", "1e-100"])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: the moments at these parameters are beyond float64's range\n"

    @pytest.mark.parametrize("horizon", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", [
        ["simulate"], ["simulate", "--method", "cluster"],
        ["validate", "--count", "2", "--delta", "0.5", "--t0", "10"],
    ], ids=["simulate_exact", "simulate_cluster", "validate"])
    def test_bad_horizon_writes_nothing(self, tmp_path, capsys, command, horizon):
        out = tmp_path / "out"
        code = main(command + ["--alpha", "0.2", "--beta", "1.0", "--lambda-inf", "1.0",
                               f"--horizon={horizon}", "--seed", "1", "--out-dir", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: horizon must be > 0 and finite, got {float(horizon)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("horizon", ["-1", "nan", "inf"])
    def test_bad_estimate_horizon_writes_nothing(self, tmp_path, monkeypatch, capsys, horizon):
        events = write(tmp_path, "ev.txt", "t\n0.5\n1.0\n2.0\n")
        monkeypatch.setattr(Path, "open", lambda *a, **k: pytest.fail("read"))
        out = tmp_path / "out"
        code = main(["estimate", "--events", str(events), "--delta", "0.5", "--t0", "0.1",
                     f"--horizon={horizon}", "--out-dir", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: horizon must be finite and >= 0, got {float(horizon)}\n")
        assert not out.exists()

    def test_unit_flag_is_an_argparse_error(self, tmp_path, capsys):
        # timestamps keep the file's scale: there is no --unit to convert them
        events = write(tmp_path, "ev.txt", "t\n0.5\n1.0\n2.0\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", "--events", str(events), "--delta", "0.5", "--unit", "minutes",
                  "--out-dir", str(out)])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --unit minutes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("step", ["0", "-0.5", "nan", "inf"])
    def test_bad_grid_step_writes_nothing(self, tmp_path, capsys, step):
        out = tmp_path / "out"
        code = main(["simulate", "--alpha", "0.2", "--beta", "1.0", "--lambda-inf", "1.0",
                     "--horizon", "10", "--seed", "4", "--grid-step", step,
                     "--out-dir", str(out)])
        assert code == 1
        assert "error: --grid-step" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("step", [
        # 10^13 points, 72.8 TiB: more than any heuristic overcommit grants
        pytest.param("1e-12", marks=pytest.mark.skipif(
            _OVERCOMMIT_ALWAYS, reason="vm.overcommit_memory=1 would grant the grid")),
        "1e-300",  # 10^301 points: beyond numpy's maximum array size
    ])
    def test_ungrantable_grid_writes_nothing(self, tmp_path, capsys, step):
        out = tmp_path / "out"
        code = main(["simulate", "--alpha", "0.2", "--beta", "1.0", "--lambda-inf", "1.0",
                     "--horizon", "10", "--seed", "1", "--grid-step", step,
                     "--out-dir", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        # the count to three significant digits, not all 302 of 10^301 + 1
        points = {"1e-12": "1e+13", "1e-300": "1e+301"}[step]
        assert err == (f"error: --grid-step {float(step)} asks for {points} grid points, "
                       f"more than can be allocated\n")
        assert not out.exists()

    @pytest.mark.parametrize("step", [
        "1e-310", "5e-324",  # subnormal: horizon / step is inf
        repr(10 / 2**63),  # 2**63 + 1 points, past numpy's index range
    ])
    def test_uncountable_grid_writes_nothing(self, tmp_path, capsys, step):
        out = tmp_path / "out"
        code = main(["simulate", "--alpha", "0.2", "--beta", "1.0", "--lambda-inf", "1.0",
                     "--horizon", "10", "--seed", "1", "--grid-step", step,
                     "--out-dir", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --grid-step {float(step)} asks for ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["simulate"], ["validate", "--count", "2", "--delta", "0.5", "--t0", "5"],
    ], ids=["simulate", "validate"])
    def test_negative_seed_writes_nothing(self, tmp_path, monkeypatch, capsys, command):
        self.forbid_drawing(monkeypatch)
        out = tmp_path / "out"
        code = main(command + ["--alpha", "0.2", "--beta", "1.0", "--lambda-inf", "1.0",
                               "--horizon", "10", "--seed", "-1", "--out-dir", str(out)])
        assert code == 1
        assert capsys.readouterr() == ("", "error: seed must be >= 0, got -1\n")
        assert not out.exists()

    @pytest.mark.parametrize("env", ["7", "abc", "-1", "1.5", ""],
                             ids=["seed", "letters", "negative", "fraction", "empty"])
    def test_bad_env_seed_writes_nothing(self, tmp_path, capsys, monkeypatch, env):
        # HAWKES_SEED is no seed source: without --seed the parser exits 2
        monkeypatch.setenv("HAWKES_SEED", env)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main(["validate", "--alpha", "0.2", "--beta", "1.0", "--lambda-inf", "1.0",
                  "--horizon", "10", "--count", "2", "--delta", "0.5",
                  "--out-dir", str(out)])
        assert excinfo.value.code == 2
        assert "the following arguments are required: --seed" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def forbid_sampling(monkeypatch):
        """Make any sampling by the CLI fail the test."""
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampling started")

        monkeypatch.setattr("hawkesmom.cli.sampler", no_sampling)
        monkeypatch.setattr("hawkesmom.cli.map_batch", no_sampling)

    @staticmethod
    def forbid_drawing(monkeypatch):
        """Make any generator made or any process forked fail the test."""
        def no_draw(*args, **kwargs):
            raise AssertionError("drawing started")

        monkeypatch.setattr("hawkesmom.simulate.generators", no_draw)
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        monkeypatch.setattr(os, "fork", no_draw)

    def run_windows(self, tmp_path, monkeypatch, command, flags):
        """main() for ``command`` plus ``flags``; sampling fails the test."""
        self.forbid_sampling(monkeypatch)
        params = ["--alpha", "0.2", "--beta", "1.0", "--lambda-inf", "1.0"]
        out = ["--out-dir", str(tmp_path / "out")]
        if command == "moments":
            argv = ["moments", *params]
        elif command == "estimate":
            events = write(tmp_path, "ev.txt", "t\n0.5\n1.0\n2.0\n")
            argv = ["estimate", "--events", str(events), *out]
        else:
            argv = ["validate", *params, "--horizon", "200", "--count", "2", "--seed", "4", *out]
        return main(argv + flags)

    @pytest.mark.parametrize("delta", ["nan", "inf", "0"])
    @pytest.mark.parametrize("command", ["moments", "estimate", "validate"])
    def test_bad_delta_writes_nothing(self, tmp_path, monkeypatch, capsys, command, delta):
        assert self.run_windows(tmp_path, monkeypatch, command, ["--delta", delta]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: delta must be > 0 and finite, got {float(delta)}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("delta, windows", [
        ("1e-14", "1e+16"),  # past 2^53, where t0 + j delta stops naming each window
        ("1e-300", "1e+302"),
        ("5e-324", "inf"),  # subnormal: the count is inf
    ])
    @pytest.mark.parametrize("command", ["estimate", "validate"])
    def test_ungrantable_window_count_writes_nothing(self, tmp_path, monkeypatch, capsys,
                                                     command, delta, windows):
        # a 100-unit record from t0 = 0; validate fails before it samples
        self.forbid_sampling(monkeypatch)
        out = tmp_path / "out"
        if command == "estimate":
            events = write(tmp_path, "ev.txt", "".join(f"{i}\n" for i in range(1, 101)))
            argv = ["estimate", "--events", str(events)]
        else:
            argv = ["validate", "--alpha", "0.2", "--beta", "1.0", "--lambda-inf", "1.0",
                    "--horizon", "100", "--count", "2", "--seed", "4"]
        code = main(argv + ["--delta", delta, "--t0", "0", "--out-dir", str(out)])
        assert code == 1
        assert capsys.readouterr() == ("", (
            f"error: delta {float(delta)} asks for {windows} windows in [0.0, 100.0], "
            f"more than 2^53\n"))
        assert not out.exists()

    def test_window_count_below_2_53_fits(self, tmp_path, capsys):
        # 10^14 windows, one event in each of 100: the pairs hold 100
        # windows, not 10^14
        events = write(tmp_path, "ev.txt", "".join(f"{i}\n" for i in range(1, 101)))
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="t0 = 0"):
            code = main(["estimate", "--events", str(events), "--delta", "1e-12", "--t0", "0",
                         "--out-dir", str(out)])
        assert code == EXIT_OK
        capsys.readouterr()
        report = strict_json(out / "estimate.json")
        assert report["window_stats"]["count"] == 10**14
        assert "boundary_alpha" in report["flags"]

    @pytest.mark.parametrize("t0", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("command", ["estimate", "validate"])
    def test_bad_t0_writes_nothing(self, tmp_path, monkeypatch, capsys, command, t0):
        flags = ["--delta", "0.5", f"--t0={t0}"]
        assert self.run_windows(tmp_path, monkeypatch, command, flags) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: t0 must be finite and >= 0, got {float(t0)}\n"
        assert not (tmp_path / "out").exists()

    # checked before the events file is read or any path is sampled; a
    # non-finite start would pin the fit to the scan's edge and put
    # Infinity, which is not JSON, into the report
    @pytest.mark.parametrize("init", [["0.5", "inf", "2"], ["nan", "1.5", "2"],
                                      ["0.5", "1.5", "inf"], ["1.5", "1", "1"]])
    @pytest.mark.parametrize("command", ["estimate", "validate"])
    def test_bad_init_writes_nothing(self, tmp_path, monkeypatch, capsys, command, init):
        monkeypatch.setattr("hawkesmom.cli.parse_events", lambda *a, **k: pytest.fail("read"))
        flags = ["--delta", "0.5", "--t0", "1", "--init", *init]
        assert self.run_windows(tmp_path, monkeypatch, command, flags) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: start point must be finite with beta > alpha > 0, "
                       f"lambda_inf > 0; got {tuple(map(float, init))}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cap", ["0", "-3"])
    @pytest.mark.parametrize("command", [
        ["simulate"], ["validate", "--count", "2", "--delta", "0.5", "--t0", "10"],
    ], ids=["simulate", "validate"])
    def test_bad_cap_writes_nothing(self, tmp_path, monkeypatch, capsys, command, cap):
        self.forbid_drawing(monkeypatch)
        out = tmp_path / "out"
        code = main(command + ["--alpha", "0.2", "--beta", "1.0", "--lambda-inf", "1.0",
                               "--horizon", "50", "--seed", "1", f"--cap={cap}",
                               "--out-dir", str(out)])
        assert code == 1
        assert capsys.readouterr() == ("", f"error: cap must be >= 1, got {cap}\n")
        assert not out.exists()

    @pytest.mark.parametrize("text, code, message", [
        (None, 1, "No such file or directory"),
        ("t\n1.0\n2.0 3.0\n", EXIT_PARSE, "real.txt:3: cannot parse timestamp '2.0 3.0'"),
    ], ids=["missing", "bad_line"])
    def test_bad_real_events_writes_nothing(self, tmp_path, monkeypatch, capsys, text, code,
                                            message):
        self.forbid_sampling(monkeypatch)
        real = tmp_path / "real.txt"
        if text is not None:
            real.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        assert main(["validate", "--alpha", "0.2", "--beta", "1.0", "--lambda-inf", "1.0",
                     "--horizon", "100", "--count", "2", "--delta", "0.5", "--t0", "0",
                     "--seed", "1", "--envelope", "--real-events", str(real),
                     "--out-dir", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert os.listdir(out) == []

    def test_one_trajectory_writes_nothing(self, tmp_path, monkeypatch, capsys):
        self.forbid_sampling(monkeypatch)
        out = tmp_path / "out"
        assert main(["validate", "--alpha", "0.2", "--beta", "1.0", "--lambda-inf", "1.0",
                     "--horizon", "100", "--count", "1", "--delta", "0.5", "--t0", "10",
                     "--seed", "1", "--out-dir", str(out)]) == 1
        assert capsys.readouterr() == ("", "error: --count must be >= 2, got 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag, text, message", [
        ("--real-events", None, "--real-events is overlaid on the envelope"),
        ("--real-events", "t\n1.0\n2.0\n", "--real-events is overlaid on the envelope"),
        ("--envelope-step", None, "--envelope-step spaces the envelope's grid"),
    ], ids=["missing", "readable", "envelope_step"])
    def test_real_events_without_envelope_writes_nothing(self, tmp_path, monkeypatch, capsys,
                                                         flag, text, message):
        self.forbid_sampling(monkeypatch)
        real = tmp_path / "real.txt"
        if text is not None:
            real.write_text(text, encoding="utf-8")
        value = str(real) if flag == "--real-events" else "1.0"
        out = tmp_path / "out"
        assert main(["validate", "--alpha", "0.2", "--beta", "1.0", "--lambda-inf", "1.0",
                     "--horizon", "100", "--count", "2", "--delta", "0.5", "--t0", "10",
                     "--seed", "1", flag, value, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}; it needs --envelope\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        # the default --t0 of 3000
        (["--horizon", "100", "--delta", "0.5"],
         "window start t0=3000.0 leaves no room before horizon 100.0"),
        (["--horizon", "10", "--t0", "0", "--delta", "20"],
         "no window of length 20.0 fits in [0.0, 10.0]"),
    ], ids=["t0_past_horizon", "delta_past_horizon"])
    def test_no_whole_window_validate_exits_3_before_sampling(self, tmp_path, monkeypatch,
                                                              capsys, flags, message):
        # whether a fit has a window does not depend on the path
        self.forbid_sampling(monkeypatch)
        out = tmp_path / "out"
        code = main(["validate", "--alpha", "0.2", "--beta", "1.0", "--lambda-inf", "1.0",
                     "--count", "2", "--seed", "1", "--out-dir", str(out), *flags])
        assert code == EXIT_CONVERGENCE
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_empty_windows_estimate_exits_3(self, tmp_path, capsys):
        # every event lies before t0 or beyond the horizon
        events = write(tmp_path, "ev.txt", "t\n0.1\n0.2\n5\n")
        with pytest.warns(UserWarning):
            code = main(["estimate", "--events", str(events), "--delta", "0.5", "--t0", "1",
                         "--horizon", "4", "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONVERGENCE
        assert capsys.readouterr().err == "error: all 6 count windows are empty\n"

    def test_empty_windows_keep_validate_running(self, tmp_path):
        # run 1 has no event in [0, 1]; its row is kept as non-converged
        out = tmp_path / "out"
        with pytest.warns(UserWarning):
            code = main(["validate", "--alpha", "0.2", "--beta", "1", "--lambda-inf", "1",
                         "--horizon", "1", "--count", "2", "--delta", "0.5", "--t0", "0",
                         "--seed", "1", "--out-dir", str(out)])
        assert code == EXIT_OK
        rows = (out / "table.csv").read_text().splitlines()
        assert rows[2] == "1,nan,nan,nan,False"
        runs = json.loads((out / "validate.json").read_text())["runs"]
        assert runs[1]["flags"] == ["failed:InsufficientData"]

    @staticmethod
    def no_admissible_fit(monkeypatch, run):
        """Window moments of the ``run``-th fit (from 0) that no admissible
        parameters match: beta == alpha in floats along the whole curve."""
        # the package's estimate attribute is the function, not the module
        estimate_module = importlib.import_module("hawkesmom.estimate")
        real, calls = estimate_module.empirical_moments, []

        def moments(events, t0, delta):
            calls.append(None)
            emp = real(events, t0, delta)
            if len(calls) - 1 != run:
                return emp
            return estimate_module.EmpiricalMoments(
                triple=hawkesmom.MomentTriple(1.0, 1e40 + 2.0, 2.0, delta),
                window_count=emp.window_count, t0=t0)

        monkeypatch.setattr(estimate_module, "empirical_moments", moments)

    def test_no_admissible_fit_keeps_validate_running(self, tmp_path, monkeypatch):
        self.no_admissible_fit(monkeypatch, run=1)
        out = tmp_path / "out"
        code = main(["validate", "--alpha", "0.4", "--beta", "1", "--lambda-inf", "1",
                     "--horizon", "1000", "--count", "3", "--delta", "0.5", "--t0", "10",
                     "--seed", "1", "--out-dir", str(out)])
        assert code == EXIT_OK
        rows = (out / "table.csv").read_text().splitlines()
        assert rows[2] == "1,nan,nan,nan,False"
        runs = json.loads((out / "validate.json").read_text())["runs"]
        assert runs[1]["flags"] == ["failed:NoConvergence"]
        assert runs[0]["params_hat"] is not None and runs[2]["params_hat"] is not None

    def test_one_converged_run_has_a_mean_and_no_sd(self, tmp_path, monkeypatch):
        self.no_admissible_fit(monkeypatch, run=1)
        out = tmp_path / "out"
        code = main(["validate", "--alpha", "0.4", "--beta", "1", "--lambda-inf", "1",
                     "--horizon", "1000", "--count", "2", "--delta", "0.5", "--t0", "10",
                     "--seed", "1", "--out-dir", str(out)])
        assert code == EXIT_OK
        data = strict_json(out / "validate.json")
        assert data["summary"]["converged_runs"] == 1
        assert data["runs"][0]["converged"]
        for name in ("alpha", "beta", "lambda_inf"):
            assert data["summary"][name] == {"mean": data["runs"][0]["params_hat"][name],
                                             "sd": None}
        assert data["runs"][1]["residual_norm"] is None

    def test_no_admissible_fit_estimate_exits_3(self, tmp_path, monkeypatch, capsys):
        self.no_admissible_fit(monkeypatch, run=0)
        events = write(tmp_path, "ev.txt", "".join(f"{0.37 * i}\n" for i in range(1, 100)))
        out = tmp_path / "out"
        code = main(["estimate", "--events", str(events), "--delta", "0.5", "--t0", "1",
                     "--out-dir", str(out)])
        assert code == EXIT_CONVERGENCE
        assert capsys.readouterr().err.startswith("error: no admissible parameters")
        assert not out.exists()

    @pytest.mark.parametrize("step", ["0", "-1", "nan"])
    def test_bad_envelope_step_writes_nothing(self, tmp_path, capsys, step):
        out = tmp_path / "out"
        code = main(["validate", "--alpha", "0.2", "--beta", "1.0", "--lambda-inf", "1.0",
                     "--horizon", "200", "--count", "2", "--delta", "0.5", "--t0", "10",
                     "--seed", "4", "--envelope", "--envelope-step", step,
                     "--out-dir", str(out)])
        assert code == 1
        assert "error: --envelope-step" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("step", ["1e-310", "5e-324"])
    def test_subnormal_envelope_step_writes_nothing(self, tmp_path, monkeypatch, capsys, step):
        self.forbid_sampling(monkeypatch)
        out = tmp_path / "out"
        code = main(["validate", "--alpha", "0.2", "--beta", "1.0", "--lambda-inf", "1.0",
                     "--horizon", "200", "--count", "2", "--delta", "0.5", "--t0", "10",
                     "--seed", "4", "--envelope", "--envelope-step", step,
                     "--out-dir", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: --envelope-step {float(step)} asks for inf grid points, " \
                      "more than can be allocated\n"
        assert not out.exists()


class TestCliGoldens:
    """SHA-256 of CLI outputs for fixed seeds, so a refactor that changes any
    byte shows.  Recorded on x86-64 Linux (glibc libm, numpy 2).  Every exp,
    log, expm1 and log1p behind these files is libm's, through _libm (numpy's
    reversed-output loop where its probe passes, the map over math.*
    otherwise), so the bytes do not depend on which SIMD code numpy
    dispatches to; another libm may still move their last digits.
    intensity.csv's post-jump values come from the doubling scan in
    core._excess_after_events, within a few ulp (under 1e-15 relative) of a
    per-event exp recurrence on these paths."""

    RUNS = {
        "exact": ["simulate", "--alpha", "0.15", "--beta", "1", "--lambda-inf", "1",
                  "--lambda0", "1.2", "--horizon", "20", "--seed", "7"],
        "cluster": ["simulate", "--method", "cluster", "--alpha", "0.2", "--beta", "1",
                    "--lambda-inf", "1", "--horizon", "20", "--seed", "8"],
        "validate": ["validate", "--alpha", "0.2", "--beta", "1", "--lambda-inf", "1",
                     "--horizon", "2000", "--count", "3", "--delta", "0.5", "--t0", "500",
                     "--seed", "6"],
    }
    DIGESTS = {
        "exact/events.txt": "288ad1ac9c75632e982731787c2c325be3c20fe00842a8c139d1f4094453c950",
        "exact/intensity.csv": "dba7ea9bd1f9a5572efbec20c7963f64b4591e84b17d6148f7667dbe52aab406",
        "cluster/events.txt": "417fd299715f36cbb8add3e81acc7edbce42935fefa47d1701739dd509c7a347",
        "cluster/intensity.csv":
            "a958b327d1260409434077cdc899aae43d7458b5abca5544e234e5c09ab2bed8",
        "validate/table.csv": "0523b847adf913b95f249c129f30d6c03cdd5b00a4e7ef50f95b2d6631ac5907",
        "validate/validate.json":
            "db103563b74679fa45c726cc5a41011a1bbb9ea19db3706e6c663968c12180bd",
    }

    def test_output_digests(self, tmp_path):
        for name, argv in self.RUNS.items():
            assert main(argv + ["--out-dir", str(tmp_path / name)]) == EXIT_OK
        for rel, digest in self.DIGESTS.items():
            assert hashlib.sha256((tmp_path / rel).read_bytes()).hexdigest() == digest, rel


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks(language):
    """The README's fenced code blocks in ``language``."""
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)


class TestReadmeExamples:
    """The README's examples run as documented, and it names no flag the
    command line does not have."""

    def test_python_quick_start_runs(self, capsys):
        [code] = readme_blocks("python")
        exec(compile(code, str(README), "exec"), {})
        assert "True" in capsys.readouterr().out  # report.converged

    def test_commands_parse(self):
        commands = [shlex.split(line) for block in readme_blocks("sh")
                    for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("hawkesmom ")]
        assert sorted(argv[1] for argv in commands) == [
            "estimate", "moments", "simulate", "validate"]
        for argv in commands:
            build_parser().parse_args(argv[1:])  # an unknown flag exits 2

    def test_every_flag_named_exists(self):
        [subcommands] = [a.choices for a in build_parser()._actions if a.choices]
        known = {flag for sub in subcommands.values() for action in sub._actions
                 for flag in action.option_strings}
        named = {flag for line in README.read_text(encoding="utf-8").splitlines()
                 if "pip install" not in line  # pip's own flags
                 for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", line)}
        assert named and named <= known, sorted(named - known)
