"""Event-file ingestion, unit handling, CLI subcommands and exit codes."""

import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hawkesmom
from hawkesmom import (
    EventSequence,
    EmptyFile,
    NegativeTimestamp,
    ParseError,
    convert_unit,
    parse_events,
    validate_params,
)
from hawkesmom.cli import (
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


class TestParseEvents:
    def test_header_and_ties(self, tmp_path):
        path = write(tmp_path, "ev.txt", "t\n0.5\n1.0\n1.0\n")
        seq = parse_events(path)
        assert list(seq.times) == [0.5, 1.0, 1.0]
        assert seq.horizon == 1.0
        assert seq.unit == "minutes"

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

    def test_cascade_shape_horizon(self, tmp_path):
        # 448 events spread over 600 minutes: horizon from the data
        rng = np.random.default_rng(4)
        times = np.sort(rng.uniform(0.0, 600.0, size=447))
        lines = "\n".join(repr(float(t)) for t in [*times, 600.0])
        path = write(tmp_path, "cascade.txt", "t\n" + lines + "\n")
        seq = parse_events(path, unit="minutes")
        assert len(seq) == 448
        assert seq.horizon == 600.0

    def test_horizon_truncation_flagged(self, tmp_path):
        path = write(tmp_path, "ev.txt", "1.0\n5.0\n9.0\n")
        with pytest.warns(UserWarning, match="dropping"):
            seq = parse_events(path, horizon=6.0)
        assert list(seq.times) == [1.0, 5.0]
        assert seq.horizon == 6.0

    @pytest.mark.parametrize("horizon", [-1.0, -math.inf, math.inf, math.nan])
    def test_bad_horizon_rejected_before_the_file_is_opened(self, tmp_path, horizon):
        with pytest.raises(ValueError, match=f"horizon must be finite and >= 0, got {horizon}"):
            parse_events(tmp_path / "missing.txt", horizon=horizon)

    def test_unit_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        minutes = np.sort(rng.uniform(0, 30, size=50))
        p_min = write(tmp_path, "minutes.txt", "\n".join(repr(float(t)) for t in minutes))
        p_sec = write(tmp_path, "seconds.txt", "\n".join(repr(float(t) * 60.0) for t in minutes))
        direct = parse_events(p_min, unit="minutes")
        converted = convert_unit(parse_events(p_sec, unit="seconds"), "minutes")
        assert np.allclose(converted.times, direct.times, rtol=1e-12, atol=0.0)
        assert converted.horizon == pytest.approx(direct.horizon, rel=1e-12)

    def test_unknown_unit_conversion_rejected(self, tmp_path):
        path = write(tmp_path, "ev.txt", "1.0\n")
        seq = parse_events(path, unit="fortnights")
        with pytest.raises(ValueError):
            convert_unit(seq, "minutes")


class TestRoundTrips:
    @settings(max_examples=100, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(times=st.lists(st.floats(min_value=0.0, max_value=1e15), min_size=1, max_size=50))
    def test_write_then_parse_is_bitwise(self, tmp_path, times):
        times = np.sort(np.array(times))
        events = EventSequence(times=times, horizon=float(times[-1]))
        parsed = parse_events(write_events(tmp_path / "ev.txt", events), unit="unitless")
        assert parsed.times.tobytes() == times.tobytes()
        assert parsed.horizon == events.horizon

    # seconds -> days multiplies by ~1.2e-5; below ~1e-290 s the day value
    # would be subnormal and lose bits, which no timestamp comes near
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(times=st.lists(st.just(0.0) | st.floats(min_value=1e-290, max_value=1e15),
                          min_size=1, max_size=50))
    def test_seconds_to_days_and_back_within_4_ulp(self, times):
        times = np.sort(np.array(times))
        events = EventSequence(times=times, horizon=float(times[-1]), unit="seconds")
        back = convert_unit(convert_unit(events, "days"), "seconds")
        assert back.unit == "seconds"
        assert np.all(np.abs(back.times - times) <= 4 * np.spacing(times))


class TestWriteIntensityCsv:
    def test_chunked_rows_match_per_row_format(self, tmp_path):
        rng = np.random.default_rng(31)
        n = 2 * _CSV_CHUNK_ROWS + 123
        grid = np.arange(n) * 0.01
        values = rng.lognormal(0.0, 3.0, size=n)
        values[:4] = [1.0, 0.1, 1e-300, 12345678901234.5]
        path = write_intensity_csv(tmp_path / "intensity.csv", grid, values)
        expected = "t,intensity\n" + "".join(
            f"{float(t)!r},{float(v)!r}\n" for t, v in zip(grid, values))
        assert path.read_bytes() == expected.encode("utf-8")

    def test_mismatched_lengths_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="grid has 3 points but values has 2"):
            write_intensity_csv(tmp_path / "intensity.csv", np.arange(3.0), np.ones(2))
        assert not (tmp_path / "intensity.csv").exists()

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
        forks = []
        real_fork = os.fork

        def counting_fork():
            forks.append(os.getpid())
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        default_workers = min(len(os.sched_getaffinity(0)), 3)
        default = write_intensity_csv(tmp_path / "default.csv", grid, values).read_bytes()
        assert len(forks) == default_workers - 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        three = write_intensity_csv(tmp_path / "three.csv", grid, values).read_bytes()
        assert len(forks) == default_workers - 1 + 2
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = write_intensity_csv(tmp_path / "serial.csv", grid, values).read_bytes()
        assert len(forks) == default_workers - 1 + 2
        assert default == serial
        assert three == serial
        assert serial.count(b"\n") == n + 1
        for v in (b",0.30000000000000004\n", b",1e-05\n", b",1e+16\n", b",1.0\n"):
            assert v in serial

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
        with pytest.raises(RuntimeError, match=f"^worker failed on chunk {failing_chunk}$"):
            write_intensity_csv(tmp_path / "intensity.csv", np.arange(n * 1.0), np.ones(n))
        assert os.listdir(tmp_path) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failed_worker_raises_and_cli_exits_1(self, tmp_path, monkeypatch, capsys):
        self.fail_in_worker(monkeypatch, lambda k: os._exit(1))
        n = 2 * MIN_ROWS_PER_WORKER
        with pytest.raises(OSError, match=f"formatting rows {n // 2} to {n - 1} exited with "
                                          f"status 1$"):
            write_intensity_csv(tmp_path / "intensity.csv", np.arange(n * 1.0), np.ones(n))
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
        with pytest.raises(RuntimeError, match="parent failed"):
            write_intensity_csv(tmp_path / "intensity.csv", np.arange(n * 1.0), np.ones(n))
        assert os.listdir(tmp_path) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_small_grid_never_forks(self, tmp_path, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        n = 2 * MIN_ROWS_PER_WORKER - 1
        path = write_intensity_csv(tmp_path / "intensity.csv", np.arange(n * 1.0), np.ones(n))
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
        "intensity": lambda path: write_intensity_csv(path, grid, values),
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
        fresh = write_intensity_csv(tmp_path / "fresh.csv", grid, values).read_bytes()
        forks = []
        real_fork = os.fork

        def counting_fork():
            forks.append(None)
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        for old in (b"x" * (len(fresh) + MIN_ROWS_PER_WORKER), b"y" * (len(fresh) // 3)):
            (tmp_path / "out.csv").write_bytes(old)
            assert write_intensity_csv(tmp_path / "out.csv", grid, values).read_bytes() == fresh
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

        def rows():
            for i in range(10_000):  # more than one buffer reaches the file first
                yield i, 0.1, 0.2, 0.3, True
            raise RuntimeError("rows failed")

        with pytest.raises(RuntimeError, match="rows failed"):
            write_table_csv(path, rows())
        assert os.listdir(tmp_path) == []

    def test_failing_worker_removes_the_old_file(self, tmp_path, monkeypatch):
        def fail(k):
            if k == 2:
                raise RuntimeError("worker failed")

        TestWriteIntensityCsv.fail_in_worker(monkeypatch, fail)
        path = tmp_path / "intensity.csv"
        n = 2 * MIN_ROWS_PER_WORKER
        path.write_bytes(b"x" * (4 * n))
        with pytest.raises(RuntimeError, match="^worker failed$"):
            write_intensity_csv(path, np.arange(n * 1.0), np.ones(n))
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
        args = parse("validate", *self.PARAMS, "--horizon", 10, "--delta", 0.5)
        assert (args.t0, args.count, args.init, args.method, args.cap, args.envelope) == (
            3000.0, 20, DEFAULT_INIT, "exact", DEFAULT_EVENT_CAP, False)
        assert (args.lambda0, args.seed, args.envelope_step, args.real_events_path) == (
            None, None, None, None)
        assert (args.unit, args.out_dir) == ("minutes", Path("."))

    def test_estimate(self):
        args = parse("estimate", "--events", "ev.txt", "--delta", 0.5)
        assert (args.t0, args.horizon, args.unit) == (0.0, None, "minutes")
        assert (args.init, args.out_dir) == (DEFAULT_INIT, Path("."))

    def test_simulate(self):
        args = parse("simulate", *self.PARAMS, "--horizon", 10)
        assert (args.method, args.grid_step, args.cap, args.unit) == (
            "exact", 0.01, DEFAULT_EVENT_CAP, "minutes")
        assert (args.lambda0, args.seed, args.out_dir) == (None, None, Path("."))

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

    def test_events_file_round_trips(self, tmp_path):
        cfg = parse("simulate", "--alpha", 0.2, "--beta", 1.0, "--lambda-inf", 1.0,
                    "--horizon", 50.0, "--seed", 11, "--out-dir", tmp_path)
        events_path, _ = cmd_simulate(cfg)
        seq = parse_events(events_path, horizon=50.0)
        assert len(seq) > 0

    def test_seed_required(self, tmp_path, monkeypatch):
        monkeypatch.delenv("HAWKES_SEED", raising=False)
        cfg = parse("simulate", "--alpha", 0.2, "--beta", 1.0, "--lambda-inf", 1.0,
                    "--horizon", 10.0, "--out-dir", tmp_path)
        with pytest.raises(ValueError, match="seed"):
            cmd_simulate(cfg)

    def test_env_seed_fallback_and_flag_precedence(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HAWKES_SEED", "123")
        params = ["--alpha", 0.2, "--beta", 1.0, "--lambda-inf", 1.0, "--horizon", 30.0]
        cfg_env = parse("simulate", *params, "--out-dir", tmp_path / "env")
        cfg_flag = parse("simulate", *params, "--seed", 123, "--out-dir", tmp_path / "flag")
        a = cmd_simulate(cfg_env)[0].read_bytes()
        b = cmd_simulate(cfg_flag)[0].read_bytes()
        assert a == b
        cfg_diff = parse("simulate", *params, "--seed", 124, "--out-dir", tmp_path / "diff")
        assert cmd_simulate(cfg_diff)[0].read_bytes() != a


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
                    "--init", 0.5, 1.5, 2.0, "--out-dir", tmp_path, "--unit", "unitless")
        report = cmd_estimate(cfg)
        data = json.loads((tmp_path / "estimate.json").read_text())
        assert set(data["params_hat"]) == {"alpha", "beta", "lambda_inf"}
        for key in ("residual_norm", "iterations", "converged", "window_stats"):
            assert key in data
        assert set(data["window_stats"]) == {"m1", "m2", "m3", "delta", "count", "t0"}
        assert data["converged"] == report.converged
        assert data["params_hat"]["alpha"] == report.params_hat.alpha

    def test_retweet_workflow_shape(self, tmp_path):
        # minute-unit cascade fit with the documented starting point
        from hawkesmom import simulate_exact
        from hawkesmom.io import write_events

        p = validate_params(0.772, 1.133, 0.243, 0.243)
        traj = simulate_exact(p, 600.0, 13, unit="minutes")
        path = write_events(tmp_path / "cascade.txt", traj.events)
        cfg = parse("estimate", "--events", path, "--delta", 1.0 / 60.0,
                    "--t0", 0.0, "--init", 0.5, 1.5, 0.75, "--out-dir", tmp_path)
        with pytest.warns(UserWarning):
            report = cmd_estimate(cfg)
        hat = report.params_hat
        assert hat.beta > hat.alpha > 0.0 and hat.lambda_inf > 0.0
        assert "t0_in_transient" in report.flags


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
out = sys.argv[1]
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
        done = subprocess.run([sys.executable, "-c", self.SCRIPT, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"


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
        real = simulate_exact(p, 600.0, 99, unit="minutes")
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

        def in_slices(bounds, work, collect, what):
            def measured(lo, hi, file):
                sizes.append((lo, hi, os.fstat(file.fileno()).st_size))
                collect(lo, hi, file)

            real_in_slices(bounds, work, measured, what)

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

    def test_validation_error(self, tmp_path):
        code = main(["simulate", "--alpha", "1.5", "--beta", "1.0",
                     "--lambda-inf", "1.0", "--horizon", "10", "--seed", "1",
                     "--out-dir", str(tmp_path)])
        assert code == 1

    def test_moments_ok(self):
        assert main(["moments", "--alpha", "0.2", "--beta", "1.0",
                     "--lambda-inf", "1.0", "--delta", "0.5"]) == EXIT_OK

    # at 1e150 m3 overflows, and numpy's power rows with it; at 1e100 the
    # window moments fit but Lambda2 and Lambda3 do not
    @pytest.mark.parametrize("scale", ["1e150", "1e100"])
    def test_moments_beyond_float64_is_one_error_line(self, capsys, scale):
        code = main(["moments", "--alpha", scale, "--beta", f"2{scale}", "--lambda-inf", scale,
                     "--delta", "1"])
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
        assert "error: horizon must be positive and finite" in capsys.readouterr().err
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
        assert err.startswith(f"error: --grid-step {float(step)} asks for ")
        assert f"{int(round(10 / float(step))) + 1} grid points" in err
        assert not out.exists()

    @staticmethod
    def forbid_sampling(monkeypatch):
        """Make any sampling by the CLI fail the test."""
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampling started")

        monkeypatch.setattr("hawkesmom.cli.sampler", no_sampling)
        monkeypatch.setattr("hawkesmom.cli.map_batch", no_sampling)

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
        assert err == f"error: --delta must be positive and finite, got {float(delta)}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("t0", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("command", ["estimate", "validate"])
    def test_bad_t0_writes_nothing(self, tmp_path, monkeypatch, capsys, command, t0):
        flags = ["--delta", "0.5", f"--t0={t0}"]
        assert self.run_windows(tmp_path, monkeypatch, command, flags) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --t0 must be finite and >= 0, got {float(t0)}\n"
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
        self.forbid_sampling(monkeypatch)
        out = tmp_path / "out"
        code = main(command + ["--alpha", "0.2", "--beta", "1.0", "--lambda-inf", "1.0",
                               "--horizon", "50", "--seed", "1", f"--cap={cap}",
                               "--out-dir", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: --cap must be at least 1, got {cap}\n"
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

    @pytest.mark.parametrize("text", [None, "t\n1.0\n2.0\n"], ids=["missing", "readable"])
    def test_real_events_without_envelope_writes_nothing(self, tmp_path, monkeypatch, capsys,
                                                         text):
        self.forbid_sampling(monkeypatch)
        real = tmp_path / "real.txt"
        if text is not None:
            real.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["validate", "--alpha", "0.2", "--beta", "1.0", "--lambda-inf", "1.0",
                     "--horizon", "100", "--count", "2", "--delta", "0.5", "--t0", "10",
                     "--seed", "1", "--real-events", str(real), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: --real-events is overlaid on the envelope; it needs --envelope\n")
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
                triple=hawkesmom.MomentTriple(1.0, 1e40 + 2.0, 2.0, delta), delta=delta,
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


class TestCliGoldens:
    """SHA-256 of CLI outputs for fixed seeds, so a refactor that changes any
    byte shows.  Recorded on x86-64 Linux (glibc libm, numpy 2); the last
    digits of intensity.csv come from numpy's vectorised exp and may differ
    on other hardware.  intensity.csv's post-jump values come from the
    doubling scan in core._excess_after_events, within a few ulp (under
    1e-15 relative) of a per-event exp recurrence on these paths."""

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
        "exact/intensity.csv": "4763bb2a32e99b8d770479f7123285f347fc87c1cd08297929d0d80f925309d4",
        "cluster/events.txt": "dc0dc42718aabef91d648e3c066832e1bfc75b3704d006acdfa817eb0f0020cb",
        "cluster/intensity.csv":
            "81c1c50014a7b1d493214aa4084eee9fa5c6b58a11979d9a6ab8de5c529dd942",
        "validate/table.csv": "0523b847adf913b95f249c129f30d6c03cdd5b00a4e7ef50f95b2d6631ac5907",
        "validate/validate.json":
            "db103563b74679fa45c726cc5a41011a1bbb9ea19db3706e6c663968c12180bd",
    }

    def test_output_digests(self, tmp_path):
        for name, argv in self.RUNS.items():
            assert main(argv + ["--out-dir", str(tmp_path / name)]) == EXIT_OK
        for rel, digest in self.DIGESTS.items():
            assert hashlib.sha256((tmp_path / rel).read_bytes()).hexdigest() == digest, rel
