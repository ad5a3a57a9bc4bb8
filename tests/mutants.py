"""A registry of mutants of src/, and the runner that checks them.

Each mutant replaces one exact piece of text in one file of src/ and names
the pytest selection that must fail on the mutated code, with the reason
that selection sees the fault.  Mutants that no test can see are recorded
as expected survivors, with the reason they survive, so that a later
change turns neither a killed mutant into a survivor nor a survivor into a
silent pass.  A mutant that only some CPUs can show, such as numpy's SIMD
loop in place of libm's, takes its record from a check of this CPU.

For each mutant the runner copies src/ to a temporary directory, applies
the replacement there (the old text must occur exactly once, so a change
that moves the code fails the runner instead of passing it) and runs the
selection with ``-x`` from the repository root against the copy.  Each
selection first runs once on the unmutated src/ and must pass.

Not collected by pytest.  Run it from anywhere as

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME...    # the named ones

It prints one line a mutant and exits 1 if any mutant is killed or
survives against its record, or if a selection fails unmutated.
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root, under src/
    old: str
    new: str
    selection: tuple[str, ...]  # pytest arguments, relative to the root
    reason: str
    survives: bool = False


def _simd_differs(fn, x: np.ndarray) -> bool:
    """Whether numpy's own loop for ``fn`` (its SIMD code where the CPU has
    one, as on AVX-512 x86-64) differs from libm's on ``x``: a mutant that
    puts that loop in place of libm's is visible only where it does."""
    ufunc = {math.log: np.log, math.exp: np.exp, math.expm1: np.expm1,
             math.log1p: np.log1p}[fn]
    return not np.array_equal(ufunc(x), np.fromiter(map(fn, x.tolist()), np.float64, x.size))


_DRAWS = np.random.default_rng(0)
EXP_SIMD = _simd_differs(math.exp, _DRAWS.normal(0.0, 20.0, 4096))
EXPM1_SIMD = _simd_differs(math.expm1, _DRAWS.normal(0.0, 20.0, 4096))
ANY_SIMD = EXP_SIMD or EXPM1_SIMD or any(
    _simd_differs(fn, _DRAWS.random(4096)) for fn in (math.log, math.log1p))

PICKLE = ("tests/test_simulate.py::TestPickle",)
LIBM = ("tests/test_libm.py",)
CAP = ("tests/test_simulate.py", "-k", "cap_at_a_block_edge or cap_names_the_first_path")
ASSEMBLY = ("tests/test_simulate.py", "-k", "Assembly or bitwise_equal_to_simulate_exact")
ZEROS = ("tests/test_simulate.py", "-k", "Oracle or Lockstep or zero")
SLICES = ("tests/test_simulate.py", "-k", "SliceRule")

MUTANTS = [
    Mutant(
        "reduce_buffer_below_protocol_5", "src/hawkesmom/core.py",
        "if protocol >= 5 else", "if protocol >= 4 else", PICKLE,
        "a PickleBuffer cannot be pickled below protocol 5: the protocol-4 "
        "round trip raises"),
    Mutant(
        "sampled_times_writable", "src/hawkesmom/core.py",
        "        seq = object.__new__(cls)\n        times.setflags(write=False)\n",
        "        seq = object.__new__(cls)\n", PICKLE,
        "times unpickled from a writable out-of-band buffer stay writable"),
    Mutant(
        "thin_reads_zero_proposals", "src/hawkesmom/simulate.py",
        "nonzero = filter(None, src)", "nonzero = src",
        ("tests/test_simulate.py", "-k", "zero_uniform_draw_is_redrawn and deficit"),
        "a proposal draw of exactly 0 reaches math.log, which raises"),
    Mutant(
        "integrate_moments_without_errstate", "src/hawkesmom/generator.py",
        'with np.errstate(over="ignore", invalid="ignore"):\n        At = A * t',
        "with np.errstate():\n        At = A * t",
        ("tests/test_generator.py", "-k", "beyond_float64 or overflowed or column_sum"),
        "an overflowing A t or squaring warns, and the suite makes RuntimeWarning an error"),
    Mutant(
        "first_block_past_max_uniforms", "src/hawkesmom/simulate.py",
        "min(_MAX_UNIFORMS // 2, expected)", "min(_MAX_UNIFORMS, expected)",
        ("tests/test_simulate.py", "-k",
         "cascade_batch_digest or bitwise_equal or equals_reference or Pickle"),
        "block sizes are unobservable by design: a block of n draws is the same n "
        "floats whatever n is, so every path keeps its bytes; only tests that "
        "read _first_block itself (test_tail_first_block_from_expected_events, "
        "and the block-edge tests' checks of where the edges are) pin the rule",
        survives=True),
    # the fan-out's one slicing rule and the deficit start
    Mutant(
        "slices_from_a_nan_share", "src/hawkesmom/_fork.py",
        "share = 1.0 if math.isnan(work) else work / min_work", "share = work / min_work",
        SLICES,
        "min(cpus, len(items), nan) is cpus, so the NaN-expectation batch forks"),
    Mutant(
        "more_slices_than_items", "src/hawkesmom/_fork.py",
        "min(available_cpus(), n, share)", "min(available_cpus(), share)", SLICES,
        "a one-path batch with enough expected events forks, and the property "
        "test counts more slices than items"),
    Mutant(
        "deficit_start_without_early_return", "src/hawkesmom/simulate.py",
        "    if lam >= lam_inf:\n        return t, lam, events\n", "",
        ("tests/test_simulate.py", "-k", "bitwise or Oracle or deficit"),
        "the thinning loop does not run from the base level, so only the "
        "iterators it builds for nothing differ: it costs time, not a path",
        survives=True),
    Mutant(
        "thin_accepts_below_strictly", "src/hawkesmom/simulate.py",
        "if next(src) * lam_inf <= lam:", "if next(src) * lam_inf < lam:",
        ("tests/test_simulate.py", "-k", "bitwise or Oracle or deficit"),
        "an accept draw exactly at lam / lambda_inf has probability about 0",
        survives=True),
    # _libm's route
    Mutant(
        "libm_one_element_on_the_ufunc", "src/hawkesmom/_libm.py",
        "if ufunc is None or x.size < 2:", "if ufunc is None:", LIBM,
        "numpy runs a one-element array as contiguous, on its SIMD loop "
        "(test_short_arrays); unseen where that loop is libm's",
        survives=not ANY_SIMD),
    Mutant(
        "libm_backward_input", "src/hawkesmom/_libm.py",
        "return _reversed_out(ufunc, np.ascontiguousarray(x))",
        "return _reversed_out(ufunc, x)", LIBM,
        "numpy flips a backward input with the reversed output, onto its SIMD "
        "loop (test_backward_and_strided_inputs); unseen where that loop is libm's",
        survives=not EXP_SIMD),
    Mutant(
        "libm_probe_always_passes", "src/hawkesmom/_libm.py",
        "return ufunc if same else None", "return ufunc", LIBM,
        "a route that flips one bit in 500 is kept (test_rejects_one_flipped_bit_in_500)"),
    Mutant(
        "libm_forward_output", "src/hawkesmom/_libm.py",
        "out = np.empty(x.size)[::-1]", "out = np.empty(x.size)", LIBM,
        "the forward-written output is numpy's SIMD loop, which the probe "
        "rejects where it differs from libm, and the map then gives libm's values",
        survives=True),
    # the lockstep's cap message and its one scatter
    Mutant(
        "cap_names_the_last_event", "src/hawkesmom/simulate.py",
        "raise _capacity_exceeded(cap, events[room], horizon)",
        "raise _capacity_exceeded(cap, events[-1], horizon)", CAP,
        "the message names the block's last event, not event cap + 1"),
    Mutant(
        "lockstep_cap_names_event_cap_plus_two", "src/hawkesmom/simulate.py",
        "at = counts[:k].sum() + cap - (n[ids[k]] - counts[k])",
        "at = counts[:k].sum() + cap + 1 - (n[ids[k]] - counts[k])", CAP,
        "the lockstep names the time after the one the scalar loop names"),
    Mutant(
        "lockstep_cap_names_the_last_path", "src/hawkesmom/simulate.py",
        "k = over.argmax()", "k = over.size - 1 - over[::-1].argmax()", CAP,
        "the last path over the cap, not the first in seed order, is named"),
    Mutant(
        "assemble_before_stepping_fill", "src/hawkesmom/simulate.py",
        "        fill[ids] -= counts\n"
        "        at = np.repeat(fill[ids] - (np.cumsum(counts) - counts), counts)\n",
        "        at = np.repeat(fill[ids] - (np.cumsum(counts) - counts), counts)\n"
        "        fill[ids] -= counts\n", ASSEMBLY,
        "each piece lands one piece's length too far on"),
    Mutant(
        "assemble_reversed_starts", "src/hawkesmom/simulate.py",
        "pieces = [(ids, n.copy(), times)]", "pieces = [(ids[::-1], n[::-1].copy(), times)]",
        ASSEMBLY, "the deficit starts' times go to the wrong paths"),
    Mutant(
        "assemble_reversed_tails", "src/hawkesmom/simulate.py",
        "    pieces.append((ids, counts, times))\n    n[ids] += counts\n    return pieces, n",
        "    pieces.append((ids[::-1], counts[::-1], times))\n    n[ids] += counts\n"
        "    return pieces, n", ASSEMBLY,
        "the scalar tails' times go to the wrong paths"),
    # the lockstep's exact zeros
    Mutant(
        "lockstep_keeps_zero_draws", "src/hawkesmom/simulate.py",
        "            _skip_zeros(rngs[ids[k]], u[k])\n", "            pass\n", ZEROS,
        "an exact 0 reaches the lockstep's log"),
    Mutant(
        "skip_zeros_refills_once", "src/hawkesmom/simulate.py",
        "    while not u.all():", "    if not u.all():", ZEROS,
        "a refill that itself draws a 0 keeps it (across_block_edge, lockstep_row_edge)"),
    Mutant(
        "skip_zeros_in_place", "src/hawkesmom/simulate.py",
        "        kept = np.count_nonzero(u)\n"
        "        u[:kept] = u[u != 0.0]\n"
        "        rng.random(out=u[kept:])\n",
        "        zeros = np.flatnonzero(u == 0.0)\n"
        "        u[zeros] = rng.random(zeros.size)\n", ZEROS,
        "a redrawn 0 is read where the 0 stood, not after the block's other draws"),
    # the generator's libm exps
    Mutant(
        "generator_simd_exp", "src/hawkesmom/generator.py",
        "a[...] = elementwise(math.exp, a.ravel()).reshape(a.shape)", "a[...] = np.exp(a)",
        ("tests/test_generator.py", "-k", "pinned or Triangular"),
        "numpy's SIMD exp moves the pinned cascade moments in their last bits; "
        "unseen where that loop is libm's",
        survives=not EXP_SIMD),
    Mutant(
        "generator_simd_expm1", "src/hawkesmom/generator.py",
        "c *= elementwise(math.expm1, gap.ravel()).reshape(gap.shape) / gap",
        "c *= np.expm1(gap) / gap",
        ("tests/test_generator.py", "-k", "pinned or Triangular"),
        "numpy's SIMD expm1 moves the pinned cascade moments in their last bits; "
        "unseen where that loop is libm's",
        survives=not EXPM1_SIMD),
    # simulate's grid and the window count
    Mutant(
        "simulate_holds_the_grid", "src/hawkesmom/io.py",
        "t = np.arange(lo, hi, dtype=np.float64) * step",
        "t = (np.arange(n, dtype=np.float64) * step)[lo:hi]",
        ("tests/test_io_cli.py", "-k", "holds_no_grid"),
        "each chunk's points are sliced from the whole grid, which tracemalloc sees"),
    Mutant(
        "step_grid_offset_slices", "src/hawkesmom/io.py",
        "t = np.arange(lo, hi, dtype=np.float64) * step",
        "t = lo * step + np.arange(hi - lo, dtype=np.float64) * step",
        ("tests/test_io_cli.py", "-k", "StepGrid"),
        "lo step + j step is not (lo + j) step to the last bit"),
    Mutant(
        "step_grid_overflow_uncaught", "src/hawkesmom/cli.py",
        "    except (OverflowError, MemoryError, ValueError):\n"
        '        raise ValueError(f"{flag} {step}',
        "    except (MemoryError, ValueError):\n"
        '        raise ValueError(f"{flag} {step}',
        ("tests/test_io_cli.py", "-k", "uncountable_grid"),
        "a subnormal step's inf point count ends in a traceback"),
    Mutant(
        "step_grid_checked_by_arange", "src/hawkesmom/cli.py",
        "np.empty(n_pts)  #", "np.arange(n_pts)  #",
        ("tests/test_io_cli.py", "-k", "uncountable_grid"),
        "np.arange gives an empty array for 2^63 + 1 points, where np.empty refuses"),
    Mutant(
        "window_count_without_the_2_53_bound", "src/hawkesmom/estimate.py",
        "    if not n_windows <= _MAX_WINDOWS:\n", "    if False:\n",
        ("tests/test_io_cli.py", "-k", "window_count"),
        "10^16 windows are fitted and a subnormal delta's inf count ends in "
        "int()'s OverflowError, neither with the 2^53 message"),
    Mutant(
        "validate_counts_windows_after_sampling", "src/hawkesmom/cli.py",
        "    _window_count(args.horizon, args.t0, args.delta)\n", "    pass\n",
        ("tests/test_io_cli.py", "-k", "window_count"),
        "validate samples its paths before the first fit finds the count"),
    # windowing by the events: strays, chunk borders, and the cluster cap
    Mutant(
        "strays_left_at_their_guess", "src/hawkesmom/estimate.py",
        "            j[astray] = _bisect_windows(t[astray], t0, delta, count)\n",
        "            pass\n",
        ("tests/test_simulate.py", "-k", "far_guesses or edge_hugging or one_search_per_edge"),
        "an event within an ulp of an edge is counted one window off"),
    Mutant(
        "windowed_counts_past_the_horizon", "src/hawkesmom/estimate.py",
        "count <= fit", "count <= fit + 10",
        ("tests/test_simulate.py", "-k", "no_window_past_the_horizon"),
        "a path's windows past its horizon are counted as empty"),
    Mutant(
        "windowed_counts_past_2_53", "src/hawkesmom/estimate.py",
        "else _MAX_WINDOWS)", "else math.inf)",
        ("tests/test_simulate.py", "-k", "raw_times_take_at_most_2_53"),
        "10^17 windows of raw times are counted, at colliding edges"),
    Mutant(
        "chunk_border_not_merged", "src/hawkesmom/estimate.py",
        "        if index[-1].size and index[-1][-1] == j[0]:\n", "        if False:\n",
        ("tests/test_simulate.py::TestWindowedCounts::test_chunks_match_the_reference[1]",),
        "a window whose events span two chunks becomes two pairs with one index"),
    Mutant(
        "cluster_cap_after_the_proposals", "src/hawkesmom/simulate.py",
        "    if n_prop > cap and lam0 == lam_inf:\n", "    if False:\n",
        ("tests/test_simulate.py", "-k", "cap_checked_before_the_proposals"),
        "2e7 proposals are drawn and sorted before the cap fails, which "
        "tracemalloc sees"),
    Mutant(
        "cluster_cap_after_thinning", "src/hawkesmom/simulate.py",
        "        if total > cap:\n"
        '            raise CapacityExceeded(f"cluster construction exceeded {cap} events")\n',
        "", ("tests/test_simulate.py", "-k", "cap_checked_per_thinning_block"),
        "every block is thinned before the cap fails: the immigrants, about 63% "
        "of the 2e6 proposals, join the proposals in tracemalloc's peak"),
    Mutant(
        "cluster_proposals_memory_error_unconverted", "src/hawkesmom/simulate.py",
        "    except MemoryError:  # numpy's, raised before any draw\n",
        "    except OverflowError:\n",
        ("tests/test_io_cli.py", "-k", "unallocatable_cluster_proposals"),
        "1e12 proposals end in numpy's MemoryError and a traceback, not one error line"),
    # the batch worker hands each path to fn as it draws it
    Mutant(
        "sample_slice_materialised", "src/hawkesmom/simulate.py",
        "        paths = _sample_slice(params, horizon, range(lo, hi), method, cap)\n",
        "        paths = list(_sample_slice(params, horizon, range(lo, hi), method, cap))\n",
        ("tests/test_simulate.py", "-k", "one_scalar_path_at_a_time"),
        "the whole slice stays alive while fn runs, so fn finds its earlier paths alive"),
    Mutant(
        "sampler_warnings_before_fns", "src/hawkesmom/simulate.py",
        "[fn(path) for path in paths]", "[fn(path) for path in list(paths)]",
        ("tests/test_simulate.py", "-k", "sampler_warnings_cross_the_fork"),
        "a slice's sampler warnings all come before its fn warnings"),
    # one owner per failure rule
    Mutant(
        "validate_suppresses_no_window", "src/hawkesmom/cli.py",
        "    _window_count(args.horizon, args.t0, args.delta)\n",
        "    try:\n        _window_count(args.horizon, args.t0, args.delta)\n"
        "    except InsufficientData:\n        pass\n",
        ("tests/test_io_cli.py", "-k", "no_whole_window"),
        "validate samples its paths where no fit can have a window"),
    Mutant(
        "estimate_config_unchecked", "src/hawkesmom/estimate.py",
        "    def __post_init__(self):\n"
        "        _check_windows(self.delta, self.t0)\n"
        "        _check_start(self.init)\n",
        "    def __post_init__(self):\n        pass\n",
        ("tests/test_io_cli.py", "-k", "bad_init_writes_nothing"),
        "estimate reads the events file, and validate samples, before a bad "
        "--init is found"),
    Mutant(
        "envelope_step_without_envelope_ignored", "src/hawkesmom/cli.py",
        "    if args.envelope_step is not None and not args.envelope:\n",
        "    if False:\n",
        ("tests/test_io_cli.py", "-k", "without_envelope_writes_nothing"),
        "--envelope-step without --envelope is dropped and validate samples"),
    Mutant(
        "exit_table_catch_all_first", "src/hawkesmom/cli.py",
        "    (ParseError, EXIT_PARSE),\n"
        "    ((NoConvergence, InsufficientData), EXIT_CONVERGENCE),\n"
        "    (CapacityExceeded, EXIT_CAPACITY),\n"
        "    (Exception, EXIT_FAILURE),\n",
        "    (Exception, EXIT_FAILURE),\n"
        "    (ParseError, EXIT_PARSE),\n"
        "    ((NoConvergence, InsufficientData), EXIT_CONVERGENCE),\n"
        "    (CapacityExceeded, EXIT_CAPACITY),\n",
        ("tests/test_io_cli.py::TestMainExitCodes::test_parse_error",),
        "every failure matches the catch-all first, so a parse error exits 1, not 2"),
    Mutant(
        "unconverged_estimate_exits_0", "src/hawkesmom/cli.py",
        "    if not report.converged:\n"
        '        raise NoConvergence("estimation did not converge (report written for '
        'diagnostics)")\n', "",
        ("tests/test_io_cli.py", "-k", "sub_poisson_estimate_warns_once_and_exits_3"),
        "an unconverged report is written and estimate exits 0, with no error line"),
    Mutant(
        "moments_without_finiteness_check", "src/hawkesmom/cli.py",
        "        if not all(map(math.isfinite, (triple.m1, triple.m2, triple.m3, lam1, lam2, "
        "lam3))):\n            raise OverflowError\n", "",
        ("tests/test_io_cli.py", "-k", "beyond_float64"),
        "at 1e200 the products are inf without raising, and Infinity is printed with exit 0"),
    Mutant(
        "overwrite_keeps_a_failed_file", "src/hawkesmom/io.py",
        "        path.unlink(missing_ok=True)\n", "        pass\n",
        ("tests/test_io_cli.py", "-k", "failing_table_removes"),
        "the table's first rows stay on disk after its last row fails"),
    # moments and the fit
    Mutant(
        "stationary_m2_through_moment_triple", "src/hawkesmom/moments.py",
        "    m1, k2, _ = _window_cumulants(params, delta)\n    return k2 + m1 * m1\n",
        "    return moment_triple(params, delta).m2\n",
        ("tests/test_moments.py", "-k", "m2_finite_where_m3_overflows"),
        "moment_triple's m3 overflows where m2 is finite"),
    Mutant(
        "residual_scan_without_alpha_check", "src/hawkesmom/estimate.py",
        "& (alpha >= 0.0) & (lam_inf > 0.0)", "& (lam_inf > 0.0)",
        ("tests/test_estimate.py",),
        "on the (M1, M2)-exact curve alpha >= 0 holds wherever beta and "
        "lambda_inf are finite, so the check never decides",
        survives=True),
]


def _pytest(src: Path, selection: tuple[str, ...]) -> int:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def killed(mutant: Mutant, tmp: Path) -> bool:
    """Whether the mutant's selection fails on a mutated copy of src/."""
    shutil.copytree(ROOT / "src", tmp / "src")
    path = tmp / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: the old text occurs {text.count(mutant.old)} "
                         f"times in {mutant.file}, not once")
    path.write_text(text.replace(mutant.old, mutant.new))
    code = _pytest(tmp / "src", mutant.selection)
    if code not in (0, 1):
        raise SystemExit(f"{mutant.name}: pytest exited {code}; is the selection right?")
    return code == 1


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"no such mutant: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not names or m.name in names]
    bad = 0
    for selection in dict.fromkeys(m.selection for m in chosen):
        if _pytest(ROOT / "src", selection):
            print(f"FAILS UNMUTATED: {' '.join(selection)}")
            bad += 1
    for mutant in chosen:
        with tempfile.TemporaryDirectory() as tmp:
            was_killed = killed(mutant, Path(tmp))
        expected = not mutant.survives
        outcome = "killed" if was_killed else "survived"
        note = "" if was_killed == expected else "  UNEXPECTED"
        print(f"{mutant.name}: {outcome}{note} ({mutant.reason})")
        bad += was_killed != expected
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
