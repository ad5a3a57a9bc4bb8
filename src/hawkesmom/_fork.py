"""Process fan-out shared by the CSV writer and the batch sampler.

in_slices alone cuts a range of items into contiguous slices (one per CPU,
by the caller's share of work), forks one child per slice after the
first, does the first slice in this process and collects the children's
output in slice order, so the result does not depend on the CPU count.
Each child writes into its own unlinked temporary file, not a pipe, so it
never waits for this process to read.  Its exit status is the whole
protocol: 0 when the file is complete, _RAISED when it holds the child's
pickled exception, which this process raises unchanged, and anything
else is an OSError.

Warnings cross the fork as data: record_warnings keeps what a call warns
instead of showing it, and replay_warnings issues those records in this
process, through its filters and each module's once-per-location
registry, as if the call had run here.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
import tempfile
import traceback
import warnings
from typing import NoReturn

# exit status of a child whose file holds its pickled exception
_RAISED = 86


def available_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def record_warnings(fn):
    """fn() and the warnings it issued, in order, as (message, category,
    filename, lineno) tuples that pickle; none is shown.  Every warning is
    recorded, whatever the filters say: replay_warnings applies them."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn()
    return result, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def replay_warnings(records) -> None:
    """Issue the warnings record_warnings recorded, in order, as warnings.warn
    would have in this process: through its filters, under the name and
    with the once-per-location registry of the module they point at."""
    if not records:
        return
    modules = {}
    for module in list(sys.modules.values()):
        modules.setdefault(getattr(module, "__file__", None), module)
    for message, category, filename, lineno in records:
        module = modules.get(filename)
        if module is None:
            warnings.warn_explicit(message, category, filename, lineno)
            continue
        warnings.warn_explicit(message, category, filename, lineno, module=module.__name__,
                               registry=vars(module).setdefault("__warningregistry__", {}))


def _run_child(run, lo: int, hi: int, out) -> NoReturn:
    """In a forked child: run ``run(lo, hi, out)`` and exit, 0 when ``out``
    is complete and flushed, _RAISED when it holds the pickled exception."""
    status = 1
    try:
        try:
            run(lo, hi, out)
            out.flush()
            status = 0
        except Exception as exc:
            out.seek(0)
            out.truncate()
            pickle.dump(exc, out)
            out.flush()
            status = _RAISED
    except BaseException:
        traceback.print_exc()
    finally:
        os._exit(status)


def in_slices(items: range, work: float, min_work: float, run, collect, what: str) -> None:
    """Run ``run(lo, hi, out)`` on even contiguous slices [lo, hi) of
    ``items``, a range of step 1, one per available CPU, but no more than
    there are items and none with less than ``min_work`` of the ``work`` (a
    NaN ``work``, as where an expectation overflows, makes one): here with
    ``out=None`` for the first, in a forked child writing the binary file
    ``out`` for each later one.  Then ``collect(file)`` gets each child's
    rewound file in slice order.  Every child is reaped and every file
    closed before the call returns or raises.
    """
    n = len(items)
    share = 1.0 if math.isnan(work) else work / min_work
    count = int(max(1, min(available_cpus(), n, share)))
    bounds = [items.start + n * k // count for k in range(count + 1)]
    slices = list(zip(bounds[1:-1], bounds[2:]))
    files, pids = [], []
    try:
        for lo, hi in slices:
            files.append(tempfile.TemporaryFile())
            pid = os.fork()
            if pid == 0:
                _run_child(run, lo, hi, files[-1])
            pids.append(pid)
        run(bounds[0], bounds[1], None)
        for file, (lo, hi) in zip(files, slices):
            status = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
            pids.pop(0)
            file.seek(0)
            if status == _RAISED:
                raise pickle.load(file)
            if status != 0:
                raise OSError(f"the worker {what} {lo} to {hi - 1} exited with status {status}")
            collect(file)
    finally:
        for pid in pids:  # the children an error left unwaited for
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for file in files:
            file.close()
