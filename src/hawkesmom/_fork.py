"""Process fan-out shared by the intensity CSV writer and the batch sampler.

Both split their work into contiguous slices, fork one child per slice
after the first, do the first slice in this process and collect the
children's results in slice order, so their output does not depend on the
CPU count.
"""

from __future__ import annotations

import os
import signal


def available_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def reap(pids: list[int]) -> None:
    """Kill and wait for every child in ``pids``, emptying the list."""
    while pids:
        pid = pids.pop()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
