import os

import pytest


@pytest.fixture(autouse=True)
def no_leaked_children():
    """Every test reaps the processes it forks: after it, this process has
    no child left, running or exited."""
    yield
    if hasattr(os, "WNOHANG"):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def _pipes_and_unlinked_files() -> set[tuple[str, str]]:
    """(descriptor, target) of each pipe or unlinked file this process holds;
    empty where /proc/self/fd does not exist."""
    try:
        fds = os.listdir("/proc/self/fd")
    except FileNotFoundError:
        return set()
    held = set()
    for fd in fds:
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # the listing's own descriptor, closed since
            continue
        if target.startswith("pipe:") or target.endswith(" (deleted)"):
            held.add((fd, target))
    return held


@pytest.fixture(autouse=True)
def no_leaked_descriptors():
    """Every test closes the pipes and temporary files it opens: after it,
    this process holds none it did not hold before."""
    before = _pipes_and_unlinked_files()
    yield
    leaked = _pipes_and_unlinked_files() - before
    assert not leaked, f"descriptors left open: {sorted(leaked)}"
