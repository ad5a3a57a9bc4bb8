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
