"""Run one hawkesmom command in-process, counting forks, and check that it
exited 0 and forked at least once.

Not collected by pytest.  The arguments are the command's, as for the
console script:

    python tests/ci/count_forks.py validate --alpha 0.2 ... --out-dir counted
"""

import os
import sys

from hawkesmom.cli import main

forks, real_fork = [], os.fork


def counting_fork():
    forks.append(None)
    return real_fork()


os.fork = counting_fork
assert main(sys.argv[1:]) == 0
assert forks, f"hawkesmom {sys.argv[1]} did not fork"
