"""Memory of a large simulate grid: 4000001 grid points, a 32 MB array if
one were held.  After a small warm-up run, the peak RSS rises by less than
half that.

Not collected by pytest.  The arguments are a `hawkesmom simulate` command's
without --out-dir.  This script appends --horizon, --grid-step and --out-dir,
which override earlier ones, and writes sim-warm/ and sim-large/ in the
working directory, so run it in a scratch directory:

    python tests/ci/rss_guard.py simulate --method cluster --alpha 0.2 ... --seed 3
"""

import resource
import sys

from hawkesmom.cli import main


def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


assert main(sys.argv[1:] + ["--horizon", "10", "--out-dir", "sim-warm"]) == 0
before = peak_mb()
assert main(sys.argv[1:] + ["--horizon", "4000", "--grid-step", "0.001",
                            "--out-dir", "sim-large"]) == 0
rise = peak_mb() - before
print(f"peak RSS rose {rise:.1f} MB over 4000001 grid points", file=sys.stderr)
assert rise < 16, rise
