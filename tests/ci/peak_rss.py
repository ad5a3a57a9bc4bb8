"""Memory of a `hawkesmom` command whose windows far outnumber its events:
the command exits 0 with a peak RSS under 100 MB.  4 events near t = 10^9,
fitted with --delta 3 from the default --t0 0, make 333,333,334 windows,
about 5 GB at 16 bytes a window.

Not collected by pytest.  The arguments are the command's, run in-process,
so run it in a scratch directory:

    printf '%s\n' 1000000000.5 1000000001 1000000001.5 1000000004 > epoch.txt
    python tests/ci/peak_rss.py estimate --events epoch.txt --delta 3 --out-dir epoch-fit
"""

import resource
import sys

from hawkesmom.cli import main

assert main(sys.argv[1:]) == 0
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"peak RSS {peak:.1f} MB", file=sys.stderr)
assert peak < 100, peak
