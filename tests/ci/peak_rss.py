"""Memory of a `hawkesmom` command: it exits with the expected status, the
first argument, with a peak RSS under 100 MB.

Not collected by pytest.  The other arguments are the command's, run
in-process, so run it in a scratch directory.  4 events near t = 10^9,
fitted with --delta 3 from the default --t0 0, make 333,333,334 windows,
about 5 GB at 16 bytes a window:

    printf '%s\n' 1000000000.5 1000000001 1000000001.5 1000000004 > epoch.txt
    python tests/ci/peak_rss.py 0 estimate --events epoch.txt --delta 3 --out-dir epoch-fit

and a cluster path from lambda0 = 5e6 exceeds --cap 1 among its 5e6
immigrant proposals, 40 MB at 8 bytes each, and exits 4:

    python tests/ci/peak_rss.py 4 simulate --method cluster --alpha 0 --beta 1 \\
        --lambda-inf 1 --lambda0 5e6 --horizon 1 --cap 1 --seed 1
"""

import resource
import sys

from hawkesmom.cli import main

expected = int(sys.argv[1])
code = main(sys.argv[2:])
assert code == expected, (code, expected)
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"peak RSS {peak:.1f} MB", file=sys.stderr)
assert peak < 100, peak
