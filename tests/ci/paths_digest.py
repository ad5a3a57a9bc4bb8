"""The cascade forecast's batch, whose children's paths are read back, the
same batch from a deficit start (lambda0 below the base level), and the
base-level batch drawn by the cluster sampler: prints a sha256 over every
path's times for each, one a line.

The deficit batch's digest equals the scalar loop's, path by path.  Both
equal the batches drawn with every path on the scalar loop, those drawn in
lockstep groups of 64 paths, those drawn with every loop's first block
_FIRST_UNIFORMS draws, those drawn with every generator seeded by
np.random.default_rng, and those drawn with the map over math.* alone.  The
batch forks exactly when more than one CPU is available, so comparing the
output at one CPU and at all of them shows it does not depend on the CPU
count.  The cluster batch's digest equals simulate_cluster's, path by
path, and holds with the map over math.* too.

Not collected by pytest.  Run it as

    taskset -c 0 python tests/ci/paths_digest.py > one-cpu.sha256
    python tests/ci/paths_digest.py > all-cpus.sha256
    cmp one-cpu.sha256 all-cpus.sha256
"""

import hashlib
import os
import sys

from hawkesmom import (_libm, _seeding, simulate, simulate_batch, simulate_cluster,
                       simulate_exact, validate_params)

forks, real_fork = [], os.fork


def counting_fork():
    forks.append(None)
    return real_fork()


def digest(trajs):
    sha = hashlib.sha256()
    for traj in trajs:
        sha.update(traj.events.times.tobytes())
    return sha.hexdigest()


def batches():
    for lambda0 in (0.243, 0.1):
        params = validate_params(0.772, 1.133, 0.243, lambda0)
        forks.clear()
        batch = digest(simulate_batch(params, 600.0, 1, 1000))
        assert bool(forks) == (len(os.sched_getaffinity(0)) > 1), len(forks)
        if lambda0 == 0.1:
            assert batch == digest(simulate_exact(params, 600.0, 1 + i)
                                   for i in range(1000))
        yield batch


def cluster_batch():
    params = validate_params(0.772, 1.133, 0.243, 0.243)
    forks.clear()
    batch = digest(simulate_batch(params, 600.0, 1, 1000, method="cluster"))
    assert bool(forks) == (len(os.sched_getaffinity(0)) > 1), len(forks)
    assert batch == digest(simulate_cluster(params, 600.0, 1 + i) for i in range(1000))
    return batch


os.fork = counting_fork
routed = list(batches())
cluster = cluster_batch()
# no group of at most _GROUP paths reaches the lockstep: every path
# runs the scalar loop's blocks
lockstep = simulate._MIN_LOCKSTEP
simulate._MIN_LOCKSTEP = simulate._GROUP + 1
assert list(batches()) == routed
simulate._MIN_LOCKSTEP = lockstep
# the group width does not change the bytes
group = simulate._GROUP
simulate._GROUP = 64
assert list(batches()) == routed
simulate._GROUP = group
# nor do the block sizes: every loop's first block the smallest, as when
# no block was sized from the expected events
first_block = simulate._first_block
simulate._first_block = lambda *args: simulate._FIRST_UNIFORMS
assert list(batches()) == routed
simulate._first_block = first_block
# each seed through np.random.default_rng, as a failed seeding
# probe leaves it, rather than one array pass per group
hashed = _seeding._HASHED
_seeding._HASHED = False
assert list(batches()) == routed
_seeding._HASHED = hashed
print(f"seeding probe passed: {hashed}", file=sys.stderr)
# the batches probed log and exp; the cluster sampler's expm1 and
# log1p are probed here
for fn in _libm._UFUNCS:
    ufunc = _libm._ROUTE.setdefault(fn, _libm._probe(fn))
    route = "numpy's libm loop" if ufunc else "map over math.*"
    print(f"_libm route for {fn.__name__}: {route}", file=sys.stderr)
_libm._ROUTE.update(dict.fromkeys(_libm._UFUNCS))  # force the map
assert list(batches()) == routed
assert cluster_batch() == cluster
print(*routed, cluster, sep="\n")
