"""A registry of mutants of src/, and the runner that checks them.

Each mutant replaces one exact piece of text in one file of src/ and names
the pytest selection that must fail on the mutated code, with the reason
that selection sees the fault.  Mutants that no test can see are recorded
as expected survivors, with the reason they survive, so that a later
change turns neither a killed mutant into a survivor nor a survivor into a
silent pass.

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

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root, under src/
    old: str
    new: str
    selection: tuple[str, ...]  # pytest arguments, relative to the root
    reason: str
    survives: bool = False


PICKLE = ("tests/test_simulate.py::TestPickle",)

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
