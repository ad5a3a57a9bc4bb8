"""np.random.default_rng(seed) for a whole range of seeds in one array pass.

default_rng(s) is Generator(PCG64(SeedSequence(s))), and PCG64 takes its
state from SeedSequence(s).generate_state(4, np.uint64).  For a seed below
2^32 the entropy is one uint32 word, and SeedSequence's hash (pool mixing,
then generate_state) is a fixed chain of uint32 xors, multiplies and shifts
whose hash constants do not depend on the seed.  _states runs that chain as
numpy array code over every seed at once, and each PCG64 is built from its
row through _State, a numpy.random.bit_generator.ISeedSequence whose
generate_state returns the row.  The generators are default_rng's bit for
bit: the same state, so the same stream.

A seeding call costs 12 to 20 µs a seed on a shared 2-vCPU x86-64 machine,
most of it in SeedSequence; the array pass has a fixed cost of a few dozen
numpy calls, and building a Generator from a row about 2 µs.  A range of
fewer than _MIN_HASHED seeds therefore takes default_rng per seed.

The hash is numpy's, not a promise, so it is probed: the first hashed call
in a process compares _states with SeedSequence.generate_state, and the
built generators' states with default_rng's, on _PROBE_SEEDS, and caches
the outcome in _HASHED.  If they differ, every seed takes default_rng from
then on, in that process.  So does every seed of 2^32 or more, whose
entropy has two words, and every range that reaches below 0, where
default_rng raises.
"""

from __future__ import annotations

import numpy as np

_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # SeedSequence's pool mixing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # and its generate_state
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4  # SeedSequence's default pool size, in uint32 words


def _constants(init: int, mult: int, n: int) -> np.ndarray:
    """init, init * mult, init * mult^2, ... (mod 2^32): n + 1 uint32 words.
    The hash's k-th step xors with word k and multiplies by word k + 1."""
    words = [init]
    for _ in range(n):
        words.append(words[-1] * mult & _MASK32)
    return np.array(words, np.uint32)[:, None]


# a one-word entropy takes _POOL steps to fill the pool and one per ordered
# pair of distinct pool words to mix it; generate_state takes one per
# uint32 word of the 4 uint64 words PCG64 asks for
_A = _constants(_INIT_A, _MULT_A, _POOL + _POOL * (_POOL - 1))
_B = _constants(_INIT_B, _MULT_B, 8)

_MIN_HASHED = 16
_PROBE_SEEDS = (0, 1, 2, 12345, 2**31 - 1, 2**31, 2**32 - 2, 2**32 - 1)
_HASHED: bool | None = None  # the probe's outcome, once it has run


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix, one step per row of consts[:-1]: xor with
    that row, multiply by the next (mod 2^32) and fold the high half down."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> 16)


def _states(seeds: np.ndarray) -> np.ndarray:
    """SeedSequence(s).generate_state(4, np.uint64) for every s of the
    uint32 array ``seeds``: one C-contiguous row of 4 uint64 words each."""
    pool = np.empty((_POOL, seeds.size), np.uint32)
    pool[0] = _hashmix(seeds, _A[:2])
    pool[1:] = _hashmix(np.zeros((1, 1), np.uint32), _A[1:_POOL + 1])  # entropy 0
    # every word's three mixes into the other words use its value before
    # them, so they run as one step of three rows
    k = _POOL
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        mixed = pool[dst] * _MIX_L - _hashmix(pool[src], _A[k:k + _POOL]) * _MIX_R
        pool[dst] = mixed ^ (mixed >> 16)
        k += _POOL - 1
    words = _hashmix(pool[np.arange(8) % _POOL], _B).astype(np.uint64)
    # little-endian pairs of uint32 words, as generate_state joins them
    return np.ascontiguousarray((words[0::2] | words[1::2] << 32).T)


class _State(np.random.bit_generator.ISeedSequence):
    """A seed sequence that has already run: generate_state returns its
    row, which is all PCG64 asks of it (4 uint64 words).  It cannot spawn,
    so neither can a generator built from it; the samplers never spawn."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _from_states(rows: np.ndarray) -> list:
    return [np.random.Generator(np.random.PCG64(_State(row))) for row in rows]


def _probe() -> bool:
    """Whether _states and the generators built from it equal
    SeedSequence's states and default_rng's generators on _PROBE_SEEDS."""
    seeds = np.array(_PROBE_SEEDS, np.uint32)
    rows = _states(seeds)
    for seed, row, rng in zip(_PROBE_SEEDS, rows, _from_states(rows)):
        if not (np.array_equal(row, np.random.SeedSequence(seed).generate_state(4, np.uint64))
                and rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state):
            return False
    return True


def generators(seeds: range) -> list:
    """[np.random.default_rng(s) for s in seeds], bit for bit, for a range
    of step 1: the seeds from 0 up to 2^32 of a range of at least
    _MIN_HASHED are seeded in one array pass (_states), if the probe
    passed, and the others by default_rng."""
    global _HASHED
    lo, hi = seeds.start, min(seeds.stop, 2**32)
    rngs = []
    if lo >= 0 and hi - lo >= _MIN_HASHED:
        if _HASHED is None:
            _HASHED = _probe()
        if _HASHED:
            rngs = _from_states(_states(np.arange(lo, hi, dtype=np.int64).astype(np.uint32)))
    return rngs + [np.random.default_rng(s) for s in seeds[len(rngs):]]
