"""The seeding seam: a range of seeds gives np.random.default_rng's generators
bit for bit, whichever route seeds them."""

import numpy as np
import pytest

from hawkesmom import _seeding


def assert_default_rngs(rngs, seeds):
    assert len(rngs) == len(seeds)
    for seed, rng in zip(seeds, rngs):
        ref = np.random.default_rng(seed)
        assert rng.bit_generator.state == ref.bit_generator.state, seed
        assert rng.random(100).tobytes() == ref.random(100).tobytes(), seed


def hashed(rng) -> bool:
    """Whether the array pass, rather than default_rng, seeded ``rng``."""
    return isinstance(rng.bit_generator.seed_seq, _seeding._State)


def test_probe_passes():
    # if numpy's SeedSequence hash changed, every seed would take default_rng
    assert _seeding._probe()


# (range, how many of its seeds, from the front, the array pass seeds): 0
# and 1; 2^31; 2^32 - 1, the last one-word seed; a range that crosses 2^32;
# 2^40, whose entropy has two words; a range too short to hash
@pytest.mark.parametrize("seeds, n_hashed", [
    (range(0, 40), 40),
    (range(2**31 - 20, 2**31 + 20), 40),
    (range(2**32 - 40, 2**32), 40),
    (range(2**32 - 20, 2**32 + 20), 20),
    (range(2**40, 2**40 + 20), 0),
    (range(7, 7 + _seeding._MIN_HASHED - 1), 0),
], ids=["zero_one", "2^31", "2^32-1", "across_2^32", "2^40", "short"])
def test_generators_equal_default_rng(seeds, n_hashed):
    rngs = _seeding.generators(seeds)
    assert_default_rngs(rngs, seeds)
    assert [hashed(rng) for rng in rngs] == [i < n_hashed for i in range(len(seeds))]


def test_states_equal_seed_sequence():
    seeds = np.random.default_rng(29).integers(0, 2**32, 500, dtype=np.uint32)
    rows = _seeding._states(seeds)
    assert rows.dtype == np.uint64 and rows.shape == (500, 4) and rows.flags.c_contiguous
    for seed, row in zip(seeds.tolist(), rows):
        assert row.tobytes() == np.random.SeedSequence(seed).generate_state(4, np.uint64).tobytes()


def test_negative_seed_raises_as_default_rng_does():
    with pytest.raises(ValueError) as expected:
        np.random.default_rng(-1)
    with pytest.raises(ValueError) as raised:
        _seeding.generators(range(-1, 40))
    assert str(raised.value) == str(expected.value)


def test_failed_probe_falls_back_to_default_rng(monkeypatch):
    """A hash that differs from SeedSequence's fails the probe, and every
    seed, then and later, takes default_rng."""
    states = _seeding._states
    monkeypatch.setattr(_seeding, "_states", lambda seeds: states(seeds + np.uint32(1)))
    monkeypatch.setattr(_seeding, "_HASHED", None)
    default_rng, called = np.random.default_rng, []

    def recording_default_rng(seed):
        called.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", recording_default_rng)
    for seeds in (range(100, 164), range(500, 540)):
        called.clear()
        rngs = _seeding.generators(seeds)
        assert _seeding._HASHED is False
        assert called[-len(seeds):] == list(seeds) and not any(map(hashed, rngs))
        assert_default_rngs(rngs, seeds)
