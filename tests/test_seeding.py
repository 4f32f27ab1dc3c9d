import numpy as np

import pytest

from edgeblock.seeding import as_rng, replicate_seed_bits, rng_for, seed_sequence


def test_streams_distinct_by_coordinates():
    a = rng_for(1, 2, 3).random(4)
    b = rng_for(1, 2, 4).random(4)
    c = rng_for(2, 2, 3).random(4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_streams_reproducible():
    assert np.array_equal(rng_for(7, 1).random(8), rng_for(7, 1).random(8))


def test_replicate_bits_stable_prefix():
    # replicate i depends only on (seed, coords, i), not on the batch size
    long = replicate_seed_bits(5, 2, count=50)
    short = replicate_seed_bits(5, 2, count=10)
    assert np.array_equal(long[:10], short)
    assert long.dtype == np.int64


def test_masked_master_seed():
    # full 64-bit seeds are accepted, and so are negative int64 ones, which
    # replicate_seed_bits hands out as uint64 bit patterns
    s = seed_sequence(2**64 - 1, 0)
    assert s.generate_state(1).shape == (1,)
    assert seed_sequence(-2**63, 0).generate_state(1).shape == (1,)
    # nothing past either end is masked, and no float, bool or string truncated
    for bad in (2**64, -2**63 - 1, 1.5, True, "1"):
        with pytest.raises(ValueError, match="master seed"):
            seed_sequence(bad, 0)
    with pytest.raises(ValueError, match="master seed"):
        as_rng(True)
