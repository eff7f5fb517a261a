"""The package's seeded stream against numpy's PCG64 generator.

``_stream.Stream(seed)`` must give the doubles of
``numpy.random.Generator(numpy.random.PCG64(seed))`` bit for bit.  The
comparison names PCG64 itself, not ``default_rng``, whose BitGenerator
numpy may change.
"""

import math

import numpy as np
import pytest

from ccbilliards._stream import Stream

# 2**200 + 12345 is seven 32-bit words: the only seed here that SeedSequence
# mixes into its 4-word pool past the first four
SEEDS = [*range(64), 2**32 - 1, 2**32, 2**64 + 7, 2**200 + 12345,
         np.int64(5), np.uint32(9)]


def numpy_generator(seed):
    return np.random.Generator(np.random.PCG64(seed))


@pytest.mark.parametrize("seed", SEEDS, ids=repr)
def test_random_matches_pcg64(seed):
    got = Stream(seed).random(64)
    assert all(type(x) is float for x in got)
    assert got == numpy_generator(seed).random(64).tolist()


@pytest.mark.parametrize("seed", [0, 7, 2**200 + 12345])
def test_split_draws_continue_the_stream(seed):
    stream = Stream(seed)
    assert stream.random(20) + stream.random(44) == Stream(seed).random(64)


@pytest.mark.parametrize("seed", [0, 1, 16, 2**64 + 7])
def test_uniform_matches_generator_uniform(seed):
    stream, gen = Stream(seed), numpy_generator(seed)
    for _ in range(50):
        assert stream.uniform(0.2, 0.8) == gen.uniform(0.2, 0.8)
        assert (stream.uniform(0.3, math.pi - 0.3)
                == gen.uniform(0.3, math.pi - 0.3))


@pytest.mark.parametrize("seed", [-1, -2**40, np.int64(-3)], ids=repr)
def test_negative_seed_raises(seed):
    with pytest.raises(ValueError, match="seed"):
        Stream(seed)
