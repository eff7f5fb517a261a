"""The seeded draws of the periodic-orbit sweep and the pair probes.

``Stream(seed)`` gives the doubles of ``numpy.random.Generator(
numpy.random.PCG64(seed))`` bit for bit, on Python ints: ``SeedSequence``
mixes the seed's 32-bit words into a pool of 4 and hashes that pool into
PCG64's 128-bit state and increment; each draw steps the LCG and outputs
XSL-RR, whose top 53 bits make the double.  NumPy keeps this stream
stable (NEP 19), and owning it keeps ``numpy.random`` (and the OpenSSL
bindings its ``secrets`` import loads) out of every process that draws.
"""

import operator

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_POOL_SIZE = 4
_ULP = 2.0 ** -53


def _hasher(h, mult):
    """SeedSequence's hashmix, from hash constant h stepped by mult."""
    def hashmix(value):
        nonlocal h
        value ^= h
        h = h * mult & _M32
        value = value * h & _M32
        return value ^ value >> 16
    return hashmix


def _mix(x, y):
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return r ^ r >> 16


def _pool(seed):
    """SeedSequence(seed).pool: the seed's words mixed into 4."""
    words = [seed >> b & _M32 for b in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(words[i] if i < len(words) else 0)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    return pool


class Stream:
    """The doubles of ``Generator(PCG64(seed))`` for an integer seed >= 0."""

    def __init__(self, seed):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {seed}")
        pool = _pool(seed)
        hashmix = _hasher(0x8B51F9DD, 0x58F38DED)
        w = [hashmix(pool[i % _POOL_SIZE]) for i in range(8)]
        # generate_state(4, uint64): words 0-1 the state, 2-3 the stream
        q = [w[i] | w[i + 1] << 32 for i in range(0, 8, 2)]
        self._inc = ((q[2] << 64 | q[3]) << 1 | 1) & _M128
        self._state = ((self._inc + (q[0] << 64 | q[1])) * _PCG_MULT
                       + self._inc) & _M128

    def random(self, n):
        """The next n doubles in [0, 1), as a list."""
        state, inc, out = self._state, self._inc, []
        for _ in range(n):
            state = (state * _PCG_MULT + inc) & _M128
            x = (state >> 64 ^ state) & _M64
            # XSL-RR: x rotated right by the state's top 6 bits
            out.append((((x | x << 64) >> (state >> 122) & _M64) >> 11)
                       * _ULP)
        self._state = state
        return out

    def uniform(self, lo, hi):
        """The next double of ``Generator.uniform(lo, hi)``."""
        return lo + (hi - lo) * self.random(1)[0]
