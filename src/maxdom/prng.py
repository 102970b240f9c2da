"""Deterministic 64-bit generator (SplitMix64) for reproducible corpora.

The stream depends only on the seed and is identical across platforms and
Python versions.  Reference vectors (seed 0 starts 0xE220A8397B1DCDAF,
0x6E789E6AA1B965F4, ...) are pinned in the test suite.  Bounded draws use a
plain modulo; the tiny bias is irrelevant for test corpora and keeping the
mapping trivial keeps it frozen.

SplitMix64 is a counter generator: after i steps its state is
``seed + i * _GAMMA`` mod 2**64, and output i is a fixed mix of that state
alone.  So ``draws`` computes many outputs at once, without stepping
through them: ``_LANES`` states side by side as 128-bit lanes of one
Python int, mixed by the big-int operations that ``next_u64`` applies to
one.  ``next_u64``, ``below`` and ``randint`` stay as the scalar reference.
"""

from __future__ import annotations

import sys
from array import array
from functools import cache

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# Outputs computed per big-int pass of ``draws``; each is a 128-bit lane, so
# a lane's low 64 bits times a 64-bit constant never carries into the next.
_LANES = 4096


@cache
def _constants() -> tuple[int, int, int]:
    """``(ones, steps, low)``: 1, ``(i + 1) * _GAMMA`` mod 2**64 and 2**64 - 1 in each lane i < ``_LANES``.

    Built on the first ``draws``, so that a process that draws nothing
    (a solve) neither builds nor holds them.
    """
    ones = int.from_bytes((b"\x01" + bytes(15)) * _LANES, "little")
    low = _MASK64 * ones
    iota = int.from_bytes(b"".join(i.to_bytes(16, "little") for i in range(1, _LANES + 1)), "little")
    return ones, iota * _GAMMA & low, low


class SplitMix64:
    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def draws(self, count: int) -> array:
        """The next ``count`` outputs of ``next_u64``, as an ``array('Q')``, computed ``_LANES`` at a time.

        The state moves on by ``count`` steps, so draws and scalar calls
        continue one stream.  Each pass mixes the pass's states as the
        lanes of one int; a mask before and after every multiply keeps each
        lane's low 64 bits, so no lane carries into the next, and the lanes
        are read back as the even 64-bit words of the int's little-endian
        bytes (byte-swapped on a big-endian host).
        """
        out = array("Q")
        for start in range(0, count, _LANES):
            lanes = min(_LANES, count - start)
            bits = (1 << (128 * lanes)) - 1  # a shorter last pass takes the low lanes
            ones, steps, low = (c & bits for c in _constants())
            z = (self._state * ones + steps) & low
            z = ((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
            z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB & low
            z ^= z >> 31  # a lane's high word takes the next lane's bits; only its low word is read
            words = array("Q", z.to_bytes(16 * lanes, "little"))
            if sys.byteorder == "big":
                words.byteswap()
            out += words[0::2]
            self._state = (self._state + lanes * _GAMMA) & _MASK64
        return out

    def below(self, bound: int) -> int:
        """Draw from [0, bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def randint(self, lo: int, hi: int) -> int:
        """Draw from [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.below(hi - lo + 1)
