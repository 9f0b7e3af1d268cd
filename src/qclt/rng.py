"""Counter-based random streams for reproducible parallel path sampling.

Each path owns a stream keyed by ``(seed, path_index)``; draw ``k`` of a
stream is ``mix64(key + (k + 1) * GOLDEN)`` where ``mix64`` is the standard
splitmix64 finalizer.  Outputs depend only on ``(seed, path_index, k)``, so
any scheduling of paths over workers replays identically.  Uniform doubles
are ``(z >> 11) * 2^-53`` in [0, 1).  :class:`Stream` draws one such stream
on Python integers, for the few values a caller needs one at a time.
"""

from __future__ import annotations

import operator

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX_A = 0xBF58476D1CE4E5B9
MIX_B = 0x94D049BB133111EB
TWO_NEG53 = 2.0 ** -53


def mix64(z: int) -> int:
    """splitmix64 finalizer on Python integers (mod 2^64)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * MIX_A) & MASK64
    z = ((z ^ (z >> 27)) * MIX_B) & MASK64
    return z ^ (z >> 31)


def stream_key(seed: int, index: int) -> int:
    """Starting counter of stream ``index`` under ``seed``: item ``index`` of
    :func:`stream_keys`, on Python integers, so a numpy integer ``seed`` or
    ``index`` gives what the same Python integer gives."""
    seed, index = operator.index(seed), operator.index(index)
    return mix64(mix64(seed + GOLDEN) ^ mix64((index + 1) * GOLDEN))


class Stream:
    """Stream ``index`` under ``seed``, drawn one value at a time as the
    kernels draw it: draw ``k`` is ``mix64(key + (k + 1) * GOLDEN)``."""

    def __init__(self, seed: int, index: int = 0):
        self.counter = stream_key(seed, index)

    def bits(self) -> int:
        """The next draw, a 64-bit integer."""
        self.counter = (self.counter + GOLDEN) & MASK64
        return mix64(self.counter)

    def uniform(self, lo: float, hi: float) -> float:
        """``lo + (hi - lo) u`` for the next draw's uniform ``u`` in [0, 1)."""
        return lo + (hi - lo) * ((self.bits() >> 11) * TWO_NEG53)

    def uniforms(self, lo: float, hi: float, shape) -> np.ndarray:
        """An array of ``shape`` filled by :meth:`uniform` in C order: the
        next ``size`` draws, made in one pass over uint64 arrays, whose
        counters wrap as the Python integers' do."""
        size = int(np.prod(shape))
        z = np.arange(1, size + 1, dtype=np.uint64) * np.uint64(GOLDEN)
        z += np.uint64(self.counter)
        mix64_into(z, np.empty_like(z))
        self.counter = (self.counter + size * GOLDEN) & MASK64
        return (lo + (hi - lo) * ((z >> np.uint64(11)) * TWO_NEG53)).reshape(shape)

    def integer(self, lo: int, hi: int) -> int:
        """An integer in ``[lo, hi)``: the high 64 bits of ``(hi - lo)`` times
        the next draw, added to ``lo``."""
        return lo + (((hi - lo) * self.bits()) >> 64)


def stream_keys(seed: int, count: int, first: int = 0) -> np.ndarray:
    """Starting counters of the ``count`` streams ``first, first + 1, ...``:
    ``mix64(mix64(seed + GOLDEN) ^ mix64((index + 1) * GOLDEN))``, so a
    range of rows or paths gets its keys without the ones before it.  Any
    integer ``seed``, a numpy one too, is taken mod 2^64."""
    seed_mix = np.uint64(mix64(operator.index(seed) + GOLDEN))
    keys = np.arange(first + 1, first + count + 1, dtype=np.uint64)
    keys *= np.uint64(GOLDEN)
    scratch = np.empty_like(keys)
    mix64_into(keys, scratch)
    keys ^= seed_mix
    mix64_into(keys, scratch)
    return keys


def mix64_into(z: np.ndarray, scratch: np.ndarray) -> None:
    """:func:`mix64` in place on the uint64 array ``z`` (wraparound
    arithmetic), with ``scratch`` a uint64 array of its shape that it
    overwrites; allocates nothing."""
    for shift, mult in ((30, MIX_A), (27, MIX_B)):
        np.right_shift(z, np.uint64(shift), out=scratch)
        z ^= scratch
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch

