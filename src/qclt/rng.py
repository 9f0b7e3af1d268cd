"""Counter-based random streams for reproducible parallel path sampling.

Each path owns a stream keyed by ``(seed, path_index)``; draw ``k`` of a
stream is ``mix64(key + (k + 1) * GOLDEN)`` where ``mix64`` is the standard
splitmix64 finalizer.  Outputs depend only on ``(seed, path_index, k)``, so
any scheduling of paths over workers replays identically.  Uniform doubles
are ``(z >> 11) * 2^-53`` in [0, 1).
"""

from __future__ import annotations

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


def stream_key(seed: int, path_index: int) -> int:
    """Well-mixed 64-bit starting counter for one path's stream."""
    return mix64(mix64((seed + GOLDEN) & MASK64) ^ mix64(((path_index + 1) * GOLDEN) & MASK64))


def stream_keys(seed: int, num_paths: int) -> np.ndarray:
    """Vectorized :func:`stream_key` for path indices ``0..num_paths-1``."""
    idx = np.arange(num_paths, dtype=np.uint64)
    seed_mix = np.uint64(mix64(seed + GOLDEN))
    keys = (idx + np.uint64(1)) * np.uint64(GOLDEN)
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


class PathStream:
    """Scalar view of one path's stream; replays exactly what the kernels draw."""

    def __init__(self, seed: int, path_index: int):
        self.key = stream_key(seed, path_index)
        self.counter = 0

    def uniform(self) -> float:
        self.counter += 1
        z = mix64((self.key + self.counter * GOLDEN) & MASK64)
        return (z >> 11) * TWO_NEG53
