"""Deterministic random telegraph wave with O(1) random access.

The carrier signal is a binary telegraph wave sampled once per period:
sample ``n`` is the wave's sign (+1 or -1) over period ``n``.  Signs are
counter-based rather than sequential, so any sample is addressable
directly without generating its predecessors: the sample index is
rotated by 32 bits, XORed into the seed, and pushed through a 64-bit
avalanche finalizer; the top bit of the result selects the sign.

The finalizer is the splitmix64 output mix (Stafford's mix13 variant).
Its constants are pinned below and must never change: windows are
required to be bit-reproducible across platforms and package versions.

    h(seed, n) = mix64(seed XOR rotl64(n, 32))
    u(n)       = +1 if bit 63 of h is set else -1

    mix64(x):  x ^= x >> 30;  x *= 0xBF58476D1CE4E5B9
               x ^= x >> 27;  x *= 0x94D049BB133111EB
               x ^= x >> 31
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF

_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB
_INDEX_ROT = 32

#: Seed used by the command-line driver and the shipped statistical checks.
DEFAULT_SEED = 42

#: Highest admissible sample index (window start + shift offset + length).
#: Keeps all index arithmetic comfortably inside 64-bit words.
MAX_INDEX = 1 << 62

#: mix64's (shift, multiplier) steps as numpy scalars.
_MIX_STEPS = ((np.uint64(30), np.uint64(_MULT1)), (np.uint64(27), np.uint64(_MULT2)))

#: Samples per step of the blocked loops (sign_bits, the readout sweep).
#: A buffer of 8 bytes per sample, 128 000 bytes, stays in cache and just
#: below malloc's 128 KiB mmap threshold, so it reuses heap pages.
BLOCK = 16_000

#: rotl64(n + j, 32) = rotl64(n, 32) + (j << 32) while n's low half does not wrap.
_ROT_STEPS = np.arange(BLOCK, dtype=np.uint64) << np.uint64(_INDEX_ROT)
_ROT_STEPS.setflags(write=False)


def mix64(x: int) -> int:
    """Avalanche finalizer on 64-bit unsigned integers."""
    x &= MASK64
    x ^= x >> 30
    x = (x * _MULT1) & MASK64
    x ^= x >> 27
    x = (x * _MULT2) & MASK64
    x ^= x >> 31
    return x


def source_sample(seed: int, n: int) -> int:
    """Sign of the wave over period ``n``: +1 or -1. Pure in (seed, n)."""
    if n < 0:
        raise ValueError(f"sample index must be non-negative, got {n}")
    rot = ((n << _INDEX_ROT) | (n >> (64 - _INDEX_ROT))) & MASK64
    return 1 if mix64((seed & MASK64) ^ rot) >> 63 else -1


def sign_bits(seed: int, start: int, length: int) -> np.ndarray:
    """Block of sign bits as uint8; 1 encodes +1. Matches ``source_sample``.
    Hashes BLOCK samples at a time on two reused buffers; mix64's last
    ``x ^= x >> 31`` leaves bit 63 as is and is skipped."""
    if start < 0:
        raise ValueError(f"start must be non-negative, got {start}")
    if length < 1:
        raise ValueError(f"length must be at least 1, got {length}")
    if start + length > MAX_INDEX:
        raise OverflowError(
            f"sample index {start + length} exceeds the supported range (2**62)"
        )
    out = np.empty(length, dtype=np.uint8)
    x = np.empty(min(length, BLOCK), dtype=np.uint64)
    t = np.empty_like(x)
    key = np.uint64(seed & MASK64)
    pos = 0
    while pos < length:
        n = start + pos
        k = min(length - pos, BLOCK, (1 << 32) - (n & 0xFFFFFFFF))
        xk, tk = x[:k], t[:k]
        np.add(_ROT_STEPS[:k], np.uint64((n & 0xFFFFFFFF) << 32 | n >> 32), out=xk)
        xk ^= key
        for shift, mult in _MIX_STEPS:
            np.right_shift(xk, shift, out=tk)
            xk ^= tk
            xk *= mult
        np.right_shift(xk, np.uint64(63), out=out[pos:pos + k], casting="unsafe")
        pos += k
    return out


def sample_block(seed: int, start: int, length: int) -> np.ndarray:
    """Block of wave samples as int8 values in {-1, +1}."""
    bits = sign_bits(seed, start, length)
    return (bits.astype(np.int8) << 1) - 1


@dataclass(frozen=True)
class NoiseSource:
    """Index-addressable telegraph wave, fully determined by its seed."""

    seed: int

    def __post_init__(self) -> None:
        if isinstance(self.seed, bool):
            raise TypeError(f"seed must be an integer, got {self.seed!r}")
        object.__setattr__(self, "seed", operator.index(self.seed))
        if not 0 <= self.seed <= MASK64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")


def as_source(source: NoiseSource | int) -> NoiseSource:
    """Accept either a NoiseSource or a bare seed."""
    if isinstance(source, NoiseSource):
        return source
    return NoiseSource(source)
