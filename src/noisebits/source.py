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

sign_bits hashes blocks of ``BLOCK`` = 2**14 samples aligned to the
sample index.  With n = a | j, a a multiple of BLOCK and j < BLOCK,
rotl64 and mix64's first step ``x ^= x >> 30`` are linear over GF(2), so
that step of seed ^ rotl64(n, 32) is ``_LINEAR[j]`` XOR the step of
seed ^ rotl64(a, 32), one constant per block.  The last step leaves bit
63 as is.  So a block takes six array passes: XOR with the table, the
two middle steps and a comparison with 2**63.
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

#: Samples per step of the blocked loops (sign_bits, the readout sweep),
#: a power of two so hash blocks align to the sample index.  A buffer of
#: 8 bytes per sample, 128 KiB, stays in cache.
BLOCK = 1 << 14

#: mix64's first step of rotl64(j, 32) for every j < BLOCK: (j << 32) ^ (j << 2),
#: whose bits are disjoint, so it is j * (2**32 + 4).
_LINEAR = np.arange(BLOCK, dtype=np.uint64) * np.uint64((1 << 32) + (1 << 2))
_LINEAR.setflags(write=False)
_M1, _M2, _S27, _TOP = np.uint64(_MULT1), np.uint64(_MULT2), np.uint64(27), np.uint64(1 << 63)


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
    Hashes one aligned BLOCK at a time on two reused buffers (module docstring)."""
    if start < 0:
        raise ValueError(f"start must be non-negative, got {start}")
    if length < 1:
        raise ValueError(f"length must be at least 1, got {length}")
    if start + length > MAX_INDEX:
        raise OverflowError(
            f"sample index {start + length} exceeds the supported range (2**62)"
        )
    out = np.empty(length, dtype=np.uint8)
    signs = out.view(np.bool_)
    x = np.empty(min(length, BLOCK), dtype=np.uint64)
    t = np.empty_like(x)
    seed &= MASK64
    for a in range(start - start % BLOCK, start + length, BLOCK):
        lo, hi = max(a, start), min(a + BLOCK, start + length)
        xk, tk = x[:hi - lo], t[:hi - lo]
        c = seed ^ ((a << _INDEX_ROT | a >> (64 - _INDEX_ROT)) & MASK64)
        np.bitwise_xor(_LINEAR[lo - a:hi - a], np.uint64(c ^ c >> 30), out=xk)
        xk *= _M1
        np.right_shift(xk, _S27, out=tk)
        xk ^= tk
        xk *= _M2
        np.greater_equal(xk, _TOP, out=signs[lo - start:hi - start])
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
