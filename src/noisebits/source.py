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
seed ^ rotl64(a, 32), one constant k per block.  The last step leaves
bit 63 as is.  A window's first block tabulates (_LINEAR ^ k) * M1, over
the whole block or, for a window inside one block, only the samples it
reads, in six array passes: the XOR, the two middle steps and a
comparison with 2**63.  ``_LINEAR[j]`` sets only the bits of
``_SUPPORT`` (2-15 and 32-45), so the bits of k outside them add: with
k = k_in | k_out split there, (_LINEAR[j] ^ k) * M1 = (_LINEAR[j] ^ k_in)
* M1 + k_out * M1 mod 2**64.  So a later block with the same k_in is the
table plus one constant, in five passes; k_in takes bits 30-31 and 34-47
of the sample index, so the table is rebuilt, in place, only where a
window crosses a multiple of 2**30.  The ``packed`` keyword and
``ladder_frame``'s fold of the uint8 default stay: a packed ladder frame
took 0.052 ms, not 0.046, at n_eff 14 and L = 10**4 (``encode-dense``
op_p50 +27%), and one from ``materialize_many`` was 15-18x slower.
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

#: Longest window a command materializes or reads out, checked before any of it
#: is allocated: a readout's ladder frame takes about 4 bytes a sample, 1 GiB here.
MAX_WINDOW = 1 << 28

#: Samples per step of the blocked loops (sign_bits, the readout sweep),
#: a power of two so hash blocks align to the sample index.  A buffer of
#: 8 bytes per sample, 128 KiB, stays in cache.
BLOCK = 1 << 14

#: mix64's first step of rotl64(j, 32) for every j < BLOCK: (j << 32) ^ (j << 2),
#: whose bits are disjoint, so it is j * (2**32 + 4).
_LINEAR = np.arange(BLOCK, dtype=np.uint64) * np.uint64((1 << 32) + (1 << 2))
_LINEAR.setflags(write=False)
#: The bits that ``_LINEAR`` sets: 2-15 and 32-45, all of them at j = BLOCK - 1.
_SUPPORT = int(_LINEAR[-1])
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


def sign_bits(seed: int, start: int, length: int, *, packed: bool = False) -> np.ndarray:
    """Block of sign bits as uint8; 1 encodes +1. Matches ``source_sample``.
    Hashes one aligned BLOCK at a time on reused buffers (module docstring).

    With ``packed``, the bits come as uint64 words instead, packed block by
    block: bit j of word w is sample ``start + 64*w + j``, for a ``start``
    that is a multiple of 64.  The words past the window are zero, one
    spare word included."""
    if start < 0:
        raise ValueError(f"start must be non-negative, got {start}")
    if length < 1:
        raise ValueError(f"length must be at least 1, got {length}")
    if packed and start % 64:
        raise ValueError(f"a packed window must start at a multiple of 64, got {start}")
    if start + length > MAX_INDEX:
        raise OverflowError(
            f"sample index {start + length} exceeds the supported range (2**62)"
        )
    first, end = start - start % BLOCK, start + length
    x, t = np.empty((2, min(length, BLOCK)), dtype=np.uint64)
    # table[i] is for j = base + i; a window inside one block tabulates only its samples, in x
    base, table = (start - first, x) if end <= first + BLOCK else (0, np.empty(BLOCK, np.uint64))
    if packed:
        out = np.zeros(length // 64 + 2, dtype=np.uint64)
        signs = np.empty(x.size, dtype=np.bool_)
    else:
        out = np.empty(length, dtype=np.uint8)
    seed &= MASK64
    k_table = None
    for a in range(first, end, BLOCK):
        lo, hi = max(a, start), min(a + BLOCK, end)
        xk, tk = x[:hi - lo], t[:hi - lo]
        c = seed ^ ((a << _INDEX_ROT | a >> (64 - _INDEX_ROT)) & MASK64)
        k = c ^ c >> 30
        if k_table is None or (k ^ k_table) & _SUPPORT:
            np.bitwise_xor(_LINEAR[base:base + table.size], np.uint64(k), out=table)
            table *= _M1
            k_table = k
        y = table[lo - a - base:hi - a - base]
        if k != k_table:  # same k_in, so k - k_table is the k_out difference
            np.add(y, np.uint64((k - k_table) * _MULT1 & MASK64), out=xk)
            y = xk
        np.right_shift(y, _S27, out=tk)
        np.bitwise_xor(y, tk, out=xk)
        xk *= _M2
        if packed:
            np.greater_equal(xk, _TOP, out=signs[:hi - lo])
            block = np.packbits(signs[:hi - lo], bitorder="little")
            pos = (lo - start) // 8
            out.view(np.uint8)[pos:pos + block.size] = block
        else:
            np.greater_equal(xk, _TOP, out=out.view(np.bool_)[lo - start:hi - start])
    return out


def _signs(bits: np.ndarray) -> np.ndarray:
    """Sign bits (1 encodes +1) as int8 +-1, by an in-place add: numpy shifts int8 slowly."""
    values = bits.astype(np.int8)
    values += values
    values -= 1
    return values


def sample_block(seed: int, start: int, length: int) -> np.ndarray:
    """Block of wave samples as int8 values in {-1, +1}."""
    return _signs(sign_bits(seed, start, length))


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
