"""Finite sample runs of stream expressions and the correlator.

Product windows are bit-packed: sample ``start + 64*w + j`` lives in bit
``j`` of 64-bit word ``w``, bit value 1 encoding +1.  Padding bits past
the window length are zero.  Packing turns multiply-and-average of two
product windows into XOR plus popcount: with ``h`` differing positions
out of ``L``, the mean product is ``(L - 2h) / L``.

Superposition windows hold the signed integer sum per sample (int32).

Materializing hashes the wave once per frame run (one run of sign bits
per group of overlapping factor intervals), ``_FOLD_BLOCK`` samples per
hash call, and packs each run into one word array: the frame costs an
eighth of a byte per sample.  Each distinct factor offset's words are
then derived once, as a word slice of its run or, off a word boundary,
two shifted slices ORed together, and XORed into every product holding
the offset.  Superposition members fold the same way and their unpacked
bits add into the int32 sum.

Correlation is computed in exact integer arithmetic and divided once at
the end, so diagonal correlations are exactly 1.0 and results are
reproducible bit for bit.

A window can be dumped to a small binary file for debugging; see
:func:`dump_window` for the layout.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import BinaryIO, Iterable, Sequence

import numpy as np

from .expr import Product, StreamExpr, Superposition, canonical_str, parse_expr
from .source import BLOCK, MASK64, MAX_INDEX, NoiseSource, as_source, sign_bits


def unpack_bits(words: np.ndarray, length: int) -> np.ndarray:
    """0/1 samples of packed words, truncated to ``length`` bits."""
    return np.unpackbits(words.view(np.uint8), bitorder="little", count=length)


def _clear_padding(words: np.ndarray, length: int) -> np.ndarray:
    """``words`` with the bits of its last word past ``length`` zeroed."""
    words[-1:] &= np.uint64(MASK64 >> -length % 64)
    return words


def popcount(words: np.ndarray) -> int:
    return int(np.bitwise_count(words).sum(dtype=np.int64))


@dataclass(frozen=True, eq=False)
class Window:
    """Materialized run of an expression over [start, start + length).

    Exactly one of ``words`` (packed +-1 samples) and ``ints`` (integer
    samples) is set.  ``expr`` records provenance for dump headers and
    detection bookkeeping; it is None for synthetic windows such as the
    output of :func:`negate`.
    """

    start: int
    length: int
    seed: int
    expr: StreamExpr | None
    words: np.ndarray | None = None
    ints: np.ndarray | None = None

    def __post_init__(self) -> None:
        for samples in (self.words, self.ints):
            if samples is not None:
                samples.setflags(write=False)

    @property
    def values(self) -> np.ndarray:
        """Samples as a signed array: int8 +-1 when packed, else int32."""
        if self.words is not None:
            bits = unpack_bits(self.words, self.length)
            return (bits.astype(np.int8) << 1) - 1
        assert self.ints is not None
        return self.ints


#: Samples per :func:`sign_bits` call of a frame run: a multiple of 64,
#: so each call packs into whole words, and at one byte per sample as
#: large as ``BLOCK`` is at eight, so the bits stay in cache until packed.
_FOLD_BLOCK = 8 * BLOCK


def _frame(seed: int, offsets: Iterable[int], start: int,
           length: int) -> dict[int, tuple[np.ndarray, int]]:
    """Packed sign bits of [start + o, start + o + length) for each distinct
    o: the words of o's run and o's bit position in them.  Overlapping or
    touching intervals merge into runs (``P[0, 2**40]`` hashes two), each
    hashed ``_FOLD_BLOCK`` samples per :func:`sign_bits` call into one word
    array, with a spare zero word for the two-shift OR."""
    runs: list[list[int]] = []
    for o in sorted(set(offsets)):
        if runs and o <= runs[-1][-1] + length:
            runs[-1].append(o)
        else:
            runs.append([o])
    frame: dict[int, tuple[np.ndarray, int]] = {}
    for run in runs:
        size = run[-1] - run[0] + length
        words = np.zeros(size // 64 + 2, dtype=np.uint64)
        for pos in range(0, size, _FOLD_BLOCK):
            packed = np.packbits(sign_bits(seed, start + run[0] + pos,
                                           min(_FOLD_BLOCK, size - pos)), bitorder="little")
            words.view(np.uint8)[pos // 8:pos // 8 + packed.size] = packed
        frame.update((o, (words, o - run[0])) for o in run)
    return frame


def product_words(source: NoiseSource | int, offsets: tuple[int, ...],
                  start: int, length: int) -> np.ndarray:
    """Packed +-1 window of a product stream (bit 1 encodes +1)."""
    return materialize(source, Product(offsets), start, length).words


def materialize(source: NoiseSource | int, expr: StreamExpr,
                start: int, length: int) -> Window:
    """Evaluate ``expr`` over [start, start + length) into a Window,
    hashing the wave once for all of its factors."""
    return materialize_many(source, (expr,), start, length)[0]


def materialize_many(source: NoiseSource | int, exprs: Sequence[StreamExpr],
                     start: int, length: int) -> list[Window]:
    """:func:`materialize` for several expressions over one shared frame:
    each distinct offset's factor words are derived once and XORed into
    every product holding it, superposition members included; a
    superposition adds its members' unpacked folds, ``_FOLD_BLOCK``
    samples at a time.  Equal expressions share one Window."""
    src = as_source(source)
    if length < 1:
        raise ValueError(f"window length must be at least 1, got {length}")
    if start < 0:
        raise ValueError(f"window start must be non-negative, got {start}")
    for expr in exprs:
        if not isinstance(expr, (Product, Superposition)):
            raise TypeError(f"not a stream expression: {expr!r}")
    requested, exprs = exprs, list(dict.fromkeys(exprs))
    sums = [e for e in exprs if isinstance(e, Superposition)]
    products = dict.fromkeys([e for e in exprs if isinstance(e, Product)]
                             + [m for s in sums for m in s.members])
    offsets = [o for p in products for o in p.offsets]
    if start + length + max(offsets, default=0) > MAX_INDEX:
        raise OverflowError("window reaches past the supported sample index range")
    frame = _frame(src.seed, offsets, start, length)
    n = (length + 63) // 64
    folds = {p: np.full(n, 0 if len(p.offsets) % 2 else MASK64, dtype=np.uint64)
             for p in products}  # an even factor count starts the fold at +1
    factor, spill = np.empty((2, n), dtype=np.uint64)
    for o, (run, bit) in frame.items():
        lo, shift = divmod(bit, 64)
        if shift:  # factor = run[lo:lo + n] shifted down by ``shift`` bits
            np.right_shift(run[lo:lo + n], np.uint64(shift), out=factor)
            np.left_shift(run[lo + 1:lo + n + 1], np.uint64(64 - shift), out=spill)
            np.bitwise_or(factor, spill, out=factor)
        for p, fold in folds.items():
            if o in p.offsets:
                fold ^= factor if shift else run[lo:lo + n]
    del frame, factor, spill
    windows = {}
    for s in sums:
        out = np.zeros(length, dtype=np.int32)
        for pos in range(0, length, _FOLD_BLOCK):  # members at +1, then the signed sum
            block = out[pos:pos + _FOLD_BLOCK]
            for m in s.members:
                block += unpack_bits(folds[m][pos // 64:], block.size)
        out *= 2
        out -= len(s.members)
        windows[s] = Window(start, length, src.seed, s, ints=out)
    windows.update((p, Window(start, length, src.seed, p, words=_clear_padding(folds[p], length)))
                   for p in exprs if isinstance(p, Product))
    return [windows[e] for e in requested]


def correlate(a: Window, b: Window) -> float:
    """Mean per-sample product of two windows of one seed and frame."""
    if a.seed != b.seed:
        raise ValueError(f"windows come from different source seeds: {a.seed} vs {b.seed}")
    if (a.start, a.length) != (b.start, b.length):
        raise ValueError(
            f"window frames differ: [{a.start}, +{a.length}) vs [{b.start}, +{b.length})"
        )
    L = a.length
    if a.words is not None and b.words is not None:
        return (L - 2 * popcount(a.words ^ b.words)) / L
    return int(a.values.astype(np.int64) @ b.values.astype(np.int64)) / L


def negate(w: Window) -> Window:
    """Pointwise sign flip; provenance is dropped (negation has no
    expression form in the algebra)."""
    if w.words is not None:
        return replace(w, expr=None, words=_clear_padding(~w.words, w.length))
    return replace(w, expr=None, ints=-w.ints)


# ----------------------------------------------------------------------
# Debug dump format (little-endian throughout):
#   magic   4s   b"NBW1"
#   seed    u64
#   start   u64
#   length  u64
#   kind    u8   0 = packed product bits, 1 = superposition int32 samples
#   elen    u32  byte length of the canonical expression string
#   expr    elen bytes, utf-8 ("" when provenance is unknown)
#   payload kind 0: ceil(length/64) u64 words; kind 1: length i32 values
# ----------------------------------------------------------------------

_MAGIC = b"NBW1"
_HEADER = struct.Struct("<4sQQQBI")


def dump_window(w: Window, fh: BinaryIO) -> None:
    """Write a window to an open binary file."""
    expr_bytes = (canonical_str(w.expr) if w.expr is not None else "").encode()
    kind = 0 if w.words is not None else 1
    fh.write(_HEADER.pack(_MAGIC, w.seed, w.start, w.length, kind, len(expr_bytes)))
    fh.write(expr_bytes)
    if kind == 0:
        fh.write(w.words.astype("<u8").tobytes())
    else:
        fh.write(w.ints.astype("<i4").tobytes())


def _read_exactly(fh: BinaryIO, size: int, part: str) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise ValueError(f"truncated window dump: {part} needs {size} bytes, got {len(data)}")
    return data


def load_window(fh: BinaryIO) -> Window:
    """Read a window written by :func:`dump_window`; a malformed dump
    (truncated, unknown kind, out-of-range frame, trailing bytes) raises
    ValueError."""
    magic, seed, start, length, kind, elen = _HEADER.unpack(
        _read_exactly(fh, _HEADER.size, "header"))
    if magic != _MAGIC:
        raise ValueError("not a window dump (bad magic)")
    if kind not in (0, 1):
        raise ValueError(f"unknown window kind {kind}: 0 is packed, 1 is int32")
    if length < 1 or start + length > MAX_INDEX:
        raise ValueError(f"window frame [{start}, +{length}) out of range")
    expr_text = _read_exactly(fh, elen, "expression").decode()
    expr = parse_expr(expr_text) if expr_text else None
    payload = _read_exactly(fh, 8 * ((length + 63) // 64) if kind == 0 else 4 * length,
                            "payload")
    if fh.read(1):
        raise ValueError("trailing bytes after the window payload")
    if kind == 0:
        words = np.frombuffer(payload, dtype="<u8").astype(np.uint64)
        return Window(start=start, length=length, seed=seed, expr=expr, words=words)
    ints = np.frombuffer(payload, dtype="<i4").astype(np.int32)
    return Window(start=start, length=length, seed=seed, expr=expr, ints=ints)
