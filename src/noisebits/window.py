"""Finite sample runs of stream expressions and the correlator.

Product windows are bit-packed: sample ``start + 64*w + j`` lives in bit
``j`` of 64-bit word ``w``, bit value 1 encoding +1.  Padding bits past
the window length are zero.  Packing turns multiply-and-average of two
product windows into XOR plus popcount: with ``h`` differing positions
out of ``L``, the mean product is ``(L - 2h) / L``.

Superposition windows hold the signed integer sum per sample (int32).

Materializing hashes the wave once per frame (one run of sign bits per
group of overlapping factor intervals) and XOR-folds each product from
slices of it, one block of ``_FOLD_BLOCK`` samples at a time, so the
frame and the fold buffer stay in cache however long the window.

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
from .source import BLOCK, MAX_INDEX, NoiseSource, as_source, sign_bits


def pack_bits(bits01: np.ndarray) -> np.ndarray:
    """Pack a 0/1 uint8 array into little-endian uint64 words."""
    by = np.packbits(bits01, bitorder="little")
    pad = (-by.size) % 8
    if pad:
        by = np.concatenate([by, np.zeros(pad, np.uint8)])
    return by.view(np.uint64)


def unpack_bits(words: np.ndarray, length: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`, truncated to ``length`` bits."""
    return np.unpackbits(words.view(np.uint8), bitorder="little", count=length)


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

    def same_frame(self, other: "Window") -> bool:
        return self.start == other.start and self.length == other.length


#: Samples per block of :func:`materialize_many`: a multiple of 64, so
#: blocks pack into whole words, and at one byte per sample as large as
#: ``BLOCK`` is at eight, so a block's frame and fold stay in cache.
_FOLD_BLOCK = 8 * BLOCK


def _frame(seed: int, offsets: Iterable[int], start: int,
           length: int) -> dict[int, np.ndarray]:
    """Sign bits of [start + o, start + o + length) for each distinct o.

    Overlapping or touching intervals merge into runs, each hashed by one
    :func:`sign_bits` call: ``P[0, 2**40]`` hashes two runs of ``length``.
    """
    runs: list[list[int]] = []
    for o in sorted(set(offsets)):
        if runs and o <= runs[-1][-1] + length:
            runs[-1].append(o)
        else:
            runs.append([o])
    frame: dict[int, np.ndarray] = {}
    for run in runs:
        bits = sign_bits(seed, start + run[0], run[-1] - run[0] + length)
        frame.update((o, bits[o - run[0]:o - run[0] + length]) for o in run)
    return frame


def _product_bits(frame: dict[int, np.ndarray], offsets: tuple[int, ...],
                  out: np.ndarray) -> np.ndarray:
    """0/1 samples of a product (1 encodes +1) into ``out``: the XOR fold
    of its factors' sign bits.  An even factor count flips the fold's
    polarity, so the fold starts from all ones."""
    out.fill(len(offsets) % 2 == 0)
    for o in offsets:
        out ^= frame[o]
    return out


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
    """:func:`materialize` for several expressions over one shared frame,
    built ``_FOLD_BLOCK`` samples at a time: products are folded from the
    block's frame slices and packed into their words, superpositions sum
    their members' folds.  Equal expressions share one Window."""
    src = as_source(source)
    if length < 1:
        raise ValueError(f"window length must be at least 1, got {length}")
    if start < 0:
        raise ValueError(f"window start must be non-negative, got {start}")
    for expr in exprs:
        if not isinstance(expr, (Product, Superposition)):
            raise TypeError(f"not a stream expression: {expr!r}")
    requested, exprs = exprs, list(dict.fromkeys(exprs))
    offsets = {o for e in exprs for m in getattr(e, "members", (e,)) for o in m.offsets}
    if start + length + max(offsets, default=0) > MAX_INDEX:
        raise OverflowError("window reaches past the supported sample index range")
    samples = [np.zeros((length + 63) // 64, dtype=np.uint64) if isinstance(e, Product)
               else np.zeros(length, dtype=np.int32) for e in exprs]
    bits = np.empty(min(length, _FOLD_BLOCK), dtype=np.uint8)  # one fold buffer
    for pos in range(0, length, _FOLD_BLOCK):
        k = min(_FOLD_BLOCK, length - pos)
        frame = _frame(src.seed, offsets, start + pos, k)
        for expr, out in zip(exprs, samples):
            if isinstance(expr, Product):
                packed = np.packbits(_product_bits(frame, expr.offsets, bits[:k]),
                                     bitorder="little")
                out.view(np.uint8)[pos // 8:pos // 8 + packed.size] = packed
                continue
            block = out[pos:pos + k]
            for m in expr.members:  # members at +1, then the signed sum
                block += _product_bits(frame, m.offsets, bits[:k])
            block *= 2
            block -= len(expr.members)
    windows = {e: Window(start, length, src.seed, e, words=out) if isinstance(e, Product)
               else Window(start, length, src.seed, e, ints=out)
               for e, out in zip(exprs, samples)}
    return [windows[e] for e in requested]


def correlate(a: Window, b: Window) -> float:
    """Mean per-sample product of two windows of one seed and frame."""
    if a.seed != b.seed:
        raise ValueError(f"windows come from different source seeds: {a.seed} vs {b.seed}")
    if not a.same_frame(b):
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
        return replace(w, expr=None, words=pack_bits(unpack_bits(w.words, w.length) ^ 1))
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
