"""Finite sample runs of stream expressions and the correlator.

Product windows are bit-packed: sample ``start + 64*w + j`` lives in bit
``j`` of 64-bit word ``w``, bit value 1 encoding +1.  Padding bits past
the window length are zero.  Packing turns multiply-and-average of two
product windows into XOR plus popcount: with ``h`` differing positions
out of ``L``, the mean product is ``(L - 2h) / L``.

Superposition windows hold the signed integer sum per sample (int32).

Materializing hashes the wave once per frame run (one run of sign bits
per group of overlapping factor intervals), in one :func:`sign_bits`
call that packs each hash block into the run's word array while it is
still in cache: the frame costs an eighth of a byte per sample.  A run
starts at the word boundary at or below its first sample, so it hashes
fewer than 64 samples more than its intervals cover.  Each distinct
factor offset's words are then derived once, as a word slice of its run
or, off a word boundary, two shifted slices ORed together, and XORed
into every product holding the offset.  Superposition members fold the
same way and their unpacked bits add into the int32 sum.

Correlation is computed in exact integer arithmetic and divided once at
the end, so diagonal correlations are exactly 1.0 and results are
reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .expr import Product, StreamExpr, Superposition
from .source import BLOCK, MASK64, MAX_INDEX, MAX_WINDOW, NoiseSource, _signs, as_source, sign_bits


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
    samples) is set.  ``expr`` records provenance: ``correlation_sweep``
    checks a wire's width against it and ``decode_report`` counts its
    members.  It is None for synthetic windows such as the output of
    :func:`negate`.
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
            return _signs(unpack_bits(self.words, self.length))
        assert self.ints is not None
        return self.ints


#: Samples per step of a superposition's int32 sum: a multiple of 64, so
#: each step unpacks whole words, and at one byte per sample as large as
#: ``BLOCK`` is at eight, so the unpacked bits stay in cache until added.
_FOLD_BLOCK = 8 * BLOCK


def _check_frame(length: int, d: int = 0) -> None:
    if d < 0:  # expr.shift's check, made before the length check
        raise ValueError("negative shifts are not represented; shift the other operand")
    if length < 1:
        raise ValueError(f"window length must be at least 1, got {length}")
    if length > MAX_WINDOW:
        raise ValueError(f"window length must be at most {MAX_WINDOW}, got {length}")


def _frame(seed: int, offsets: Iterable[int], start: int,
           length: int) -> dict[int, tuple[np.ndarray, int]]:
    """Packed sign bits of [start + o, start + o + length) for each distinct
    o: the words of o's run and o's bit position in them.  Overlapping or
    touching intervals merge into runs (``P[0, 2**40]`` hashes two).  Each
    run is one packed :func:`sign_bits` call from the word boundary at or
    below its first sample, whose remainder, below 64, every bit position
    adds; its words end in the spare zero word of the two-shift OR."""
    runs: list[list[int]] = []
    for o in sorted(set(offsets)):
        if runs and o <= runs[-1][-1] + length:
            runs[-1].append(o)
        else:
            runs.append([o])
    frame: dict[int, tuple[np.ndarray, int]] = {}
    for run in runs:
        rem = (start + run[0]) % 64
        words = sign_bits(seed, start + run[0] - rem, rem + run[-1] - run[0] + length,
                          packed=True)
        frame.update((o, (words, rem + o - run[0])) for o in run)
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
    _check_frame(length)
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
