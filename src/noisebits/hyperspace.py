"""Encoding sets of classical bit strings on one wire, and reading back.

A string of length n_eff picks, for every noise bit i, the reference
carrying its bit value; the product of those references is the string's
carrier.  A set of strings rides the wire as the integer superposition
of its carriers.  Readout correlates the wire window against candidate
carriers: members average near 1, non-members near 0, and a threshold
midway between the two expectations decides membership.

With base = prod_i V_i_0 and flips f_i = V_i_0 * V_i_1, carrier c is
base * prod_{i in c} f_i.  A readout op hashes one ladder frame of
L + 2*n_eff - 1 (+ d) samples and derives every sample's base and flip
pattern from it.  The sweep bins wire * base by pattern into 2**n_eff
int64 totals, ``source.BLOCK`` samples at a time; their Walsh-Hadamard
transform (Fino & Algazi, 1976), Kronecker factors of at most 32 x 32 in
one float64 matmul each, is every candidate's total in O(L + n_eff *
2**n_eff).  Each partial sum is an integer of size <= sum|totals| <= L*m,
so totals are exact, for any BLAS thread count, until one division by L;
sum|x| >= 2**53 raises OverflowError.  Run backwards, the
identity gives a set S's wire, base * W_S[pattern] with W_S the
transform of S's indicator, so a carrier set is read without its wire:
at d = 0, base**2 = 1 makes the histogram the pattern count times W_S;
shifted by d, sample t weighs W_S[pattern(t+d)] * base(t+d) * base(t).
``max_n`` caps the 2**n_eff * 8-byte histogram unless raised explicitly.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .expr import Product, Superposition, canonical_str, member_count, superpose
from .reference import ReferenceSystem, build_reference_system
from .source import BLOCK, sign_bits
from .window import Window, correlate, materialize

#: Classical bit strings are plain tuples of 0/1 ints.
BitString = tuple[int, ...]

#: Default cap on the candidate sweep (2**max_n candidates).
DEFAULT_MAX_N = 14

#: Default membership threshold: midpoint of the member expectation (1)
#: and the non-member expectation (0).
DEFAULT_THRESHOLD = 0.5


def check_bits(bits: Sequence[int], n_eff: int | None = None) -> BitString:
    out = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in out):
        raise ValueError(f"bit values must be 0 or 1, got {bits!r}")
    if n_eff is not None and len(out) != n_eff:
        raise ValueError(f"expected {n_eff} bits, got {len(out)}")
    return out


def format_bits(bits: Sequence[int]) -> str:
    return "".join(str(int(b)) for b in bits)


def parse_bits(text: str) -> BitString:
    if not all(c in "01" for c in text):
        raise ValueError(f"bit string must contain only 0 and 1, got {text!r}")
    return tuple(int(c) for c in text)


def int_to_bits(value: int, width: int) -> BitString:
    """Binary digits of ``value``, least significant bit first."""
    if not 0 <= value < (1 << width):
        raise ValueError(f"value {value} out of range for {width} bits")
    return tuple((value >> i) & 1 for i in range(width))


def bits_to_int(bits: Sequence[int]) -> int:
    return sum(int(b) << i for i, b in enumerate(bits))


def encode_string(sys: ReferenceSystem, bits: Sequence[int]) -> Product:
    """Carrier product of one bit string: reference (i, bits[i]) per bit."""
    s = check_bits(bits, sys.n_eff)
    return Product(tuple(2 * i + b for i, b in enumerate(s)))


def _ladder_string(offsets: Sequence[int], n: int) -> BitString | str:
    """The n-bit string whose carrier has these ladder offsets, or why none
    does: "ladder-overflow" (an offset past 2n - 1), else "bit-collision"."""
    if any(o >= 2 * n for o in offsets):
        return "ladder-overflow"
    out = [-1] * n
    for o in offsets:
        slot, b = divmod(o, 2)
        if out[slot] != -1:
            return "bit-collision"
        out[slot] = b
    return tuple(out)


def product_to_string(p: Product) -> BitString:
    """Inverse of :func:`encode_string`; rejects partial or clashing carriers."""
    s = _ladder_string(p.offsets, len(p.offsets))
    if isinstance(s, str):
        raise ValueError(f"{p} is not a full product-string carrier")
    return s


def encode_integer(sys: ReferenceSystem, value: int) -> Product:
    """Carrier of an integer, bit i of the value on noise bit i + 1."""
    return encode_string(sys, int_to_bits(value, sys.n_eff))


def decode_integer(p: Product) -> int:
    return bits_to_int(product_to_string(p))


def encode_set(sys: ReferenceSystem, strings: Iterable[Sequence[int]]) -> Superposition:
    """Superposition of the carriers of a set of strings; empty set is
    the zero signal.  Members are stored sorted for reproducibility;
    duplicate strings are rejected."""
    carriers = sorted((encode_string(sys, s) for s in strings),
                      key=lambda p: p.offsets)
    return superpose(carriers)


def default_window_len(m: int) -> int:
    """Window length policy, max(10**4, 400 * (m - 1)): 5 sigma stays below 0.25, half
    the margin, unless member terms add coherently (README, readout policy)."""
    return max(10_000, 400 * (max(m, 1) - 1))


@dataclass(frozen=True)
class DetectionResult:
    """Membership verdict for one candidate string."""

    rho: float
    threshold: float
    present: bool


def _signal_members(window: Window) -> int:
    if window.expr is not None:
        return member_count(window.expr)
    if window.ints is not None and window.ints.size:
        return int(np.abs(window.ints).max())  # lower bound when provenance lost
    return 1


def _check_same_source(signal_window: Window, sys: ReferenceSystem) -> None:
    if signal_window.seed != sys.seed:
        raise ValueError(
            f"window comes from source seed {signal_window.seed}, "
            f"reference system uses {sys.seed}"
        )


def detect_string(signal_window: Window, sys: ReferenceSystem,
                  bits: Sequence[int],
                  threshold: float = DEFAULT_THRESHOLD) -> DetectionResult:
    """Correlate the wire window against one candidate carrier."""
    _check_same_source(signal_window, sys)
    candidate = materialize(sys.source, encode_string(sys, bits),
                            signal_window.start, signal_window.length)
    rho = correlate(signal_window, candidate)
    return DetectionResult(rho=rho, threshold=threshold, present=rho > threshold)


def _check_frame(length: int, d: int) -> None:
    if d < 0:  # expr.shift's check, made before the length check
        raise ValueError("negative shifts are not represented; shift the other operand")
    if length < 1:
        raise ValueError(f"window length must be at least 1, got {length}")


def ladder_frame(seed: int, n_eff: int, start: int, length: int,
                 d: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """``base`` (int8 +-1) and flip ``pattern`` (bit i set where V_i_0 != V_i_1) of the samples
    [start, start + length + d), from one hash of [start, start + length + 2*n_eff - 1 + d)."""
    _check_frame(length, d)
    span = length + d
    bits = sign_bits(seed, start, span + 2 * n_eff - 1)
    base = np.empty(span, dtype=np.int8)
    pattern = np.zeros(span, dtype=np.uint16 if n_eff <= 16 else np.uint32)
    for pos in range(0, span, BLOCK):  # bounded temporaries; see BLOCK
        sub = bits[pos:pos + BLOCK + 2 * n_eff - 1]
        k = sub.size - 2 * n_eff + 1
        flips = (sub[:-1] ^ sub[1:]).astype(pattern.dtype)
        sign = np.full(k, n_eff % 2 == 0, dtype=np.uint8)  # bit 1 encodes +1
        for i in range(n_eff):  # V_i_b is sub[t + 2i + b], i from 0 here
            sign ^= sub[2 * i:2 * i + k]
            pattern[pos:pos + k] |= flips[2 * i:2 * i + k] << i
        np.subtract(sign << 1, 1, out=base[pos:pos + k], casting="unsafe")
    return base, pattern


def _check_capacity(n_eff: int, max_n: int) -> None:
    if n_eff > max_n:
        raise ValueError(
            f"capacity exceeded: raise max_n explicitly (n_eff={n_eff}, max_n={max_n})"
        )


def _check_threshold(threshold: float) -> None:
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be a finite number, got {threshold}")


def correlation_sweep(signal_window: Window, sys: ReferenceSystem,
                      max_n: int = DEFAULT_MAX_N) -> np.ndarray:
    """rho against every candidate carrier, indexed by its integer value
    (least significant bit on noise bit 1); see the module docstring."""
    n = sys.n_eff
    _check_capacity(n, max_n)
    _check_same_source(signal_window, sys)
    expr = signal_window.expr
    for m in () if expr is None else getattr(expr, "members", (expr,)):
        if len(m.offsets) != n:
            raise ValueError(f"wire member {canonical_str(m)} is not a {n}-bit string carrier")
    length = signal_window.length
    base, pattern = ladder_frame(sys.seed, n, signal_window.start, length)
    signal = signal_window.values
    totals = np.zeros(1 << n, dtype=np.int64)
    for pos in range(0, length, BLOCK):  # bounded temporaries; see BLOCK
        end = min(pos + BLOCK, length)
        weight = np.multiply(signal[pos:end], base[pos:end], dtype=np.int64)
        np.add.at(totals, pattern[pos:end], weight)
    return walsh_hadamard(totals) / length


#: The 32 x 32 Sylvester-Hadamard matrix; its top-left 2**b block is H_(2**b).
_H32 = 1.0 - 2 * (np.bitwise_count(np.arange(32)[:, None] & np.arange(32)) & 1)


def walsh_hadamard(x: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of a 2**n integer vector, in float64.
    A step multiplies the low b <= 5 index bits by H_(2**b), writing the result
    transposed into the other buffer so those bits rotate to the top; ceil(n / 5)
    steps restore the order.  Column 0 of H is +1, so no output is -0.0."""
    n = x.size.bit_length() - 1
    y = np.array(x, dtype=np.float64)
    buf = np.empty_like(y)
    if not np.abs(y, out=buf).sum() < 2.0**53:
        raise OverflowError("Walsh-Hadamard input has sum|x| >= 2**53; float64 would round")
    for j in range(steps := -(-n // 5)):
        b = (n + j) // steps  # these b sum to n
        np.matmul(_H32[:1 << b, :1 << b], y.reshape(-1, 1 << b).T, out=buf.reshape(1 << b, -1))
        y, buf = buf, y
    return y


def readout(signal_window: Window, sys: ReferenceSystem,
            threshold: float = DEFAULT_THRESHOLD,
            max_n: int = DEFAULT_MAX_N) -> tuple[np.ndarray, list[int]]:
    """Sweep and threshold: every rho, and the candidates (ascending ints) above ``threshold``."""
    _check_threshold(threshold)
    rhos = correlation_sweep(signal_window, sys, max_n)
    return rhos, np.flatnonzero(rhos > threshold).tolist()


def carrier_set_readout(sys: ReferenceSystem, values: Sequence[int], length: int, d: int = 0,
                        threshold: float = DEFAULT_THRESHOLD,
                        max_n: int = DEFAULT_MAX_N) -> tuple[np.ndarray, list[int]]:
    """:func:`readout` of the wire over [0, length) carrying the strings
    ``values`` (ints) shifted by d, binned straight off the ladder frame
    without building the wire; see the module docstring."""
    n = sys.n_eff
    _check_frame(length, d)
    _check_threshold(threshold)
    _check_capacity(n, max_n)
    table = np.zeros(1 << n, dtype=np.int32)
    np.add.at(table, list(values), 1)
    table = walsh_hadamard(table).astype(np.int32)  # W_S: the wire is base * W_S[pattern]
    base, pattern = ladder_frame(sys.seed, n, 0, length, d)  # after W_S's float64 buffers
    totals = np.zeros(1 << n, dtype=np.int64)
    for pos in range(0, length, BLOCK):  # bounded temporaries; see BLOCK
        end = min(pos + BLOCK, length)
        if d == 0:  # wire * base is W_S[pattern]: count the patterns
            totals += np.bincount(pattern[pos:end], minlength=1 << n)
            continue
        weight = np.multiply(table[pattern[pos + d:end + d]], base[pos + d:end + d],
                             dtype=np.int64)  # int64, so np.add.at takes its fast path
        weight *= base[pos:end]
        np.add.at(totals, pattern[pos:end], weight)
    del base, pattern  # binned: the last transform runs without the frame
    if d == 0:
        totals *= table
    rhos = walsh_hadamard(totals) / length
    return rhos, np.flatnonzero(rhos > threshold).tolist()


def format_value(value: int, n_eff: int) -> str:
    """``format_bits(int_to_bits(value, n_eff))`` without the tuple."""
    return format(value, f"0{n_eff}b")[::-1]


@functools.cache
def _candidate_labels(n_eff: int) -> tuple[str, ...]:
    """``format_bits(int_to_bits(v, n_eff))`` for every v, in order."""
    return tuple(format_value(v, n_eff) for v in range(1 << n_eff))


class Correlations(list):
    """Every candidate's ``{"candidate", "rho"}`` row, keeping ``n_eff`` and the ``labels``
    and ``rhos`` columns for the CLI to write tables from.  A snapshot: nothing in the
    package edits it after :func:`add_correlations`, and an edit would not reach a column."""

    def __init__(self, n_eff: int, rhos: np.ndarray):
        self.n_eff, self.labels, self.rhos = n_eff, _candidate_labels(n_eff), rhos.tolist()
        super().__init__([{"candidate": c, "rho": r} for c, r in zip(self.labels, self.rhos)])


def add_correlations(report: dict, rhos: np.ndarray, n_eff: int) -> dict:
    """Append every candidate's rho to ``report``, as :class:`Correlations`, when n_eff <= 10."""
    if n_eff <= 10:
        report["correlations"] = Correlations(n_eff, rhos)
    return report


def decode_superposition(signal_window: Window, sys: ReferenceSystem,
                         threshold: float = DEFAULT_THRESHOLD,
                         max_n: int = DEFAULT_MAX_N) -> set[BitString]:
    """All candidate strings whose correlation clears the threshold."""
    return {int_to_bits(v, sys.n_eff) for v in readout(signal_window, sys, threshold, max_n)[1]}


def decode_report(signal_window: Window, sys: ReferenceSystem,
                  threshold: float = DEFAULT_THRESHOLD,
                  max_n: int = DEFAULT_MAX_N) -> dict:
    """JSON-ready readout report.

    Keys: seed, N, k, m, L, threshold, detected (sorted "0101" strings)
    and, for n_eff <= 10, the full correlations list.
    """
    rhos, hits = readout(signal_window, sys, threshold, max_n)
    return add_correlations({
        "seed": sys.seed,
        "N": sys.n_bits,
        "k": sys.extra_shift_rounds,
        "m": _signal_members(signal_window),
        "L": signal_window.length,
        "threshold": threshold,
        "detected": sorted(format_value(v, sys.n_eff) for v in hits),
    }, rhos, sys.n_eff)


def round_trip_run(seed: int, n_bits: int, m_strings: int,
                   length: int | None = None,
                   threshold: float = DEFAULT_THRESHOLD,
                   max_n: int = DEFAULT_MAX_N,
                   extra_shift_rounds: int = 0) -> dict:
    """Encode m random strings, decode them back, and score the result.

    The string draw and the wire noise both derive from ``seed``, so a
    run is one reproducible experiment.
    """
    sys = build_reference_system(seed, n_bits, extra_shift_rounds)
    if not 1 <= m_strings <= 1 << sys.n_eff:
        raise ValueError(f"m_strings must be in 1..2**n_eff = 1..{1 << sys.n_eff}, "
                         f"got {m_strings}")
    if length is None:
        length = default_window_len(m_strings)
    population = random.Random(seed).sample(range(1 << sys.n_eff), m_strings)
    rhos, hits = carrier_set_readout(sys, population, length, 0, threshold, max_n)

    members = sorted(population)
    return {
        "seed": seed,
        "N": n_bits,
        "k": extra_shift_rounds,
        "m": m_strings,
        "L": length,
        "threshold": threshold,
        "strings": sorted(format_value(v, sys.n_eff) for v in members),
        "detected": sorted(format_value(v, sys.n_eff) for v in hits),
        "ok": hits == members,
        "member_rho_min": float(rhos[members].min()),
        "member_rho_max": float(rhos[members].max()),
        "nonmember_abs_max": float(np.abs(np.delete(rhos, members)).max(initial=0.0)),
    }
