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
pattern from it in log-depth passes: about log2(n_eff) shifted XORs of
neighbour flips for the pattern, and of sign bits for the base, which a
carrier set read at d = 0 does not derive.  The sweep bins wire * base
by pattern into 2**n_eff int64 totals, ``source.BLOCK`` samples at a
time; their Walsh-Hadamard transform (Fino & Algazi, 1976), Kronecker
factors of at most 32 x 32 in one float64 matmul each, is every
candidate's total in O(L + n_eff * 2**n_eff).  Each partial sum is an
integer of size <= sum|totals| <= L*m, so totals are exact, for any BLAS
thread count, until one division by L; sum|x| >= 2**53 raises
OverflowError.  Run backwards, the identity gives a set S's wire,
base * W_S[pattern] with W_S the transform of S's indicator, so a
carrier set is read without its wire: at d = 0, base**2 = 1 makes the
histogram the pattern count times W_S; shifted by d, sample t weighs
W_S[pattern(t+d)] * base(t+d) * base(t).
``max_n`` caps the 2**n_eff * 8-byte histogram unless raised explicitly.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .expr import Product, Superposition, canonical_str, superpose
from .reference import ReferenceSystem, _header, build_reference_system, carrier_offsets
from .source import BLOCK, sign_bits
from .window import Window, _check_frame, correlate, materialize

#: Classical bit strings are plain tuples of 0/1 ints.
BitString = tuple[int, ...]

#: Default cap on the candidate sweep (2**max_n candidates).
DEFAULT_MAX_N = 14

#: Default membership threshold: midpoint of the member expectation (1)
#: and the non-member expectation (0).
DEFAULT_THRESHOLD = 0.5


def check_bits(bits: Sequence[int], n_eff: int | None = None) -> BitString:
    out = tuple(operator.index(b) for b in bits)
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
    return Product(carrier_offsets(check_bits(bits, sys.n_eff)))


def encode_integer(sys: ReferenceSystem, value: int) -> Product:
    """Carrier of an integer, bit i of the value on noise bit i + 1."""
    return encode_string(sys, int_to_bits(value, sys.n_eff))


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
        return len(getattr(window.expr, "members", (window.expr,)))
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
    _check_threshold(threshold)
    _check_same_source(signal_window, sys)
    candidate = materialize(sys.source, encode_string(sys, bits),
                            signal_window.start, signal_window.length)
    rho = correlate(signal_window, candidate)
    return DetectionResult(rho=rho, threshold=threshold, present=rho > threshold)


def _ladder_fold(x: np.ndarray, n: int, s: int, k: int) -> np.ndarray:
    """``y[t] = XOR_{i<n} x[t + 2i] << s*i`` for t < k, from x of at least k + 2n - 2
    entries, in x's dtype; y may be a view of x.  A doubling turns ``run``, the fold of h
    terms, into that of 2h: ``run[t] ^ run[t + 2h] << s*h``; each set bit of n folds ``run``
    into ``y`` past the terms already taken.  So n costs floor(log2 n) doublings plus one
    combine per extra set bit.  A shift by 0 is skipped: numpy shifts uint8 slowly."""
    y, run, done, h = None, x, 0, 1
    while True:
        if n & h:
            part = run[2 * done:2 * done + k]
            if s * done:
                part = part << s * done
            y = part if y is None else y ^ part
            done += h
        if done == n:
            return y
        run = run[:-2 * h] ^ (run[2 * h:] << s * h if s else run[2 * h:])
        h *= 2


def ladder_frame(seed: int, n_eff: int, start: int, length: int,
                 d: int = 0, *, _base: bool = True) -> tuple[np.ndarray | None, np.ndarray]:
    """``base`` (int8 +-1) and flip ``pattern`` (bit i set where V_i_0 != V_i_1) of the samples
    [start, start + length + d), from one hash of [start, start + length + 2*n_eff - 1 + d).
    Its slices rely on one layout fact: (i, 0) and (i, 1) sit at adjacent offsets, as
    :func:`reference.carrier_offsets` places them, so one XOR of neighbours is every flip.
    Base and pattern are log-depth folds (:func:`_ladder_fold`) of the sign bits and the
    flips.  ``base`` is None when ``_base`` is false: a d = 0 carrier set reads no base.
    n_eff is 1..32, the bits of a uint32 pattern."""
    _check_frame(length, d)
    if n_eff < 1:
        raise ValueError(f"need at least one noise bit, got n_eff={n_eff}")
    _check_pattern_width(n_eff)
    span = length + d
    bits = sign_bits(seed, start, span + 2 * n_eff - 1)
    base = np.empty(span, dtype=np.int8) if _base else None
    pattern = np.empty(span, dtype=np.uint16 if n_eff <= 16 else np.uint32)
    for pos in range(0, span, BLOCK):  # bounded temporaries; see BLOCK
        sub = bits[pos:pos + BLOCK + 2 * n_eff - 1]
        k = sub.size - 2 * n_eff + 1
        flips = (sub[:-1] ^ sub[1:]).astype(pattern.dtype)
        pattern[pos:pos + k] = _ladder_fold(flips, n_eff, 1, k)
        if base is not None:  # V_i_0 is sub[t + 2i]; bit 1 encodes +1
            b = base[pos:pos + k]
            sign = _ladder_fold(sub, n_eff, 0, k)  # parity of the +1 factors
            np.add(sign, sign, out=b, casting="unsafe")
            b -= 1  # the product when n_eff is odd, its negative when even
            if n_eff % 2 == 0:
                np.negative(b, out=b)
    return base, pattern


def _check_pattern_width(n_eff: int) -> None:
    if n_eff > 32:  # a frame's flip pattern is uint32 at most
        raise ValueError(f"a ladder frame holds at most 32 noise bits, got n_eff={n_eff}")


def _check_capacity(n_eff: int, max_n: int) -> None:
    if n_eff > max_n:
        raise ValueError(
            f"capacity exceeded: raise max_n explicitly (n_eff={n_eff}, max_n={max_n})"
        )
    _check_pattern_width(n_eff)


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
    values = list(values)
    for v in values:
        if not 0 <= v < 1 << n:
            raise ValueError(f"carrier values must lie in 0..{(1 << n) - 1}, got {v}")
    if len(set(values)) != len(values):  # Superposition's check
        raise ValueError("duplicate members silently double amplitude; refusing")
    table = np.bincount(values, minlength=1 << n)
    table = walsh_hadamard(table).astype(np.int32)  # W_S: the wire is base * W_S[pattern]
    # after W_S's float64 buffers; at d = 0 only patterns are counted, so no base
    base, pattern = ladder_frame(sys.seed, n, 0, length, d, _base=d > 0)
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


def format_values(values: Iterable[int], n_eff: int) -> list[str]:
    """``format_bits(int_to_bits(v, n_eff))`` of every value, without the tuples;
    the format spec is built once."""
    spec = f"0{n_eff}b"
    return [format(v, spec)[::-1] for v in values]


@functools.cache
def _candidate_labels(n_eff: int) -> tuple[str, ...]:
    """``format_bits(int_to_bits(v, n_eff))`` for every v, in order."""
    return tuple(format_values(range(1 << n_eff), n_eff))


@dataclass(frozen=True)
class Correlations:
    """A report's correlations table: every candidate's rho, in value order.  ``rows()``
    is its ``{"candidate", "rho"}`` list, so ``json.dumps(report,
    default=Correlations.rows)`` writes a report that holds one."""

    n_eff: int
    rhos: tuple[float, ...]

    @property
    def labels(self) -> tuple[str, ...]:
        return _candidate_labels(self.n_eff)

    def rows(self) -> list[dict]:
        return [{"candidate": c, "rho": r} for c, r in zip(self.labels, self.rhos)]


def add_correlations(report: dict, rhos: np.ndarray, n_eff: int) -> dict:
    """Append every candidate's rho to ``report``, as :class:`Correlations`, when n_eff <= 10."""
    if n_eff <= 10:
        report["correlations"] = Correlations(n_eff, tuple(rhos.tolist()))
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

    Keys: seed, N, k, m, L, threshold, detected (sorted "0101" strings) and, for
    n_eff <= 10, the full correlations list.  ``m`` is the wire's member count when the
    window keeps its expression; without one, the largest |sample| of an int window (a
    lower bound on the count), or 1 for a packed window.
    """
    rhos, hits = readout(signal_window, sys, threshold, max_n)
    return add_correlations({
        **_header(sys),
        "m": _signal_members(signal_window),
        "L": signal_window.length,
        "threshold": threshold,
        "detected": sorted(format_values(hits, sys.n_eff)),
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
    _check_capacity(sys.n_eff, max_n)  # before anything of size 2**n_eff
    if not 1 <= m_strings <= 1 << sys.n_eff:
        raise ValueError(f"m_strings must be in 1..2**n_eff = 1..{1 << sys.n_eff}, "
                         f"got {m_strings}")
    if length is None:
        length = default_window_len(m_strings)
    population = random.Random(seed).sample(range(1 << sys.n_eff), m_strings)
    rhos, hits = carrier_set_readout(sys, population, length, 0, threshold, max_n)

    members = sorted(population)
    ok = hits == members
    strings = sorted(format_values(members, sys.n_eff))
    return {
        **_header(sys),
        "m": m_strings,
        "L": length,
        "threshold": threshold,
        "strings": strings,
        "detected": strings.copy() if ok else sorted(format_values(hits, sys.n_eff)),
        "ok": ok,
        "member_rho_min": float(rhos[members].min()),
        "member_rho_max": float(rhos[members].max()),
        "nonmember_abs_max": float(np.abs(np.delete(rhos, members)).max(initial=0.0)),
    }
