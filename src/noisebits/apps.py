"""Time-shift demonstrations: holographic readout, gate non-commutation,
and restoration under fixed random shifts.

Shifting a whole superposition moves every carrier offset up the
reference ladder, so decoding against the *unshifted* references reads
out systematically remapped strings (or nothing, when a carrier slides
off the ladder or two of its factors land on the same noise bit).
Interleaving a shift with a reference multiplication makes the two gate
operations non-commuting.  Hiding each reference behind a private
random shift keeps it recoverable only by whoever knows that shift.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from .expr import Product, canonical_str, multiply, shift
from .hyperspace import (
    DEFAULT_MAX_N,
    DEFAULT_THRESHOLD,
    BitString,
    add_correlations,
    bits_to_int,
    carrier_set_readout,
    check_bits,
    default_window_len,
    format_bits,
    format_values,
)
from .reference import ReferenceSystem, _header, _ladder_string, carrier_offsets
from .window import correlate, materialize_many


def holographic_map(bits: Sequence[int], steps: int = 1) -> BitString | str:
    """Re-interpretation of a string's carrier after a whole-signal shift.

    Works directly on the carrier offsets (each moves up by ``steps``),
    which is the ground truth of the signal algebra; for full product
    strings this agrees with iterating the single-period map.  A shifted
    carrier that is no full product string gives the reason instead:
    ``"ladder-overflow"`` (an offset moved past the last reference) or
    ``"bit-collision"`` (two offsets landed on the same noise bit).
    """
    s = check_bits(bits)
    steps = operator.index(steps)
    if steps < 0:
        raise ValueError("shifts are forward-only")
    return _ladder_string([o + steps for o in carrier_offsets(s)], len(s))


def holographic_demo(sys: ReferenceSystem, strings: Sequence[Sequence[int]],
                     d: int, length: int | None = None,
                     threshold: float = DEFAULT_THRESHOLD,
                     max_n: int = DEFAULT_MAX_N) -> dict:
    """Shift an encoded set by d periods and decode it against the
    unshifted references; the decode must equal the in-range images."""
    checked = [check_bits(s, sys.n_eff) for s in strings]
    if length is None:
        length = default_window_len(len(checked))
    values = [bits_to_int(s) for s in checked]
    if len(set(values)) != len(values):  # Superposition's check, made before the readout's
        raise ValueError("duplicate members silently double amplitude; refusing")
    rhos, hits = carrier_set_readout(sys, values, length, d, threshold, max_n)
    decoded = set(format_values(hits, sys.n_eff))

    expected: set[str] = set()
    out_of_range: list[dict] = []
    for s in checked:
        image = holographic_map(s, d)
        if isinstance(image, str):
            out_of_range.append({"string": format_bits(s), "reason": image})
        else:
            expected.add(format_bits(image))

    return add_correlations({
        **_header(sys),
        "d": d,
        "L": length,
        "threshold": threshold,
        "input": sorted(format_bits(s) for s in checked),
        "expected": sorted(expected),
        "decoded": sorted(decoded),
        "out_of_range": out_of_range,
        "ok": decoded == expected,
    }, rhos, sys.n_eff)


def _five_sigma(length: int) -> float:
    """The bound 5 * L**-0.5 of a 5-sigma check on one product of distinct references."""
    if length <= 25:  # 5 * L**-0.5 >= 1 >= |rho|: the check could not fail
        raise ValueError(f"a 5-sigma check needs a window of more than 25 samples, got {length}")
    return 5.0 * length ** -0.5


def noncommute_demo(sys: ReferenceSystem, x: Product, i: int, b: int, d: int,
                    length: int) -> dict:
    """Compare multiply-then-shift against shift-then-multiply.

    A = multiply by reference (i, b); B = shift by d.  The two orders
    give canonically different streams whenever d >= 1, and their
    cross-correlation sits at noise level while each self-correlation
    is exactly 1.
    """
    d = operator.index(d)
    if d < 1:
        raise ValueError("need a shift of at least one period")
    tolerance = _five_sigma(length)
    ref = sys.reference_noise(i, b)
    ab = multiply(shift(x, d), ref)        # A after B
    ba = shift(multiply(x, ref), d)        # B after A
    w_ab, w_ba = materialize_many(sys.source, (ab, ba), 0, length)
    cross = correlate(w_ab, w_ba)
    self_ab = correlate(w_ab, w_ab)
    self_ba = correlate(w_ba, w_ba)
    equal = ab == ba
    return {
        **_header(sys),
        "i": i,
        "b": b,
        "d": d,
        "L": length,
        "x": canonical_str(x),
        "ab": canonical_str(ab),
        "ba": canonical_str(ba),
        "structurally_equal": equal,
        "cross_rho": cross,
        "self_rho_ab": self_ab,
        "self_rho_ba": self_ba,
        "tolerance": tolerance,
        "ok": (not equal) and abs(cross) <= tolerance
              and self_ab == 1.0 and self_ba == 1.0,
    }


@dataclass(frozen=True)
class ShiftAssignment:
    """Fixed random shift per reference, drawn once per experiment."""

    shifts: Mapping[tuple[int, int], int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "shifts", {p: operator.index(r) for p, r in self.shifts.items()})
        for (i, b), r in self.shifts.items():
            if r < 0:
                raise ValueError(f"shift for ({i},{b}) must be >= 0, got {r}")

    @classmethod
    def draw(cls, sys: ReferenceSystem, seed: int, r_max: int | None = None,
             distinct: bool = False) -> "ShiftAssignment":
        """Draw one shift in [1, r_max] per reference.

        r_max defaults to 2 * n_eff, which both guarantees shifted
        references leave the ladder and makes ``distinct`` drawable.
        The seed is 64-bit unsigned: ``random.Random`` draws the same for -7 as 7.
        """
        seed = operator.index(seed)
        if not 0 <= seed < 1 << 64:
            raise ValueError(f"assignment seed must fit in 64 bits, got {seed}")
        keys = sys.pairs()
        r_max = 2 * sys.n_eff if r_max is None else operator.index(r_max)
        if r_max < 1:
            raise ValueError(f"r_max must be >= 1, got {r_max}")
        rng = random.Random(seed)
        if distinct:
            if r_max < len(keys):
                raise ValueError(
                    f"cannot draw {len(keys)} distinct shifts from [1, {r_max}]"
                )
            values = rng.sample(range(1, r_max + 1), len(keys))
        else:
            values = [rng.randint(1, r_max) for _ in keys]
        return cls(dict(zip(keys, values)))


def random_shift_demo(sys: ReferenceSystem, assignment: ShiftAssignment,
                      i: int, b: int, length: int,
                      global_shift: int | None = None) -> dict:
    """Hide reference (i, b) behind its assigned shift and try to read it.

    Without the shift value the hidden stream looks like fresh noise;
    compensating with the true value restores it exactly; compensating
    every reference with one global guess restores only those whose
    assigned shift happens to equal the guess.
    """
    tolerance = _five_sigma(length)
    ref = sys.reference_noise(i, b)  # validates (i, b) before the lookup
    shifts, pairs = assignment.shifts, sys.pairs()
    missing, extra = set(pairs) - set(shifts), set(shifts) - set(pairs)
    if missing or extra:  # before anything is materialized
        raise ValueError("the assignment must hold one shift per reference: "
                         f"missing {sorted(missing)}, extra {sorted(extra)}")
    r = shifts[(i, b)]
    d = r if global_shift is None else operator.index(global_shift)
    if d < 0:
        raise ValueError(f"global shift must be >= 0, got {d}")
    hidden = shift(ref, r)
    w_hidden, w_ref = materialize_many(sys.source, (hidden, ref), 0, length)
    uncompensated = correlate(w_hidden, w_ref)
    compensated = correlate(w_hidden, w_hidden)  # the true r rebuilds hidden exactly

    assigned = {label: shifts[p] for label, p in zip(sys.labels(), pairs)}
    restored = [label for label, value in assigned.items() if value == d]

    uncomp_ok = (uncompensated == 1.0) if r == 0 else abs(uncompensated) <= tolerance
    return {
        **_header(sys),
        "i": i,
        "b": b,
        "r": r,
        "L": length,
        "assignment": assigned,
        "uncompensated_rho": uncompensated,
        "compensated_rho": compensated,
        "compensated_exact": compensated == 1.0,
        "global_shift": d,
        "restored": restored,
        "restored_count": len(restored),
        "ok": uncomp_ok and compensated == 1.0,
    }
