"""Reference noise families built from one source by forward shifts.

A system of N noise bits needs 2N mutually orthogonal noises, two per
bit.  All of them come from the single source: bit ``i`` with logic
value ``b`` is carried by the source shifted ``2*(i-1) + b`` periods,
so the base system spans offsets 0 through 2N-1 using 2N-1 nonzero
shifts.  Each expansion round appends one more shift step per existing
noise, extending the same uniform ladder by 2N offsets and doubling the
effective bit count, with the original references untouched.

Capacity arithmetic is exact big-integer: a wire over N noise bits
expanded by M single-noise shift steps carries 2**(N + M/2) classical
bit strings, a factor of 2**(M/2) more dimensions than the base system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .expr import Product
from .source import NoiseSource, as_source
from .window import correlate, materialize_many


#: Most noise bits whose 2 * n_eff references are listed one by one (``pairs()``).
MAX_LISTED_BITS = 256
#: Largest N + M/2 of a capacity: 2**14284 has 4300 digits, the most CPython prints by default.
MAX_CAPACITY_BITS = 14_284


def _check_listed(n_eff: int) -> None:
    if n_eff > MAX_LISTED_BITS:
        raise ValueError(f"too many noise bits to list their references: "
                         f"n_eff={n_eff}, at most {MAX_LISTED_BITS}")


@dataclass(frozen=True)
class ReferenceSystem:
    """Family of shifted reference noises over one source.

    ``n_bits`` is the base noise-bit count N; ``extra_shift_rounds`` is
    the number of whole-system expansion rounds k, each adding one shift
    step to all current noises (2*N*k single-noise steps in total).
    """

    source: NoiseSource
    n_bits: int
    extra_shift_rounds: int = 0

    def __post_init__(self) -> None:
        if self.n_bits < 1:
            raise ValueError(f"need at least one noise bit, got N={self.n_bits}")
        if self.extra_shift_rounds < 0:
            raise ValueError(f"expansion rounds must be >= 0, got {self.extra_shift_rounds}")

    @property
    def seed(self) -> int:
        return self.source.seed

    @property
    def n_eff(self) -> int:
        """Effective noise-bit count N * (1 + k)."""
        return self.n_bits * (1 + self.extra_shift_rounds)

    def offset(self, i: int, b: int) -> int:
        """Ladder offset of reference (i, b); injective over valid pairs."""
        self._check_ref(i, b)
        return 2 * (i - 1) + b

    def reference_noise(self, i: int, b: int) -> Product:
        """Carrier of logic value ``b`` on noise bit ``i``."""
        return Product((self.offset(i, b),))

    def pairs(self) -> list[tuple[int, int]]:
        """Every reference (i, b) in offset order: (1, 0), (1, 1), (2, 0), ..."""
        _check_listed(self.n_eff)
        return [(i, b) for i in range(1, self.n_eff + 1) for b in (0, 1)]

    def references(self) -> list[Product]:
        """All 2 * n_eff references, offset order (V_1_0, V_1_1, ...)."""
        return [self.reference_noise(i, b) for i, b in self.pairs()]

    def labels(self) -> list[str]:
        return [f"V_{i}_{b}" for i, b in self.pairs()]

    def _check_ref(self, i: int, b: int) -> None:
        if not 1 <= i <= self.n_eff:
            raise ValueError(f"noise bit index {i} outside 1..{self.n_eff}")
        if b not in (0, 1):
            raise ValueError(f"bit value must be 0 or 1, got {b}")


def carrier_offsets(bits: Sequence[int]) -> tuple[int, ...]:
    """Ladder offsets of a bit string's carrier: reference (i + 1, bits[i]) at 2i + bits[i]."""
    return tuple(2 * i + b for i, b in enumerate(bits))


def _ladder_string(offsets: Sequence[int], n: int) -> tuple[int, ...] | str:
    """Inverse of :func:`carrier_offsets`: the n-bit string whose carrier has these offsets,
    or why none does: "ladder-overflow" (an offset past 2n - 1), else "bit-collision"."""
    if any(o >= 2 * n for o in offsets):
        return "ladder-overflow"
    slots = dict(divmod(o, 2) for o in offsets)
    if len(slots) < len(offsets):
        return "bit-collision"
    return tuple(slots[j] for j in range(n))


def _header(sys: ReferenceSystem) -> dict:
    """The fields that open every run report: ``seed``, ``N`` and ``k``."""
    return {"seed": sys.seed, "N": sys.n_bits, "k": sys.extra_shift_rounds}


def build_reference_system(source: NoiseSource | int, n_bits: int,
                           extra_shift_rounds: int = 0) -> ReferenceSystem:
    return ReferenceSystem(as_source(source), n_bits, extra_shift_rounds)


def orthogonality_matrix(sys: ReferenceSystem, length: int,
                         start: int = 0) -> list[list[float]]:
    """All pairwise correlations of the reference family.

    Diagonal entries are exactly 1.0 and the matrix is symmetric; the
    off-diagonal entries are the statistical residue of orthogonality.
    """
    windows = materialize_many(sys.source, sys.references(), start, length)
    n = len(windows)
    matrix = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            matrix[i][j] = matrix[j][i] = correlate(windows[i], windows[j])
    return matrix


@dataclass(frozen=True)
class CapacityReport:
    """Exact hyperspace capacity of one wire; all counts are big ints."""

    n_bits: int
    shift_steps: int
    classical_bits: int
    dimension_factor: int


def capacity(n_bits: int, shift_steps: int) -> CapacityReport:
    """Capacity after M = 2kN expansion shift steps; exact integers only."""
    if n_bits < 1:
        raise ValueError(f"need at least one noise bit, got N={n_bits}")
    if shift_steps < 0 or shift_steps % (2 * n_bits):
        raise ValueError(f"M must equal 2kN for an integer k >= 0, got M={shift_steps}")
    half = shift_steps // 2
    if n_bits + half > MAX_CAPACITY_BITS:
        raise ValueError(f"N + M/2 must be at most {MAX_CAPACITY_BITS}, got {n_bits + half}")
    return CapacityReport(
        n_bits=n_bits,
        shift_steps=shift_steps,
        classical_bits=1 << (n_bits + half),
        dimension_factor=1 << half,
    )
