"""Shift-and-product algebra over the single noise source.

Expressions are symbolic.  A :class:`Product` stores the set of time
offsets (in wave periods) whose shifted copies of the source multiply
together; a :class:`Superposition` stores an ordered tuple of Products
whose samples add.  Because samples are +-1, a factor repeated at the
same offset cancels, so a Product keeps each offset at most once,
sorted ascending.  Structural equality of canonical forms therefore
decides stream equality exactly.

Offsets are non-negative: a shift of one period or more already makes a
stream orthogonal to the unshifted one, and inverse shifts are always
expressed by shifting the other operand forward instead.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Union

from .source import NoiseSource, as_source, source_sample

#: Largest representable shift offset; anything beyond signals a
#: misconfigured experiment rather than a real computation.
MAX_OFFSET = 1 << 48


@dataclass(frozen=True)
class Product:
    """Product of time-shifted source copies; empty product is constant +1."""

    offsets: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        counts = Counter(operator.index(o) for o in self.offsets)
        kept = tuple(sorted(o for o, c in counts.items() if c % 2))
        for o in kept:
            if o < 0:
                raise ValueError(f"offsets must be non-negative, got {o}")
            if o > MAX_OFFSET:
                raise OverflowError(f"offset {o} exceeds the supported range (2**48)")
        object.__setattr__(self, "offsets", kept)


@dataclass(frozen=True)
class Superposition:
    """Integer-valued sum of distinct product streams."""

    members: tuple[Product, ...] = ()

    def __post_init__(self) -> None:
        members = tuple(self.members)
        for m in members:
            if not isinstance(m, Product):
                raise ValueError("superposition members must be Products")
        if len(set(members)) != len(members):
            raise ValueError("duplicate members silently double amplitude; refusing")
        object.__setattr__(self, "members", members)


StreamExpr = Union[Product, Superposition]

CONST_ONE = Product()
ZERO = Superposition()


def shift(expr: StreamExpr, periods: int) -> StreamExpr:
    """Shift a stream forward by ``periods``; distributes over members.

    sample(shift(e, d), n) == sample(e, n + d) for every n.
    """
    periods = operator.index(periods)
    if periods < 0:
        raise ValueError("negative shifts are not represented; shift the other operand")
    if isinstance(expr, Product):
        return Product(tuple(o + periods for o in expr.offsets))
    if isinstance(expr, Superposition):
        return Superposition(tuple(shift(m, periods) for m in expr.members))
    raise TypeError(f"not a stream expression: {expr!r}")


def multiply(a: StreamExpr, b: StreamExpr) -> Product:
    """Multiply two product streams; repeated offsets cancel pairwise."""
    if not isinstance(a, Product) or not isinstance(b, Product):
        raise ValueError("product-only operation")
    return Product(a.offsets + b.offsets)


def superpose(members: Iterable[Product]) -> Superposition:
    """Sum of distinct product streams; the empty sum is the zero signal."""
    return Superposition(tuple(members))


def sample(source: NoiseSource | int, expr: StreamExpr, n: int) -> int:
    """Evaluate one sample of an expression; integer valued."""
    src = as_source(source)
    if isinstance(expr, Product):
        v = 1
        for o in expr.offsets:
            v *= source_sample(src.seed, n + o)
        return v
    if isinstance(expr, Superposition):
        return sum(sample(src, m, n) for m in expr.members)
    raise TypeError(f"not a stream expression: {expr!r}")


def canonical_str(expr: StreamExpr) -> str:
    """The text spelling that reports print: ``P[0,3]``, ``S[P[0],P[1,2]]``."""
    if isinstance(expr, Product):
        return "P[" + ",".join(str(o) for o in expr.offsets) + "]"
    if isinstance(expr, Superposition):
        return "S[" + ",".join(canonical_str(m) for m in expr.members) + "]"
    raise TypeError(f"not a stream expression: {expr!r}")
