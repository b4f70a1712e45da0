import random

import pytest

from noisebits.expr import (
    CONST_ONE,
    MAX_OFFSET,
    ZERO,
    Product,
    canonical_str,
    multiply,
    sample,
    shift,
    superpose,
)
from noisebits.source import NoiseSource, source_sample


def random_product(rng, max_offset=40, max_terms=6):
    return Product(tuple(rng.randrange(max_offset) for _ in range(rng.randrange(max_terms + 1))))


def test_canonical_form_sorts_and_cancels():
    assert Product((3, 0, 3)).offsets == (0,)
    assert Product((5, 5)).offsets == ()
    assert Product((2, 0, 1)).offsets == (0, 1, 2)
    assert Product((1, 1, 1)).offsets == (1,)


def test_structural_equality():
    assert Product((0, 2)) == Product((2, 0))
    assert Product(()) == CONST_ONE
    assert Product((1,)) != Product((2,))


def test_offset_validation():
    with pytest.raises(ValueError):
        Product((-1,))
    with pytest.raises(OverflowError):
        Product((MAX_OFFSET + 1,))


def test_shift_identity_and_composition():
    p = Product((1, 4))
    assert shift(p, 0) == p
    assert shift(shift(p, 2), 3) == shift(p, 5)


def test_shift_distributes_over_product_terms():
    assert shift(Product((3, 7)), 2) == Product((5, 9))
    # product of shifts equals shift of product
    a, b = Product((0, 2)), Product((1,))
    assert shift(multiply(a, b), 4) == multiply(shift(a, 4), shift(b, 4))


def test_shift_guards():
    with pytest.raises(ValueError):
        shift(Product((0,)), -1)
    with pytest.raises(OverflowError):
        shift(Product((MAX_OFFSET,)), 1)


def test_shift_distributes_over_superposition():
    s = superpose([Product((0,)), Product((1, 2))])
    assert shift(s, 3) == superpose([Product((3,)), Product((4, 5))])


def test_multiply_cancellation():
    p = Product((0, 3, 9))
    assert multiply(p, p) == CONST_ONE


def test_multiply_disjoint():
    assert multiply(Product((0,)), Product((1,))) == Product((0, 1))


def test_multiply_rejects_superpositions():
    with pytest.raises(ValueError, match="product-only"):
        multiply(Product((0,)), superpose([Product((1,))]))


def test_superpose_empty_is_zero_signal():
    z = superpose([])
    assert z == ZERO
    src = NoiseSource(42)
    assert all(sample(src, z, n) == 0 for n in range(32))


def test_superpose_singleton_sample():
    p = Product((2, 5))
    s = superpose([p])
    src = NoiseSource(11)
    for n in range(50):
        assert sample(src, s, n) == sample(src, p, n)


def test_superpose_cancellation_at_opposite_samples():
    p, q = Product((0,)), Product((1,))
    s = superpose([p, q])
    src = NoiseSource(42)
    hits = 0
    for n in range(200):
        if sample(src, p, n) == 1 and sample(src, q, n) == -1:
            assert sample(src, s, n) == 0
            hits += 1
    assert hits > 0


def test_superpose_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        superpose([Product((0,)), Product((0,))])


def test_sample_matches_manual_product():
    rng = random.Random(3)
    src = NoiseSource(99)
    for _ in range(50):
        p = random_product(rng)
        n = rng.randrange(1000)
        manual = 1
        for o in p.offsets:
            manual *= source_sample(src.seed, n + o)
        assert sample(src, p, n) == manual


def test_sample_shift_semantics():
    rng = random.Random(4)
    src = NoiseSource(5)
    for _ in range(30):
        p = random_product(rng)
        d = rng.randrange(10)
        n = rng.randrange(500)
        assert sample(src, shift(p, d), n) == sample(src, p, n + d)


def test_canonical_str_spelling():
    assert canonical_str(Product((0, 3))) == "P[0,3]"
    assert canonical_str(CONST_ONE) == "P[]"
    assert canonical_str(ZERO) == "S[]"
    assert canonical_str(superpose([Product((0,)), Product((1, 2))])) == "S[P[0],P[1,2]]"
