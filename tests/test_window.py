import random

import numpy as np
import pytest

from noisebits.expr import CONST_ONE, MAX_OFFSET, Product, sample, shift, superpose
from noisebits.source import MAX_INDEX, NoiseSource
from noisebits.window import (
    Window,
    correlate,
    materialize,
    materialize_many,
    negate,
)


def random_product(rng, max_offset=64, max_terms=8):
    return Product(tuple(rng.randrange(max_offset)
                         for _ in range(rng.randrange(max_terms + 1))))


def naive_rho(a: Window, b: Window):
    """Independent correlator: per-sample int products, then one division."""
    total = int(np.multiply(a.values.astype(np.int64), b.values.astype(np.int64)).sum())
    return total, total / a.length


def test_constant_one_window():
    w = materialize(42, CONST_ONE, 0, 64)
    assert np.array_equal(w.values, np.ones(64, dtype=np.int8))


def test_window_invariant_products():
    rng = random.Random(7)
    src = NoiseSource(13)
    for _ in range(25):
        p = random_product(rng)
        start = rng.randrange(1000)
        w = materialize(src, p, start, 100)
        for j in (0, 1, 37, 99):
            assert int(w.values[j]) == sample(src, p, start + j)


def test_window_invariant_superpositions():
    src = NoiseSource(21)
    s = superpose([Product((0,)), Product((1, 3)), Product((2, 4, 6))])
    w = materialize(src, s, 11, 64)
    assert w.ints is not None
    for j in range(64):
        assert int(w.values[j]) == sample(src, s, 11 + j)
    assert int(np.abs(w.values).max()) <= 3


def test_materialized_shift_equals_shifted_start():
    p = Product((0, 2))
    a = materialize(42, shift(p, 3), 0, 500)
    b = materialize(42, p, 3, 500)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.words, b.words)


def test_product_window_values_are_pm1():
    w = materialize(42, Product((0, 5)), 0, 130)
    assert set(np.unique(w.values)) <= {-1, 1}


def test_packed_words_golden():
    w = materialize(42, Product((0, 3)), 0, 128)
    assert [int(x) for x in w.words] == [0xA73D74E3650F300A, 0x2024879B46F9FFA1]


def test_self_correlation_exact():
    w = materialize(42, Product((1, 4)), 0, 999)
    assert correlate(w, w) == 1.0


def test_negate_correlation_exact():
    w = materialize(42, Product((2,)), 0, 1000)
    assert correlate(w, negate(w)) == -1.0


def test_negate_antisymmetry_on_int_windows():
    src = NoiseSource(3)
    a = materialize(src, superpose([Product((0,)), Product((1,))]), 0, 500)
    b = materialize(src, superpose([Product((2,)), Product((3,))]), 0, 500)
    assert correlate(a, negate(b)) == -correlate(a, b)
    assert np.array_equal(negate(a).values, -a.values)


def test_correlate_requires_matching_frames():
    a = materialize(42, Product((0,)), 0, 100)
    b = materialize(42, Product((0,)), 1, 100)
    c = materialize(42, Product((0,)), 0, 101)
    with pytest.raises(ValueError):
        correlate(a, b)
    with pytest.raises(ValueError):
        correlate(a, c)


def test_correlate_rejects_windows_of_different_seeds():
    a = materialize(1, Product((0,)), 0, 1000)
    b = materialize(2, Product((0,)), 0, 1000)
    with pytest.raises(ValueError, match="seeds: 1 vs 2"):
        correlate(a, b)
    with pytest.raises(ValueError, match="seeds: 2 vs 1"):
        correlate(b, negate(a))


def test_materialize_many_shares_equal_windows():
    ws = materialize_many(42, (Product((3,)), Product((0,)), Product((3,))), 0, 1000)
    assert ws[0] is ws[2]
    assert ws[0] is not ws[1]
    assert np.array_equal(ws[0].words, materialize(42, Product((3,)), 0, 1000).words)


def test_materialize_guards():
    with pytest.raises(ValueError):
        materialize(42, Product((0,)), 0, 0)
    with pytest.raises(ValueError):
        materialize(42, Product((0,)), -1, 10)


def test_materialize_rejects_frames_past_the_index_range():
    # the last factor's samples would end at MAX_INDEX + 10
    with pytest.raises(OverflowError, match="supported sample index range"):
        materialize_many(42, (Product((1,)), Product((MAX_OFFSET,))),
                         MAX_INDEX - MAX_OFFSET, 10)


def test_xor_popcount_equals_naive_loop():
    # the packed correlator must agree with per-sample products bit for bit
    rng = random.Random(2024)
    src = NoiseSource(42)
    for _ in range(100):
        a = materialize(src, random_product(rng), 0, 4096)
        b = materialize(src, random_product(rng), 0, 4096)
        est = correlate(a, b)
        total, rho = naive_rho(a, b)
        assert est == rho
        assert round(est * 4096) == total


def test_multiply_window_is_elementwise_product():
    src = NoiseSource(42)
    from noisebits.expr import multiply

    a, b = Product((0,)), Product((1,))
    w_ab = materialize(src, multiply(a, b), 0, 10_000)
    w_a = materialize(src, a, 0, 10_000)
    w_b = materialize(src, b, 0, 10_000)
    assert np.array_equal(w_ab.values, w_a.values * w_b.values)


def test_lag_one_correlation_seed42():
    base = materialize(42, Product((0,)), 0, 10**6)
    lag1 = materialize(42, Product((1,)), 0, 10**6)
    est = correlate(base, lag1)
    total, rho = naive_rho(base, lag1)
    assert total == 2030  # frozen from the summation oracle
    assert est == rho
    assert abs(est) <= 4e-3  # 4 sigma at L = 1e6


def test_mixed_packed_int_correlation():
    src = NoiseSource(9)
    packed = materialize(src, Product((0, 2)), 5, 3000)
    summed = materialize(src, superpose([Product((0, 2)), Product((1,))]), 5, 3000)
    est = correlate(packed, summed)
    total, rho = naive_rho(packed, summed)
    assert est == rho
    assert correlate(summed, packed) == est


def test_int_int_correlation():
    src = NoiseSource(17)
    a = materialize(src, superpose([Product((0,)), Product((3,))]), 0, 2000)
    b = materialize(src, superpose([Product((1,)), Product((2,))]), 0, 2000)
    est = correlate(a, b)
    total, rho = naive_rho(a, b)
    assert est == rho


def test_windows_are_immutable():
    w = materialize(42, Product((0,)), 0, 100)
    with pytest.raises(ValueError):
        w.words[0] = 0
    s = materialize(42, superpose([Product((0,)), Product((1,))]), 0, 100)
    with pytest.raises(ValueError):
        s.ints[0] = 5
