import math
import random

import numpy as np
import pytest

from noisebits.expr import Product
from noisebits.source import (
    MASK64,
    MAX_INDEX,
    NoiseSource,
    as_source,
    mix64,
    sample_block,
    sign_bits,
    source_sample,
)
from noisebits.window import materialize_many

# Frozen outputs of the pinned mixing constants.  If any of these move,
# every dumped window in existence silently changes meaning.
MIX64_PINNED = {0: 0x0, 1: 0x5692161D100B05E5, 42: 0xA759EA27D4727622}

FIRST_24 = {
    42: [1, -1, -1, -1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1, -1,
         1, 1, 1, 1, 1, 1, 1, -1],
    7: [-1, -1, 1, -1, -1, -1, 1, 1, -1, 1, 1, -1, -1, 1, 1, -1,
        1, 1, 1, 1, -1, 1, -1, -1],
}


def test_mix64_pinned_values():
    for x, want in MIX64_PINNED.items():
        assert mix64(x) == want


def test_sample_is_deterministic():
    assert source_sample(42, 0) == source_sample(42, 0)
    assert all(source_sample(9, n) == source_sample(9, n) for n in range(100))


def test_sample_codomain():
    rng = random.Random(0)
    for _ in range(1000):
        n = rng.randrange(MAX_INDEX)
        assert source_sample(42, n) in (-1, 1)


def test_golden_prefixes():
    for seed, want in FIRST_24.items():
        assert [source_sample(seed, n) for n in range(24)] == want


def test_golden_large_indices():
    assert source_sample(42, 10**12) == 1
    assert source_sample(42, MAX_INDEX - 1) == -1


def test_block_matches_scalar():
    rng = random.Random(1)
    for _ in range(20):
        seed = rng.getrandbits(64)
        start = rng.randrange(10**9)
        block = sample_block(seed, start, 64)
        assert all(block[j] == source_sample(seed, start + j) for j in range(64))


def test_sign_bits_encoding():
    bits = sign_bits(42, 0, 24)
    assert bits.dtype == np.uint8
    assert [1 if v == 1 else -1 for v in (bits.astype(int) * 2 - 1)] == FIRST_24[42]


def test_mean_bound_default_seeds():
    # 5 / sqrt(L) balance bound, checked on the seeds the suite ships with
    for seed in (42, 7, 12345):
        for length in (10_000, 100_000):
            for start in (0, 999_983):
                mean = float(sample_block(seed, start, length).mean())
                assert abs(mean) <= 5 / length**0.5, (seed, length, start, mean)


def test_mean_seed42_million():
    block = sample_block(42, 0, 10**6).astype(np.int64)
    total = int(block.sum())
    assert total == -632  # frozen via direct summation
    assert abs(total / 10**6) <= 0.005


def test_index_guards():
    with pytest.raises(ValueError):
        source_sample(42, -1)
    with pytest.raises(ValueError):
        sign_bits(42, -1, 10)
    with pytest.raises(ValueError):
        sign_bits(42, 0, 0)
    with pytest.raises(OverflowError):
        sign_bits(42, MAX_INDEX - 5, 10)
    with pytest.raises(ValueError, match="multiple of 64"):
        sign_bits(42, 65, 10, packed=True)


def test_noise_source_wrapper():
    with pytest.raises(ValueError):
        NoiseSource(-1)
    with pytest.raises(ValueError):
        NoiseSource(MASK64 + 1)


@pytest.mark.parametrize("seed", [3.7, 3.0, True, "3"])
def test_noise_source_rejects_non_integral_seed(seed):
    with pytest.raises(TypeError):
        NoiseSource(seed)
    with pytest.raises(TypeError):
        as_source(seed)


def test_noise_source_accepts_numpy_integers():
    src = NoiseSource(np.uint64(42))
    assert type(src.seed) is int and src == NoiseSource(42)


def test_seed_and_start_alias_when_their_bits_are_disjoint():
    """wave(s, a + j) = wave(s ^ rotl64(a, 32), j) when a & j = 0: seed 5 at
    2**40 is seed 5 ^ 2**8 = 261 at 0 (README, "Wave generation")."""
    assert np.array_equal(sample_block(5, 2**40, 4096), sample_block(261, 0, 4096))


# Hash audit: the -1 count of each 4096-sample chunk of a product stream
# against the exact Binomial(4096, 1/2) law, in 10 bins cut near its deciles.
AUDIT_SEED, AUDIT_CHUNKS, CHUNK = 12345, 1 << 14, 4096
AUDIT_PRODUCTS = [(0, 1), (0, 2), (0, 3), (0, 7), (0, 64), (0, 1, 2), (0, 5, 64)]
CHI2_9_AT_1E4 = 33.72  # the 1e-4 upper point of chi-squared with 9 degrees of freedom


def test_product_chunk_counts_follow_the_binomial_law():
    """One frame for all products.  The law comes from math.comb within 8 sigma
    (256) of 2048; the counts past that, 1e-15 of the mass, get probability 0."""
    pmf = np.zeros(CHUNK + 1)
    for k in range(CHUNK // 2 - 256, CHUNK // 2 + 257):
        pmf[k] = math.comb(CHUNK, k) / 2**CHUNK
    cuts = np.searchsorted(np.cumsum(pmf), np.arange(1, 10) / 10) + 1
    starts = np.concatenate(([0], cuts))
    expected = AUDIT_CHUNKS * np.add.reduceat(pmf, starts)
    windows = materialize_many(AUDIT_SEED, [Product(o) for o in AUDIT_PRODUCTS], 0,
                               AUDIT_CHUNKS * CHUNK)
    chi2 = {}
    for offsets, w in zip(AUDIT_PRODUCTS, windows):
        ones = np.bitwise_count(w.words).reshape(AUDIT_CHUNKS, -1).sum(axis=1, dtype=np.int64)
        observed = np.add.reduceat(np.bincount(CHUNK - ones, minlength=CHUNK + 1), starts)
        chi2[offsets] = round(float(((observed - expected) ** 2 / expected).sum()), 2)
    assert max(chi2.values()) < CHI2_9_AT_1E4, chi2
