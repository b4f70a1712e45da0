import random

import numpy as np
import pytest

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
