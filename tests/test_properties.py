"""Property tests holding the fast paths to scalar oracles.

The Walsh-Hadamard readout sweep must equal one ``correlate`` per
candidate carrier, and frame-hashed windows must equal the per-sample
``sample`` oracle built on ``source_sample``.  Examples are drawn
deterministically, so the suite stays reproducible.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noisebits.window as window_module
from noisebits.expr import Product, Superposition, sample
from noisebits.hyperspace import (
    correlation_sweep,
    encode_integer,
    encode_set,
    encode_string,
    int_to_bits,
)
from noisebits.reference import build_reference_system
from noisebits.source import BLOCK, NoiseSource, sign_bits, source_sample
from noisebits.window import correlate, materialize, negate, product_words, unpack_bits

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)

seeds = st.integers(0, 2**64 - 1)
starts = st.integers(1, 2**40)
lengths = st.integers(1, 700).filter(lambda n: n % 64)


@PROPERTY
@given(seed=seeds, n_eff=st.integers(1, 8), start=starts, length=lengths,
       data=st.data(), packed=st.booleans(), negated=st.booleans())
def test_sweep_equals_per_candidate_correlate(seed, n_eff, start, length, data,
                                              packed, negated):
    sys = build_reference_system(seed, n_eff)
    values = data.draw(st.lists(st.integers(0, 2**n_eff - 1), min_size=1,
                                max_size=min(6, 2**n_eff), unique=True))
    strings = [int_to_bits(v, n_eff) for v in values]
    expr = encode_string(sys, strings[0]) if packed else encode_set(sys, strings)
    wire = materialize(sys.source, expr, start, length)
    assert wire.is_packed == packed
    if negated:
        wire = negate(wire)
    rhos = correlation_sweep(wire, sys)
    expected = [correlate(wire, materialize(sys.source, encode_integer(sys, v),
                                            start, length)).rho
                for v in range(2**n_eff)]
    assert np.array_equal(rhos, np.array(expected))


@PROPERTY
@given(seed=seeds, start=st.one_of(st.integers(0, 2**40),
                                   st.integers(1, 2**20).map(lambda k: k * 2**32 - 5000)),
       length=st.integers(1, 3 * BLOCK + 100), data=st.data())
def test_blocked_sign_bits_match_scalar_oracle(seed, start, length, data):
    """Block edges and a wrap of the index's low 32 bits inside the run
    must not change a single bit."""
    bits = sign_bits(seed, start, length)
    assert bits.shape == (length,) and bits.dtype == np.uint8
    edges = {j for b in range(0, length + BLOCK, BLOCK) for j in (b - 1, b)}
    edges |= {(-start) % 2**32 - 1, (-start) % 2**32}
    edges |= set(data.draw(st.lists(st.integers(0, length - 1), max_size=20)))
    for j in sorted(j for j in edges if 0 <= j < length):
        assert bits[j] == (source_sample(seed, start + j) + 1) // 2


@pytest.mark.parametrize("packed", [True, False])
def test_sweep_across_blocks_equals_per_candidate_correlate(packed):
    n_eff, start, length = 4, 12_345, 2 * BLOCK + 37
    sys = build_reference_system(7, n_eff)
    expr = encode_integer(sys, 5) if packed else encode_set(
        sys, [int_to_bits(v, n_eff) for v in (1, 5, 12)])
    wire = negate(materialize(sys.source, expr, start, length))
    expected = [correlate(wire, materialize(sys.source, encode_integer(sys, v),
                                            start, length)).rho
                for v in range(2**n_eff)]
    assert np.array_equal(correlation_sweep(wire, sys), np.array(expected))


offsets = st.lists(st.one_of(st.integers(0, 80), st.integers(0, 2**48)), max_size=6)


@PROPERTY
@given(seed=seeds, start=st.integers(0, 2**40), length=st.integers(1, 200),
       members=st.lists(offsets.map(Product), max_size=5, unique=True))
def test_materialize_matches_scalar_oracle(seed, start, length, members):
    src = NoiseSource(seed)
    for expr in members + [Superposition(tuple(members))]:
        got = materialize(src, expr, start, length).values
        want = [sample(src, expr, start + j) for j in range(length)]
        assert got.tolist() == want
    for expr in members:
        words = product_words(src, expr.offsets, start, length)
        assert np.array_equal(words, materialize(src, expr, start, length).words)


def test_blocked_materialize_matches_whole_window_folds():
    """Windows longer than one fold block equal the whole-window fold of
    ``product_words``, for products and for superpositions."""
    src, start, length = NoiseSource(11), 99, 2 * window_module._FOLD_BLOCK + 100
    members = (Product((0, 3, 9)), Product((2, 2**40)), Product((1, 4)))
    signed = []
    for m in members:
        words = product_words(src, m.offsets, start, length)
        assert np.array_equal(materialize(src, m, start, length).words, words)
        signed.append(2 * unpack_bits(words, length).astype(np.int32) - 1)
    got = materialize(src, Superposition(members), start, length).ints
    assert np.array_equal(got, np.sum(signed, axis=0))


@pytest.fixture
def hashed_runs(monkeypatch):
    """(start, length) of every sign_bits call made by the window layer."""
    runs = []
    real = window_module.sign_bits

    def recording(seed, start, length):
        runs.append((start, length))
        return real(seed, start, length)

    monkeypatch.setattr(window_module, "sign_bits", recording)
    return runs


def test_sparse_product_hashes_only_its_factor_runs(hashed_runs):
    length = 4000
    expr = Product((0, 2**40))
    tracemalloc.start()
    try:
        w = materialize(7, expr, 3, length)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hashed_runs == [(3, length), (3 + 2**40, length)]
    assert peak < 64 * length
    for j in (0, 1, 2000, length - 1):
        assert int(w.values[j]) == sample(7, expr, 3 + j)


def test_overlapping_factors_share_one_hash_run(hashed_runs):
    materialize(7, Superposition((Product((0, 3)), Product((7, 1000)))), 5, 100)
    assert hashed_runs == [(5, 107), (1005, 100)]
