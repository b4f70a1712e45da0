"""Property tests holding the fast paths to scalar oracles.

The Walsh-Hadamard readout sweep must equal one ``correlate`` per
candidate carrier, and frame-hashed windows must equal the per-sample
``sample`` oracle built on ``source_sample``: across aligned hash blocks,
whose table must be mix64's first step, and across packed word folds,
whose padding bits must be zero.  A carrier set read off
its ladder frame must equal the sweep of its materialized wire.  The
report writer must equal ``json.dumps(indent=2)``.  A dumped window
must load back unchanged, and every strict prefix of its dump, or the
dump with one byte appended, must raise ValueError.  Examples are drawn
deterministically, so the suite stays reproducible.
"""

import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noisebits.window as window_module
from noisebits.cli import _json
from noisebits.expr import Product, Superposition, sample, shift
from noisebits.hyperspace import (
    DEFAULT_MAX_N,
    add_correlations,
    carrier_set_readout,
    correlation_sweep,
    encode_integer,
    encode_set,
    encode_string,
    format_bits,
    int_to_bits,
    readout,
    walsh_hadamard,
)
from noisebits.reference import build_reference_system
from noisebits.source import (
    _LINEAR,
    BLOCK,
    MASK64,
    MAX_INDEX,
    NoiseSource,
    sample_block,
    sign_bits,
    source_sample,
)
from noisebits.window import (
    correlate,
    dump_window,
    load_window,
    materialize,
    materialize_many,
    negate,
    product_words,
    unpack_bits,
)

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
    assert (wire.words is not None) == packed
    if negated:
        wire = negate(wire)
    rhos = correlation_sweep(wire, sys)
    expected = [correlate(wire, materialize(sys.source, encode_integer(sys, v),
                                            start, length))
                for v in range(2**n_eff)]
    assert np.array_equal(rhos, np.array(expected))


@PROPERTY
@given(seed=seeds, start=st.one_of(st.integers(0, 2**40),
                                   st.integers(1, 2**20).map(lambda k: k * 2**32 - 5000),
                                   st.tuples(st.integers(1, 2**40 // BLOCK), st.integers(1, 100))
                                   .map(lambda t: t[0] * BLOCK - t[1])),
       length=st.integers(1, 3 * BLOCK + 100), data=st.data())
def test_blocked_sign_bits_match_scalar_oracle(seed, start, length, data):
    """Both sides of every absolute index that is a multiple of BLOCK, and
    a wrap of the index's low 32 bits inside the run, must not change a
    single bit."""
    bits = sign_bits(seed, start, length)
    assert bits.shape == (length,) and bits.dtype == np.uint8
    edges = {j for b in range((-start) % BLOCK, length + 1, BLOCK) for j in (b - 1, b)}
    edges |= {(-start) % 2**32 - 1, (-start) % 2**32}
    edges |= set(data.draw(st.lists(st.integers(0, length - 1), max_size=20)))
    for j in sorted(j for j in edges if 0 <= j < length):
        assert bits[j] == (source_sample(seed, start + j) + 1) // 2


def rotl32(n):
    return (n << 32 | n >> 32) & MASK64


@PROPERTY
@given(seed=seeds, a=st.integers(0, MAX_INDEX // BLOCK - 1).map(lambda a: a * BLOCK),
       j=st.integers(0, BLOCK - 1))
def test_linear_table_is_mix64_first_step(seed, a, j):
    """The first step of mix64, x ^= x >> 30, of seed ^ rotl64(a | j, 32)
    is the table entry for j XOR the block constant for a."""
    c = seed ^ rotl32(a)
    x = seed ^ rotl32(a | j)
    assert int(_LINEAR[j]) ^ c ^ (c >> 30) == x ^ (x >> 30)


@pytest.mark.parametrize("packed", [True, False])
def test_sweep_across_blocks_equals_per_candidate_correlate(packed):
    n_eff, start, length = 4, 12_345, 2 * BLOCK + 37
    sys = build_reference_system(7, n_eff)
    expr = encode_integer(sys, 5) if packed else encode_set(
        sys, [int_to_bits(v, n_eff) for v in (1, 5, 12)])
    wire = negate(materialize(sys.source, expr, start, length))
    expected = [correlate(wire, materialize(sys.source, encode_integer(sys, v),
                                            start, length))
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
    """Windows longer than one fold block equal the whole-window product
    of their factors' ``sample_block`` runs, for products (through
    ``materialize`` and ``product_words``) and for superpositions."""
    src, start, length = NoiseSource(11), 99, 2 * window_module._FOLD_BLOCK + 100
    members = (Product((0, 3, 9)), Product((2, 2**40)), Product((1, 4)))
    signed = []
    for m in members:
        want = np.prod([sample_block(src.seed, start + o, length) for o in m.offsets],
                       axis=0, dtype=np.int32)
        assert np.array_equal(materialize(src, m, start, length).values, want)
        words = product_words(src, m.offsets, start, length)
        assert np.array_equal(unpack_bits(words, length), want > 0)
        signed.append(want)
    got = materialize(src, Superposition(members), start, length).ints
    assert np.array_equal(got, np.sum(signed, axis=0))


FOLD_LENGTHS = [1, 63, 64, 65, window_module._FOLD_BLOCK - 1, window_module._FOLD_BLOCK + 1]
near = st.sampled_from([0, 1, 63, 64, 65, 127, 128, 300])  # bit positions in a run


def padding(w):
    """The bits of a packed window past its length."""
    return unpack_bits(w.words, 64 * w.words.size)[w.length:]


@settings(PROPERTY, max_examples=24)
@given(seed=seeds, start=st.integers(0, 2**40), length=st.sampled_from(FOLD_LENGTHS),
       products=st.lists(st.lists(st.one_of(near, near.map(lambda o: o + 2**40 + 5)),
                                  max_size=5).map(Product), max_size=4, unique=True),
       data=st.data())
def test_materialize_many_packed_folds_match_sample(seed, start, length, products, data):
    """Products folded from packed words, offsets on and off word
    boundaries in one run and in a second run past 2**40, with even and
    odd factor counts and the empty product, equal ``sample``; so does a
    superposition whose members are also products of the call.  Padding
    bits past L are zero, also after ``negate``."""
    products = [Product((0, 64)), Product((1, 65, 2**40 + 5)), Product(), *products]
    members = data.draw(st.lists(st.sampled_from(products), min_size=1, unique=True))
    exprs = [*products, Superposition(tuple(members))]
    windows = materialize_many(seed, exprs, start, length)
    folds = {p: np.prod([np.ones(length, np.int8),
                         *(sample_block(seed, start + o, length) for o in p.offsets)],
                        axis=0, dtype=np.int32) for p in products}
    fold_block = window_module._FOLD_BLOCK
    edges = {0, 63, 64, fold_block - 1, fold_block, length - 1,
             *data.draw(st.lists(st.integers(0, length - 1), max_size=8))}
    edges = sorted(j for j in edges if j < length)
    for expr, w in zip(exprs, windows):
        want = folds[expr] if isinstance(expr, Product) else sum(folds[m] for m in members)
        assert np.array_equal(w.values, want)
        assert [int(w.values[j]) for j in edges] == [sample(seed, expr, start + j)
                                                      for j in edges]
        if isinstance(expr, Product):
            assert not padding(w).any() and not padding(negate(w)).any()
            assert np.array_equal(negate(w).values, -want)


def test_noncommute_shape_folds_in_under_six_bits_a_sample():
    """Two 9-factor products sharing 8 offsets at L = 2**20, the shape of
    a ``noncommute`` op: the frame, the two folds and the factor buffers
    are an eighth of a byte a sample each, and the sign bits and hash
    buffers stay BLOCK-sized.  Folding unpacked uint8 bits took 0.94
    bytes a sample."""
    shared = (3, 5, 7, 9, 11, 13, 15, 17)
    exprs, length = (Product(shared + (1,)), Product(shared + (18,))), 2**20
    tracemalloc.start()
    try:
        materialize_many(7, exprs, 0, length)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * length


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


def plain_butterflies(totals):
    """Reference transform: one in-place butterfly level per index bit,
    lowest bit first."""
    for i in range(totals.size.bit_length() - 1):
        pairs = totals.reshape(-1, 2, 1 << i)
        lo, hi = pairs[:, 0].copy(), pairs[:, 1].copy()
        pairs[:, 0], pairs[:, 1] = lo + hi, lo - hi


@PROPERTY
@given(n_eff=st.sampled_from([*range(15), 17, 20]), seed=st.integers(0, 2**32 - 1))
def test_walsh_hadamard_equals_plain_butterflies(n_eff, seed):
    """Exact below the float64 bound: sum|x| < 2**53, so every butterfly
    sum is an integer float64 holds exactly."""
    bound = 2**53 // (1 << n_eff) - 1
    totals = np.random.default_rng(seed).integers(-bound, bound, 1 << n_eff, endpoint=True)
    want = totals.copy()
    plain_butterflies(want)
    got = walsh_hadamard(totals)
    assert got.dtype == np.float64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("totals, exact", [([2**52, -(2**52)], False),
                                           ([2**52, -(2**52) + 1], True),
                                           ([2**53 - 3, 1, -1, 0], True),
                                           ([2**53 - 3, 1, -1, 1], False)])
def test_walsh_hadamard_refuses_inputs_float64_would_round(totals, exact):
    totals = np.array(totals)
    if exact:
        want = totals.copy()
        plain_butterflies(want)
        assert np.array_equal(walsh_hadamard(totals), want)
    else:
        with pytest.raises(OverflowError, match="2\\*\\*53"):
            walsh_hadamard(totals)


@PROPERTY
@given(n_eff=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
def test_walsh_hadamard_of_integers_has_no_negative_zero(n_eff, seed):
    """A -0.0 total would print as a -0.0 rho and change report bytes."""
    totals = np.random.default_rng(seed).integers(-1, 1, 1 << n_eff, endpoint=True)
    got = walsh_hadamard(totals)
    assert not np.signbit(got[got == 0]).any()
    assert not np.signbit(walsh_hadamard(np.zeros(1 << n_eff, dtype=np.int64))).any()


@pytest.mark.parametrize("n_eff", range(1, 12))
def test_add_correlations_labels_and_rhos(n_eff):
    rhos = np.random.default_rng(n_eff).standard_normal(1 << n_eff) / 7
    report = add_correlations({"k": 0}, rhos, n_eff)
    if n_eff > 10:
        assert report == {"k": 0}
        return
    want = [{"candidate": format_bits(int_to_bits(v, n_eff)), "rho": float(r)}
            for v, r in enumerate(rhos)]
    assert report["correlations"] == want
    assert all(type(c["rho"]) is float for c in report["correlations"])


# Report-shaped values for the JSON writer: keys that need escaping or hold
# a "%", non-ASCII text, every float json spells out.
keys = st.one_of(st.sampled_from(["rho", "%s", "100%", '"q"', "tab\t", "é", "\u2028"]),
                 st.text(max_size=4))
floats = st.one_of(st.floats(), st.sampled_from([float("nan"), float("inf"),
                                                 -float("inf"), -0.0, 1e16, 5e-324]))
scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-2**80, 2**80),
                    floats, floats.map(np.float64), st.text(max_size=6))


@st.composite
def records(draw, children):
    """A list of flat rows with one key order, optionally spoiled by one row
    with other keys, another key order or a nested value."""
    names = draw(st.lists(keys, min_size=1, max_size=4, unique=True))
    rows = draw(st.lists(st.tuples(*[scalars] * len(names)).map(
        lambda values: dict(zip(names, values))), min_size=2, max_size=5))
    spoil = draw(st.sampled_from(["none", "keys", "order", "nested"]))
    row = rows[draw(st.integers(0, len(rows) - 1))]
    if spoil == "keys":
        row[draw(keys)] = draw(scalars)
    elif spoil == "order" and len(names) > 1:
        row[names[0]] = row.pop(names[0])
    elif spoil == "nested":
        row[names[-1]] = draw(children)
    return rows


reports = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.one_of(keys, scalars.filter(lambda k: not isinstance(k, str))),
                        children, max_size=4),
        records(children)),
    max_leaves=25)


@settings(PROPERTY, max_examples=300)
@given(obj=reports)
def test_json_writer_equals_json_dumps(obj):
    assert _json(obj) == json.dumps(obj, indent=2)


#: Rhos a report's column may hold besides integer / L: the values json
#: spells out (NaN, infinities) or writes in exponent form.
SPECIAL_RHOS = [-0.0, float("nan"), float("inf"), -float("inf"), 1e16, 5e-324]


@PROPERTY
@given(n_eff=st.integers(0, 10), depth=st.integers(0, 2), length=st.integers(1, 2**20),
       seed=seeds, as_ints=st.booleans(), data=st.data())
def test_json_writer_writes_correlations_as_json_dumps(n_eff, depth, length, seed, as_ints,
                                                       data):
    """A correlations table written from its rho column, at any nesting
    depth, is json.dumps's; NaN, infinities and ints take the generic path."""
    rng = np.random.default_rng(seed)
    rhos = rng.integers(-length, length, 1 << n_eff, endpoint=True)
    if not as_ints:
        rhos = rhos / length
        for i, value in data.draw(st.lists(st.tuples(
                st.integers(0, (1 << n_eff) - 1), st.sampled_from(SPECIAL_RHOS)), max_size=3)):
            rhos[i] = value
    obj = add_correlations({"k": 0, "ok": True}, rhos, n_eff)
    for _ in range(depth):
        obj = {"runs": [obj, obj]}
    assert _json(obj) == json.dumps(obj, indent=2)


BLOCK_EDGES = [1, 63, 64, 65, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7]


def assert_wire_paths_agree(seed, n_eff, values, length, d):
    """``carrier_set_readout``, which never builds the wire, gives the rhos
    and hits of the sweep over ``materialize`` of the shifted set."""
    sys = build_reference_system(seed, n_eff)
    max_n = max(n_eff, DEFAULT_MAX_N)
    expr = shift(encode_set(sys, [int_to_bits(v, n_eff) for v in values]), d)
    want = readout(materialize(sys.source, expr, 0, length), sys, max_n=max_n)
    got = carrier_set_readout(sys, values, length, d, max_n=max_n)
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1]


@pytest.mark.parametrize("n_eff", [*range(1, 15), 17])
@settings(PROPERTY, max_examples=5)
@given(seed=seeds, d=st.integers(0, 3), data=st.data())
def test_carrier_set_wire_paths_agree(n_eff, seed, d, data):
    m = data.draw(st.one_of(st.just(1), st.integers(1, min(64, 2**n_eff))))
    length = data.draw(st.one_of(st.sampled_from(BLOCK_EDGES), st.integers(1, 3 * BLOCK)))
    length = min(length, max(1, 2 * 10**7 // (m * n_eff)))  # bounds the fold oracle
    values = sorted(data.draw(st.sets(st.integers(0, 2**n_eff - 1), min_size=m, max_size=m)))
    assert_wire_paths_agree(seed, n_eff, values, length, d)


@pytest.mark.parametrize("n_eff, length", [(1, 16_001), (4, 32_007),  # off the block edges
                                           (1, BLOCK + 1), (4, 2 * BLOCK + 7), (8, 65),
                                           (11, 64), (14, 3)])
def test_carrier_set_wire_paths_agree_on_every_string(n_eff, length):
    assert_wire_paths_agree(n_eff, n_eff, range(2**n_eff), length, 3)


@pytest.mark.parametrize("d", [0, 2])
def test_carrier_set_readout_past_16_bit_patterns(d):
    """Past n_eff 16 the flip pattern is uint32, read by both the d = 0
    pattern count and the shifted weights."""
    values = [0, 12_345, 1 << 16, (1 << 17) - 1]
    assert_wire_paths_agree(17, 17, values, BLOCK + 1, d)


@pytest.mark.parametrize("d", [0, 1])
@pytest.mark.parametrize("n_eff, bound", [(10, 6), (17, 8)])
def test_carrier_set_readout_holds_no_wire(n_eff, bound, d):
    """A readout peaks at the hashed sign bits plus the frame's int8 base
    and its pattern: 4 bytes a sample with a uint16 pattern, 6 with a
    uint32 one past n_eff 16, where the 2**17 totals and W_S table add up
    to 2 more at this length.  The frame is released before the last
    transform's two float64 buffers.  A window-sized int32 wire would add 4."""
    length = 2**20
    sys = build_reference_system(5, n_eff)
    tracemalloc.start()
    try:
        carrier_set_readout(sys, range(0, 1 << n_eff, 2**n_eff // 50), length, d, max_n=n_eff)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound * length


@PROPERTY
@given(seed=seeds, start=st.integers(0, 2**40), length=st.integers(1, 300),
       offsets=st.lists(st.integers(0, 40), min_size=1, max_size=4, unique=True),
       packed=st.booleans(), provenance=st.booleans(), extra=st.integers(0, 255))
def test_dump_load_round_trip_and_malformed_dumps(seed, start, length, offsets, packed,
                                                  provenance, extra):
    expr = Product(tuple(offsets)) if packed else Superposition(
        tuple(Product((o,)) for o in offsets))
    w = materialize(seed, expr, start, length)
    if not provenance:
        w = negate(w)  # drops expr; a dump then carries an empty expression
    buf = io.BytesIO()
    dump_window(w, buf)
    raw = buf.getvalue()
    back = load_window(io.BytesIO(raw))
    assert (back.seed, back.start, back.length, back.expr) == (seed, start, length, w.expr)
    assert (back.words is None, back.ints is None) == (w.words is None, w.ints is None)
    assert np.array_equal(back.values, w.values)
    for malformed in (*(raw[:cut] for cut in range(len(raw))), raw + bytes([extra])):
        with pytest.raises(ValueError):
            load_window(io.BytesIO(malformed))
