import copy
import json
import pickle
import random

import numpy as np
import pytest

import noisebits.hyperspace as hyperspace
from noisebits.expr import Product
from noisebits.hyperspace import (
    Correlations,
    add_correlations,
    bits_to_int,
    carrier_set_readout,
    correlation_sweep,
    decode_report,
    decode_superposition,
    default_window_len,
    detect_string,
    encode_integer,
    encode_set,
    encode_string,
    format_bits,
    format_values,
    int_to_bits,
    ladder_frame,
    parse_bits,
    round_trip_run,
)
from noisebits.reference import build_reference_system
from noisebits.window import correlate, materialize, negate

# One of the pinned round-trip seeds; margins were verified when frozen.
GOOD_SEED = 4000


def test_encode_string_examples():
    sys1 = build_reference_system(42, 1)
    assert encode_string(sys1, (0,)) == Product((0,))
    sys3 = build_reference_system(42, 3)
    assert encode_string(sys3, (1, 0, 1)) == Product((1, 2, 5))


def test_encode_string_validation():
    sys = build_reference_system(42, 3)
    with pytest.raises(ValueError):
        encode_string(sys, (0, 1))
    with pytest.raises(ValueError):
        encode_string(sys, (0, 1, 2))


def test_encoding_injective_exhaustive_n8():
    sys = build_reference_system(42, 8)
    seen = {encode_string(sys, int_to_bits(v, 8)) for v in range(256)}
    assert len(seen) == 256


def test_encode_integer_conventions():
    sys = build_reference_system(42, 6)
    assert encode_integer(sys, 0) == encode_string(sys, (0,) * 6)
    assert encode_integer(sys, 2**6 - 1) == encode_string(sys, (1,) * 6)
    assert encode_integer(sys, 1) == encode_string(sys, (1, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        encode_integer(sys, 2**6)
    with pytest.raises(ValueError):
        encode_integer(sys, -1)


def test_encode_set_empty_is_zero():
    sys = build_reference_system(42, 4)
    z = encode_set(sys, [])
    w = materialize(sys.source, z, 0, 100)
    assert np.array_equal(w.values, np.zeros(100, dtype=np.int32))


def test_encode_set_rejects_duplicates():
    sys = build_reference_system(42, 4)
    with pytest.raises(ValueError):
        encode_set(sys, [(0, 0, 0, 0), (0, 0, 0, 0)])


def test_encode_set_error_messages():
    sys = build_reference_system(42, 4)
    with pytest.raises(ValueError, match="bit values must be 0 or 1"):
        encode_set(sys, [(0, 0, 0, 0), (0, 2, 0, 0)])
    with pytest.raises(ValueError, match="expected 4 bits, got 3"):
        encode_set(sys, [(0, 0, 0)])


def test_encode_set_amplitude_bound():
    sys = build_reference_system(GOOD_SEED, 10)
    strings = [int_to_bits(v, 10) for v in (1, 2, 3, 4, 5)]
    w = materialize(sys.source, encode_set(sys, strings), 0, 5000)
    assert int(np.abs(w.values).max()) <= 5


def test_detect_singleton_exact():
    sys = build_reference_system(42, 5)
    s = (1, 0, 1, 1, 0)
    w = materialize(sys.source, encode_set(sys, [s]), 0, 4096)
    res = detect_string(w, sys, s)
    assert res.rho == 1.0 and res.present


def test_detect_member_and_nonmember_bounds():
    sys = build_reference_system(GOOD_SEED, 10)
    values = (22, 129, 610, 730, 970)
    strings = [int_to_bits(v, 10) for v in values]
    w = materialize(sys.source, encode_set(sys, strings), 0, 40_000)
    for s in strings:
        res = detect_string(w, sys, s)
        assert res.present and abs(res.rho - 1.0) <= 0.05
    for v in (0, 17, 1023):
        res = detect_string(w, sys, int_to_bits(v, 10))
        assert not res.present and abs(res.rho) <= 0.05


def test_sweep_agrees_with_pairwise_correlate():
    sys = build_reference_system(11, 6)
    strings = [int_to_bits(v, 6) for v in (3, 40, 61)]
    w = materialize(sys.source, encode_set(sys, strings), 0, 10_000)
    rhos = correlation_sweep(w, sys)
    rng = random.Random(0)
    for v in [0, 3, 40, 61] + [rng.randrange(64) for _ in range(10)]:
        cand = materialize(sys.source, encode_integer(sys, v), 0, 10_000)
        assert rhos[v] == correlate(w, cand)


def test_sweep_on_packed_signal_window():
    sys = build_reference_system(5, 4)
    s = (0, 1, 1, 0)
    w = materialize(sys.source, encode_string(sys, s), 0, 10_000)  # bare product
    rhos = correlation_sweep(w, sys)
    assert rhos[bits_to_int(s)] == 1.0
    assert decode_superposition(w, sys) == {s}


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -float("inf")])
def test_readout_rejects_non_finite_threshold(threshold):
    sys = build_reference_system(42, 4)
    w = materialize(sys.source, encode_set(sys, [(0, 1, 0, 1)]), 0, 1000)
    with pytest.raises(ValueError, match="finite"):
        decode_superposition(w, sys, threshold=threshold)
    with pytest.raises(ValueError, match="finite"):
        decode_report(w, sys, threshold=threshold)
    with pytest.raises(ValueError, match="finite"):
        detect_string(w, sys, (0, 1, 0, 1), threshold=threshold)


@pytest.mark.parametrize("m_strings", [0, -1, 17])
def test_round_trip_rejects_m_strings_out_of_range(m_strings):
    with pytest.raises(ValueError, match=r"1\.\.2\*\*n_eff = 1\.\.16"):
        round_trip_run(42, 4, m_strings)


def test_decode_zero_signal_is_empty():
    sys = build_reference_system(42, 5)
    w = materialize(sys.source, encode_set(sys, []), 0, 10_000)
    assert decode_superposition(w, sys) == set()


def test_decode_rejects_foreign_source():
    sys = build_reference_system(42, 4)
    other = build_reference_system(43, 4)
    w = materialize(other.source, encode_set(other, [(0, 1, 0, 1)]), 0, 1000)
    with pytest.raises(ValueError, match="seed"):
        decode_superposition(w, sys)
    with pytest.raises(ValueError, match="seed"):
        detect_string(w, sys, (0, 1, 0, 1))


def test_decode_rejects_wire_of_another_width():
    wide = build_reference_system(42, 5)
    sys = build_reference_system(42, 4)
    w = materialize(wide.source, encode_set(wide, [(0, 1, 0, 1, 1)]), 0, 1000)
    with pytest.raises(ValueError, match=r"P\[0,3,4,7,9\] is not a 4-bit string carrier"):
        decode_superposition(w, sys)
    packed = materialize(sys.source, Product((0, 2, 4)), 0, 1000)
    with pytest.raises(ValueError, match="not a 4-bit"):
        decode_superposition(packed, sys)
    # without provenance the width is unknown and the sweep runs
    assert decode_superposition(negate(packed), sys) == set()


def test_decode_capacity_cap():
    sys = build_reference_system(42, 15)
    w = materialize(sys.source, encode_set(sys, []), 0, 64)
    with pytest.raises(ValueError, match="capacity exceeded"):
        decode_superposition(w, sys)
    # raising the cap explicitly is allowed
    assert decode_superposition(w, sys, max_n=15) == set()


def test_linearity_of_integer_superposition():
    sys = build_reference_system(9, 6)
    a = [int_to_bits(v, 6) for v in (1, 9)]
    b = [int_to_bits(v, 6) for v in (17, 33)]
    w_a = materialize(sys.source, encode_set(sys, a), 0, 2000)
    w_b = materialize(sys.source, encode_set(sys, b), 0, 2000)
    w_ab = materialize(sys.source, encode_set(sys, a + b), 0, 2000)
    assert np.array_equal(w_ab.values, w_a.values + w_b.values)
    cand = materialize(sys.source, encode_integer(sys, 9), 0, 2000)

    def numerator(win):
        return round(correlate(win, cand) * 2000)

    assert numerator(w_ab) == numerator(w_a) + numerator(w_b)


def test_member_correlation_decomposes_into_cross_terms():
    # member rho numerator == L + sum of pairwise member-product numerators
    sys = build_reference_system(GOOD_SEED, 6)
    strings = [int_to_bits(v, 6) for v in (5, 19, 44)]
    length = 4000
    w = materialize(sys.source, encode_set(sys, strings), 0, length)
    target = strings[0]
    cand = materialize(sys.source, encode_string(sys, target), 0, length)

    def numerator(rho):
        return round(rho * length)

    got = numerator(correlate(w, cand))
    cross = 0
    for other in strings[1:]:
        w_other = materialize(sys.source, encode_string(sys, other), 0, length)
        cross += numerator(correlate(w_other, cand))
    assert got == length + cross


def test_window_len_policy():
    assert default_window_len(1) == 10_000
    assert default_window_len(5) == 10_000
    assert default_window_len(26) == 10_000
    assert default_window_len(30) == 11_600
    # the policy keeps the member/non-member gap at 10+ noise sigmas
    for m in (2, 5, 26, 100):
        length = default_window_len(m)
        sigma = (m - 1) ** 0.5 / length**0.5
        assert 10 * sigma <= 1.0


# random.Random(0).sample(range(1, 2**14), 14): 14 strings, none of them 0...0
RANDOM_14 = (13836, 6312, 12419, 14586, 6891, 664, 4243, 15819, 8377, 7962, 6635,
             15045, 12842, 13597)


@pytest.mark.parametrize("values, model", [
    ([1 << i for i in range(14)], 14 / 10_000 ** 0.5),  # one translate family: coherent
    (RANDOM_14, (14 / 10_000) ** 0.5),                 # no shared translates: sqrt(m/L)
])
def test_readout_noise_follows_the_translate_model(values, model):
    # sd(rho of 0...0) over seeds 0-199 at n_eff 14, L = 1e4 (README, readout policy);
    # a 200-seed sd has a 5% standard error, so +-20% is a 4-sigma bound
    rhos = [carrier_set_readout(build_reference_system(seed, 14), values, 10_000)[0][0]
            for seed in range(200)]
    assert abs(np.std(rhos, ddof=1) / model - 1.0) <= 0.2


def test_decode_report_schema():
    sys = build_reference_system(GOOD_SEED, 6)
    strings = [int_to_bits(v, 6) for v in (5, 48)]
    w = materialize(sys.source, encode_set(sys, strings), 0, 10_000)
    report = decode_report(w, sys)
    assert set(report) == {"seed", "N", "k", "m", "L", "threshold",
                           "detected", "correlations"}
    assert report["detected"] == sorted(format_bits(s) for s in strings)
    assert len(report["correlations"].rhos) == 64
    assert report["m"] == 2 and report["L"] == 10_000

    big = build_reference_system(GOOD_SEED, 11)
    w_big = materialize(big.source, encode_set(big, []), 0, 1024)
    assert "correlations" not in decode_report(w_big, big)


def test_round_trip_run_deterministic():
    a = round_trip_run(GOOD_SEED, 8, 3, 10_000)
    b = round_trip_run(GOOD_SEED, 8, 3, 10_000)
    assert a == b
    assert a["ok"]


def test_bits_helpers():
    assert parse_bits("0101") == (0, 1, 0, 1)
    assert format_bits((0, 1, 1)) == "011"
    assert bits_to_int((1, 0, 1)) == 5
    assert int_to_bits(5, 3) == (1, 0, 1)
    with pytest.raises(ValueError):
        parse_bits("01x")
    with pytest.raises(ValueError):
        int_to_bits(8, 3)


def test_ladder_frame_rejects_empty_window_and_negative_shift():
    with pytest.raises(ValueError, match="window length must be at least 1, got 0"):
        ladder_frame(42, 4, 0, 0)
    with pytest.raises(ValueError, match="negative shifts are not represented"):
        ladder_frame(42, 4, 0, 100, -1)
    for n_eff in (0, -1):
        with pytest.raises(ValueError, match=f"need at least one noise bit, got n_eff={n_eff}"):
            ladder_frame(5, n_eff, 0, 100)


@pytest.mark.parametrize("length, d, threshold, n_eff, message, value", [
    (0, -1, float("nan"), 15, "negative shifts are not represented", 0),
    (0, 0, float("nan"), 15, "window length must be at least 1, got 0", 0),
    (20_000_000, 1, float("nan"), 15, "threshold must be a finite number, got nan", 0),
    (20_000_000, 1, 0.5, 15, r"capacity exceeded: .* \(n_eff=15, max_n=14\)", 0),
    (20_000_000, 1, 0.5, 14, r"carrier values must lie in 0\.\.16383, got -1", -1),
    (20_000_000, 1, 0.5, 14, r"carrier values must lie in 0\.\.16383, got 16384", 1 << 14),
    ((1 << 28) + 1, 1, float("nan"), 15,
     "window length must be at most 268435456, got 268435457", 0),
])
def test_carrier_set_readout_checks_every_input_before_hashing(monkeypatch, length, d,
                                                               threshold, n_eff, message,
                                                               value):
    """d, L, threshold, max_n and the carrier values are checked in that
    order, and a bad one fails before any of the window is hashed."""
    def no_hash(*args):
        raise AssertionError("hashed a frame before checking the inputs")

    monkeypatch.setattr(hyperspace, "sign_bits", no_hash)
    with pytest.raises(ValueError, match=message):
        carrier_set_readout(build_reference_system(3, n_eff), [0, value], length, d,
                            threshold)


def test_carrier_set_readout_rejects_repeated_values(monkeypatch):
    """A repeated value would double its carrier (rho 2.003 for 5 in [5, 5, 9]),
    a wire no Superposition holds; it is refused after the other checks,
    before any of the window is hashed."""
    def no_hash(*args):
        raise AssertionError("hashed a frame before checking the inputs")

    monkeypatch.setattr(hyperspace, "sign_bits", no_hash)
    sys = build_reference_system(5, 6)
    with pytest.raises(ValueError, match="duplicate members silently double amplitude"):
        carrier_set_readout(sys, [5, 5, 9], 10_000)
    with pytest.raises(ValueError, match=r"carrier values must lie in 0\.\.63, got 64"):
        carrier_set_readout(sys, [64, 64], 10_000)


def test_frames_and_readouts_refuse_more_than_32_noise_bits(monkeypatch):
    """A uint32 flip pattern holds 32 bits: past that a frame or readout
    fails before it hashes or allocates, instead of dropping the high bits."""
    def no_hash(*args):
        raise AssertionError("hashed a frame before checking n_eff")

    monkeypatch.setattr(hyperspace, "sign_bits", no_hash)
    message = "a ladder frame holds at most 32 noise bits, got n_eff=33"
    with pytest.raises(ValueError, match=message):
        ladder_frame(7, 33, 0, 64)
    sys33 = build_reference_system(7, 33)
    with pytest.raises(ValueError, match=message):
        carrier_set_readout(sys33, [0], 64, max_n=40)
    wire = materialize(sys33.source, Product((0,)), 0, 64)
    with pytest.raises(ValueError, match=message):
        correlation_sweep(wire, sys33, max_n=40)


RHOS = np.array([0.5, -0.25, 0.0, 1.0, -0.0, 0.125, 0.5, -1.0])

#: Everything a report reader may do with a correlations table's rows.
LIST_READS = {
    "eq": lambda x: x == ROWS, "eq_reflected": lambda x: ROWS == x,
    "ne": lambda x: x != ROWS, "ne_reflected": lambda x: ROWS != x,
    "eq_lazy": lambda x: x == add_correlations({}, RHOS, 3)["correlations"].rows(),
    "len": len, "bool": bool, "iter": lambda x: [*iter(x)],
    "index_0": lambda x: x[0], "index_-1": lambda x: x[-1], "slice": lambda x: x[1:7:2],
    "in": lambda x: ROWS[5] in x, "reversed": lambda x: [*reversed(x)],
    "index": lambda x: x.index(ROWS[6]), "count": lambda x: x.count(ROWS[0]),
    "copy": lambda x: x.copy(), "repr": repr,
    "json": json.dumps, "json_indent": lambda x: json.dumps(x, indent=2),
    "deepcopy": copy.deepcopy, "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "add": lambda x: x + ["end"], "add_reflected": lambda x: ["start"] + x,
    "append": lambda x: (x.append("end"), x)[1],
    "sort": lambda x: (x.sort(key=lambda row: row["rho"]), x)[1],
}
ROWS = [{"candidate": c, "rho": r} for c, r in zip(format_values(range(8), 3), RHOS.tolist())]


@pytest.mark.parametrize("read", sorted(LIST_READS))
@pytest.mark.parametrize("built", [False, True])
def test_correlations_rows_read_as_the_eager_list(read, built):
    """A table's ``rows()`` is the eager list of its rows under every list
    operation, and is the same list after an earlier one was read or changed
    (``built``): the table is a frozen value that no edit of its rows reaches."""
    table = add_correlations({}, RHOS, 3)["correlations"]
    if built:
        LIST_READS[read](table.rows())
    got, want = LIST_READS[read](table.rows()), LIST_READS[read](copy.deepcopy(ROWS))
    assert type(got) is type(want)
    assert got == want
    assert table == Correlations(3, tuple(RHOS.tolist())) and table.rows() == ROWS
