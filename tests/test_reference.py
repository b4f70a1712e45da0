import random

import pytest

from noisebits.apps import ShiftAssignment
from noisebits.expr import Product
from noisebits.cli import main
from noisebits.hyperspace import int_to_bits
from noisebits.reference import (
    _ladder_string,
    build_reference_system,
    capacity,
    carrier_offsets,
    orthogonality_matrix,
)


def test_single_bit_system_matches_base_pair():
    sys = build_reference_system(42, 1)
    assert sys.reference_noise(1, 0) == Product((0,))   # the source itself
    assert sys.reference_noise(1, 1) == Product((1,))   # one period ahead


def test_three_bit_offsets():
    sys = build_reference_system(42, 3)
    offsets = [sys.offset(i, b) for i in (1, 2, 3) for b in (0, 1)]
    assert offsets == [0, 1, 2, 3, 4, 5]
    assert max(offsets) == 2 * 3 - 1  # register depth of the base system


def test_expanded_system():
    sys = build_reference_system(42, 3, extra_shift_rounds=1)
    assert sys.n_eff == 6
    offsets = [sys.offset(i, b) for i in range(1, 7) for b in (0, 1)]
    assert offsets == list(range(12))


def test_expansion_preserves_base_references():
    base = build_reference_system(42, 4)
    grown = build_reference_system(42, 4, extra_shift_rounds=2)
    for i in range(1, 5):
        for b in (0, 1):
            assert grown.reference_noise(i, b) == base.reference_noise(i, b)


def test_offsets_injective_and_contiguous():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(1, 9)
        k = rng.randrange(4)
        sys = build_reference_system(1, n, k)
        offsets = [sys.offset(i, b) for i in range(1, sys.n_eff + 1) for b in (0, 1)]
        assert sorted(offsets) == list(range(2 * sys.n_eff))
        assert len(set(offsets)) == len(offsets)
        # one ladder order: pairs() lists (i, b) at offset j, and every
        # enumeration of the references follows it
        pairs = sys.pairs()
        references, labels = sys.references(), sys.labels()
        assert len(pairs) == len(references) == len(labels) == 2 * sys.n_eff
        for j, (i, b) in enumerate(pairs):
            assert sys.offset(i, b) == j
            assert references[j] == Product((j,))
            assert labels[j] == f"V_{i}_{b}"
        assert list(ShiftAssignment.draw(sys, 7).shifts) == pairs
    for n in range(1, 7):  # carrier_offsets and its inverse, on every string
        for v in range(2**n):
            bits = int_to_bits(v, n)
            assert _ladder_string(carrier_offsets(bits), n) == bits


def test_reference_examples():
    sys = build_reference_system(42, 2)
    assert sys.reference_noise(1, 0) == Product((0,))
    assert sys.reference_noise(2, 1) == Product((3,))


def test_reference_range_checks():
    sys = build_reference_system(42, 2)
    for i, b in ((0, 0), (3, 0), (1, 2), (1, -1)):
        with pytest.raises(ValueError):
            sys.reference_noise(i, b)


def test_system_validation():
    with pytest.raises(ValueError):
        build_reference_system(42, 0)
    with pytest.raises(ValueError):
        build_reference_system(42, 2, -1)


def test_pairwise_orthogonality_bound():
    sys = build_reference_system(42, 3)
    matrix = orthogonality_matrix(sys, 20_000)
    size = 2 * sys.n_eff
    bound = 5 / 20_000**0.5
    for i in range(size):
        assert matrix[i][i] == 1.0
        for j in range(size):
            assert matrix[i][j] == matrix[j][i]
            if i != j:
                assert abs(matrix[i][j]) <= bound


def test_reference_pair_correlation_at_scale():
    sys = build_reference_system(42, 2)
    from noisebits.window import correlate, materialize

    a = materialize(sys.source, sys.reference_noise(1, 1), 0, 10**6)
    b = materialize(sys.source, sys.reference_noise(2, 0), 0, 10**6)

    assert abs(correlate(a, b)) <= 5e-3


def test_distinct_random_offsets_stay_orthogonal():
    # flagged tolerance check on the default seed, not a proof
    from noisebits.window import correlate, materialize

    rng = random.Random(6)
    length = 20_000
    bound = 5 / length**0.5
    for _ in range(15):
        a, b = rng.sample(range(500), 2)
        wa = materialize(42, Product((a,)), 0, length)
        wb = materialize(42, Product((b,)), 0, length)
        assert abs(correlate(wa, wb)) <= bound, (a, b)


def test_orthogonality_csv_format(capsys):
    assert main(["ortho", "--n", "2", "--l", "4096", "--seed", "42"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",V_1_0,V_1_1,V_2_0,V_2_1"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "V_1_0"
    assert first[1] == "1"  # exact diagonal, 6 significant digits
    assert len(first) == 5


def test_capacity_examples():
    assert capacity(1, 0).classical_bits == 2
    assert capacity(3, 6).classical_bits == 64
    assert capacity(10, 40).classical_bits == 2**30
    assert capacity(10, 40).dimension_factor == 2**20


def test_capacity_is_exact_integer():
    report = capacity(16, 2 * 50 * 16)
    assert isinstance(report.classical_bits, int)
    assert report.classical_bits == 2 ** (16 + 50 * 16)


def test_capacity_doubling_consistency():
    for n in range(1, 17):
        assert capacity(n, 2 * n).classical_bits == capacity(2 * n, 0).classical_bits


def test_capacity_validation():
    with pytest.raises(ValueError, match="2kN"):
        capacity(3, 5)
    with pytest.raises(ValueError, match="2kN"):
        capacity(3, 4)
    with pytest.raises(ValueError):
        capacity(0, 0)
    with pytest.raises(ValueError):
        capacity(3, -6)
