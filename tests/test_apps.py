import random

import numpy as np
import pytest

from noisebits import apps
from noisebits.apps import (
    ShiftAssignment,
    holographic_demo,
    holographic_map,
    noncommute_demo,
    random_shift_demo,
)
from noisebits.expr import Product, multiply, shift
from noisebits.hyperspace import check_bits, encode_string, int_to_bits
from noisebits.reference import build_reference_system


def oracle_map(bits, steps):
    """Independent re-interpretation oracle, straight offset arithmetic."""
    n = len(bits)
    offsets = sorted(2 * i + b + steps for i, b in enumerate(bits))
    if any(o > 2 * n - 1 for o in offsets):
        return "ladder-overflow"
    slots = [o // 2 for o in offsets]
    if len(set(slots)) != n:
        return "bit-collision"
    image = [0] * n
    for o in offsets:
        image[o // 2] = o % 2
    return tuple(image)


def test_holographic_map_all_zeros():
    assert holographic_map((0, 0, 0)) == (1, 1, 1)


def test_holographic_map_collision():
    assert holographic_map((1, 0, 0)) == "bit-collision"


def test_holographic_map_overflow():
    assert holographic_map((1, 1)) == "ladder-overflow"


def test_holographic_map_identity_step():
    for v in range(16):
        s = int_to_bits(v, 4)
        assert holographic_map(s, steps=0) == s


def test_holographic_map_matches_oracle_exhaustively():
    for steps in (1, 2, 3):
        for v in range(16):
            s = int_to_bits(v, 4)
            assert holographic_map(s, steps) == oracle_map(s, steps)


def test_holographic_map_gives_a_string_or_one_of_two_reasons():
    for n in range(1, 6):
        for v in range(2**n):
            s = int_to_bits(v, n)
            for steps in range(2 * n + 1):
                image = holographic_map(s, steps)
                assert (image in ("ladder-overflow", "bit-collision") if isinstance(image, str)
                        else len(image) == n and set(image) <= {0, 1})


def test_holographic_map_rejects_backward_steps():
    with pytest.raises(ValueError):
        holographic_map((0, 0), steps=-1)


def test_holographic_demo_identity():
    sys = build_reference_system(42, 4)
    strings = [(0, 0, 1, 1), (1, 0, 1, 0)]
    report = holographic_demo(sys, strings, 0)
    assert report["ok"]
    assert report["decoded"] == sorted("0011 1010".split())


def test_holographic_demo_all_zeros_shift_one():
    sys = build_reference_system(42, 4)
    report = holographic_demo(sys, [(0, 0, 0, 0)], 1)
    assert report["ok"]
    assert report["decoded"] == ["1111"]


def test_holographic_demo_out_of_range_member_vanishes():
    sys = build_reference_system(42, 4)
    report = holographic_demo(sys, [(0, 0, 0, 0), (1, 0, 0, 0)], 1)
    assert report["ok"]
    assert report["decoded"] == ["1111"]
    assert report["out_of_range"] == [{"string": "1000", "reason": "bit-collision"}]
    # the vanished carrier shows up nowhere: every candidate stays off threshold
    rhos = dict(zip(report["correlations"].labels, report["correlations"].rhos))
    assert sum(r > 0.5 for r in rhos.values()) == 1


def test_noncommute_multiply_multiply_commutes():
    sys = build_reference_system(42, 2)
    a = sys.reference_noise(1, 0)
    b = sys.reference_noise(2, 1)
    x = Product((1,))
    assert multiply(multiply(x, a), b) == multiply(multiply(x, b), a)


def test_noncommute_shift_shift_commutes():
    x = Product((0, 3))
    assert shift(shift(x, 2), 5) == shift(shift(x, 5), 2)


def test_noncommute_demo_n2():
    sys = build_reference_system(42, 2)
    x = encode_string(sys, (0, 0))
    report = noncommute_demo(sys, x, 1, 0, 1, 10**6)
    assert report["ok"]
    assert not report["structurally_equal"]
    assert abs(report["cross_rho"]) <= 5e-3
    assert report["self_rho_ab"] == 1.0 and report["self_rho_ba"] == 1.0


def test_noncommute_structural_inequality_is_universal():
    rng = random.Random(8)
    sys = build_reference_system(1, 4)
    for _ in range(200):
        x = Product(tuple(rng.randrange(12) for _ in range(rng.randrange(5))))
        i = rng.randrange(1, 5)
        b = rng.randrange(2)
        d = rng.randrange(1, 6)
        ref = sys.reference_noise(i, b)
        ab = multiply(shift(x, d), ref)
        ba = shift(multiply(x, ref), d)
        assert ab != ba


def test_noncommute_demo_requires_shift():
    sys = build_reference_system(42, 2)
    with pytest.raises(ValueError):
        noncommute_demo(sys, Product((0,)), 1, 0, 0, 100)


def test_shift_assignment_draw():
    sys = build_reference_system(42, 3)
    asn = ShiftAssignment.draw(sys, seed=7)
    assert set(asn.shifts) == {(i, b) for i in (1, 2, 3) for b in (0, 1)}
    assert all(1 <= r <= 6 for r in asn.shifts.values())
    again = ShiftAssignment.draw(sys, seed=7)
    assert asn == again


def test_shift_assignment_distinct():
    sys = build_reference_system(42, 4)
    asn = ShiftAssignment.draw(sys, seed=3, distinct=True)
    values = list(asn.shifts.values())
    assert len(set(values)) == len(values)
    with pytest.raises(ValueError):
        ShiftAssignment.draw(sys, seed=3, r_max=5, distinct=True)


def test_random_shift_zero_is_transparent():
    sys = build_reference_system(42, 2)
    asn = ShiftAssignment({(1, 0): 0, (1, 1): 1, (2, 0): 2, (2, 1): 3})
    report = random_shift_demo(sys, asn, 1, 0, 50_000)
    assert report["uncompensated_rho"] == 1.0
    assert report["ok"]


def test_random_shift_hides_and_restores():
    sys = build_reference_system(42, 2)
    asn = ShiftAssignment({(1, 0): 3, (1, 1): 1, (2, 0): 4, (2, 1): 2})
    report = random_shift_demo(sys, asn, 1, 0, 10**6)
    assert abs(report["uncompensated_rho"]) <= 5e-3
    assert report["compensated_rho"] == 1.0
    assert report["compensated_exact"]
    assert report["ok"]


def test_random_shift_single_global_guess_restores_one():
    sys = build_reference_system(42, 3)
    asn = ShiftAssignment.draw(sys, seed=11, distinct=True)
    report = random_shift_demo(sys, asn, 1, 0, 20_000)
    assert report["restored"] == ["V_1_0"]
    assert report["restored_count"] == 1
    # guessing someone else's shift restores exactly that someone
    other = asn.shifts[(2, 1)]
    report2 = random_shift_demo(sys, asn, 1, 0, 20_000, global_shift=other)
    assert report2["restored"] == ["V_2_1"]


@pytest.mark.parametrize("i, b", [(9, 0), (0, 1), (1, 2)])
def test_random_shift_rejects_reference_outside_ladder(i, b):
    sys = build_reference_system(42, 2)
    asn = ShiftAssignment.draw(sys, seed=7)
    with pytest.raises(ValueError):
        random_shift_demo(sys, asn, i, b, 1000)


def test_random_shift_materializes_hidden_and_reference_once(monkeypatch):
    """The compensated stream is the hidden one: exactly two expressions
    go to materialize_many, the hidden stream and its reference."""
    sys = build_reference_system(42, 3)
    asn = ShiftAssignment.draw(sys, seed=7)
    calls, real = [], apps.materialize_many

    def recording(source, exprs, start, length):
        calls.append(tuple(exprs))
        return real(source, exprs, start, length)

    monkeypatch.setattr(apps, "materialize_many", recording)
    report = random_shift_demo(sys, asn, 2, 1, 1000)
    ref = sys.reference_noise(2, 1)
    assert calls == [(shift(ref, asn.shifts[(2, 1)]), ref)]
    assert report["compensated_rho"] == 1.0 and report["compensated_exact"]


@pytest.mark.parametrize("shifts, message", [
    ({(1, 0): 3}, r"missing \[\(1, 1\), \(2, 0\), \(2, 1\)\], extra \[\]"),
    ({(1, 0): 3, (1, 1): 1, (2, 0): 4, (2, 1): 2, (9, 9): 1}, r"missing \[\], extra \[\(9, 9\)\]"),
    ({(1, 0): 3, (1, 1): 1, (2, 0): 4, (2, 1): 2, (0, 0): 1}, r"missing \[\], extra \[\(0, 0\)\]"),
], ids=["incomplete", "extra-9-9", "extra-0-0"])
def test_random_shift_rejects_assignment_off_the_ladder(monkeypatch, shifts, message):
    """An assignment holds one shift per reference, no fewer and no more; the
    check runs before anything is materialized."""
    def no_materialize(*args):
        raise AssertionError("materialized before checking the assignment")

    monkeypatch.setattr(apps, "materialize_many", no_materialize)
    with pytest.raises(ValueError, match=message):
        random_shift_demo(build_reference_system(5, 2), ShiftAssignment(shifts), 1, 0, 1000)


SYS2 = build_reference_system(5, 2)

INTEGRAL_INPUTS = {
    "check_bits": lambda v: check_bits((1, v)),
    "Product": lambda v: Product((v,)),
    "shift": lambda v: shift(Product((0,)), v),
    "holographic_map": lambda v: holographic_map((0, 0), v),
    "noncommute_demo-d": lambda v: noncommute_demo(SYS2, Product((0,)), 1, 0, v, 100),
    "random_shift_demo-global_shift": lambda v: random_shift_demo(
        SYS2, ShiftAssignment.draw(SYS2, 7), 1, 0, 100, global_shift=v),
    "ShiftAssignment.draw-seed": lambda v: ShiftAssignment.draw(SYS2, v),
}


@pytest.mark.parametrize("call", INTEGRAL_INPUTS.values(), ids=INTEGRAL_INPUTS)
def test_integer_inputs_take_numpy_integers_and_reject_floats(call):
    """A float is refused, not truncated; a numpy integer is an integer."""
    call(np.int64(1))
    with pytest.raises(TypeError):
        call(1.5)
