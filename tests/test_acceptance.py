"""End-to-end acceptance suite.

Each test exercises one shipped guarantee at its stated tolerance and
prints a single PASS/FAIL line (visible with ``pytest -s`` or ``-rA``).
Statistical checks run on pinned seeds, so every number here is
reproducible bit for bit.
"""

import random
import time

import numpy as np

from noisebits.apps import (
    ShiftAssignment,
    holographic_demo,
    holographic_map,
    noncommute_demo,
    random_shift_demo,
)
from noisebits.cli import main as cli_main
from noisebits.expr import Product, multiply, shift
from noisebits.hyperspace import encode_string, int_to_bits, round_trip_run
from noisebits.reference import build_reference_system, capacity, orthogonality_matrix
from noisebits.window import correlate, materialize

from delayline import delay_line_reference_values

# Pinned 20-seed list for the round-trip criterion.  Chosen once, with
# margin, against the member/non-member tolerances below.
ROUND_TRIP_SEEDS = list(range(4000, 4020))


def report(num: int, name: str, ok: bool) -> None:
    print(f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_orthogonality():
    t0 = time.perf_counter()
    sys = build_reference_system(42, 8)
    matrix = orthogonality_matrix(sys, 10**6)
    elapsed = time.perf_counter() - t0
    size = 2 * sys.n_eff
    diag_ok = all(matrix[i][i] == 1.0 for i in range(size))
    max_offdiag = max(abs(matrix[i][j])
                      for i in range(size) for j in range(size) if i != j)
    ok = diag_ok and max_offdiag <= 5e-3 and elapsed < 5.0
    report(1, f"orthogonality N=8 L=1e6 (max offdiag {max_offdiag:.2e}, {elapsed:.2f}s)", ok)
    assert diag_ok
    assert max_offdiag <= 5e-3
    assert elapsed < 5.0


def test_criterion_2_capacity():
    ok = (capacity(1, 0).classical_bits == 2
          and capacity(3, 6).classical_bits == 64
          and capacity(10, 40).classical_bits == 2**30)
    for n in range(1, 17):
        ok = ok and (capacity(n, 2 * n).classical_bits
                     == capacity(2 * n, 0).classical_bits)
    report(2, "exact capacity arithmetic", ok)
    assert ok


def test_criterion_3_shift_register_conformance():
    ok = True
    for n in range(1, 9):
        sys = build_reference_system(42, n)
        rows = delay_line_reference_values(sys.source, n, 0, 10_000)
        for o in range(2 * n):
            want = materialize(sys.source, Product((o,)), 0, 10_000).values
            if not np.array_equal(rows[o], want):
                ok = False
    report(3, "delay-line realization reproduces reference windows (N<=8)", ok)
    assert ok


def test_criterion_4_hyperspace_round_trip():
    t0 = time.perf_counter()
    mismatches = 0
    member_lo, member_hi, nonmember_max = 2.0, 0.0, 0.0
    for seed in ROUND_TRIP_SEEDS:
        run = round_trip_run(seed, n_bits=10, m_strings=5, length=40_000)
        mismatches += not run["ok"]
        member_lo = min(member_lo, run["member_rho_min"])
        member_hi = max(member_hi, run["member_rho_max"])
        nonmember_max = max(nonmember_max, run["nonmember_abs_max"])
    elapsed = time.perf_counter() - t0
    ok = (mismatches == 0 and 0.95 <= member_lo and member_hi <= 1.05
          and nonmember_max <= 0.05 and elapsed < 30.0)
    report(4, f"round trip 20 seeds (members [{member_lo:.3f},{member_hi:.3f}], "
              f"nonmember max {nonmember_max:.3f}, {elapsed:.1f}s)", ok)
    assert mismatches == 0
    assert 0.95 <= member_lo and member_hi <= 1.05
    assert nonmember_max <= 0.05
    assert elapsed < 30.0


def test_criterion_5_holographic_reinterpretation():
    sys = build_reference_system(42, 4)
    ok = True
    for v in range(16):
        s = int_to_bits(v, 4)
        rep = holographic_demo(sys, [s], 1)
        image = holographic_map(s, 1)
        if isinstance(image, str):
            expected = set()
        else:
            expected = {"".join(map(str, image))}
        if set(rep["decoded"]) != expected or not rep["ok"]:
            ok = False
    report(5, "holographic decode of every shifted singleton (N=4, d=1)", ok)
    assert ok


def test_criterion_6_noncommutativity():
    sys = build_reference_system(42, 2)
    x = encode_string(sys, (0, 0))
    ok = True
    worst = 0.0
    for i in (1, 2):
        for b in (0, 1):
            rep = noncommute_demo(sys, x, i, b, 1, 10**6)
            worst = max(worst, abs(rep["cross_rho"]))
            if (rep["structurally_equal"] or abs(rep["cross_rho"]) > 5e-3
                    or rep["self_rho_ab"] != 1.0 or rep["self_rho_ba"] != 1.0):
                ok = False
    report(6, f"gate orders differ, cross rho <= 5e-3 (worst {worst:.2e})", ok)
    assert ok


def test_criterion_7_random_shift_restoration():
    sys = build_reference_system(42, 3)
    assignment = ShiftAssignment.draw(sys, seed=11, distinct=True)
    refs = [(i, b) for i in range(1, sys.n_eff + 1) for b in (0, 1)]
    ok = True
    for i, b in refs:
        rep = random_shift_demo(sys, assignment, i, b, 20_000)
        if rep["compensated_rho"] != 1.0 or not rep["compensated_exact"]:
            ok = False
        # the probed reference's own shift is the global guess by default
        if rep["restored"] != [f"V_{i}_{b}"] or rep["restored_count"] != 1:
            ok = False
    report(7, "compensated correlation exactly 1.0; one global guess "
              "restores exactly one reference", ok)
    assert ok


def test_criterion_8_algebraic_properties():
    rng = random.Random(2718)
    src = 42

    def rand_product():
        return Product(tuple(rng.randrange(48)
                             for _ in range(rng.randrange(9))))

    ok = True
    for _ in range(1000):  # shift composition
        p, a, b = rand_product(), rng.randrange(20), rng.randrange(20)
        if shift(shift(p, a), b) != shift(p, a + b):
            ok = False
    for _ in range(1000):  # shift/product commutation
        p, q, d = rand_product(), rand_product(), rng.randrange(20)
        if shift(multiply(p, q), d) != multiply(shift(p, d), shift(q, d)):
            ok = False
    for _ in range(1000):  # self-cancellation
        p = rand_product()
        if multiply(p, p) != Product(()):
            ok = False
    for _ in range(1000):  # packed correlator == naive per-sample loop
        wa = materialize(src, rand_product(), 0, 4096)
        wb = materialize(src, rand_product(), 0, 4096)
        naive_total = int(wa.values.astype(np.int64) @ wb.values.astype(np.int64))
        if correlate(wa, wb) != naive_total / 4096:
            ok = False
    report(8, "algebra and correlator equivalences, 4x1000 randomized cases", ok)
    assert ok


def test_criterion_9_cli_reproducibility(tmp_path, capsys):
    cases = [
        ["capacity", "--n", "3", "--m", "6"],
        ["ortho", "--n", "8", "--l", "1000000", "--seed", "42"],
        ["encode-decode", "--n", "10", "--m-strings", "5", "--seeds", "20",
         "--seed", "4000", "--l", "40000"],
        ["holographic", "--n", "4", "--d", "1"],
        ["noncommute", "--n", "2", "--l", "1000000"],
        ["randshift", "--n", "3", "--l", "1000000"],
    ]
    ok = True
    for argv in cases:
        payloads = []
        for run in (0, 1):
            out_path = tmp_path / f"{argv[0]}-{run}.out"
            code = cli_main([*argv, "--out", str(out_path)])
            stdout = capsys.readouterr().out
            if code != 0:
                ok = False
            payloads.append((out_path.read_bytes(), stdout))
        if payloads[0] != payloads[1]:
            ok = False
    report(9, "every subcommand yields byte-identical reports on rerun", ok)
    assert ok


def test_criterion_4_companion_decode_mismatch_sanity():
    # companion check, not a numbered criterion: the encode-decode CLI
    # verdict line is the aggregate of the same 20 runs
    code = cli_main(["encode-decode", "--n", "10", "--m-strings", "5",
                     "--seeds", "20", "--seed", "4000", "--l", "40000"])
    assert code == 0
