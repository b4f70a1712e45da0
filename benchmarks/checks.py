"""Output checks for one op.

Every op: exit status 0, a JSON report, ``ok`` true and no mismatches;
for the gate subcommands every self-correlation is exactly 1.0.

Sampled decode ops (``encode-decode`` and ``holographic``) are also
recomputed twice without the readout sweep: by an oracle written here
from the pinned wave hash alone, and per candidate with the package's
``detect_string``.  Every rho must equal the report's exactly.
"""

from __future__ import annotations

import json
import random

import numpy as np

_MULT1 = np.uint64(0xBF58476D1CE4E5B9)
_MULT2 = np.uint64(0x94D049BB133111EB)

DECODE_COMMANDS = ("encode-decode", "holographic")


def wave(seed: int, start: int, length: int) -> np.ndarray:
    """+-1 wave samples [start, start + length) as int64, straight from the
    pinned hash: sign of mix64(seed XOR rotl64(n, 32))."""
    n = np.arange(start, start + length, dtype=np.uint64)
    x = np.uint64(seed) ^ ((n << np.uint64(32)) | (n >> np.uint64(32)))
    x ^= x >> np.uint64(30)
    x *= _MULT1
    x ^= x >> np.uint64(27)
    x *= _MULT2
    x ^= x >> np.uint64(31)
    return np.where(x >> np.uint64(63) == 1, 1, -1).astype(np.int64)


def oracle_rhos(seed: int, n_eff: int, members: list[str], d: int,
                length: int) -> np.ndarray:
    """rho of the wire sum_s prod_i V(2i + s_i + d) against every candidate
    prod_i V(2i + c_i), indexed by the candidate's integer value.

    A candidate is base * prod_{i in c} f_i with base = prod_i V(2i) and
    f_i = V(2i) V(2i+1), so all 2^n_eff totals are one Walsh-Hadamard
    transform of the histogram of wire * base over the flip patterns.
    """
    v = [wave(seed, o, length) for o in range(2 * n_eff + d)]
    wire = np.zeros(length, dtype=np.int64)
    for s in members:
        carrier = np.ones(length, dtype=np.int64)
        for i, bit in enumerate(s):
            carrier *= v[2 * i + int(bit) + d]
        wire += carrier
    base = np.ones(length, dtype=np.int64)
    pattern = np.zeros(length, dtype=np.int64)
    for i in range(n_eff):
        base *= v[2 * i]
        pattern |= (v[2 * i] != v[2 * i + 1]).astype(np.int64) << i
    # Float weights are exact here: every partial sum is an integer below 2**53.
    totals = np.rint(np.bincount(pattern, weights=wire * base,
                                 minlength=1 << n_eff)).astype(np.int64)
    for i in range(n_eff):
        pairs = totals.reshape(-1, 2, 1 << i)
        totals = np.stack([pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]],
                          axis=1).reshape(-1)
    return totals / length


def _value(bits: str) -> int:
    return sum(int(b) << i for i, b in enumerate(bits))


def _bits(value: int, width: int) -> str:
    return "".join(str((value >> i) & 1) for i in range(width))


def check_op(argv: list[str], rc, report_bytes: bytes) -> list[str]:
    """Problems found in one op's exit status and report ([] when none)."""
    if rc != 0:
        return [f"exit status {rc}"]
    try:
        report = json.loads(report_bytes)
    except ValueError:
        return ["report is not JSON"]
    problems = []
    if report.get("ok", True) is not True:
        problems.append("report says ok: false")
    if report.get("mismatches", 0) != 0:
        problems.append(f"{report['mismatches']} mismatches")
    command = argv[0]
    if command == "noncommute":
        selfs = [r[k] for r in report["runs"] for k in ("self_rho_ab", "self_rho_ba")]
        if any(rho != 1.0 for rho in selfs):
            problems.append(f"self rho not exactly 1.0: {selfs}")
    elif command == "ortho":
        diagonal = [row[i] for i, row in enumerate(report["rho"])]
        if any(rho != 1.0 for rho in diagonal):
            problems.append(f"diagonal rho not exactly 1.0: {diagonal}")
    elif command == "randshift":
        if report["compensated_rho"] != 1.0:
            problems.append(f"compensated rho {report['compensated_rho']} != 1.0")
    return problems


def check_decode(nb, report_bytes: bytes, rng: random.Random) -> list[str]:
    """Recompute a decode op's rhos without the sweep; ``nb`` is the
    imported package, used only for ``detect_string`` and its inputs."""
    report = json.loads(report_bytes)
    run = report["runs"][0]
    seed, n_eff = run["seed"], run["N"] * (1 + run["k"])
    length, threshold = run["L"], run["threshold"]
    holographic = report["subcommand"] == "holographic"
    members = run["input"] if holographic else run["strings"]
    d = run["d"] if holographic else 0
    rhos = oracle_rhos(seed, n_eff, members, d, length)

    problems = []
    detected = sorted(_bits(c, n_eff) for c in np.nonzero(rhos > threshold)[0])
    if run["decoded" if holographic else "detected"] != detected:
        problems.append("detected set differs from the oracle")
    if holographic:
        reported = [(c["candidate"], c["rho"]) for c in run["correlations"]]
        if reported != [(_bits(c, n_eff), float(r)) for c, r in enumerate(rhos)]:
            problems.append("correlations differ from the oracle")
    else:
        member_idx = [_value(s) for s in members]
        others = np.delete(np.abs(rhos), member_idx)
        expected = (float(rhos[member_idx].min()), float(rhos[member_idx].max()),
                    float(others.max()) if others.size else 0.0)
        got = (run["member_rho_min"], run["member_rho_max"], run["nonmember_abs_max"])
        if got != expected:
            problems.append(f"member/non-member rhos {got} != oracle {expected}")

    sys_ = nb.build_reference_system(seed, run["N"], run["k"])
    signal = nb.shift(nb.encode_set(sys_, [nb.parse_bits(s) for s in members]), d)
    window = nb.materialize(sys_.source, signal, 0, length)
    probes = sorted({_value(s) for s in members if not holographic}
                    | set(rng.sample(range(1 << n_eff), min(4, 1 << n_eff))))
    for c in probes:
        rho = nb.detect_string(window, sys_, nb.int_to_bits(c, n_eff)).rho
        if rho != rhos[c]:
            problems.append(f"detect_string({_bits(c, n_eff)}) = {rho} != oracle {rhos[c]}")
    return problems
