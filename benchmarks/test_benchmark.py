"""Tests of the benchmark itself, kept out of the package's suite because
they run real workloads:  python3 -m pytest benchmarks
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import pytest

import checks
import harness
import workloads

# Count metrics: for one seed they must repeat exactly.
COUNTS = (
    "source.calls", "source.samples", "source.rehash_ratio",
    "window.factor_passes", "window.materialize.members", "window.correlate.calls",
    "hyperspace.sweep.calls", "hyperspace.sweep.candidates",
    "hyperspace.sweep_words_computed", "hyperspace.sweeps_per_readout",
    "cli.report_bytes", "trace.missing",
)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_counts_repeat_exactly_for_a_seed(name):
    runs = [harness.trace(workloads.WORKLOADS[name], seed=5, n_ops=4) for _ in range(2)]
    first, second = ({k: run["metrics"][k] for k in COUNTS} for run in runs)
    assert first == second
    assert first["trace.missing"] == 0
    assert all(run["same_output"] and run["result"].failed == 0 for run in runs)


def test_gates_never_sweep():
    run = harness.trace(workloads.WORKLOADS["gates-long"], seed=3, n_ops=12)
    assert run["metrics"]["hyperspace.sweep.calls"] == 0
    assert run["metrics"]["source.calls"] > 0


def test_noncommute_ops_keep_nine_factors_per_gate_order():
    harness.import_package()
    nb = sys.modules["noisebits"]
    rng = random.Random(0)
    for _ in range(200):
        argv = workloads._noncommute(rng, 1000)
        i, b, d = (int(argv[argv.index(flag) + 1]) for flag in ("--i", "--b", "--d"))
        system = nb.build_reference_system(1, 8)
        x = nb.encode_string(system, nb.parse_bits(argv[argv.index("--x") + 1]))
        ref = system.reference_noise(i, b)
        assert len(nb.multiply(nb.shift(x, d), ref).offsets) == 9
        assert len(nb.shift(nb.multiply(x, ref), d).offsets) == 9


def test_streams_depend_on_the_seed_only():
    w = workloads.WORKLOADS["decode-wide"]
    assert workloads.first_ops(w, 7, 40) == workloads.first_ops(w, 7, 40)
    assert workloads.first_ops(w, 7, 40) != workloads.first_ops(w, 8, 40)


@pytest.fixture()
def client():
    return harness.Client(harness.import_package(), harness.OUT_DIR / "report-test.json")


@pytest.mark.parametrize("argv", [
    ["encode-decode", "--n", "6", "--m-strings", "5", "--seed", "9"],
    ["encode-decode", "--n", "3", "--k", "1", "--m-strings", "64", "--seed", "4"],
    ["holographic", "--n", "5", "--k", "1", "--d", "2", "--strings",
     "0110100101,1100000001,0000000001", "--seed", "11"],
])
def test_decode_check_passes_and_catches_one_changed_rho(client, argv):
    harness.OUT_DIR.mkdir(exist_ok=True)
    rc, _, report, _ = client.op(argv)
    assert checks.check_op(argv, rc, report) == []
    assert checks.check_decode(client.nb, report, random.Random(0)) == []

    changed = json.loads(report)
    run = changed["runs"][0]
    if "correlations" in run:
        run["correlations"][3]["rho"] += 2.0 ** -30
    else:
        run["member_rho_max"] += 2.0 ** -30
    assert checks.check_decode(client.nb, json.dumps(changed).encode(), random.Random(0))


def test_gate_check_wants_self_rho_exactly_one(client):
    harness.OUT_DIR.mkdir(exist_ok=True)
    argv = ["noncommute", "--n", "3", "--i", "2", "--b", "1", "--l", "5000", "--seed", "3"]
    rc, _, report, _ = client.op(argv)
    assert checks.check_op(argv, rc, report) == []
    changed = json.loads(report)
    changed["runs"][0]["self_rho_ab"] = 1.0 - 2.0 ** -40
    assert checks.check_op(argv, rc, json.dumps(changed).encode())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "decode-wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
