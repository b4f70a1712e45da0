import csv
import hashlib
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from noisebits import apps, cli, hyperspace, source, window
from noisebits.cli import build_parser, main
from noisebits.hyperspace import format_values


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_capacity_prints_pinned_line(capsys):
    code, out, _ = run_cli(capsys, "capacity", "--n", "3", "--m", "6")
    assert code == 0
    assert "classical_bits=64" in out.splitlines()
    assert "dimension_factor=8" in out.splitlines()


def test_capacity_accepts_rounds(capsys):
    code, out, _ = run_cli(capsys, "capacity", "--n", "3", "--k", "1")
    assert code == 0
    assert "classical_bits=64" in out


def test_capacity_report_file(tmp_path, capsys):
    out_path = tmp_path / "cap.json"
    code, _, _ = run_cli(capsys, "capacity", "--n", "10", "--m", "40",
                         "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["schema"] == 1
    assert report["classical_bits"] == 2**30


def test_capacity_rejects_bad_steps(capsys):
    code, _, err = run_cli(capsys, "capacity", "--n", "3", "--m", "5")
    assert code == 2
    assert "2kN" in err


@pytest.mark.parametrize("k", [10_000, 14_283])
def test_capacity_prints_in_full_up_to_the_cap(capsys, k):
    """N + M/2 up to 14284 prints every digit: 2**14284 has 4300."""
    code, out, _ = run_cli(capsys, "capacity", "--n", "1", "--k", str(k))
    assert code == 0
    assert out == f"classical_bits={2**(k + 1)}\ndimension_factor={2**k}\n"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["capacity"])  # --n missing
    assert exc.value.code == 2


def test_ortho_csv_stdout(capsys):
    code, out, _ = run_cli(capsys, "ortho", "--n", "2", "--l", "10000")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",V_1_0,V_1_1,V_2_0,V_2_1"
    for row_idx, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert cells[row_idx + 1] == "1"


def test_ortho_json_report(tmp_path, capsys):
    out_path = tmp_path / "ortho.json"
    code, out, _ = run_cli(capsys, "ortho", "--n", "2", "--l", "10000",
                           "--format", "json", "--out", str(out_path))
    assert code == 0
    assert out.startswith("max_offdiag_abs=")
    report = json.loads(out_path.read_text())
    assert report["schema"] == 1
    assert report["labels"] == ["V_1_0", "V_1_1", "V_2_0", "V_2_1"]
    assert all(report["rho"][i][i] == 1.0 for i in range(4))


def test_encode_decode_round_trip(capsys, tmp_path):
    out_path = tmp_path / "ed.json"
    code, out, _ = run_cli(capsys, "encode-decode", "--n", "8",
                           "--m-strings", "3", "--seeds", "3",
                           "--seed", "4000", "--out", str(out_path))
    assert code == 0
    assert "mismatches: 0" in out
    report = json.loads(out_path.read_text())
    assert report["mismatches"] == 0
    assert len(report["runs"]) == 3
    assert report["runs"][0]["detected"] == report["runs"][0]["strings"]


def test_holographic_singleton_sweep(capsys, tmp_path):
    out_path = tmp_path / "holo.json"
    code, out, _ = run_cli(capsys, "holographic", "--n", "3",
                           "--out", str(out_path))
    assert code == 0
    assert "ok: true" in out
    report = json.loads(out_path.read_text())
    assert len(report["runs"]) == 8
    assert report["ok"]


def test_holographic_explicit_strings(capsys):
    code, out, _ = run_cli(capsys, "holographic", "--n", "4", "--d", "1",
                           "--strings", "0000")
    assert code == 0
    assert "decoded={1111}" in out


def test_holographic_csv_quotes_multi_string_input(capsys, tmp_path):
    csv_path = tmp_path / "holo.csv"
    code, _, _ = run_cli(capsys, "holographic", "--n", "2", "--strings", "00,01",
                         "--l", "4096", "--csv", str(csv_path))
    assert code == 0
    rows = list(csv.reader(csv_path.read_text().splitlines()))
    assert rows[0] == ["input", "candidate", "rho"]
    assert len(rows) == 5
    assert all(len(row) == 3 and row[0] == "00,01" for row in rows[1:])


def test_noncommute_all_pairs(capsys, tmp_path):
    out_path = tmp_path / "nc.json"
    code, out, _ = run_cli(capsys, "noncommute", "--n", "2",
                           "--l", "100000", "--out", str(out_path))
    assert code == 0
    assert "ok: true" in out
    report = json.loads(out_path.read_text())
    assert len(report["runs"]) == 4
    assert all(not r["structurally_equal"] for r in report["runs"])


def test_randshift(capsys, tmp_path):
    out_path = tmp_path / "rs.json"
    csv_path = tmp_path / "rs.csv"
    code, out, _ = run_cli(capsys, "randshift", "--n", "2", "--l", "100000",
                           "--out", str(out_path), "--csv", str(csv_path))
    assert code == 0
    assert "ok: true" in out
    report = json.loads(out_path.read_text())
    assert report["compensated_rho"] == 1.0
    assert csv_path.read_text().splitlines()[0] == "reference,r"


def test_reports_are_byte_identical(tmp_path, capsys):
    cases = [
        ["capacity", "--n", "4", "--m", "8"],
        ["ortho", "--n", "2", "--l", "20000"],
        ["encode-decode", "--n", "6", "--m-strings", "2", "--seed", "4000"],
        ["holographic", "--n", "2"],
        ["noncommute", "--n", "1", "--l", "50000"],
        ["randshift", "--n", "2", "--l", "50000"],
    ]
    for argv in cases:
        blobs = []
        outs = []
        for run in (0, 1):
            path = tmp_path / f"{argv[0]}-{run}.json"
            code, out, _ = run_cli(capsys, *argv, "--out", str(path))
            assert code == 0
            blobs.append(path.read_bytes())
            outs.append(out)
        assert blobs[0] == blobs[1], argv
        assert outs[0] == outs[1], argv


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "noisebits", "capacity", "--n", "1", "--m", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "classical_bits=2" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "noisebits", "encode-decode", "--n", "4", "--bogus", "1"],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("usage: noisebits [-h]")
    assert proc.stderr.endswith("noisebits: error: unrecognized arguments: --bogus 1\n")


@pytest.mark.parametrize("m", ["0", "17"])
def test_encode_decode_rejects_m_strings_out_of_range(capsys, m):
    code, out, err = run_cli(capsys, "encode-decode", "--n", "4", "--m-strings", m)
    assert code == 2 and out == ""
    assert f"m_strings must be in 1..2**n_eff = 1..16, got {m}" in err


@pytest.mark.parametrize("command", [
    ["encode-decode", "--n", "4"],
    ["holographic", "--n", "3", "--strings", "010"],
])
def test_non_finite_threshold_is_a_usage_error(capsys, command):
    code, _, err = run_cli(capsys, *command, "--threshold", "nan")
    assert code == 2
    assert "threshold must be a finite number" in err


# Pinned SHA-256 of repr((exit code, stdout, stderr, --out bytes, --csv bytes))
# per invocation; a file that is not written shows as None.  The digests were
# recorded before the CLI's output code was consolidated, and holographic-n10
# (a 1024-row correlations table) before reports got their own JSON writer, so
# they hold every byte the CLI writes to the earlier version, not just to a
# second run.
GOLDEN = {
    "capacity-m": (["capacity", "--n", "3", "--m", "6"], True, False,
        "4146f42cee5f42152a6aa28d2166badf7c42260a86c2d5d9068996753be0e016"),
    "capacity-k": (["capacity", "--n", "2", "--k", "1"], False, False,
        "fb1a392a6140b462aa95d5d22eb38c6f58acb1ba7b575f461a11cc4126fa73dd"),
    "ortho-csv-stdout": (["ortho", "--n", "2", "--l", "4096"], False, False,
        "9a402598e74be70f2995790e725f528f213259b417f8131aa5512df162d0f35b"),
    "ortho-csv-out": (["ortho", "--n", "2", "--l", "4096"], True, False,
        "1b13302a3b02363ce50abb5532a84b1e07413326c783aae8d2bce74f0e870c32"),
    "ortho-json-stdout": (["ortho", "--n", "2", "--l", "4096", "--format", "json"],
                          False, False,
        "2b87cae7ec005e12e506fcdccc4453c4bc9cbf3122f8122f27ebeffca90eb39d"),
    "ortho-json-out": (["ortho", "--n", "2", "--l", "4096", "--format", "json"],
                       True, False,
        "c58e6b0fc44a4e69a8770e05f0955c23970a7eefe5f51ad94f80362bbd3c888a"),
    "encode-decode": (["encode-decode", "--n", "6", "--m-strings", "4", "--seeds", "2",
                       "--seed", "4000"], True, False,
        "3953c8f2033fb3b2a5b4b59607d7888228caddcad3c27af8ebe33b1bb7c5765e"),
    "encode-decode-mismatch": (["encode-decode", "--n", "6", "--m-strings", "4",
                                "--seeds", "2", "--seed", "4000", "--l", "64"],
                               True, False,
        "5766827854ce2efa88e1e885858b998fab1ac3ae05a4197a79545d506242aab1"),
    "holographic-sweep": (["holographic", "--n", "2", "--l", "4096"], True, True,
        "0ebf29d6cb730e520f164c4567313dc90ad426fc536e688f12b77f8d2d25913c"),
    # recorded before correlations tables were written from the rho column
    "holographic-sweep-n6": (["holographic", "--n", "3", "--k", "1", "--d", "1",
                              "--l", "4096"], True, True,
        "f30a275bd0eef7acface6f2aab5fe71579f9f92e0769aaf2c2a04eb74dcfeaca"),
    "holographic-wide": (["holographic", "--n", "11", "--strings", "00000000000",
                          "--l", "4096"], True, True,
        "73877df646bc6637c06de63ed522352d5a39db16e3082b119625ba66b176ac6f"),
    "holographic-n10": (["holographic", "--n", "5", "--k", "1", "--d", "2", "--strings",
                         "0110100101,1110001000,0001011110", "--l", "4096"], True, False,
        "c13b6d6a3eb7e48864597c8fe66c5061aa1eb6a523c7b194e73d96756bc6c3b6"),
    "holographic-fail": (["holographic", "--n", "3", "--strings", "000",
                          "--threshold", "2", "--l", "4096"], True, True,
        "eb48a0cea695e695cbc29d1de2c5310dbaa6de8f809182331b58dd928f64b90d"),
    "noncommute-pair": (["noncommute", "--n", "2", "--i", "2", "--b", "1",
                         "--l", "4096"], True, True,
        "3165e4e996976128b57f871399b3247c555c10b8c4539b28818c5006b0dcccca"),
    "noncommute-all": (["noncommute", "--n", "1", "--l", "4096"], True, True,
        "3751072b3fa87a5d4f80b2e39198ac0fec0243c842bcfa2f17d09e3a4b9ad315"),
    # 5 * L**-0.5 is inexact here, so the printed tolerance pins its expression
    "noncommute-inexact-l": (["noncommute", "--n", "2", "--i", "2", "--b", "1",
                              "--l", "50000"], True, True,
        "3735e7b53e0e8cee9efa8be6d0f0d78c56b272a7a13af786812aba162f857bed"),
    "randshift": (["randshift", "--n", "2", "--l", "4096"], True, True,
        "e76a4e6fb9caf3b8e6e23906194c4e6659d333b1f5f63e67e5f59d9c0ce74754"),
    "randshift-global": (["randshift", "--n", "2", "--i", "2", "--b", "1", "--repeats",
                          "--global-d", "3", "--l", "4096"], False, False,
        "2da533b308a5f8a1b8095bcc39e143e39b8b22aad69fc8ee862c54e3966c8ce8"),
    "capacity-bad-steps": (["capacity", "--n", "3", "--m", "5"], True, False,
        "9384ded0b8a78d3afe9f973d8c3616e7b56cb04f2564db65dec77f4b765ea686"),
    "capacity-no-n": (["capacity"], True, False,
        "af6ee18439acfc8cb7ab87a920f260db25a059599be5cbd51213dc4908287716"),
    "encode-decode-m0": (["encode-decode", "--n", "4", "--m-strings", "0"],
                         True, False,
        "40e69737ec45abf734ee464df1c5688054e9d3e08af506d56b1a9c9f62f74398"),
    "encode-decode-m17": (["encode-decode", "--n", "4", "--m-strings", "17"],
                          True, False,
        "c9db89a346f3ccab076805827201e255d1932dd0b29a160e365f3e02919a5db8"),
    "encode-decode-nan": (["encode-decode", "--n", "4", "--threshold", "nan"],
                          True, False,
        "9fc2a2e76106518bc3bd744048b62983fee464fd824bf19746804ab5f8f72e07"),
    "holographic-nan": (["holographic", "--n", "3", "--strings", "010",
                         "--threshold", "nan"], True, True,
        "9fc2a2e76106518bc3bd744048b62983fee464fd824bf19746804ab5f8f72e07"),
}


def golden_digest(tmp_path, capsys, argv, with_out, with_csv):
    out_path, csv_path = tmp_path / "report", tmp_path / "table.csv"
    argv = list(argv)
    if with_out:
        argv += ["--out", str(out_path)]
    if with_csv:
        argv += ["--csv", str(csv_path)]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    files = [p.read_bytes() if p.exists() else None for p in (out_path, csv_path)]
    blob = repr((code, captured.out, captured.err, *files)).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_bytes(tmp_path, capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to the terminal

    def no_fallback(*args, **kwargs):
        raise AssertionError("a report value left cli._json's fast paths")

    monkeypatch.setattr(json, "dumps", no_fallback)
    argv, with_out, with_csv, digest = GOLDEN[case]
    assert golden_digest(tmp_path, capsys, argv, with_out, with_csv) == digest


def test_parser_is_built_once():
    assert build_parser() is build_parser()


@pytest.mark.parametrize("pair", [["--i", "9"], ["--i", "0", "--b", "1"]])
def test_randshift_rejects_reference_outside_ladder(capsys, pair):
    code, out, err = run_cli(capsys, "randshift", "--n", "2", "--l", "1000", *pair)
    assert code == 2 and out == ""
    assert "noise bit index" in err


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_encode_decode_rejects_seeds_below_one(capsys, seeds):
    code, out, err = run_cli(capsys, "encode-decode", "--n", "4", "--seeds", seeds)
    assert code == 2 and out == ""
    assert f"--seeds must be at least 1, got {seeds}" in err


def test_noncommute_b_needs_i(capsys, tmp_path):
    code, out, err = run_cli(capsys, "noncommute", "--n", "1", "--l", "1000", "--b", "1")
    assert code == 2 and out == ""
    assert "--b needs --i" in err
    out_path = tmp_path / "nc.json"
    code, out, _ = run_cli(capsys, "noncommute", "--n", "2", "--l", "1000", "--i", "2",
                           "--out", str(out_path))
    assert code == 0
    assert [(r["i"], r["b"]) for r in json.loads(out_path.read_text())["runs"]] == [(2, 0)]


RANDSHIFT = ["randshift", "--n", "1", "--l", "1000"]


@pytest.mark.parametrize("argv, flag, path", [
    pytest.param(RANDSHIFT, "--out", "missing/file", id="--out"),
    pytest.param(RANDSHIFT, "--csv", "missing/file", id="--csv"),
    # an empty path is a path that cannot be opened, not an absent flag
    pytest.param(RANDSHIFT, "--out", "", id="--out-empty"),
    pytest.param(RANDSHIFT, "--csv", "", id="--csv-empty"),
    pytest.param(["capacity", "--n", "3"], "--out", "", id="capacity-out-empty"),
    pytest.param(["ortho", "--n", "2", "--l", "1000"], "--out", "", id="ortho-out-empty"),
])
def test_unwritable_output_path_is_a_usage_error(capsys, tmp_path, argv, flag, path):
    code, out, err = run_cli(capsys, *argv, flag, str(tmp_path / path) if path else "")
    assert code == 2 and out == ""
    assert "No such file or directory" in err


SHORT_WINDOW = "a 5-sigma check needs a window of more than 25 samples"
LONG_WINDOW = "window length must be at most 268435456"
TOO_MANY_REFERENCES = ("too many noise bits to list their references: "
                       "n_eff=1000000000001, at most 256")


@pytest.mark.parametrize("argv, message", [
    (["encode-decode", "--n", "4", "--l", "0"], "window length must be at least 1, got 0"),
    (["holographic", "--n", "3", "--d", "1", "--l", "0", "--strings", "010"],
     "window length must be at least 1, got 0"),
    (["encode-decode", "--n", "15"],
     "capacity exceeded: raise max_n explicitly (n_eff=15, max_n=14)"),
    (["holographic", "--n", "3", "--strings", "010,010"],
     "duplicate members silently double amplitude; refusing"),
    (["holographic", "--n", "3", "--d", "-1", "--l", "0", "--strings", "010"],
     "negative shifts are not represented; shift the other operand"),
    (["holographic", "--n", "3", "--d", "-1", "--l", "0", "--strings", "010,010"],
     "duplicate members silently double amplitude; refusing"),
    # an empty flag value is a value, not an absent flag
    (["holographic", "--n", "3", "--l", "1000", "--strings", ""], "expected 3 bits, got 0"),
    (["noncommute", "--n", "2", "--l", "1000", "--x", ""], "expected 2 bits, got 0"),
    # capacity is checked before anything of size 2**n_eff is built
    (["encode-decode", "--n", "1", "--k", "1000000000000"],
     "capacity exceeded: raise max_n explicitly (n_eff=1000000000001, max_n=14)"),
    (["holographic", "--n", "1", "--k", "1000000000000"],
     "capacity exceeded: raise max_n explicitly (n_eff=1000000000001, max_n=14)"),
    # at L <= 25, 5 * L**-0.5 >= 1 >= |rho|: a 5-sigma verdict could not fail
    (["randshift", "--l", "25"], f"{SHORT_WINDOW}, got 25"),
    (["noncommute", "--l", "25"], f"{SHORT_WINDOW}, got 25"),
    # n_eff is bounded before a per-reference list or an n_eff-long string is built
    (["ortho", "--n", "1", "--k", "1000000000000", "--l", "100"], TOO_MANY_REFERENCES),
    (["noncommute", "--n", "1", "--k", "1000000000000", "--l", "100"], TOO_MANY_REFERENCES),
    (["noncommute", "--n", "1", "--k", "1000000000000", "--i", "1", "--l", "100"],
     TOO_MANY_REFERENCES),
    (["randshift", "--n", "1", "--k", "1000000000000", "--l", "100"], TOO_MANY_REFERENCES),
    (["ortho", "--n", "257", "--l", "100"],
     "too many noise bits to list their references: n_eff=257, at most 256"),
    # 2**(N + M/2) is bounded before it is built, and printed in full below the cap
    (["capacity", "--n", "1", "--k", "1000000000000"],
     "N + M/2 must be at most 14284, got 1000000000001"),
    (["capacity", "--n", "1", "--k", "14284"], "N + M/2 must be at most 14284, got 14285"),
    (["capacity", "--n", "14285"], "N + M/2 must be at most 14284, got 14285"),
    # random.Random would draw the same shifts for -1 as for 1
    (["randshift", "--assign-seed", "-1"], "assignment seed must fit in 64 bits, got -1"),
    (["randshift", "--assign-seed", str(1 << 64)],
     f"assignment seed must fit in 64 bits, got {1 << 64}"),
    (["randshift", "--global-d", "-1"], "global shift must be >= 0, got -1"),
    # L and --seeds are bounded before anything of their size is allocated
    (["noncommute", "--l", "1000000000000"], f"{LONG_WINDOW}, got 1000000000000"),
    (["ortho", "--n", "2", "--l", "1000000000000"], f"{LONG_WINDOW}, got 1000000000000"),
    (["randshift", "--l", "1000000000000"], f"{LONG_WINDOW}, got 1000000000000"),
    (["encode-decode", "--n", "4", "--l", "1000000000000"], f"{LONG_WINDOW}, got 1000000000000"),
    (["holographic", "--n", "2", "--strings", "01", "--l", "1000000000000"],
     f"{LONG_WINDOW}, got 1000000000000"),
    (["encode-decode", "--n", "4", "--seeds", "1000000000000"],
     "--seeds must be at most 1000, got 1000000000000"),
])
def test_readout_usage_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, n_eff, length, d", [
    (["encode-decode", "--n", "6", "--m-strings", "40"], 6, 15_600, 0),
    (["encode-decode", "--n", "7", "--k", "1", "--m-strings", "3"], 14, 10_000, 0),
    (["holographic", "--n", "5", "--k", "1", "--d", "2", "--strings",
      "0110100101,1110001000,0001110110,1010101010,0101010101,1100110011"],
     10, 10_000, 2),
    (["holographic", "--n", "12", "--d", "3", "--strings", "011010010111"],
     12, 10_000, 3),
])
def test_readout_op_hashes_each_sample_once(capsys, monkeypatch, argv, n_eff, length, d):
    """One readout op hashes one frame, [0, L + 2*n_eff - 1 + d), which
    serves both the shifted wire and the unshifted candidates."""
    calls = []
    real = source.sign_bits

    def counting(seed, start, count):
        calls.append((start, count))
        return real(seed, start, count)

    for module in (source, window, hyperspace):
        monkeypatch.setattr(module, "sign_bits", counting)
    code, _, _ = run_cli(capsys, *argv, "--seed", "5")
    assert code == 0
    assert calls == [(0, length + 2 * n_eff - 1 + d)]


# The 50 strings at n_eff 14 that hold one contiguous run of 1-4 ones.
# Their difference sets with a candidate fall into few translate families,
# whose terms add coherently, so the default window is too short for them
# (README, readout policy): both seeds decode a spurious 00000000000000.
ONE_RUN_STRINGS = ",".join(format_values([((1 << r) - 1) << a
                                          for r in range(1, 5) for a in range(15 - r)], 14))


@pytest.mark.xfail(strict=True, reason="the default window assumes incoherent member terms")
@pytest.mark.parametrize("seed", ["3", "155"])
def test_one_run_strings_decode_at_the_default_window(capsys, seed):
    code, out, _ = run_cli(capsys, "holographic", "--n", "14", "--d", "0", "--seed", seed,
                           "--strings", ONE_RUN_STRINGS)
    assert (code, out.splitlines()[-1]) == (0, "ok: true")


README_COMMANDS = [shlex.split(line.partition("#")[0])[1:]
                   for line in (Path(__file__).parents[1] / "README.md").read_text().splitlines()
                   if line.startswith("noisebits ")]
# one argv shaped like each subcommand's benchmark ops
WORKLOAD_ARGVS = [
    ["capacity", "--n", "12", "--k", "2", "--out", "r.json"],
    ["ortho", "--n", "4", "--k", "1", "--l", "262144", "--start", "9", "--seed", "77",
     "--format", "json", "--out", "r.json"],
    ["encode-decode", "--n", "7", "--k", "1", "--m-strings", "9", "--seed", "1826871842",
     "--out", "r.json"],
    ["holographic", "--n", "5", "--k", "1", "--d", "2", "--strings", "0110100101",
     "--threshold", "0.4", "--max-n", "12", "--seed", "5", "--out", "r.json"],
    ["noncommute", "--n", "8", "--i", "6", "--b", "0", "--d", "1", "--x", "00010110",
     "--l", "262144", "--seed", "1826871842", "--out", "r.json", "--csv", "t.csv"],
    ["randshift", "--n", "3", "--assign-seed", "7", "--r-max", "9", "--repeats", "--i", "2",
     "--b", "1", "--global-d", "3", "--l", "262144", "--out", "r.json"],
]


@pytest.mark.parametrize("argv", README_COMMANDS + WORKLOAD_ARGVS, ids=" ".join)
def test_parse_path_gives_argparse_namespace(argv):
    assert len(README_COMMANDS) == 6
    assert cli._parse(argv) == build_parser().parse_args(argv)


def exit_of(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["-h"], ["encode-decode", "--help"], ["encode-decode", "--n", "x"],
    ["encode-decode", "--n", "4", "--bogus", "1"], ["capacity", "--n", "2", "extra"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_parse_errors_are_argparse_errors(capsys, monkeypatch, argv):
    """Usage errors and help keep argparse's exit status, stdout and stderr:
    a leftover argument is reported with the top-level usage line."""
    monkeypatch.setenv("COLUMNS", "80")
    got = exit_of(capsys, main, argv)
    assert got == exit_of(capsys, build_parser().parse_args, argv)
    if argv[:1] in (["encode-decode"], ["capacity"]) and "unrecognized" in got[2]:
        assert got[2].startswith("usage: noisebits [-h]")


def test_holographic_report_and_table_leave_rows_unbuilt(capsys, monkeypatch, tmp_path):
    """--out and --csv write a correlations table from its columns alone."""
    tables = []

    def recording(report, rhos, n_eff):
        report = hyperspace.add_correlations(report, rhos, n_eff)
        tables.append(report["correlations"])
        return report

    def no_rows(table):
        raise AssertionError("built a correlations table's row dicts")

    monkeypatch.setattr(apps, "add_correlations", recording)
    monkeypatch.setattr(hyperspace.Correlations, "rows", no_rows)
    out_path, csv_path = tmp_path / "holo.json", tmp_path / "holo.csv"
    code, _, _ = run_cli(capsys, "holographic", "--n", "5", "--k", "1", "--d", "2",
                         "--strings", "0110100101", "--l", "4096",
                         "--out", str(out_path), "--csv", str(csv_path))
    assert code == 0 and len(tables) == 1
    monkeypatch.undo()
    assert json.loads(out_path.read_bytes())["runs"][0]["correlations"] == tables[0].rows()
    assert len(csv_path.read_bytes().splitlines()) == 1 + len(tables[0].rhos) == 1025
