import json
import subprocess
import sys

import pytest

from noisebits.cli import main


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
