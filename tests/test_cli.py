"""Command-line surface: reports, exit codes, file outputs."""

import json
import math

import pytest

from moebius_systems import cli
from moebius_systems.cli import main
from moebius_systems.systems import builtin, serialize_config


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def test_classify_builtin_cf_parabolic(capsys):
    code, report, _ = run(capsys, "classify", "--builtin", "cf", "1")
    assert code == 0
    assert report["result"]["class"] == "parabolic"
    assert report["result"]["fixed_points"]["angle"] == pytest.approx(math.pi / 2)


def test_classify_binary_zero_hyperbolic(capsys):
    code, report, _ = run(capsys, "classify", "--builtin", "binary", "0")
    assert code == 0
    fp = report["result"]["fixed_points"]
    assert fp["stable_angle"] == pytest.approx(3 * math.pi / 2)
    assert fp["unstable_angle"] == pytest.approx(math.pi / 2)


def test_classify_cf_double_zero_identity(capsys):
    code, report, _ = run(capsys, "classify", "--builtin", "cf", "00")
    assert code == 0
    assert report["result"]["class"] == "identity"


def test_verify_auto_parabolic3(capsys):
    code, report, _ = run(capsys, "verify", "--builtin", "parabolic3", "--auto")
    assert code == 0
    assert report["result"]["status"] == "verified_Qn"


def test_verify_prefix_set_cf(capsys):
    code, report, _ = run(capsys, "verify", "--builtin", "cf",
                          "--prefix-set", "01,01-,1,1-")
    assert code == 0
    assert report["result"]["status"] == "verified_prefix_set"


def test_verify_strict_exit_code(capsys):
    code, report, _ = run(capsys, "verify", "--builtin", "binary", "--qn", "1", "--strict")
    assert code == 1
    assert report["result"]["status"] == "inconclusive"
    code, _, _ = run(capsys, "verify", "--builtin", "binary", "--qn", "1")
    assert code == 0  # without --strict the report alone carries the verdict


def test_encode_decode_round_trip(capsys):
    code, report, _ = run(capsys, "decode", "--builtin", "binary",
                          "--real", "0.5", "--digits", "40")
    assert code == 0
    word = report["result"]["word"]
    assert word.startswith("10")
    code, report2, _ = run(capsys, "encode", "--builtin", "binary", word,
                           "--tol", "1e-8")
    assert code == 0
    real = report2["result"]["real"]
    assert abs(real["re"] - 0.5) < 1e-6 and abs(real["im"]) < 1e-6


def test_decode_theta_on_parabolic3(capsys):
    code, report, _ = run(capsys, "decode", "--builtin", "parabolic3",
                          "--theta", "0", "--digits", "12")
    assert code == 0
    assert report["result"]["word"] == "a" * 12


def test_encode_unicode_display(capsys):
    code, report, _ = run(capsys, "encode", "--builtin", "cf", "1-1-",
                          "--tol", "1e-3", "--unicode")
    assert code == 0
    assert report["result"]["word"] == "1̄1̄"


def test_qn_table(capsys):
    code, report, _ = run(capsys, "qn", "--builtin", "binary", "--max-n", "4")
    assert code == 0
    rows = report["result"]["table"]
    assert rows[0] == {"n": 0, "Q_n": 1.0, "nth_root": 1.0}
    assert rows[4]["n"] == 4 and rows[4]["Q_n"] == pytest.approx(1.0, abs=1e-9)
    assert report["result"]["rate_lower_bound"] == pytest.approx(1.0, abs=1e-6)


def test_sofic_report(capsys):
    code, report, _ = run(capsys, "sofic", "--builtin", "parabolic3")
    assert code == 0
    result = report["result"]
    assert result["saturated"] and result["states"] == 5
    assert result["transition_residual"] <= 1e-7
    assert "state" in result["transition_table"]
    assert result["graph"].startswith("digraph")
    code, report, _ = run(capsys, "sofic", "--builtin", "parabolic3", "--cap", "3")
    assert report["result"]["saturated"] is False


def test_existence_map_pgm(tmp_path, capsys):
    out = tmp_path / "grid.pgm"
    code, report, _ = run(capsys, "existence-map", "--res", "6x4", "--depth", "5",
                          "--nmax", "5", "--out", str(out))
    assert code == 0
    header = out.read_text().splitlines()[:3]
    assert header == ["P2", "6 4", "255"]
    assert report["result"]["resolution"] == [6, 4]


def test_existence_map_bad_resolution(capsys):
    code, _, err = run(capsys, "existence-map", "--res", "banana")
    assert code == 2 and "res" in err


def test_existence_map_bad_extension_rejected_before_render(capsys):
    code, _, err = run(capsys, "existence-map", "--res", "500x500",
                       "--depth", "8", "--out", "map.bmp")
    assert code == 2 and ".pgm" in err  # fails fast, no long render


def test_system_file_and_errors(tmp_path, capsys):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(serialize_config(builtin("cf"))))
    code, report, _ = run(capsys, "classify", "--system", str(path), "0")
    assert code == 0 and report["result"]["class"] == "elliptic"

    code, _, err = run(capsys, "classify", "--system", str(tmp_path / "nope.json"), "0")
    assert code == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code, _, err = run(capsys, "classify", "--system", str(bad), "0")
    assert code == 2 and "alphabet" in err

    code, _, err = run(capsys, "classify", "--builtin", "cf", "7")
    assert code == 2  # unknown symbol is an input error


def test_report_written_to_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["classify", "--builtin", "cf", "1", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    data = json.loads(out.read_text())
    assert data["command"] == "classify" and data["report_version"] == 1


def test_reports_deterministic_modulo_timing(capsys):
    runs = []
    for _ in range(2):
        _, report, _ = run(capsys, "qn", "--builtin", "parabolic3", "--max-n", "3")
        report.pop("timings")
        runs.append(report)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("argv", [
    ("verify", "--builtin", "cf", "--auto"),
    ("verify", "--builtin", "cf", "--prefix-set", "01,01-,1,1-"),
    ("sofic", "--builtin", "hyperbolic4", "--cap", "120"),
])
def test_reused_parser_gives_the_same_report(capsys, argv):
    # qn is covered by test_reports_deterministic_modulo_timing
    runs = []
    for _ in range(2):
        code, report, _ = run(capsys, *argv)
        assert code == 0
        report.pop("timings")
        runs.append(report)
    assert runs[0] == runs[1]


def test_command_replaced_after_first_call_is_invoked(capsys, monkeypatch):
    run(capsys, "sofic", "--builtin", "parabolic3")
    seen = []

    def fake_sofic(args):
        seen.append((args.builtin, args.cap))
        return 0

    monkeypatch.setattr(cli, "cmd_sofic", fake_sofic)
    code, report, _ = run(capsys, "sofic", "--builtin", "cf", "--cap", "9")
    assert code == 0 and report is None
    assert seen == [("cf", 9)]


@pytest.mark.parametrize("eps", ["inf", "nan", "-1"])
def test_sofic_invalid_state_tolerance_exits_2(capsys, eps):
    code, report, err = run(capsys, "sofic", "--builtin", "cf", "--eps", eps)
    assert code == 2 and report is None
    assert "eps_state" in err


def test_module_entry_point():
    import subprocess
    import sys as _sys

    proc = subprocess.run(
        [_sys.executable, "-m", "moebius_systems", "classify", "--builtin", "cf", "0"],
        capture_output=True, text=True, env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["class"] == "elliptic"
