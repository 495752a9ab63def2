"""Golden CLI runs: exit code, stderr and digests of the report and files.

Each case runs `moebius` in-process in an empty directory that holds only
`cf.json` (the cf builtin as a definition file), so paths in messages are
the same on every run.  A report is pinned by the SHA-256 of its JSON,
printed with indent 2 and without `timings`; a written report file the
same way, any other written file by the SHA-256 of its bytes.  The
digests were recorded before the report path moved into `cli.main`, and
any change to how reports are built or written must keep them.  Seven
were re-recorded when products of disc maps stopped being renormalized:
only the last bits of Q_n values, radii and points moved.  decode-real-inf
was re-recorded when reports became strict JSON: its input echo went from
the number Infinity to the string "inf".  Five (verify-auto, verify-auto-cf,
verify-qn-strict, qn, qn-system-file) were re-recorded when the expansion
minimum came to be read from the pullback state: only the last bits of Q_n
values moved, each within 3e-15 of a 60-digit product of the float letters.
Four (sofic, sofic-binary, sofic-cap-3, sofic-system-file) were re-recorded
when the sofic report stopped rendering its automaton a second time, as a
DOT graph: each new digest is the SHA-256 of the earlier report with its
result.graph deleted, so nothing else in those reports moved.
"""

import hashlib
import json

import pytest

from moebius_systems.cli import main
from moebius_systems.systems import builtin, serialize_config

# name: (argv, exit code, stderr, report digest or None, {file: digest})
CASES = {
    "classify": (
        ["classify", "--builtin", "cf", "1"], 0, "",
        "4b76ff6b299a4c9dca50314d1898c47474180bff3a4a84c906aea7e49f888765", {}),
    "classify-system-file": (
        ["classify", "--system", "cf.json", "0"], 0, "",
        "541f1e2ad633334ba5313f99b3615121beadf7de11bcfdf24e4d05a028114385", {}),
    "classify-out-file": (
        ["classify", "--builtin", "binary", "0", "--out", "report.json"], 0, "", None,
        {"report.json": "f9a66aed0fdfb384809148659f94548e52d96297e38e96013efe16459bb131b7"}),
    "verify-auto": (
        ["verify", "--builtin", "parabolic3", "--auto"], 0, "",
        "d45b01ceda145ce785b57d9979a5cd539b0811bfe3788f6aaf2378e98f91744f", {}),
    "verify-auto-cf": (
        ["verify", "--builtin", "cf", "--auto"], 0, "",
        "5a51b6c6ed2e963815eb4957889c6622d79273df6eeccc5479405536a164e9e8", {}),
    "verify-prefix-set": (
        ["verify", "--builtin", "cf", "--prefix-set", "01,01-,1,1-"], 0, "",
        "90c96ad38eb488dfd0d72153ae00f5dc384f70cb7022964b18ffbe7517689c7c", {}),
    "verify-qn-strict": (
        ["verify", "--builtin", "binary", "--qn", "1", "--strict"], 1, "",
        "b69c8220142031f11ff85d90148bea9973a9bd4502b15a0cbd825be00d86cb4e", {}),
    "encode": (
        ["encode", "--builtin", "cf", "1-1-", "--tol", "1e-3", "--unicode"], 0, "",
        "766d1c35075cbc33b0560164cf5caed670c38ce25d497997784bd65f484e5a33", {}),
    "decode": (
        ["decode", "--builtin", "binary", "--real", "0.5", "--digits", "40"], 0, "",
        "6b3001fd3c9301759d92a856f5c2754b50922cca6139fff2f42e50947ec065c8", {}),
    "qn": (
        ["qn", "--builtin", "binary", "--max-n", "4"], 0, "",
        "f9baf1a9146beb6729bb2aecac2b39b1888a2527f21bdc5cba1126607620783e", {}),
    "qn-system-file": (
        ["qn", "--system", "cf.json", "--max-n", "3"], 0, "",
        "6f536837ab9069223c27f5e1a0303bad3b0bfb5607e398e332b8938acc688cb0", {}),
    "sofic": (
        ["sofic", "--builtin", "parabolic3"], 0, "",
        "81e97f57bcf722b2ed5d56846a5c0966fc4dbd55b9f297736f429ed6454bc373", {}),
    "sofic-binary": (
        ["sofic", "--builtin", "binary"], 0, "",
        "125a5ef9f8bb014b0bbe54fef07ed683f0bdd702d1884bda73ab304396b86ea1", {}),
    "sofic-cap-3": (
        ["sofic", "--builtin", "parabolic3", "--cap", "3"], 0, "",
        "c26e0d9e22312f47216add0d54dc8d254912e22f3e5dec87a3e4446577de92a7", {}),
    "sofic-system-file": (
        ["sofic", "--system", "cf.json"], 0, "",
        "dd4bf37ac81a836acc6223be01ef46d00b53f24b2be12a237a4ac33475c9c407", {}),
    "existence-map-pgm": (
        ["existence-map", "--res", "6x4", "--depth", "5", "--nmax", "5", "--out", "grid.pgm"],
        0, "", "3deaca2c0e63cd18aac4854c2c9dd02f0f5f41772bea8cdf2e35a46ea1294ed2",
        {"grid.pgm": "51a012921b6205f58c70a46366b70181596a47c04d6b2a1db77dd84d7f79f0a6"}),
    "existence-map-csv": (
        ["existence-map", "--res", "3x2", "--depth", "4", "--nmax", "4", "--out", "grid.csv"],
        0, "", "ced4c896232ccb1bbecca2ff01d606accbf1603b171b3817a96e4df5c7c569a1",
        {"grid.csv": "0f918a79b97dac5917e4e9e5108552711befb9ffd8d4647051ba5158fda13b06"}),
    "unknown-symbol": (
        ["classify", "--builtin", "cf", "7"], 2,
        "error: cannot tokenize '7' over ('1-', '0', '1')\n", None, {}),
    "missing-system-file": (
        ["classify", "--system", "missing.json", "0"], 2,
        "error: [Errno 2] No such file or directory: 'missing.json'\n", None, {}),
    "no-system": (
        ["classify", "0"], 2, "error: one of --builtin or --system is required\n", None, {}),
    "sofic-eps-inf": (
        ["sofic", "--builtin", "cf", "--eps", "inf"], 2,
        "error: eps_state must be finite and >= 0, got inf\n", None, {}),
    "verify-negative-qn": (
        ["verify", "--builtin", "cf", "--qn", "-1"], 2,
        "error: mode 'qn' needs a level n >= 0, got -1\n", None, {}),
    "encode-tol-nan": (
        ["encode", "--builtin", "cf", "1", "--tol", "nan"], 2,
        "error: tol must be positive and finite, got nan\n", None, {}),
    "encode-negative-digits": (
        ["encode", "--builtin", "cf", "1", "--digits", "-1"], 2,
        "error: max_digits must be >= 0, got -1\n", None, {}),
    "qn-max-n-0": (
        ["qn", "--builtin", "cf", "--max-n", "0"], 2,
        "error: n_max must be >= 1, got 0\n", None, {}),
    "decode-no-point": (
        ["decode", "--builtin", "cf"], 2, "error: decode needs --theta or --real\n", None, {}),
    "existence-map-bad-res": (
        ["existence-map", "--res", "banana"], 2,
        "error: --res must look like 200x200, got 'banana'\n", None, {}),
    "existence-map-bad-extension": (
        ["existence-map", "--res", "4x4", "--out", "map.bmp"], 2,
        "error: --out must end in .pgm, .csv or .json\n", None, {}),
    "existence-map-out-missing-dir": (
        ["existence-map", "--res", "2x2", "--depth", "3", "--nmax", "3",
         "--out", "nodir/grid.pgm"], 2,
        "error: [Errno 2] No such file or directory: 'nodir/grid.pgm'\n", None, {}),
    "decode-real-inf": (
        ["decode", "--builtin", "cf", "--real", "inf", "--digits", "12"], 0, "",
        "d0e09c3d3a113a62878f09c61ca0f9d5363c57c6baccdfa43b160f0f0cef5528", {}),
    "decode-theta-nan": (
        ["decode", "--builtin", "cf", "--theta", "nan"], 2,
        "error: theta must be finite, got nan\n", None, {}),
    "decode-theta-inf": (
        ["decode", "--builtin", "cf", "--theta", "inf"], 2,
        "error: theta must be finite, got inf\n", None, {}),
    "decode-negative-digits": (
        ["decode", "--builtin", "cf", "--theta", "1", "--digits", "-3"], 2,
        "error: n_digits must be >= 0, got -3\n", None, {}),
    "verify-nmax-0": (
        ["verify", "--builtin", "cf", "--nmax", "0"], 2,
        "error: mode 'auto' needs n_max >= 1, got 0\n", None, {}),
    "existence-map-res-0": (
        ["existence-map", "--res", "0x3"], 2,
        "error: grid size must be at least 1x1, got 0x3\n", None, {}),
    "existence-map-negative-nmax": (
        ["existence-map", "--res", "2x2", "--depth", "3", "--nmax", "-1"], 2,
        "error: n_max must be >= 0, got -1\n", None, {}),
    "sofic-cap-0": (
        ["sofic", "--builtin", "cf", "--cap", "0"], 2,
        "error: state_cap must be >= 1, got 0\n", None, {}),
    "sofic-negative-cap": (
        ["sofic", "--builtin", "cf", "--cap", "-3"], 2,
        "error: state_cap must be >= 1, got -3\n", None, {}),
    "existence-map-negative-depth": (
        ["existence-map", "--res", "4x4", "--depth", "-2"], 2,
        "error: depth must be >= 0, got -2\n", None, {}),
    "existence-map-workers-0": (
        ["existence-map", "--res", "2x2", "--depth", "3", "--nmax", "3", "--workers", "0"], 2,
        "error: workers must be >= 1, got 0\n", None, {}),
    "existence-map-negative-workers": (
        ["existence-map", "--res", "2x2", "--depth", "3", "--nmax", "3", "--workers", "-2"], 2,
        "error: workers must be >= 1, got -2\n", None, {}),
    "report-out-missing-dir": (
        ["classify", "--builtin", "cf", "1", "--out", "nodir/r.json"], 2,
        "error: [Errno 2] No such file or directory: 'nodir/r.json'\n", None, {}),
}


def _report_digest(text: str) -> str | None:
    if not text.strip():
        return None
    report = json.loads(text)
    report.pop("timings")
    return hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_cli_run(name, tmp_path, monkeypatch, capsys):
    argv, code, err, report, files = CASES[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cf.json").write_text(json.dumps(serialize_config(builtin("cf"))))
    assert main(list(argv)) == code
    captured = capsys.readouterr()
    assert captured.err == err
    assert _report_digest(captured.out) == report
    written = {}
    for path in sorted(tmp_path.iterdir()):
        if path.name == "cf.json":
            continue
        data = path.read_bytes()
        written[path.name] = (_report_digest(data.decode()) if path.suffix == ".json"
                              else hashlib.sha256(data).hexdigest())
    assert written == files
