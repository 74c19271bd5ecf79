"""Golden bytes: CLI outputs that must not change by a single byte.

Each case runs the CLI in-process and compares the SHA-256 of its stdout
(or of one field of it) with a recorded digest.  `paper-verify` and
`threshold` are built from the closed-form spectra, and the `show-state`
amplitudes from the symbolic expansion, so neither may move when the
numeric Schmidt route changes.  The `schmidt` field of
`show-state` is deliberately not pinned: it comes from a floating-point
factorization and may differ in the last bit.  Inline `analyze` never
touches a factorization, so its output is pinned whole, and so are the
one-line summaries and error messages that go with a report.
"""

from __future__ import annotations

import hashlib

import pytest

from locc_audit.cli import main

GOLDEN = {
    ("paper-verify",): (
        "77df2056b0d4cd68733ae1290032213c1a1c494cb6ccd4b858627f9e291a5dfd"
    ),
    ("paper-verify", "--format", "json"): (
        "488adc355151213adf4af261249d58d9dcd43d8cd83e1ac8804a888486fb4a42"
    ),
    ("threshold", "--lo", "0.3", "--hi", "0.9"): (
        "55e64765a827c224a367a1b493bc3d4967914eab7e318f30dd630c1475394722"
    ),
}

# analyze on inline weights: an incomparable pair, given unsorted
ANALYZE_ARGV = ("analyze", "--schmidt-a", "0.1,0.5,0.4", "--schmidt-b", "0.2,0.6,0.2")
GOLDEN_ANALYZE = {
    "json": "60e029c162ce93e29737084ccd64af86aee8d7242250fbd89cb4c24100aae666",
    "csv": "8615accd1f062c7aca6cd665937fc4c82e0c6602871c53fc4e3a540e14337f9e",
}

# paper-verify --out: digest of the report file, and the summary on stdout
OUT_WINDOW = ("--alpha-min", "0.001", "--alpha-max", "0.999", "--steps", "257")
GOLDEN_OUT = {
    "csv": "d7c7ef64ecb14492a32bd5c6808c9b4be2cb30119418ae3c03a6898ac8a5dd5f",
    "json": "84342500e6f63ecb11ec6ccd03d14c4590b9dc54f69fcea9612e65bf2ffe2056",
}
OUT_SUMMARY = "rows=257 incomparable=122 forward_only=135 no_deleting_universal=true\n"
DEFAULT_SUMMARY = "rows=99 incomparable=47 forward_only=52 no_deleting_universal=true\n"

# show-state --format csv: the whole of stdout is the amplitude table
GOLDEN_AMPS_CSV = {
    "initial": "8930f980c4fa5648bb0286f213e13efa2a716ff65c8856d12a3df42c023678ed",
    "final": "301402ede2bf4fafbca552db09896563051f2e0b6d533661882c6e092aaf4f98",
}

GOLDEN_AMPS = {
    "initial": "5f692fd0ee773df81a97d632e0f22ba8e40ef2b368d1cb4797166c722ef6d66c",
    "final": "317b3be733f2a4eb55e12a2b6261137bbcb7d9bedf4d54a5ef64e47266ba728b",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _stdout(argv, capsys) -> str:
    capsys.readouterr()
    assert main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=" ".join)
def test_report_bytes(argv, capsys):
    assert _digest(_stdout(argv, capsys)) == GOLDEN[argv]


@pytest.mark.parametrize("which", sorted(GOLDEN_AMPS))
def test_show_state_amplitude_bytes(which, capsys):
    out = _stdout(["show-state", "--alpha", "0.5", "--which", which], capsys)
    # the amps array, exactly as printed, between its key and the next one
    amps = out.split('"amps": ', 1)[1].split(', "schmidt": ', 1)[0]
    assert amps.startswith("[[") and amps.endswith("]]")
    assert _digest(amps) == GOLDEN_AMPS[which]


@pytest.mark.parametrize("fmt", sorted(GOLDEN_ANALYZE))
def test_analyze_inline_bytes(fmt, capsys):
    out = _stdout(ANALYZE_ARGV + ("--format", fmt), capsys)
    assert _digest(out) == GOLDEN_ANALYZE[fmt]


@pytest.mark.parametrize("fmt", sorted(GOLDEN_OUT))
def test_report_file_bytes_and_summary(fmt, tmp_path, capsys):
    path = tmp_path / f"report.{fmt}"
    argv = ("paper-verify",) + OUT_WINDOW + ("--format", fmt, "--out", str(path))
    capsys.readouterr()
    assert main(list(argv)) == 0
    captured = capsys.readouterr()
    assert captured.out == OUT_SUMMARY
    assert captured.err == ""
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_OUT[fmt]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stdout_mode_summary_on_stderr(fmt, capsys):
    capsys.readouterr()
    assert main(["paper-verify", "--format", fmt]) == 0
    assert capsys.readouterr().err == DEFAULT_SUMMARY


@pytest.mark.parametrize("which", sorted(GOLDEN_AMPS_CSV))
def test_show_state_csv_amplitude_bytes(which, capsys):
    argv = ["show-state", "--alpha", "0.5", "--which", which, "--format", "csv"]
    assert _digest(_stdout(argv, capsys)) == GOLDEN_AMPS_CSV[which]


def test_threshold_exit_5_message(capsys):
    capsys.readouterr()
    assert main(["threshold", "--lo", "0.7", "--hi", "0.9"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: expected exactly one verdict change on [0.7, 0.9], found 0\n"
    )
