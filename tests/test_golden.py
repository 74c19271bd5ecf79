"""Golden bytes: CLI outputs that must not change by a single byte.

Each case runs the CLI in-process and compares the SHA-256 of its stdout
(or of one field of it) with a recorded digest.  `paper-verify` and
`threshold` are built from the closed-form spectra, and the `show-state`
amplitudes from the symbolic expansion, so neither may move when the
numeric Schmidt route changes.  The numbers of `show-state`'s `schmidt`
field are deliberately not pinned: they come from a floating-point
factorization and may differ in the last bit, so only the rest of that
line, and the shape of the CSV mode's `schmidt=` line, are.  Inline
`analyze` never touches a factorization, and `analyze` on a product state
has exact weights, so their outputs are pinned whole, and so are the
one-line summaries and error messages that go with a report.
"""

from __future__ import annotations

import hashlib
import json
import re

import pytest

from locc_audit.cli import main

GOLDEN = {
    ("paper-verify",): (
        "77df2056b0d4cd68733ae1290032213c1a1c494cb6ccd4b858627f9e291a5dfd"
    ),
    ("paper-verify", "--format", "json"): (
        "488adc355151213adf4af261249d58d9dcd43d8cd83e1ac8804a888486fb4a42"
    ),
    # alpha_star 0.52716537462103941, within 1e-10 of the root
    ("threshold", "--lo", "0.3", "--hi", "0.9"): (
        "9bceb3d069de00581110e274090cf5ec0725f4d47834e5f60ee9f3b2237b02c1"
    ),
    # alpha_star 0.52716537458556045, within 1e-9 of the root
    ("threshold", "--lo", "0.45", "--hi", "0.6", "--tol", "1e-9"): (
        "950cf47e0db490df87f673785cf0bdd586993ac3eaca2ca95d0a0fcf0a8af5b8"
    ),
}

# analyze on inline weights: an incomparable pair, given unsorted
ANALYZE_ARGV = ("analyze", "--schmidt-a", "0.1,0.5,0.4", "--schmidt-b", "0.2,0.6,0.2")
GOLDEN_ANALYZE = {
    "json": "60e029c162ce93e29737084ccd64af86aee8d7242250fbd89cb4c24100aae666",
    "csv": "8615accd1f062c7aca6cd665937fc4c82e0c6602871c53fc4e3a540e14337f9e",
}

# analyze --psi on the product state i|1>|2>: its weights are exactly [1, 0]
PRODUCT_STATE = {"dims": [2, 3], "amps": [[1, 2, 0.0, 1.0]]}
GOLDEN_ANALYZE_PSI = {
    "json": "514d2fc728cb84c3309b7aaacd14480bbfb33280fd41500eca20c73fa5394181",
    "csv": "a2083679abe7a2efcdb48c9778d12a032126e31bcd869789825c1bfc63b97236",
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

# show-state JSON: the whole line, with each number of "schmidt" read as #
GOLDEN_SHOW_STATE = {
    "initial": "989c8b30523ddc3ea8244adf5d47abccefc84e02a0d259de988f2f8d56136350",
    "final": "a62e03be3dc5c1c9b5c5b360df0696b55fb61683a3fa5edd1b3b25d0fc815358",
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


def _mask_schmidt(out: str) -> str:
    head, tail = out.split('"schmidt": ', 1)
    vector, rest = tail.split("]", 1)
    return head + '"schmidt": ' + re.sub(r"[^\[, ]+", "#", vector) + "]" + rest


@pytest.mark.parametrize("which", sorted(GOLDEN_SHOW_STATE))
def test_show_state_json_line_bytes(which, capsys):
    out = _stdout(["show-state", "--alpha", "0.5", "--which", which], capsys)
    masked = _mask_schmidt(out)
    assert masked.endswith(', "schmidt": [#, #, #]}\n')
    assert _digest(masked) == GOLDEN_SHOW_STATE[which]


@pytest.mark.parametrize("which", ["initial", "final"])
def test_show_state_csv_schmidt_line_shape(which, capsys):
    argv = ["show-state", "--alpha", "0.5", "--which", which, "--format", "csv"]
    capsys.readouterr()
    assert main(argv) == 0
    err = capsys.readouterr().err
    assert err.startswith("schmidt=") and err.count("\n") == 1
    cells = err[len("schmidt="):-1].split(";")
    assert len(cells) == 3
    # each weight is written as .17g writes its double
    assert [format(float(c), ".17g") for c in cells] == cells
    assert sum(map(float, cells)) == pytest.approx(1.0)


@pytest.mark.parametrize("fmt", sorted(GOLDEN_ANALYZE_PSI))
def test_analyze_product_state_file_bytes(fmt, tmp_path, capsys):
    path = tmp_path / "product.json"
    path.write_text(json.dumps(PRODUCT_STATE))
    argv = ["analyze", "--psi", str(path), "--schmidt-b", "0.5,0.3,0.2"]
    out = _stdout(argv + ["--format", fmt], capsys)
    assert _digest(out) == GOLDEN_ANALYZE_PSI[fmt]


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
