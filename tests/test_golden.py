"""Golden bytes: CLI outputs that must not change by a single byte.

Each case runs the CLI in-process and compares the SHA-256 of its stdout
(or of one field of it) with a recorded digest.  `paper-verify` and
`threshold` are built from the closed-form spectra, and the `show-state`
amplitudes from the symbolic expansion, so neither may move when the
numeric Schmidt route changes.  The `schmidt` field of
`show-state` is deliberately not pinned: it comes from a floating-point
factorization and may differ in the last bit.
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
