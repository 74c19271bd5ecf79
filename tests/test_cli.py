"""CLI frontend: parsing, exit codes, report formats, determinism."""

from __future__ import annotations

import contextlib
import errno
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import locc_audit.cli as cli
from locc_audit.cli import MAX_AMPLITUDES, build_parser, main
from locc_audit.sweep import MAX_STEPS, REPORT_FIELDS

RT2 = 0.7071067811865476


def write_state(path, dims, amps):
    path.write_text(json.dumps({"dims": dims, "amps": amps}))
    return str(path)


def bell_file(tmp_path):
    return write_state(
        tmp_path / "bell.json", [2, 2], [[0, 0, RT2, 0.0], [1, 1, RT2, 0.0]]
    )


class TestAnalyze:
    def test_forward_only_inline(self, capsys):
        assert main(["analyze", "--schmidt-a", "0.5,0.5", "--schmidt-b", "1,0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "ForwardOnly"
        assert out["schmidt_a"] == [0.5, 0.5]
        assert out["schmidt_b"] == [1.0, 0.0]
        assert out["entropy_a"] == pytest.approx(1.0)
        assert out["entropy_b"] == 0.0

    def test_incomparable_inline(self, capsys):
        code = main(
            ["analyze", "--schmidt-a", "0.4,0.4,0.2", "--schmidt-b", "0.5,0.25,0.25"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "Incomparable"

    def test_inline_weights_are_sorted_on_ingestion(self, capsys):
        assert main(["analyze", "--schmidt-a", "0.2,0.8", "--schmidt-b", "1,0"]) == 0
        assert json.loads(capsys.readouterr().out)["schmidt_a"] == [0.8, 0.2]

    def test_bad_sum_exits_2(self, capsys):
        code = main(["analyze", "--schmidt-a", "0.7,0.4", "--schmidt-b", "1,0"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_negative_weight_exits_2(self):
        assert main(["analyze", "--schmidt-a", "1.2,-0.2", "--schmidt-b", "1,0"]) == 2

    @pytest.mark.parametrize("weights", ["nan,1", "inf,0", "0.5,-inf", "nan"])
    def test_non_finite_weight_exits_2(self, weights, capsys):
        code = main(["analyze", "--schmidt-a", weights, "--schmidt-b", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: non-finite Schmidt weight in {weights!r}\n"

    @pytest.mark.parametrize(
        "weights, problem",
        [
            ("-0.5,1.5", "negative"),
            ("-.5,1.5", "negative"),
            ("-inf,2", "non-finite"),
            ("1,-5e-324", "negative"),  # the smallest negative weight, not first
        ],
    )
    def test_negative_first_weight_reaches_the_weight_check(
        self, weights, problem, capsys
    ):
        # argparse took a value starting with "-" for an option and printed
        # its usage block
        assert main(["analyze", "--schmidt-a", weights, "--schmidt-b", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {problem} Schmidt weight in {weights!r}\n"

    def test_unparseable_weight_exits_2(self):
        assert main(["analyze", "--schmidt-a", "0.5,oops", "--schmidt-b", "1,0"]) == 2

    def test_both_sources_for_one_side_rejected(self, tmp_path):
        bell = bell_file(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--psi", bell, "--schmidt-a", "1,0", "--schmidt-b", "1,0"])
        assert exc.value.code == 2

    def test_missing_side_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--schmidt-a", "0.5,0.5"])
        assert exc.value.code == 2

    def test_state_file_source(self, tmp_path, capsys):
        bell = bell_file(tmp_path)
        assert main(["analyze", "--psi", bell, "--schmidt-b", "1,0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "ForwardOnly"
        assert out["schmidt_a"] == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_complex_amplitudes(self, tmp_path, capsys):
        path = write_state(
            tmp_path / "phase.json", [2, 2], [[0, 0, RT2, 0.0], [1, 1, 0.0, RT2]]
        )
        assert main(["analyze", "--psi", path, "--phi", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "Equivalent"
        assert out["schmidt_a"] == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_csv_format(self, capsys):
        assert main(
            [
                "analyze",
                "--schmidt-a",
                "0.5,0.5",
                "--schmidt-b",
                "1,0",
                "--format",
                "csv",
            ]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "verdict,schmidt_a,schmidt_b,entropy_a,entropy_b"
        cells = lines[1].split(",")
        assert cells[0] == "ForwardOnly"
        assert cells[1] == "0.5;0.5"

    def test_output_is_deterministic(self, capsys):
        argv = ["analyze", "--schmidt-a", "0.62,0.38", "--schmidt-b", "0.9,0.1"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestStateFileValidation:
    def test_invalid_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["analyze", "--psi", str(path), "--schmidt-b", "1,0"]) == 2

    @pytest.mark.parametrize("content, reason", [
        # nesting deeper than the decoder's recursion limit
        (b"[" * 100_000 + b"]" * 100_000,
         "maximum recursion depth exceeded while decoding a JSON array"),
        # an integer past Python's limit of 4300 digits
        (b'{"dims": [1, 1], "amps": [[0, 0, 1' + b"0" * 5000 + b", 0]]}",
         "Exceeds the limit (4300 digits) for integer string conversion"),
        (b'{"dims": [1, 1], "amps": [[0, 0, 1, 0]]}\xff',
         "'utf-8' codec can't decode byte 0xff"),
    ], ids=["deep-nesting", "long-integer", "not-utf-8"])
    def test_undecodable_json_is_one_invalid_json_line(self, content, reason, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_bytes(content)
        capsys.readouterr()
        assert main(["analyze", "--psi", str(path), "--schmidt-b", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: invalid JSON: {reason}")
        assert captured.err.count("\n") == 1

    def test_missing_file_exits_2(self):
        assert main(["analyze", "--psi", "/no/such/file.json", "--schmidt-b", "1,0"]) == 2

    def test_duplicate_index_exits_2(self, tmp_path):
        path = write_state(
            tmp_path / "dup.json", [2, 2], [[0, 0, RT2, 0], [0, 0, RT2, 0]]
        )
        assert main(["analyze", "--psi", path, "--schmidt-b", "1,0"]) == 2

    def test_out_of_range_index_exits_2(self, tmp_path):
        path = write_state(tmp_path / "oob.json", [2, 2], [[0, 2, 1.0, 0]])
        assert main(["analyze", "--psi", path, "--schmidt-b", "1,0"]) == 2

    def test_missing_dims_exits_2(self, tmp_path):
        path = tmp_path / "nodims.json"
        path.write_text(json.dumps({"amps": [[0, 0, 1.0, 0.0]]}))
        assert main(["analyze", "--psi", str(path), "--schmidt-b", "1,0"]) == 2

    @pytest.mark.parametrize(
        "doc",
        [
            '{"dims": [2.9, 2], "amps": [[0, 0, 1, 0]]}',
            '{"dims": [2, 2], "amps": [[0, 1.6, 1, 0]]}',
            '{"dims": [true, 2], "amps": [[0, 0, 1, 0]]}',
            '{"dims": ["2", "2"], "amps": [[0, 0, 1, 0]]}',
        ],
        ids=["float-dim", "float-index", "bool-dim", "string-dims"],
    )
    def test_non_integer_dims_or_index_exit_2(self, doc, tmp_path, capsys):
        # int() would read these as 2, 1, 1 and 2: a valid state of another shape
        path = tmp_path / "state.json"
        path.write_text(doc)
        capsys.readouterr()
        assert main(["analyze", "--psi", str(path), "--schmidt-b", "1,0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be integers" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "re_im", [["1", False], [1, False], [True, 0], ["1", "0"]],
        ids=["string-bool", "number-bool", "bool-number", "strings"],
    )
    def test_non_number_amplitude_exits_2(self, re_im, tmp_path, capsys):
        # float() would read each of these as the amplitude 1+0j
        path = write_state(tmp_path / "state.json", [1, 1], [[0, 0, *re_im]])
        capsys.readouterr()
        assert main(["analyze", "--psi", path, "--schmidt-b", "1"]) == 2
        entry = [0, 0, *re_im]
        assert capsys.readouterr().err == (
            f"error: {path}: amplitudes must be numbers, got {entry!r}\n"
        )

    def test_amplitude_type_is_checked_before_the_other_checks(self, tmp_path, capsys):
        # the out-of-range index, in the same entry or a later one, and the
        # norm are never reached
        for amps in ([[0, 2, "1", 0]], [[0, 0, "1", 0], [0, 2, 1.0, 0]]):
            path = write_state(tmp_path / "state.json", [2, 2], amps)
            capsys.readouterr()
            assert main(["analyze", "--psi", path, "--schmidt-b", "1"]) == 2
            assert capsys.readouterr().err == (
                f"error: {path}: amplitudes must be numbers, got {amps[0]!r}\n"
            )

    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{"dims": [1, 1], "amps": [[true, 0, 1, 0]]}',
             "indices must be integers, got [True, 0, 1, 0]"),
            ('{"dims": [1, 1], "amps": [[0, 0, false, 0]]}',
             "amplitudes must be numbers, got [0, 0, False, 0]"),
            ('{"dims": [1, 1], "amps": [[0, 0, "nan", 0]]}',
             "amplitudes must be numbers, got [0, 0, 'nan', 0]"),
            ('{"dims": "ab", "amps": [[0, 0, 1, 0]]}',
             "dims must be integers, got 'ab'"),
        ],
        ids=["bool-index", "bool-amplitude", "string-nan", "string-dims"],
    )
    def test_type_fault_is_named_before_the_value_is_used(
        self, doc, message, tmp_path, capsys
    ):
        # each value read before its type was checked, these reported an
        # index (1, 0) out of range, a norm of 0 outside the gate (exit 3),
        # NaN amplitudes, and int()'s failure on "a"
        path = tmp_path / "state.json"
        path.write_text(doc)
        capsys.readouterr()
        assert main(["analyze", "--psi", str(path), "--schmidt-b", "1"]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("doc, message", [
        ('{"dims": [0, 2], "amps": []}', "dims must be positive\n"),
        ('{"dims": [1, 1], "amps": {"0": 1}}', "amps must be a list\n"),
        # CPython's unpacking text ends these two lines
        ('{"dims": [1, 1], "amps": [[0, 0, 1]]}', "bad amplitude entry [0, 0, 1]: "),
        ('{"dims": [1, 1], "amps": [5]}', "bad amplitude entry 5: "),
    ], ids=["zero-dim", "amps-object", "three-item-entry", "non-list-entry"])
    def test_malformed_layout_exits_2(self, doc, message, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text(doc)
        capsys.readouterr()
        assert main(["analyze", "--psi", str(path), "--schmidt-b", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_overflowing_norm_prints_one_line(self, tmp_path):
        # the squared norm overflows inside numpy, whose warning must not
        # reach stderr ahead of the error line
        path = write_state(
            tmp_path / "big.json", [2, 2], [[0, 0, 1e308, 0], [1, 1, 1e308, 0]]
        )
        argv = ["analyze", "--psi", path, "--schmidt-b", "1"]
        proc = subprocess.run(
            [sys.executable, "-m", "locc_audit.cli", *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert proc.stderr == f"error: {path}: state norm inf is outside the 1e-6 gate\n"

    @pytest.mark.parametrize("doc, code, message", [
        ('{"dims": [2, 3], "amps": [[0, 0, 0.6, 0], [1, 2, 1, 0]]}', 3,
         "state norm 1.16619037896906 is outside the 1e-6 gate"),
        ('{"dims": [1, 1], "amps": [[0, 0, NaN, 0]]}', 2,
         "amps contains NaN or Inf entries"),
        ('{"dims": [1, 1], "amps": [[0, 0, 1e400, 0]]}', 2,
         "amps contains NaN or Inf entries"),
    ], ids=["norm-gate", "nan", "overflowing-literal"])
    def test_state_fault_names_its_file(self, doc, code, message, tmp_path, capsys):
        # the gate's own checks once reached stderr without the path, so
        # with two state files the message did not say which was at fault
        bad = tmp_path / "bad.json"
        bad.write_text(doc)
        for sides in (
            ["--psi", str(bad), "--schmidt-b", "1"],
            ["--psi", bell_file(tmp_path), "--phi", str(bad)],
        ):
            capsys.readouterr()
            assert main(["analyze", *sides]) == code
            assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    @pytest.mark.parametrize("entry", [[0, 0, 10**400, 0], [0, 0, 1, -(10**400)]])
    def test_integer_too_large_for_a_double_exits_2(self, entry, tmp_path, capsys):
        # float() raises OverflowError on it, which escaped as a traceback
        path = write_state(tmp_path / "state.json", [1, 1], [entry])
        capsys.readouterr()
        assert main(["analyze", "--psi", path, "--schmidt-b", "1"]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: bad amplitude entry {entry!r}: "
            "int too large to convert to float\n"
        )

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (64, 2), (2, 64)])
    def test_entries_land_at_their_index(self, dims, tmp_path):
        # the state is the (dA, dB) matrix with each written amplitude at
        # [i, j]; a transposed reshape would move every entry of these
        rng = np.random.default_rng(dims[0])
        m = rng.normal(size=dims) + 1j * rng.normal(size=dims)
        m /= np.linalg.norm(m)
        entries = [[i, j, v.real, v.imag] for (i, j), v in np.ndenumerate(m)]
        state = cli.load_state_file(write_state(tmp_path / "s.json", list(dims), entries))
        assert state.shape == dims
        np.testing.assert_allclose(state, m, rtol=0, atol=1e-15)

    def test_norm_violation_exits_3(self, tmp_path):
        path = write_state(
            tmp_path / "short.json", [2, 2], [[0, 0, 0.5, 0], [1, 1, 0.5, 0]]
        )
        assert main(["analyze", "--psi", path, "--schmidt-b", "1,0"]) == 3

    def test_oversized_dims_exit_2_before_allocating(self, tmp_path, capsys):
        # 38 bytes on disk declaring 10^10 amplitudes (149 GiB of complex128)
        path = tmp_path / "huge.json"
        path.write_text('{"dims": [100000, 100000], "amps": []}')
        assert main(["analyze", "--psi", str(path), "--schmidt-b", "1,0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_dims_at_the_amplitude_limit_accepted(self, tmp_path, capsys):
        side = 256
        assert side * side == MAX_AMPLITUDES
        path = write_state(tmp_path / "limit.json", [side, side], [[0, 0, 1.0, 0.0]])
        assert main(["analyze", "--psi", path, "--schmidt-b", "1,0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "Equivalent"
        assert out["schmidt_a"] == [1.0] + [0.0] * (side - 1)

    # a Bell state with a note: its 3 "ψ" are 6 bytes, so the limit counts
    # characters, not bytes
    NOTED_BELL = json.dumps(
        {"dims": [2, 2], "amps": [[0, 0, RT2, 0.0], [1, 1, RT2, 0.0]], "note": "ψψψ"},
        ensure_ascii=False,
    )

    @pytest.mark.parametrize("excess, code", [(0, 0), (1, 2)], ids=["at", "past"])
    def test_length_limit(self, excess, code, tmp_path, capsys, monkeypatch):
        path = tmp_path / "noted.json"
        path.write_text(self.NOTED_BELL, encoding="utf-8")
        limit = len(self.NOTED_BELL) - excess
        monkeypatch.setattr(cli, "MAX_STATE_CHARS", limit)
        capsys.readouterr()
        assert main(["analyze", "--psi", str(path), "--schmidt-b", "1"]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.out == ""
            assert captured.err == f"error: {path}: longer than {limit} characters\n"
        else:
            assert json.loads(captured.out)["verdict"] == "ForwardOnly"

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_endless_file_exits_2_after_the_limit(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_STATE_CHARS", 1000)
        assert main(["analyze", "--psi", "/dev/zero", "--schmidt-b", "1"]) == 2
        assert capsys.readouterr().err == "error: /dev/zero: longer than 1000 characters\n"


class TestPaperVerify:
    def test_default_grid_csv_report(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert main(["paper-verify", "--out", str(out)]) == 0
        summary = capsys.readouterr().out
        assert summary.startswith("rows=99 ")
        assert "no_deleting_universal=true" in summary
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(REPORT_FIELDS)
        assert len(lines) == 100
        assert "\r" not in out.read_bytes().decode()

    def test_stdout_mode_prints_summary_to_stderr(self, capsys):
        assert main(["paper-verify", "--steps", "5"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == ",".join(REPORT_FIELDS)
        assert captured.err.startswith("rows=5 ")

    def test_high_band_rows_all_incomparable(self, tmp_path):
        out = tmp_path / "high.csv"
        args = [
            "paper-verify",
            "--alpha-min",
            "0.6",
            "--alpha-max",
            "0.99",
            "--steps",
            "40",
            "--out",
            str(out),
        ]
        assert main(args) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 40
        verdict_col = REPORT_FIELDS.index("verdict")
        assert all(r.split(",")[verdict_col] == "Incomparable" for r in rows)

    def test_json_report(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["paper-verify", "--steps", "7", "--format", "json", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 7
        assert all(tuple(r.keys()) == REPORT_FIELDS for r in rows)
        assert rows[0]["alpha"] == pytest.approx(0.01)
        assert all(isinstance(r["backward_blocked"], bool) for r in rows)

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["paper-verify", "--out", str(a)]) == 0
        assert main(["paper-verify", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_rows_around_R(self, capsys):
        # the double below R, R itself and the double above it
        args = ["--alpha-min", "0.5271653746551653", "--alpha-max", "0.5271653746551655"]
        assert main(["paper-verify", *args, "--steps", "3"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        verdict_col = REPORT_FIELDS.index("verdict")
        assert [r.split(",")[verdict_col] for r in rows] == [
            "ForwardOnly",
            "Incomparable",
            "Incomparable",
        ]

    def test_bad_steps_exits_2(self):
        assert main(["paper-verify", "--steps", "1"]) == 2

    def test_bad_range_exits_2(self):
        assert main(["paper-verify", "--alpha-min", "0.9", "--alpha-max", "0.2"]) == 2

    def test_oversized_steps_exit_2_before_allocating(self, capsys):
        # 10^12 grid points would ask numpy for 7.3 TiB
        assert main(["paper-verify", "--steps", "1000000000000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert str(MAX_STEPS) in err

    def test_back_to_back_calls_share_no_state(self, capsys):
        assert main(["paper-verify", "--steps", "5"]) == 0
        assert capsys.readouterr().err.startswith("rows=5 ")
        assert main(["paper-verify"]) == 0
        captured = capsys.readouterr()
        assert captured.err.startswith("rows=99 ")
        assert len(captured.out.splitlines()) == 100

    def test_unwritable_out_exits_4(self, capsys):
        path = "/no/such/dir/report.csv"
        code = main(["paper-verify", "--out", path])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {path}: ")
        assert captured.err.count("\n") == 1


class TestThreshold:
    def test_boundary_location(self, capsys):
        assert main(["threshold", "--lo", "0.3", "--hi", "0.9"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert 0.50 < out["alpha_star"] < 0.60
        lo, hi = out["bracket"]
        assert hi - lo <= 1e-10
        assert out["verdict_below"] == "ForwardOnly"
        assert out["verdict_above"] == "Incomparable"
        assert out["grid_sign_changes"] == 1

    def test_windows_without_boundary_exit_5(self, capsys):
        assert main(["threshold", "--lo", "0.7", "--hi", "0.9"]) == 5
        assert capsys.readouterr().err.startswith("error:")

    def test_window_starting_at_R_exits_5(self, capsys):
        assert main(["threshold", "--lo", "0.5271653746551654", "--hi", "0.9"]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_nonpositive_tol_exits_2(self):
        assert main(["threshold", "--lo", "0.3", "--hi", "0.9", "--tol", "0"]) == 2

    def test_infinite_tol_exits_2(self, capsys):
        assert main(["threshold", "--lo", "0.3", "--hi", "0.9", "--tol", "inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: tolerance must be finite, got inf\n"


class TestShowState:
    def test_initial_dump(self, capsys):
        assert main(["show-state", "--alpha", "0.5", "--which", "initial"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["dims"] == [3, 32]
        assert 0 < len(out["amps"]) <= 96
        assert out["schmidt"] == pytest.approx(
            [17 / 47, 15 / 47, 15 / 47], abs=1e-10
        )

    def test_final_dump(self, capsys):
        assert main(["show-state", "--alpha", "0.5", "--which", "final"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["dims"] == [3, 32]
        assert out["schmidt"] == pytest.approx(
            [35 / 95, 33 / 95, 27 / 95], abs=1e-10
        )

    def test_round_trip_through_analyze(self, tmp_path, capsys):
        assert main(["show-state", "--alpha", "0.73", "--which", "final"]) == 0
        dump = capsys.readouterr().out
        path = tmp_path / "state.json"
        path.write_text(dump)
        reference = json.loads(dump)["schmidt"]

        assert main(["analyze", "--psi", str(path), "--phi", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "Equivalent"
        np.testing.assert_allclose(out["schmidt_a"], reference, atol=1e-10)

    def test_blank_choice_leaves_spectrum_alone(self, capsys):
        assert main(["show-state", "--alpha", "0.4", "--which", "initial"]) == 0
        base = json.loads(capsys.readouterr().out)["schmidt"]
        code = main(
            ["show-state", "--alpha", "0.4", "--which", "initial", "--blank", "plus"]
        )
        assert code == 0
        other = json.loads(capsys.readouterr().out)["schmidt"]
        np.testing.assert_allclose(other, base, atol=1e-12)

    def test_csv_format(self, capsys):
        code = main(
            ["show-state", "--alpha", "0.5", "--which", "initial", "--format", "csv"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == "i,j,re,im"
        assert captured.err.startswith("schmidt=")

    def test_endpoint_alpha_exits_2(self):
        assert main(["show-state", "--alpha", "1.0", "--which", "initial"]) == 2

    def test_out_of_range_alpha_exits_2(self):
        assert main(["show-state", "--alpha", "1.5", "--which", "initial"]) == 2


# the arguments each subcommand needs besides the float option under test
REQUIRED_ARGS = {
    "paper-verify": [],
    "threshold": ["--lo", "0.3", "--hi", "0.9"],
    "show-state": ["--alpha", "0.5", "--which", "initial"],
}
SUBCOMMANDS = next(a.choices for a in build_parser()._actions if a.dest == "command")
FLOAT_OPTIONS = [
    (command, action.option_strings[0])
    for command, parser in SUBCOMMANDS.items()
    for action in parser._actions
    if action.type is float
]


def test_every_float_option_is_covered():
    assert {command for command, _ in FLOAT_OPTIONS} == set(REQUIRED_ARGS)
    assert len(FLOAT_OPTIONS) == 6


@pytest.mark.parametrize("value", ["-1e-3", "-inf", "-nan", "-.5"])
@pytest.mark.parametrize("command, option", FLOAT_OPTIONS)
def test_negative_float_values_reach_the_range_checks(command, option, value, capsys):
    # argparse took "-1e-3" or "-inf" for an option and printed its usage
    # block; the value must reach the subcommand's own one-line check
    argv = [command, *REQUIRED_ARGS[command], option, value]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(float(value)) in captured.err


# a call of each subcommand, and of each show-state format, that writes to stdout
WRITING_CALLS = {
    "analyze": ["analyze", "--schmidt-a", "0.5,0.5", "--schmidt-b", "1"],
    "paper-verify": ["paper-verify", "--steps", "5"],
    "threshold": ["threshold", "--lo", "0.3", "--hi", "0.9"],
    "show-state": ["show-state", "--alpha", "0.5", "--which", "initial"],
    "show-state-csv": ["show-state", "--alpha", "0.5", "--which", "final",
                       "--format", "csv"],
}


class FailingStdout(io.TextIOBase):
    """A stdout whose `method` (write or flush) raises `error`, as a closed
    pipe or a full disk does."""

    def __init__(self, method, error):
        self.method, self.error = method, error

    def write(self, text):
        if self.method == "write":
            raise self.error
        return len(text)

    def flush(self):
        if self.method == "flush":
            raise self.error

    def close(self):
        # IOBase's finalizer calls close, which flushes: do not raise again there
        self.method = None
        super().close()


def run_with_stdout(command, stdout):
    """Run `command` with stdout on the descriptor or file `stdout`, and
    buffered, as by default: PYTHONUNBUFFERED would hide the bytes that stay
    in its buffer after a failed write and that the flush at exit retries."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run(command, stdout=stdout, stderr=subprocess.PIPE, text=True, env=env)


def run_on_closed_pipe(command):
    """Run `command` with stdout on a pipe whose read end is already
    closed, so its first write to stdout fails with EPIPE."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return run_with_stdout(command, write_end)
    finally:
        os.close(write_end)


EPIPE_LINE = f"error: cannot write stdout: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n"


class TestStdoutWriteFailure:
    """A failed write to stdout is a write failure: exit 4 and one line."""

    @pytest.mark.parametrize("error", [
        BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)),
        OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
    ], ids=["broken-pipe", "disk-full"])
    @pytest.mark.parametrize("method", ["write", "flush"])
    @pytest.mark.parametrize("name", list(WRITING_CALLS))
    def test_exits_4_with_one_line(self, name, method, error, capsys):
        with contextlib.redirect_stdout(FailingStdout(method, error)):
            code = main(WRITING_CALLS[name])
        assert code == 4
        assert capsys.readouterr().err == f"error: cannot write stdout: {error}\n"

    @pytest.mark.parametrize("method", ["write", "flush"])
    def test_summary_after_a_report_file(self, method, tmp_path, capsys):
        # with --out the summary line takes stdout, and fails there
        report = tmp_path / "report.csv"
        error = BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
        with contextlib.redirect_stdout(FailingStdout(method, error)):
            code = main(["paper-verify", "--steps", "5", "--out", str(report)])
        assert code == 4
        assert capsys.readouterr().err == f"error: cannot write stdout: {error}\n"
        assert len(report.read_text().splitlines()) == 6

    @pytest.mark.parametrize("name", ["analyze", "paper-verify", "threshold", "show-state"])
    def test_closed_pipe_through_the_module(self, name):
        proc = run_on_closed_pipe(
            [sys.executable, "-m", "locc_audit.cli", *WRITING_CALLS[name]]
        )
        assert proc.returncode == 4
        assert proc.stderr == EPIPE_LINE

    def test_summary_on_a_closed_pipe_through_the_module(self, tmp_path):
        # with --out the report is written and the summary fails on stdout
        report = tmp_path / "report.csv"
        proc = run_on_closed_pipe([
            sys.executable, "-m", "locc_audit.cli", "paper-verify", "--steps", "5",
            "--out", str(report),
        ])
        assert proc.returncode == 4
        assert proc.stderr == EPIPE_LINE
        assert len(report.read_text().splitlines()) == 6

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device_through_the_module(self):
        with open("/dev/full", "w") as full:
            proc = run_with_stdout(
                [sys.executable, "-m", "locc_audit.cli", *WRITING_CALLS["paper-verify"]], full
            )
        assert proc.returncode == 4
        assert proc.stderr == (
            f"error: cannot write stdout: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        )


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "locc_audit.cli",
                "analyze",
                "--schmidt-a",
                "0.5,0.5",
                "--schmidt-b",
                "1,0",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "ForwardOnly"

    def test_console_script(self):
        script = shutil.which("locc-audit")
        if script is None:
            pytest.skip("console script not on PATH in this environment")
        proc = subprocess.run(
            [script, "threshold", "--lo", "0.4", "--hi", "0.7", "--tol", "1e-6"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert 0.50 < json.loads(proc.stdout)["alpha_star"] < 0.60
        closed = run_on_closed_pipe([script, *WRITING_CALLS["paper-verify"]])
        assert closed.returncode == 4
        assert closed.stderr == EPIPE_LINE
