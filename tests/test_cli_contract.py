"""The CLI contract as a property over drawn command lines.

Whatever argv a user types for the four subcommands, with float options
written as finite, infinite, nan, signed-zero, subnormal or
negative-exponent text and with tiny state files whose amplitudes may be
floats, integers too large for a double, bools or strings: the run ends
in a documented exit code, a failure prints exactly one `error: ` line
and nothing else, and JSON on stdout is strict JSON (no NaN or Infinity).
Every witness verdict follows the exact rule: a report row is Incomparable
exactly when its alpha is at least sweep.R (ForwardOnly otherwise),
its forward_blocked and paper_claim_upheld flags say whether it is
Incomparable, deletion is blocked on every row, the summary line counts
the rows, and a threshold bracket holds R.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locc_audit.cli import main
from locc_audit.sweep import R

# 1 (internal inconsistency) and 4 (write failure) cannot follow from the
# inputs drawn here
EXIT_CODES = {0, 2, 3, 5}

FLOAT_TEXT = st.one_of(
    st.sampled_from([
        "0.3", "0.5", "0.9", "0.999999", "1", "0", "-0", "-0.0", "+0", "1e-3",
        "-1e-3", "-.5", "inf", "-inf", "+inf", "nan", "-nan", "NaN",
        "-Infinity", "5e-324", "-5e-324", "2.2e-308", "1e-10", "1e308",
    ]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(0.0, 1.0).map(repr),
)
FORMAT = st.sampled_from([[], ["--format", "json"], ["--format", "csv"]])
WEIGHTS = st.one_of(
    st.sampled_from(["1", "0.5,0.5", "0.6,0.3,0.1", "1,0,0", "-0.5,1.5"]),
    st.lists(FLOAT_TEXT, min_size=1, max_size=3).map(",".join),
)
AMPLITUDE = st.one_of(
    st.sampled_from([0, 1, 1.0, -1.0, 0.7071067811865476, 1e308, 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([10**400, -(10**400)]),
    st.booleans(),
    st.sampled_from(["1", "x"]),
)
STATE_FILES = st.fixed_dictionaries({
    "dims": st.lists(st.integers(1, 3), min_size=2, max_size=2),
    "amps": st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), AMPLITUDE, AMPLITUDE).map(list),
        max_size=4,
    ),
})


def _option(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


@st.composite
def command_lines(draw, workdir):
    command = draw(st.sampled_from(["analyze", "paper-verify", "threshold", "show-state"]))
    if command == "analyze":
        argv = [command]
        for side, state_option, weight_option in (
            ("a", "--psi", "--schmidt-a"), ("b", "--phi", "--schmidt-b")
        ):
            if draw(st.booleans()):
                path = workdir / f"{side}.json"
                path.write_text(json.dumps(draw(STATE_FILES)))
                argv += [state_option, str(path)]
            else:
                argv += [weight_option, draw(WEIGHTS)]
        return argv + draw(FORMAT)
    if command == "paper-verify":
        return [
            command,
            *draw(_option("--alpha-min", FLOAT_TEXT)),
            *draw(_option("--alpha-max", FLOAT_TEXT)),
            *draw(_option("--steps", st.integers(-2, 9).map(str))),
            *draw(_option("--out", st.just(str(workdir / "report")))),
            *draw(FORMAT),
        ]
    if command == "threshold":
        return [
            command, "--lo", draw(FLOAT_TEXT), "--hi", draw(FLOAT_TEXT),
            *draw(_option("--tol", FLOAT_TEXT)),
        ]
    return [
        command, "--alpha", draw(FLOAT_TEXT),
        "--which", draw(st.sampled_from(["initial", "final"])),
        *draw(_option("--blank", st.sampled_from(["zero", "one", "plus"]))),
        *draw(FORMAT),
    ]


def _strict_constant(name):
    raise ValueError(f"JSON output holds {name}")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@settings(max_examples=1500, derandomize=True, deadline=None)
@given(data=st.data())
def test_every_command_line_keeps_the_contract(workdir, data):
    argv = data.draw(command_lines(workdir))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in EXIT_CODES, err
    if code:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return
    assert not any(line.startswith("error: ") for line in err.splitlines())
    # paper-verify writes CSV unless told otherwise, the others JSON
    json_out = "json" in argv if argv[0] == "paper-verify" else "csv" not in argv
    if json_out and "--out" not in argv:
        json.loads(out, parse_constant=_strict_constant)
    if argv[0] == "paper-verify":
        _assert_rows_follow_the_rule(argv, out, err, json_out)
    elif argv[0] == "threshold":
        got = json.loads(out)
        lo, hi = got["bracket"]
        assert lo < R <= hi
        assert (got["verdict_below"], got["verdict_above"]) == ("ForwardOnly", "Incomparable")


def _assert_rows_follow_the_rule(argv, out, err, json_out):
    # the summary line goes to stdout when the report goes to --out
    summary = err
    if "--out" in argv:
        summary = out
        out = Path(argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
    rows = json.loads(out) if json_out else list(csv.DictReader(io.StringIO(out)))
    assert rows
    true = True if json_out else "true"
    for row in rows:
        incomparable = float(row["alpha"]) >= R
        assert row["verdict"] == ("Incomparable" if incomparable else "ForwardOnly"), row
        assert row["backward_blocked"] == true, row
        upheld = row["verdict"] == "Incomparable"
        assert (row["forward_blocked"] == true) == upheld, row
        assert (row["paper_claim_upheld"] == true) == upheld, row
    counted = sum(row["verdict"] == "Incomparable" for row in rows)
    assert summary == (
        f"rows={len(rows)} incomparable={counted} forward_only={len(rows) - counted} "
        "no_deleting_universal=true\n"
    )
