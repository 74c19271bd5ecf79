"""Command-line frontend: pair classification, witness-pair verification
sweeps, threshold location, and state dumping.

Exit codes: 0 success, 2 malformed input or bad range, 3 normalization
failure, 4 write failure (of the report file or of stdout), 5 no verdict
change in the window, 1 internal inconsistency.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import stat
import sys

import numpy as np

from .construction import (
    BLANK_CHOICES,
    apply_cloner,
    build_initial,
    expand,
)
from .linalg import NotNormalizedError, PureState
from .majorization import classify, entanglement_entropy, schmidt_vector
from .sweep import (
    CROSS_CHECK_BLOCK,
    NO_DELETING,
    REPORT_FIELDS,
    WITNESS_VERDICTS,
    InternalInconsistencyError,
    NonMonotoneBoundaryError,
    classify_block,
    find_threshold,
    grid,
)

INLINE_SUM_TOL = 1e-9

# Largest dim_a * dim_b a state file may declare; checked before any
# amplitude storage is allocated.
MAX_AMPLITUDES = 1 << 16
# Most characters a state file may hold; no more are read.  A full
# 256 x 256 file written with indent=4 has about 8.1 million.
MAX_STATE_CHARS = 1 << 26


class CliInputError(ValueError):
    pass


class WriteFailure(OSError):
    pass


# The output layer: every subcommand formats its records through _template
# and its number lists through _vector, so one spec decides every number:
# 17 significant digits, enough to round-trip a double exactly.
_NUMBER = ".17g"
# How a field's value is written: numbers in _NUMBER; strings (plain
# identifiers such as verdict names) as given in CSV and quoted in JSON;
# pre-rendered values (vectors, flags, counts) as given.
_CSV_CELLS = {"number": "{:" + _NUMBER + "}", "string": "{}", "value": "{}"}
_JSON_CELLS = dict(_CSV_CELLS, string='"{}"')


def _template(fields, kinds, fmt: str) -> str:
    """One str.format template for a record of `fields`: a CSV line, or a
    JSON object on one line (a JSON array when fields is None), with each
    field written as its kind says."""
    if fmt == "csv":
        return ",".join(_CSV_CELLS[kind] for kind in kinds)
    cells = [_JSON_CELLS[kind] for kind in kinds]
    if fields is None:
        return _array(cells, "json")
    return "{{" + ", ".join(f'"{f}": {c}' for f, c in zip(fields, cells)) + "}}"


def _array(cells, fmt: str) -> str:
    """Rendered cells as one CSV cell (a;b) or one JSON array ([a, b])."""
    return "[" + ", ".join(cells) + "]" if fmt == "json" else ";".join(cells)


def _vector(values, fmt: str) -> str:
    """A list of numbers as one CSV cell (a;b) or one JSON array ([a, b])."""
    return _array([format(v, _NUMBER) for v in values], fmt)


def _record(fields, kinds, fmt: str, *values) -> str:
    """One record as a line of text; in CSV under its header line."""
    head = ",".join(fields) + "\n" if fmt == "csv" else ""
    return head + _template(fields, kinds, fmt).format(*values) + "\n"


def parse_inline_schmidt(text: str) -> tuple:
    """Comma list of weights: finite, nonnegative, summing to 1 within 1e-9.

    Accepted vectors are renormalized and sorted descending.
    """
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise CliInputError(f"cannot parse Schmidt vector {text!r}: {exc}") from None
    if not all(math.isfinite(v) for v in values):
        raise CliInputError(f"non-finite Schmidt weight in {text!r}")
    if min(values) < 0.0:
        raise CliInputError(f"negative Schmidt weight in {text!r}")
    total = 0.0
    for v in values:  # left to right: sum() is compensated from Python 3.12
        total += v
    if abs(total - 1.0) > INLINE_SUM_TOL:
        raise CliInputError(f"Schmidt weights sum to {total}, not 1 within 1e-9")
    return tuple(sorted((v / total for v in values), reverse=True))


def load_state_file(path: str) -> PureState:
    """Read a StateFile JSON document into a PureState.

    Schema: {"dims": [dA, dB], "amps": [[i, j, re, im], ...]} with 0-based
    indices.  Each value's JSON type is checked before it is used: dims or
    indices that are not JSON integers (a float, a bool or a string), and
    re or im that are not JSON numbers (a bool or a string), are malformed
    input, and so are duplicate or out-of-range indices and dims declaring
    more than MAX_AMPLITUDES amplitudes, and so is a file longer than
    MAX_STATE_CHARS characters; a norm outside the 1e-6 gate is a
    normalization failure.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            # read(n) allocates n bytes up front, so a regular file that
            # cannot pass the limit is read whole, sized by its length, and
            # only anything else (a device, a pipe) to one character past it
            info = os.fstat(fh.fileno())
            small = stat.S_ISREG(info.st_mode) and info.st_size <= MAX_STATE_CHARS
            text = fh.read(-1 if small else MAX_STATE_CHARS + 1)
        too_long = len(text) > MAX_STATE_CHARS
        data = None if too_long else json.loads(text)
        del text  # as large as the file: not kept while the amplitudes are built
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from None
    # JSONDecodeError, and the other failures to decode: bytes that are not
    # UTF-8 or an integer past Python's digit limit (plain ValueErrors), and
    # nesting too deep for the decoder
    except (ValueError, RecursionError) as exc:
        raise CliInputError(f"{path}: invalid JSON: {exc}") from None
    if too_long:
        raise CliInputError(f"{path}: longer than {MAX_STATE_CHARS} characters")

    try:
        dim_a, dim_b = data["dims"]
        entries = data["amps"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CliInputError(f"{path}: missing or malformed dims/amps: {exc}") from None
    if type(dim_a) is not int or type(dim_b) is not int:
        raise CliInputError(f"{path}: dims must be integers, got {data['dims']!r}")
    if dim_a < 1 or dim_b < 1:
        raise CliInputError(f"{path}: dims must be positive")
    if dim_a * dim_b > MAX_AMPLITUDES:
        raise CliInputError(
            f"{path}: dims {dim_a}x{dim_b} exceed the limit of "
            f"{MAX_AMPLITUDES} amplitudes"
        )

    if not isinstance(entries, list):
        raise CliInputError(f"{path}: amps must be a list")
    amps = {}  # flat index -> amplitude
    for entry in entries:
        try:
            i, j, real, imag = entry
        except (TypeError, ValueError) as exc:
            raise CliInputError(f"{path}: bad amplitude entry {entry!r}: {exc}") from None
        if type(i) is not int or type(j) is not int:
            raise CliInputError(f"{path}: indices must be integers, got {entry!r}")
        if type(real) not in (int, float) or type(imag) not in (int, float):
            raise CliInputError(f"{path}: amplitudes must be numbers, got {entry!r}")
        try:
            amp = complex(float(real), float(imag))
        except OverflowError as exc:  # float(10**400)
            raise CliInputError(f"{path}: bad amplitude entry {entry!r}: {exc}") from None
        if not (0 <= i < dim_a and 0 <= j < dim_b):
            raise CliInputError(f"{path}: index ({i}, {j}) out of range")
        if i * dim_b + j in amps:
            raise CliInputError(f"{path}: duplicate index ({i}, {j})")
        amps[i * dim_b + j] = amp
    vec = np.zeros(dim_a * dim_b, dtype=np.complex128)
    vec[list(amps)] = list(amps.values())
    try:
        return PureState(dim_a, dim_b, vec)
    except ValueError as exc:  # a norm outside the gate, or a NaN or Inf amplitude
        raise type(exc)(f"{path}: {exc}") from None


def _schmidt_side(path, inline) -> tuple:
    if path is not None:
        return schmidt_vector(load_state_file(path))
    return parse_inline_schmidt(inline)


ANALYZE_FIELDS = ("verdict", "schmidt_a", "schmidt_b", "entropy_a", "entropy_b")
THRESHOLD_FIELDS = ("alpha_star", "bracket", "verdict_below", "verdict_above",
                    "grid_sign_changes")
AMP_FIELDS = ("i", "j", "re", "im")
# the kinds of REPORT_FIELDS: alpha and the spectra, verdict, entropies, flags
REPORT_KINDS = ("number",) * 7 + ("string",) + ("number",) * 2 + ("value",) * 3


# Each cmd_* computes its output and returns (report, note): the report an
# iterable of text, the note one optional line; main writes both.
def cmd_analyze(args):
    sv_a = _schmidt_side(args.psi, args.schmidt_a)
    sv_b = _schmidt_side(args.phi, args.schmidt_b)
    return [_record(
        ANALYZE_FIELDS, ("string", "value", "value", "number", "number"), args.format,
        str(classify(sv_a, sv_b)), _vector(sv_a, args.format), _vector(sv_b, args.format),
        entanglement_entropy(sv_a), entanglement_entropy(sv_b),
    )], None


def _report_payload(block, fmt: str):
    """The report of a WitnessBlock, one CSV line or JSON object per row
    with the fields of REPORT_FIELDS, formatted straight from its arrays
    and yielded CROSS_CHECK_BLOCK rows at a time.

    Every row goes through the one record template of REPORT_FIELDS, built
    once per call by _template, so every number is written in _NUMBER.
    """
    row = _template(REPORT_FIELDS, REPORT_KINDS, fmt)
    if fmt == "json":
        row = "  " + row
        head, sep, tail = "[\n", ",\n", "\n]\n"
    else:
        head, sep, tail = ",".join(REPORT_FIELDS) + "\n", "\n", "\n"
    verdicts = [str(v) for v in WITNESS_VERDICTS]
    flag = ("false", "true")
    backward = flag[NO_DELETING]
    yield head
    for start in range(0, len(block.alphas), CROSS_CHECK_BLOCK):
        part = slice(start, start + CROSS_CHECK_BLOCK)
        rows = zip(
            np.column_stack(
                [block.alphas[part], block.spectra[part].reshape(-1, 6)]
            ).tolist(),
            block.incomparable[part].tolist(),
            block.entropies[part].tolist(),
        )
        lines = [
            row.format(*numbers, verdicts[inc], *ents, flag[inc], backward, flag[inc])
            for numbers, inc, ents in rows
        ]
        yield (sep if start else "") + sep.join(lines)
    yield tail


def cmd_paper_verify(args):
    # the whole grid is classified and cross-checked before any output
    block = classify_block(grid(args.alpha_min, args.alpha_max, args.steps))
    rows = len(block.incomparable)
    incomparable = np.count_nonzero(block.incomparable)
    summary = (
        f"rows={rows} incomparable={incomparable} forward_only={rows - incomparable} "
        f"no_deleting_universal={'true' if NO_DELETING else 'false'}"
    )
    return _report_payload(block, args.format), summary


def cmd_threshold(args):
    result = find_threshold(args.lo, args.hi, args.tol)
    return [_record(
        THRESHOLD_FIELDS, ("number", "value", "string", "string", "value"), "json",
        result.alpha_star, _vector(result.bracket, "json"), *map(str, WITNESS_VERDICTS), 1,
    )], None


def cmd_show_state(args):
    pre = build_initial(args.alpha)
    state = pre if args.which == "initial" else apply_cloner(pre)
    psi = expand(state, args.blank)
    sv = schmidt_vector(psi)
    nonzero = np.flatnonzero(psi.amps)
    i, j = np.divmod(nonzero, psi.dim_b)
    values = psi.amps[nonzero]
    amps = zip(i.tolist(), j.tolist(), values.real.tolist(), values.imag.tolist())
    # JSON writes each amplitude as an array [i, j, re, im], CSV as a line
    fields = None if args.format == "json" else AMP_FIELDS
    row = _template(fields, ("value", "value", "number", "number"), args.format)
    rows = [row.format(*amp) for amp in amps]
    if args.format == "csv":
        report = "\n".join([",".join(AMP_FIELDS), *rows]) + "\n"
        return [report], "schmidt=" + _vector(sv, "csv")
    return [_record(
        ("dims", "amps", "schmidt"), ("value",) * 3, "json",
        _vector((psi.dim_a, psi.dim_b), "json"), _array(rows, "json"),
        _vector(sv, "json"),
    )], None


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="locc-audit",
        description=(
            "Majorization-based LOCC convertibility of bipartite pure states, "
            "plus verification sweeps over the cloning/deleting witness pair."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify a pair of states or Schmidt vectors")
    side_a = p.add_mutually_exclusive_group(required=True)
    side_a.add_argument("--psi", help="StateFile JSON for the source state")
    side_a.add_argument("--schmidt-a", help="inline Schmidt weights, e.g. 0.5,0.3,0.2")
    side_b = p.add_mutually_exclusive_group(required=True)
    side_b.add_argument("--phi", help="StateFile JSON for the target state")
    side_b.add_argument("--schmidt-b", help="inline Schmidt weights")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "paper-verify",
        help="classify the witness pair over an overlap grid and report",
    )
    p.add_argument("--alpha-min", type=float, default=0.01)
    p.add_argument("--alpha-max", type=float, default=0.99)
    p.add_argument("--steps", type=int, default=99)
    p.add_argument("--out", help="report file path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_paper_verify)

    p = sub.add_parser("threshold", help="bisect the verdict boundary")
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("show-state", help="dump a witness state as a StateFile")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--which", choices=("initial", "final"), required=True)
    p.add_argument("--blank", choices=sorted(BLANK_CHOICES), default="zero")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_show_state)

    # argparse reads a value that starts with "-" as an option unless its
    # narrow pattern calls it a negative number (not -1e-3, -inf or a weight
    # list); such values must reach the range and weight checks instead
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)
    return parser


# The exit code of each failure (module docstring); the first match decides.
EXIT_CODES = (
    (NotNormalizedError, 3),
    (ValueError, 2),  # CliInputError, SweepRangeError, DegenerateOverlapError
    (WriteFailure, 4),
    (NonMonotoneBoundaryError, 5),
    (InternalInconsistencyError, 1),
)


def main(argv=None) -> int:
    """Run one subcommand and write what it returns, the only writes here:
    the report to --out or stdout, the note to the stream it left free."""
    args = build_parser().parse_args(argv)
    out = getattr(args, "out", None)
    try:
        report, note = args.func(args)
        target = "stdout" if out is None else out
        try:
            if out is None:
                sys.stdout.writelines(report)
                sys.stdout.flush()
                target, note_stream = "stderr", sys.stderr
            else:
                with open(out, "w", encoding="utf-8", newline="") as fh:
                    fh.writelines(report)
                target, note_stream = "stdout", sys.stdout
            if note is not None:
                note_stream.write(note + "\n")
                note_stream.flush()
        except OSError as exc:
            if target == "stdout":  # else the exit flush retries its unwritten bytes
                with contextlib.suppress(AttributeError, OSError, ValueError):  # no fd
                    fd, devnull = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
                    os.dup2(devnull, fd)
            raise WriteFailure(f"cannot write {target}: {exc}") from None
    except tuple(types for types, _ in EXIT_CODES) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return next(code for types, code in EXIT_CODES if isinstance(exc, types))
    return 0


if __name__ == "__main__":
    sys.exit(main())
