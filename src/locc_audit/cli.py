"""Command-line frontend: pair classification, witness-pair verification
sweeps, threshold location, and state dumping.

Exit codes: 0 success, 2 malformed input or bad range, 3 normalization
failure, 4 write failure, 5 non-monotone verdict boundary, 1 internal
inconsistency.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .construction import (
    BLANK_CHOICES,
    DegenerateOverlapError,
    QubitSpec,
    apply_cloner,
    build_initial,
    expand,
)
from .linalg import NotNormalizedError, PureState
from .majorization import (
    VERDICTS,
    SchmidtVector,
    Verdict,
    classify,
    entanglement_entropy,
    schmidt_vector,
)
from .sweep import (
    CROSS_CHECK_BLOCK,
    REPORT_FIELDS,
    InternalInconsistencyError,
    NonMonotoneBoundaryError,
    SweepRangeError,
    classify_block,
    find_threshold,
    grid,
)

INLINE_SUM_TOL = 1e-9

# Largest dim_a * dim_b a state file may declare; checked before any
# amplitude storage is allocated.
MAX_AMPLITUDES = 1 << 16


class CliInputError(ValueError):
    pass


class WriteFailure(OSError):
    pass


# 17 significant digits: enough to round-trip a double exactly
_FLOAT_SPEC = ".17g"


def _fmt(x) -> str:
    return format(float(x), _FLOAT_SPEC)


def _json_vector(values) -> str:
    return "[" + ", ".join(_fmt(v) for v in values) + "]"


def parse_inline_schmidt(text: str) -> SchmidtVector:
    """Comma list of weights: finite, nonnegative, summing to 1 within 1e-9.

    Accepted vectors are renormalized and sorted descending.
    """
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise CliInputError(f"cannot parse Schmidt vector {text!r}: {exc}") from None
    if not values:
        raise CliInputError("empty Schmidt vector")
    if not all(math.isfinite(v) for v in values):
        raise CliInputError(f"non-finite Schmidt weight in {text!r}")
    if min(values) < 0.0:
        raise CliInputError(f"negative Schmidt weight in {text!r}")
    total = 0.0
    for v in values:  # left to right: sum() is compensated from Python 3.12
        total += v
    if abs(total - 1.0) > INLINE_SUM_TOL:
        raise CliInputError(f"Schmidt weights sum to {total}, not 1 within 1e-9")
    return SchmidtVector.from_values(v / total for v in values)


def load_state_file(path: str) -> PureState:
    """Read a StateFile JSON document into a PureState.

    Schema: {"dims": [dA, dB], "amps": [[i, j, re, im], ...]} with 0-based
    indices.  Duplicate or out-of-range indices, and dims declaring more
    than MAX_AMPLITUDES amplitudes, are malformed input; a norm outside
    the 1e-6 gate is a normalization failure.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path}: invalid JSON: {exc}") from None

    try:
        dim_a, dim_b = (int(d) for d in data["dims"])
        entries = data["amps"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CliInputError(f"{path}: missing or malformed dims/amps: {exc}") from None
    if dim_a < 1 or dim_b < 1:
        raise CliInputError(f"{path}: dims must be positive")
    if dim_a * dim_b > MAX_AMPLITUDES:
        raise CliInputError(
            f"{path}: dims {dim_a}x{dim_b} exceed the limit of "
            f"{MAX_AMPLITUDES} amplitudes"
        )

    vec = np.zeros(dim_a * dim_b, dtype=np.complex128)
    seen = set()
    if not isinstance(entries, list):
        raise CliInputError(f"{path}: amps must be a list")
    for entry in entries:
        try:
            i, j, re, im = entry
            i, j = int(i), int(j)
            re, im = float(re), float(im)
        except (TypeError, ValueError) as exc:
            raise CliInputError(f"{path}: bad amplitude entry {entry!r}: {exc}") from None
        if not (0 <= i < dim_a and 0 <= j < dim_b):
            raise CliInputError(f"{path}: index ({i}, {j}) out of range")
        if (i, j) in seen:
            raise CliInputError(f"{path}: duplicate index ({i}, {j})")
        seen.add((i, j))
        vec[i * dim_b + j] = complex(re, im)
    return PureState(dim_a, dim_b, vec)  # raises NotNormalizedError beyond gate


def _schmidt_side(path, inline) -> SchmidtVector:
    if path is not None:
        return schmidt_vector(load_state_file(path))
    return parse_inline_schmidt(inline)


def cmd_analyze(args) -> int:
    sv_a = _schmidt_side(args.psi, args.schmidt_a)
    sv_b = _schmidt_side(args.phi, args.schmidt_b)
    verdict = classify(sv_a, sv_b)
    ent_a = entanglement_entropy(sv_a)
    ent_b = entanglement_entropy(sv_b)
    if args.format == "json":
        body = ", ".join(
            [
                f'"verdict": {json.dumps(str(verdict))}',
                f'"schmidt_a": {_json_vector(sv_a.probs)}',
                f'"schmidt_b": {_json_vector(sv_b.probs)}',
                f'"entropy_a": {_fmt(ent_a)}',
                f'"entropy_b": {_fmt(ent_b)}',
            ]
        )
        sys.stdout.write("{" + body + "}\n")
    else:
        row = [
            str(verdict),
            ";".join(_fmt(p) for p in sv_a.probs),
            ";".join(_fmt(p) for p in sv_b.probs),
            _fmt(ent_a),
            _fmt(ent_b),
        ]
        sys.stdout.write(
            "verdict,schmidt_a,schmidt_b,entropy_a,entropy_b\n" + ",".join(row) + "\n"
        )
    return 0


def _report_payload(block, fmt: str):
    """The report of a WitnessBlock, one CSV line or JSON object per row
    with the fields of REPORT_FIELDS, formatted straight from its arrays
    and yielded CROSS_CHECK_BLOCK rows at a time.

    Each row goes through one str.format template whose float fields use
    _fmt's format spec, so every cell reads as _fmt would write it.
    """
    number = "{:" + _FLOAT_SPEC + "}"
    cells = [number] * 7 + ["{}"] + [number] * 2 + ["{}"] * 3
    verdicts = [str(v) for v in VERDICTS]
    if fmt == "json":
        verdicts = [json.dumps(v) for v in verdicts]
        pairs = (f'"{key}": {cell}' for key, cell in zip(REPORT_FIELDS, cells))
        row = "  {{" + ", ".join(pairs) + "}}"
        head, sep, tail = "[\n", ",\n", "\n]\n"
    else:
        row = ",".join(cells)
        head, sep, tail = ",".join(REPORT_FIELDS) + "\n", "\n", "\n"
    flag = ("false", "true")
    incomparable = VERDICTS.index(Verdict.INCOMPARABLE)
    yield head
    for start in range(0, len(block.alphas), CROSS_CHECK_BLOCK):
        part = slice(start, start + CROSS_CHECK_BLOCK)
        rows = zip(
            np.column_stack(
                [block.alphas[part], block.initial[part], block.final[part]]
            ).tolist(),
            block.codes[part].tolist(),
            block.entropy_initial[part].tolist(),
            block.entropy_final[part].tolist(),
        )
        # the blocked flags are the two bits of the verdict code
        lines = [
            row.format(
                *numbers, verdicts[code], ent_i, ent_f,
                flag[code >> 1], flag[code & 1], flag[code == incomparable],
            )
            for numbers, code, ent_i, ent_f in rows
        ]
        yield (sep if start else "") + sep.join(lines)
    yield tail


def cmd_paper_verify(args) -> int:
    # the whole grid is classified and cross-checked before any output
    block = classify_block(grid(args.alpha_min, args.alpha_max, args.steps))
    payload = _report_payload(block, args.format)

    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(payload)
        except OSError as exc:
            raise WriteFailure(f"cannot write {args.out}: {exc}") from None
        summary_stream = sys.stdout
    else:
        sys.stdout.writelines(payload)
        summary_stream = sys.stderr

    verdicts = [VERDICTS[code] for code in block.codes.tolist()]
    n_inc = verdicts.count(Verdict.INCOMPARABLE)
    n_fwd = verdicts.count(Verdict.FORWARD_ONLY)
    universal = bool(block.backward_blocked.all())
    summary_stream.write(
        f"rows={len(verdicts)} incomparable={n_inc} forward_only={n_fwd} "
        f"no_deleting_universal={'true' if universal else 'false'}\n"
    )
    return 0


def cmd_threshold(args) -> int:
    result = find_threshold(args.lo, args.hi, args.tol)
    body = ", ".join(
        [
            f'"alpha_star": {_fmt(result.alpha_star)}',
            f'"bracket": [{_fmt(result.bracket[0])}, {_fmt(result.bracket[1])}]',
            f'"verdict_below": {json.dumps(str(result.verdict_below))}',
            f'"verdict_above": {json.dumps(str(result.verdict_above))}',
            f'"grid_sign_changes": {result.grid_sign_changes}',
        ]
    )
    sys.stdout.write("{" + body + "}\n")
    return 0


def cmd_show_state(args) -> int:
    pre = build_initial(QubitSpec(args.alpha))
    state = pre if args.which == "initial" else apply_cloner(pre)
    psi = expand(state, args.blank)
    sv = schmidt_vector(psi)
    amps = []
    for idx, amp in enumerate(psi.amps):
        if amp == 0:
            continue
        amps.append((idx // psi.dim_b, idx % psi.dim_b, amp.real, amp.imag))
    if args.format == "json":
        rows = ", ".join(
            f"[{i}, {j}, {_fmt(re)}, {_fmt(im)}]" for i, j, re, im in amps
        )
        body = ", ".join(
            [
                f'"dims": [{psi.dim_a}, {psi.dim_b}]',
                f'"amps": [{rows}]',
                f'"schmidt": {_json_vector(sv.probs)}',
            ]
        )
        sys.stdout.write("{" + body + "}\n")
    else:
        sys.stdout.writelines(
            ["i,j,re,im\n"]
            + [f"{i},{j},{_fmt(re)},{_fmt(im)}\n" for i, j, re, im in amps]
        )
        sys.stderr.write(
            "schmidt=" + ";".join(_fmt(p) for p in sv.probs) + "\n"
        )
    return 0


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

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotNormalizedError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (CliInputError, SweepRangeError, DegenerateOverlapError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except WriteFailure as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except NonMonotoneBoundaryError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 5
    except InternalInconsistencyError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
