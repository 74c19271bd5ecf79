"""The three workloads: seeded inputs, and checks of every output.

Each workload builds a call list of a few cycles from its seed before
timing starts; the timed loop runs the list over and over.  Call kinds
come in fixed proportions per cycle and the seed draws their order and
their parameters, so that the latency percentiles land inside one kind of
call on every seed rather than between two.

A check returns one Failure per failed item.  A failure is `known` when
it is one of the tolerance-decided defects of ROADMAP item 3: a witness
verdict whose exact partial-sum excess lies within the 1e-10 tolerance
band, or a threshold that sits on the band's edge instead of the root.
The timed inputs stay outside that band, so no timed item fails on a
correct program; the defects are shown by `defect_probes` instead, a
few fixed inputs each run checks once, untimed.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref
from harness import Call

REPORT_FIELDS = [
    "alpha", "li1", "li2", "li3", "lf1", "lf2", "lf3", "verdict", "entropy_i",
    "entropy_f", "forward_blocked", "backward_blocked", "paper_claim_upheld",
]
SPECTRUM_TOL = 1e-12  # closed-form spectra in report rows
SCHMIDT_TOL = 1e-9  # numerically computed Schmidt vectors and entropies
AMPLITUDE_TOL = 1e-12


@dataclass
class Failure:
    call: int
    argv: list
    item: str
    reason: str
    known: bool = False
    count: int = 1  # items the failure covers


def _fmt(x: float) -> str:
    return repr(float(x))


# --- witness-sweep --------------------------------------------------------

# How near a timed window may come to 0 and to 1.  Nearer still, the
# program's tolerance decides the verdict (ROADMAP item 3): up to about
# 2.5e-5 from 0 and 1e-5 from 1.
EDGE = 1e-4


def _window(rng, kind: str) -> tuple:
    lo, hi = rng.uniform(0.01, 0.1), rng.uniform(0.9, 0.99)
    if kind == "near0":
        lo = EDGE * 10 ** rng.uniform(0, 1)
    elif kind == "near1":
        hi = 1 - EDGE * 10 ** rng.uniform(0, 1)
    return lo, hi


def witness_calls(rng, workdir: Path, cycles: int) -> list:
    """paper-verify over seeded windows; 20 calls a cycle.

    One call a cycle uses the default window (0.01 to 0.99, 99 steps); the
    others take 5, 10, ..., 95 steps, on windows that start within 1e-3 of
    0, end within 1e-3 of 1, or lie in between, but no nearer than EDGE.
    A window with a row whose verdict the tolerance could decide is drawn
    again.  Every window spans most of the unit interval, because the cost
    of a row varies with alpha by up to 1.5x; so a call's cost follows its
    steps on every seed.
    """
    calls = []
    for _ in range(cycles):
        kinds = ["near0"] * 5 + ["near1"] * 5 + ["interior"] * 9
        steps = list(range(5, 100, 5))
        rng.shuffle(steps)
        formats = ["csv", "json"] * 10
        rng.shuffle(formats)
        plan = [("default", 99)] + list(zip(kinds, steps))
        order = rng.permutation(len(plan))
        for slot, k in enumerate(order):
            kind, n = plan[k]
            lo, hi = _window(rng, kind)
            while kind != "default" and any(
                ref.tolerance_decided(*ref.witness_spectra(a))
                for a in np.linspace(lo, hi, n)
            ):
                lo, hi = _window(rng, kind)
            fmt = formats[slot]
            out = str(workdir / f"report-{len(calls)}.{fmt}")
            argv = ["paper-verify", "--format", fmt, "--out", out]
            if kind == "default":
                lo, hi = 0.01, 0.99
            else:
                argv += ["--alpha-min", _fmt(lo), "--alpha-max", _fmt(hi),
                         "--steps", str(n)]
            params = {"lo": lo, "hi": hi, "steps": n, "format": fmt}
            calls.append(Call(argv, items=n, params=params, out_path=out))
    return calls


def _parse_rows(text: str, fmt: str) -> list:
    if fmt == "csv":
        reader = csv.reader(io.StringIO(text))
        if next(reader) != REPORT_FIELDS:
            raise ValueError("CSV header is not the report schema")
        return [dict(zip(REPORT_FIELDS, row)) for row in reader]
    rows = json.loads(text)
    for row in rows:
        if list(row) != REPORT_FIELDS:
            raise ValueError("JSON row keys are not the report schema")
    return [{k: _cell(v) for k, v in row.items()} for row in rows]


def _cell(v) -> str:
    """A JSON report value as the text its CSV cell would hold."""
    if isinstance(v, bool):
        return "true" if v else "false"
    return v if isinstance(v, str) else repr(v)


def _flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"not a boolean: {text!r}")
    return text == "true"


def check_witness(index: int, call: Call, outcome) -> list:
    p = call.params
    fail = lambda item, reason, known=False: Failure(index, call.argv, item, reason, known)
    whole = lambda reason: [Failure(index, call.argv, "all rows", reason, count=call.items)]
    if outcome.exit != 0:
        return whole(f"exit {outcome.exit!r}: {outcome.stderr.strip()}")
    try:
        rows = _parse_rows(outcome.out_bytes.decode("utf-8"), p["format"])
    except (ValueError, UnicodeDecodeError) as exc:
        return whole(f"unreadable report: {exc}")
    grid = [float(a) for a in np.linspace(p["lo"], p["hi"], p["steps"])]
    if len(rows) != len(grid):
        return whole(f"{len(rows)} rows, expected {len(grid)}")
    verdicts = [row["verdict"] for row in rows]
    summary = (
        f"rows={len(rows)} incomparable={verdicts.count('Incomparable')} "
        f"forward_only={verdicts.count('ForwardOnly')} no_deleting_universal="
        f"{'true' if all(r['backward_blocked'] == 'true' for r in rows) else 'false'}\n"
    )
    if outcome.stdout != summary:
        return whole(f"summary {outcome.stdout!r} disagrees with the rows")

    failures = []
    for alpha, row, shown in zip(grid, rows, verdicts):
        item = f"alpha={alpha!r}"
        try:
            got = [float(row[k]) for k in ("alpha", "li1", "li2", "li3", "lf1", "lf2", "lf3")]
            ent = [float(row["entropy_i"]), float(row["entropy_f"])]
            flags = [_flag(row[k]) for k in
                     ("forward_blocked", "backward_blocked", "paper_claim_upheld")]
        except ValueError as exc:
            failures.append(fail(item, f"malformed row: {exc}"))
            continue
        if got[0] != alpha:
            failures.append(fail(item, f"row alpha {got[0]!r} is off the grid"))
            continue
        initial, final = ref.witness_spectra(alpha)
        spectra = [float(x) for x in initial + final]
        if max(abs(g - e) for g, e in zip(got[1:], spectra)) > SPECTRUM_TOL:
            failures.append(fail(item, f"spectra {got[1:]} != {spectra}"))
            continue
        if max(abs(ent[0] - ref.entropy(initial)), abs(ent[1] - ref.entropy(final))) > SCHMIDT_TOL:
            failures.append(fail(item, f"entropies {ent} off"))
            continue
        exact = ref.verdict(initial, final)
        expect = [ref.excess(initial, final) > 0, ref.excess(final, initial) > 0,
                  exact == "Incomparable"]
        if shown != exact or flags != expect:
            failures.append(fail(
                item,
                f"verdict {shown} flags {flags}, exact {exact} {expect}",
                known=ref.tolerance_decided(initial, final),
            ))
    return failures


# --- threshold-search -----------------------------------------------------

# The bisection lands 3.1e-10 to 3.9e-10 from the root (ROADMAP item 3),
# so a finer --tol fails on every window; DEFECT_PROBES holds such calls.
TOLERANCES = ("1e-6", "1e-7", "1e-8", "1e-9")


def threshold_calls(rng, workdir: Path, cycles: int) -> list:
    """threshold over windows; 10 calls a cycle.

    Each tolerance runs on one window of width 0.4 and one of width 0.8,
    centred on the root within 0.05; one window of width 0.2 lies wholly
    below the root and one wholly above it, with no verdict change, so they
    must exit 5.  Widths and places are held close because the scan spacing
    and the tolerance set the number of bisection steps, and the cost of
    each scan point varies with alpha by up to 1.5x.
    """
    root = ref.THRESHOLD_ROOT
    calls = []
    for _ in range(cycles):
        plan = [("cross", tol, width) for tol in TOLERANCES for width in (0.4, 0.8)]
        plan += [("below", "1e-8", 0.2), ("above", "1e-8", 0.2)]
        for k in rng.permutation(len(plan)):
            kind, tol, width = plan[k]
            if kind == "cross":
                lo = root - width / 2 + rng.uniform(-0.05, 0.05)
            elif kind == "below":
                lo = root - 0.01 - width - rng.uniform(0.0, 0.05)
            else:
                lo = root + 0.01 + rng.uniform(0.0, 0.05)
            argv = ["threshold", "--lo", _fmt(lo), "--hi", _fmt(lo + width), "--tol", tol]
            calls.append(Call(argv, params={"kind": kind, "tol": float(tol)}))
    return calls


def check_threshold(index: int, call: Call, outcome) -> list:
    p = call.params
    fail = lambda reason, known=False: [Failure(index, call.argv, "threshold", reason, known)]
    if p["kind"] != "cross":
        if outcome.exit == 5 and not outcome.stdout and outcome.stderr.startswith("error: "):
            return []
        return fail(f"window without a crossing gave exit {outcome.exit!r}, expected 5")
    if outcome.exit != 0:
        return fail(f"exit {outcome.exit!r}: {outcome.stderr.strip()}")
    try:
        got = json.loads(outcome.stdout)
        star, (a, b) = float(got["alpha_star"]), got["bracket"]
        sides = (got["verdict_below"], got["verdict_above"], got["grid_sign_changes"])
    except (ValueError, KeyError, TypeError) as exc:
        return fail(f"unreadable output {outcome.stdout!r}: {exc}")
    if sides != ("ForwardOnly", "Incomparable", 1):
        return fail(f"verdicts/changes {sides}")
    if not a <= star <= b or b - a > p["tol"]:
        return fail(f"bracket [{a!r}, {b!r}] around {star!r} is not within tol")
    dev = abs(star - ref.THRESHOLD_ROOT)
    if dev > p["tol"]:
        return fail(f"alpha_star {star!r} is {dev:.3g} from the root",
                    known=dev <= ref.THRESHOLD_BAND)
    return []


# --- state-files ----------------------------------------------------------

LIGHT = ((2, 2), (4, 4), (2, 64), (3, 32), (4, 16))
MEDIUM = ((8, 8), (16, 4), (16, 16))
# Random states per shape.  They come from this fixed seed, not the
# workload's: the eigensolver's cost varies by up to 2x between random
# 64x2 states, and a pool drawn anew for every run would move the tail
# percentile more than the bounds allow.
CORPUS_SEED = 20060606
CORPUS = {**{s: 3 for s in LIGHT}, **{s: 2 for s in MEDIUM}, (64, 2): 6, (32, 32): 2}


def _write_state(path: Path, matrix: np.ndarray):
    entries = ", ".join(
        f"[{i}, {j}, {_fmt(v.real)}, {_fmt(v.imag)}]"
        for (i, j), v in np.ndenumerate(matrix)
    )
    path.write_text(f'{{"dims": [{matrix.shape[0]}, {matrix.shape[1]}], '
                    f'"amps": [{entries}]}}\n', encoding="utf-8")


def state_calls(rng, workdir: Path, cycles: int) -> list:
    """show-state and analyze calls over StateFiles; 20 calls a cycle.

    Setup writes the CORPUS of random states.  Each cycle has 6 show-state
    calls, whose stdout is stored as a witness StateFile, and 14 analyze
    calls: 7 on light states only (two of them
    with the target given inline), 3 with one medium state (one of each
    medium shape), 3 with one 64x2 state and 1 with one 32x32 state.  The
    shapes of the heavier side are fixed per cycle because they set the
    cost of the call; a side that names a witness file uses one written
    earlier in the list.

    A side is (how, argv text, payload): ("file", path, amplitude matrix),
    ("witness", path, (alpha, which)) or ("inline", weights, None).
    """
    corpus = np.random.default_rng(CORPUS_SEED)
    generic = {}
    for shape, count in CORPUS.items():
        states = []
        for k in range(count):
            m = corpus.normal(size=shape) + 1j * corpus.normal(size=shape)
            m = m / np.linalg.norm(m)
            path = workdir / f"state-{shape[0]}x{shape[1]}-{k}.json"
            _write_state(path, m)
            states.append(("file", str(path), m))
        generic[shape] = states

    def pick(shapes):
        states = generic[shapes[rng.integers(len(shapes))]]
        return states[rng.integers(len(states))]

    # The heavier side of a call deals each state of its shape equally
    # often over the list, in seeded order.
    decks = {}
    for kind, shape in [("tail", (64, 2)), ("heavy", (32, 32))] + [
        (f"medium{k}", shape) for k, shape in enumerate(MEDIUM)
    ]:
        uses = cycles * (3 if kind == "tail" else 1)
        if uses % len(generic[shape]):
            raise ValueError(f"{uses} uses do not deal the {shape} states evenly")
        deck = generic[shape] * (uses // len(generic[shape]))
        decks[kind] = [deck[i] for i in rng.permutation(len(deck))]

    witness = []

    def light():
        if witness and rng.random() < 0.5:
            return witness[rng.integers(len(witness))]
        return pick(LIGHT)

    calls = []
    for _ in range(cycles):
        plan = (["show"] * 6 + ["light"] * 5 + ["inline"] * 2
                + [f"medium{k}" for k in range(len(MEDIUM))] + ["tail"] * 3 + ["heavy"])
        for k in rng.permutation(len(plan)):
            kind = plan[k]
            if kind == "show":
                alpha = rng.uniform(0.001, 0.999)
                which = ("initial", "final")[rng.integers(2)]
                blank = ("zero", "one", "plus")[rng.integers(3)]
                path = str(workdir / f"witness-{len(calls)}.json")
                argv = ["show-state", "--alpha", _fmt(alpha), "--which", which,
                        "--blank", blank]
                params = {"kind": "show", "alpha": alpha, "which": which, "blank": blank}
                calls.append(Call(argv, params=params, save_stdout=path))
                witness.append(("witness", path, (alpha, which)))
                continue
            if kind == "light":
                sides = [light(), light()]
            elif kind == "inline":
                weights = ",".join(_fmt(w) for w in ref.svd_schmidt(pick(LIGHT)[2]))
                sides = [light(), ("inline", weights, None)]
            else:
                sides = [decks[kind].pop(), light()]
                if rng.random() < 0.5:
                    sides.reverse()
            argv = ["analyze"]
            for flags, (how, text, _) in zip(
                (("--psi", "--schmidt-a"), ("--phi", "--schmidt-b")), sides
            ):
                argv += [flags[how == "inline"], text]
            calls.append(Call(argv, params={"kind": "analyze", "sides": sides}))
    return calls


def _side_reference(side) -> tuple:
    how, text, payload = side
    if how == "witness":
        alpha, which = payload
        initial, final = ref.witness_spectra(alpha)
        return initial if which == "initial" else final
    if how == "inline":
        return ref.exact_probs(float(w) for w in text.split(","))
    return ref.exact_probs(ref.svd_schmidt(payload))


def check_state(index: int, call: Call, outcome) -> list:
    p = call.params
    fail = lambda reason, known=False: [Failure(index, call.argv, p["kind"], reason, known)]
    if outcome.exit != 0:
        return fail(f"exit {outcome.exit!r}: {outcome.stderr.strip()}")
    try:
        got = json.loads(outcome.stdout)
    except ValueError as exc:
        return fail(f"unreadable output: {exc}")
    if p["kind"] == "show":
        return _check_show(p, got, fail)
    try:
        probs = [[float(x) for x in got[k]] for k in ("schmidt_a", "schmidt_b")]
        ents = [float(got["entropy_a"]), float(got["entropy_b"])]
        verdict = got["verdict"]
    except (KeyError, TypeError, ValueError) as exc:
        return fail(f"malformed analyze output: {exc}")
    if "refs" not in p:  # computed once, when first checked
        p["refs"] = [_side_reference(side) for side in p["sides"]]
    refs = p["refs"]
    for side, (vec, want, ent) in enumerate(zip(probs, refs, ents)):
        if len(vec) != len(want) or max(abs(g - float(w)) for g, w in zip(vec, want)) > SCHMIDT_TOL:
            return fail(f"side {side} Schmidt vector {vec} != {[float(w) for w in want]}")
        if abs(ent - ref.entropy(want)) > SCHMIDT_TOL:
            return fail(f"side {side} entropy {ent} != {ref.entropy(want)}")
    exact = ref.verdict(*refs)
    if verdict != exact:
        return fail(f"verdict {verdict}, exact {exact}", known=ref.tolerance_decided(*refs))
    return []


def _check_show(p, got, fail) -> list:
    want = ref.witness_amplitudes(p["alpha"], p["which"], p["blank"])
    try:
        if got["dims"] != [3, 32]:
            return fail(f"dims {got['dims']}")
        amps = np.zeros((3, 32), dtype=complex)
        for i, j, re, im in got["amps"]:
            amps[i, j] = complex(re, im)
        schmidt = [float(x) for x in got["schmidt"]]
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return fail(f"malformed StateFile: {exc}")
    if np.max(np.abs(amps - want)) > AMPLITUDE_TOL:
        return fail("amplitudes differ from the witness state")
    initial, final = ref.witness_spectra(p["alpha"])
    exact = initial if p["which"] == "initial" else final
    if len(schmidt) != 3 or max(abs(g - float(e)) for g, e in zip(schmidt, exact)) > SCHMIDT_TOL:
        return fail(f"schmidt {schmidt} != {[float(e) for e in exact]}")
    return []


def defect_probes(workdir: Path) -> dict:
    """Calls per workload on the inputs ROADMAP item 3 names as
    tolerance-decided defects; each fails as `known` at the seed commit.

    witness-sweep: rows at alpha = 8e-6 and 0.9999995, where the program
    reads Equivalent and BackwardOnly with backward_blocked=false.
    threshold-search: --tol 1e-10 and 1e-12, finer than the 3.1e-10 to
    3.9e-10 by which alpha_star misses the root.
    """
    out = str(workdir / "probe-report.csv")
    lo, hi = 8e-06, 0.9999995
    witness = Call(["paper-verify", "--format", "csv", "--out", out, "--alpha-min",
                    _fmt(lo), "--alpha-max", _fmt(hi), "--steps", "2"], items=2,
                   params={"lo": lo, "hi": hi, "steps": 2, "format": "csv"}, out_path=out)
    thresholds = [Call(["threshold", "--lo", "0.3", "--hi", "0.7", "--tol", tol],
                       params={"kind": "cross", "tol": float(tol)})
                  for tol in ("1e-10", "1e-12")]
    return {"witness-sweep": [witness], "threshold-search": thresholds, "state-files": []}


WORKLOADS = {
    "witness-sweep": (witness_calls, check_witness),
    "threshold-search": (threshold_calls, check_threshold),
    "state-files": (state_calls, check_state),
}


def check_all(name: str, calls, outcomes) -> list:
    """Failures of every call; a call repeated with the same outcome is
    checked once."""
    check = WORKLOADS[name][1]
    failures, seen = [], {}
    for index, (call, outcome) in enumerate(zip(calls, outcomes)):
        key = (id(call), outcome.key())
        if key not in seen:
            seen[key] = check(index, call, outcome)
        failures += seen[key]
    return failures


def items_of(calls) -> int:
    return sum(call.items for call in calls)


def entries_in(path: str) -> int:
    """Amplitude entries in a StateFile (for the load_state_file counter)."""
    try:
        return len(json.loads(Path(path).read_text(encoding="utf-8"))["amps"])
    except (OSError, ValueError, KeyError, TypeError):
        return 0

