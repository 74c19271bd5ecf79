"""Closed-loop runner for in-process CLI calls.

One client: each `cli.main(argv)` call starts only after the previous one
returned.  A call's outcome is its exit code (or the uncaught exception),
its captured stdout and stderr, and the bytes of the report file it was
asked to write.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

MODULES = ("cli", "sweep", "construction", "majorization", "linalg")

TRACED = (
    "cli.main",
    "cli.load_state_file",
    "cli.parse_inline_schmidt",
    "sweep.sweep",
    "sweep.find_threshold",
    "sweep.classify_construction",
    "sweep.report_row",
    "construction.build_initial",
    "construction.apply_cloner",
    "construction.expand",
    "construction.raw_expansion",
    "construction.closed_form_initial_spectrum",
    "construction.closed_form_final_spectrum",
    "majorization.schmidt_vector",
    "majorization.classify",
    "majorization.is_majorized_by",
    "majorization.entanglement_entropy",
    "linalg.partial_trace_b",
    "linalg.hermitian_eigs",
    "linalg.kron",
)


class ProgramMissing(ImportError):
    """The checkout holds no locc_audit sources to benchmark."""


def load_program(root: Path) -> dict:
    """Import the package's five modules from `root`/src, and only there."""
    src = (root / "src").resolve()
    if not (src / "locc_audit" / "cli.py").is_file():
        raise ProgramMissing(f"no locc_audit sources under {src}")
    sys.path.insert(0, str(src))
    modules = {}
    for name in MODULES:
        module = importlib.import_module(f"locc_audit.{name}")
        if src not in Path(module.__file__).resolve().parents:
            raise ProgramMissing(f"locc_audit.{name} loaded from {module.__file__}")
        modules[name] = module
    return modules


@dataclass
class Call:
    """One CLI invocation and what its check needs to know about it."""

    argv: list
    items: int = 1
    params: dict = field(default_factory=dict)
    out_path: str = None  # report file the call writes
    save_stdout: str = None  # file the harness stores the call's stdout in


@dataclass
class Outcome:
    exit: object  # int exit code, or "SystemExit(...)" / traceback text
    stdout: str
    stderr: str
    out_bytes: bytes

    def key(self) -> tuple:
        """Everything a user sees: compared between traced and untraced runs."""
        return (self.exit, self.stdout, self.stderr, self.out_bytes)


def invoke(cli, call: Call) -> tuple:
    """Run one call; catch whatever escapes main() so the loop continues.

    Returns (outcome, seconds the call took).
    """
    if call.out_path is not None:  # so a report the call did not write reads empty
        Path(call.out_path).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(call.argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code!r})"
        except Exception:  # an uncaught error is a failed item, not a crash
            code = traceback.format_exc()
        seconds = perf_counter() - start
    out_bytes = b""
    if call.out_path is not None:
        with contextlib.suppress(OSError):
            out_bytes = Path(call.out_path).read_bytes()
    if call.save_stdout is not None:
        Path(call.save_stdout).write_text(out.getvalue(), encoding="utf-8")
    return Outcome(code, out.getvalue(), err.getvalue(), out_bytes), seconds


def run_loop(cli, calls, seconds: float) -> tuple:
    """Run `calls` in order, from the start again when the list ends, until
    `seconds` have passed and the list has run whole at least once.

    A repeated call whose outcome equals its first one shares that outcome
    object, so the harness holds one copy of each distinct output however
    many calls a run makes.  Returns (calls run, their outcomes, their
    latencies in seconds, wall seconds of each whole pass over the list).
    """
    ran, outcomes, latencies, first = [], [], [], {}
    stamps = [perf_counter()]  # at the start of each pass
    while perf_counter() - stamps[0] < seconds or len(ran) < len(calls):
        call = calls[len(ran) % len(calls)]
        outcome, took = invoke(cli, call)
        known = first.setdefault(id(call), outcome)
        ran.append(call)
        outcomes.append(known if known.key() == outcome.key() else outcome)
        latencies.append(took)
        if len(ran) % len(calls) == 0:
            stamps.append(perf_counter())
    passes = [b - a for a, b in zip(stamps, stamps[1:])]
    return ran, outcomes, latencies, passes


def replay(cli, calls, on_call=None) -> tuple:
    """Run exactly `calls`, in order, calling `on_call` before each one.

    Returns (outcomes, elapsed seconds).
    """
    outcomes = []
    start = perf_counter()
    for call in calls:
        if on_call is not None:
            on_call()
        outcomes.append(invoke(cli, call)[0])
    return outcomes, perf_counter() - start
