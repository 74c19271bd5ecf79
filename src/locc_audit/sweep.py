"""Classify the witness pair across the overlap range and locate the
verdict boundary.

Every report row records whether the constructed pair is incomparable at
that overlap (the claim the construction is designed to witness) and
whether the backward, deletion-direction conversion is blocked.  Nothing
is suppressed: where the forward conversion is allowed the row says so.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construction import (
    QubitSpec,
    apply_cloner,
    build_initial,
    closed_form_final_spectrum,
    closed_form_initial_spectrum,
    expand,
)
from .majorization import (
    SchmidtVector,
    Verdict,
    classify,
    entanglement_entropy,
    is_majorized_by,
    schmidt_vector,
)

SCAN_POINTS = 64


class SweepRangeError(ValueError):
    """Sweep or threshold parameters outside the open unit interval."""


class NonMonotoneBoundaryError(RuntimeError):
    """Verdict scan found zero or multiple changes where one was required."""


class InternalInconsistencyError(RuntimeError):
    """Closed-form and numeric-expansion paths disagree on the verdict."""


@dataclass(frozen=True)
class PairReport:
    alpha: float
    initial_spectrum: SchmidtVector
    final_spectrum: SchmidtVector
    verdict: Verdict
    entropy_initial: float
    entropy_final: float
    forward_blocked: bool
    backward_blocked: bool

    @property
    def paper_claim_upheld(self) -> bool:
        return self.verdict is Verdict.INCOMPARABLE


@dataclass(frozen=True)
class ThresholdResult:
    alpha_star: float
    bracket: tuple
    verdict_below: Verdict
    verdict_above: Verdict
    grid_sign_changes: int


def classify_construction(alpha, *, cross_check: bool = True) -> PairReport:
    """Full convertibility report for the witness pair at one overlap.

    The verdict comes from the closed-form spectra; with cross_check the
    numeric route (expand the words to amplitudes, take the singular values
    of the 3 x dim_b amplitude matrix) must yield the same verdict or
    InternalInconsistencyError is raised.
    """
    qubit = QubitSpec(alpha)
    initial = closed_form_initial_spectrum(qubit)
    final = closed_form_final_spectrum(qubit)
    verdict = classify(initial, final)
    if cross_check:
        pre = build_initial(qubit)
        numeric_initial = schmidt_vector(expand(pre))
        numeric_final = schmidt_vector(expand(apply_cloner(pre)))
        numeric_verdict = classify(numeric_initial, numeric_final)
        if numeric_verdict is not verdict:
            raise InternalInconsistencyError(
                f"alpha={float(alpha)}: closed form says {verdict}, "
                f"numeric expansion says {numeric_verdict}"
            )
    return PairReport(
        alpha=float(alpha),
        initial_spectrum=initial,
        final_spectrum=final,
        verdict=verdict,
        entropy_initial=entanglement_entropy(initial),
        entropy_final=entanglement_entropy(final),
        forward_blocked=not is_majorized_by(initial, final),
        backward_blocked=not is_majorized_by(final, initial),
    )


def grid(alpha_min: float, alpha_max: float, steps: int) -> list:
    if not (0.0 < alpha_min < alpha_max < 1.0):
        raise SweepRangeError(
            f"need 0 < alpha_min < alpha_max < 1, got [{alpha_min}, {alpha_max}]"
        )
    if steps < 2:
        raise SweepRangeError(f"need at least 2 grid points, got {steps}")
    return [float(x) for x in np.linspace(alpha_min, alpha_max, steps)]


def sweep(alpha_min: float, alpha_max: float, steps: int) -> list:
    """Reports on a uniform inclusive grid, ordered by alpha."""
    return [classify_construction(a) for a in grid(alpha_min, alpha_max, steps)]


def find_threshold(lo: float, hi: float, tol: float) -> ThresholdResult:
    """Bisect the single verdict change of the witness pair inside [lo, hi].

    A preliminary scan must see exactly one change between adjacent points;
    zero or several raise NonMonotoneBoundaryError rather than guessing.
    """
    if not (0.0 < lo < hi < 1.0):
        raise SweepRangeError(f"need 0 < lo < hi < 1, got [{lo}, {hi}]")
    if not tol > 0.0:
        raise SweepRangeError(f"tolerance must be positive, got {tol}")

    points = [float(x) for x in np.linspace(lo, hi, SCAN_POINTS)]
    verdicts = [classify_construction(a).verdict for a in points]
    changes = [
        i for i in range(len(points) - 1) if verdicts[i] is not verdicts[i + 1]
    ]
    if len(changes) != 1:
        raise NonMonotoneBoundaryError(
            f"expected exactly one verdict change on [{lo}, {hi}], "
            f"found {len(changes)}"
        )
    i = changes[0]
    a, b = points[i], points[i + 1]
    verdict_below, verdict_above = verdicts[i], verdicts[i + 1]
    while b - a > tol:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:  # float resolution exhausted
            break
        if classify_construction(mid).verdict is verdict_below:
            a = mid
        else:
            b = mid
    return ThresholdResult(
        alpha_star=0.5 * (a + b),
        bracket=(a, b),
        verdict_below=verdict_below,
        verdict_above=verdict_above,
        grid_sign_changes=len(changes),
    )


def no_deleting_check(alpha) -> bool:
    """True when the backward (deletion-direction) conversion is blocked."""
    qubit = QubitSpec(alpha)
    initial = closed_form_initial_spectrum(qubit)
    final = closed_form_final_spectrum(qubit)
    return not is_majorized_by(final, initial)


REPORT_FIELDS = (
    "alpha",
    "li1",
    "li2",
    "li3",
    "lf1",
    "lf2",
    "lf3",
    "verdict",
    "entropy_i",
    "entropy_f",
    "forward_blocked",
    "backward_blocked",
    "paper_claim_upheld",
)


def report_row(report: PairReport) -> dict:
    """Flatten a PairReport into the report row schema."""
    li = report.initial_spectrum.probs
    lf = report.final_spectrum.probs
    return {
        "alpha": report.alpha,
        "li1": li[0],
        "li2": li[1],
        "li3": li[2],
        "lf1": lf[0],
        "lf2": lf[1],
        "lf3": lf[2],
        "verdict": str(report.verdict),
        "entropy_i": report.entropy_initial,
        "entropy_f": report.entropy_final,
        "forward_blocked": report.forward_blocked,
        "backward_blocked": report.backward_blocked,
        "paper_claim_upheld": report.paper_claim_upheld,
    }
