"""Classify the witness pair across the overlap range and locate the
verdict boundary.

Every report row records whether the constructed pair is incomparable at
that overlap (the claim the construction is designed to witness) and
whether the backward, deletion-direction conversion is blocked.  Nothing
is suppressed: where the forward conversion is allowed the row says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .construction import (
    QubitSpec,
    closed_form_initial_spectrum,
    final_spectrum_values,
    initial_spectrum_values,
    witness_gram,
)
from .majorization import (
    VERDICTS,
    SchmidtVector,
    Verdict,
    classify,
    classify_rows,
    entropy_rows,
    schmidt_rows,
)

SCAN_POINTS = 64
# Largest grid a sweep accepts; checked before the grid is allocated.
MAX_STEPS = 1 << 20
# Overlaps cross-checked per stack of Gram matrices: bounds the
# temporaries whatever the grid size.
CROSS_CHECK_BLOCK = 1024
# Largest gap the cross-check allows between a closed-form weight and the
# numeric route's.  Over 210,000 alphas from 1e-320 to 1 - 1e-16 the gap
# peaks at 4.4e-16 (near alpha = 0.98): a margin above 1000.
ROUTE_GAP = 1e-12


class SweepRangeError(ValueError):
    """Sweep or threshold parameters outside the open unit interval."""


class NonMonotoneBoundaryError(RuntimeError):
    """Verdict scan found zero or multiple changes where one was required."""


class InternalInconsistencyError(RuntimeError):
    """Closed-form and branch-Gram weights differ beyond ROUTE_GAP."""


@dataclass(frozen=True)
class PairReport:
    alpha: float
    initial_spectrum: SchmidtVector
    final_spectrum: SchmidtVector
    verdict: Verdict
    entropy_initial: float
    entropy_final: float

    @property
    def forward_blocked(self) -> bool:
        return VERDICTS.index(self.verdict) >= 2

    @property
    def backward_blocked(self) -> bool:
        return VERDICTS.index(self.verdict) % 2 == 1

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


@dataclass(frozen=True)
class WitnessBlock:
    """Closed-form reports of the witness pair at n overlaps, as arrays.

    Row k holds what the PairReport of alphas[k] holds: the descending
    initial and final weights, the verdict as a code into VERDICTS, and
    both entropies.  The blocked flags are the two bits of the code.
    """

    alphas: list
    initial: np.ndarray
    final: np.ndarray
    codes: np.ndarray
    entropy_initial: np.ndarray
    entropy_final: np.ndarray

    @property
    def forward_blocked(self) -> np.ndarray:
        return self.codes >= 2

    @property
    def backward_blocked(self) -> np.ndarray:
        return self.codes % 2 == 1

    def reports(self) -> list:
        return [
            PairReport(
                alpha=alpha,
                initial_spectrum=SchmidtVector(tuple(li)),
                final_spectrum=SchmidtVector(tuple(lf)),
                verdict=VERDICTS[code],
                entropy_initial=ent_i,
                entropy_final=ent_f,
            )
            for alpha, li, lf, code, ent_i, ent_f in zip(
                self.alphas,
                self.initial.tolist(),
                self.final.tolist(),
                self.codes.tolist(),
                self.entropy_initial.tolist(),
                self.entropy_final.tolist(),
            )
        ]


def classify_construction(alpha) -> PairReport:
    """Full convertibility report for the witness pair at one overlap.

    The verdict comes from the closed-form spectra; the numeric route
    (the eigenvalues of Alice's 3 x 3 branch Gram matrix, read from the
    machines' words, over their sum) must give the same weights within
    ROUTE_GAP or InternalInconsistencyError is raised.
    """
    return classify_block([alpha]).reports()[0]


def classify_block(alphas) -> WitnessBlock:
    """The witness pair at a list of overlaps, classified as one block.

    Each row comes from the closed-form spectra of its overlap alone; the
    whole list then goes through the numeric route as stacked Gram
    matrices (see _cross_check).
    """
    block = _witness_block(alphas)
    _cross_check(block.alphas, block.initial, block.final)
    return block


def _witness_block(alphas) -> WitnessBlock:
    """Closed-form rows for a list of overlaps.

    The six spectrum values of each overlap are scalar Python arithmetic
    (numpy's vectorized powers and log2 may round differently); the weight
    checks, the sort, both majorization tests and the entropies then run
    on (n, 3) arrays and give every row's doubles bit for bit.
    """
    alphas = list(alphas)
    floats = []
    for alpha in alphas:
        a = float(alpha)
        if not 0.0 < a < 1.0:
            # the scalar route raises the [0, 1] or degenerate-overlap error
            closed_form_initial_spectrum(QubitSpec(alpha))
        floats.append(a)
    initial = _spectrum_rows(initial_spectrum_values, alphas)
    final = _spectrum_rows(final_spectrum_values, alphas)
    return WitnessBlock(
        alphas=floats,
        initial=initial,
        final=final,
        codes=classify_rows(initial, final),
        entropy_initial=entropy_rows(initial),
        entropy_final=entropy_rows(final),
    )


def _spectrum_rows(values, alphas) -> np.ndarray:
    flat = np.fromiter((v for a in alphas for v in values(a)), np.float64, 3 * len(alphas))
    return schmidt_rows(flat.reshape(-1, 3))


def _cross_check(alphas, initial, final):
    """Recompute every overlap's weights by the numeric route.

    The witness pair's branch Gram matrices are reduced to Schmidt
    weights for CROSS_CHECK_BLOCK overlaps at a time.  The first overlap,
    in list order, where a descending numeric weight differs from the
    closed-form one (the (n, 3) rows of initial and final) by more than
    ROUTE_GAP raises InternalInconsistencyError.  Weights, not verdicts,
    are compared: near the tolerance edge two verdicts from weights an
    ulp apart may differ, though both routes agree.
    """
    for start in range(0, len(alphas), CROSS_CHECK_BLOCK):
        chunk = alphas[start:start + CROSS_CHECK_BLOCK]
        part = slice(start, start + len(chunk))
        gap = np.maximum(
            np.abs(_numeric_spectra(chunk, cloned=False) - initial[part]),
            np.abs(_numeric_spectra(chunk, cloned=True) - final[part]),
        ).max(axis=1)
        off = ~(gap <= ROUTE_GAP)
        if off.any():
            k = int(np.argmax(off))
            raise InternalInconsistencyError(
                f"alpha={chunk[k]}: closed-form and numeric weights differ "
                f"by {gap[k]:.3g}, more than {ROUTE_GAP:g}"
            )


def _numeric_spectra(alphas, *, cloned: bool) -> np.ndarray:
    """(n, 3) Schmidt weights of the witness state at each overlap: the
    eigenvalues of its branch Gram matrix over their sum, descending."""
    weights = np.linalg.eigvalsh(witness_gram(alphas, cloned=cloned))
    return (weights / weights.sum(axis=1, keepdims=True))[:, ::-1]


def grid(alpha_min: float, alpha_max: float, steps: int) -> list:
    if not (0.0 < alpha_min < alpha_max < 1.0):
        raise SweepRangeError(
            f"need 0 < alpha_min < alpha_max < 1, got [{alpha_min}, {alpha_max}]"
        )
    if steps < 2:
        raise SweepRangeError(f"need at least 2 grid points, got {steps}")
    if steps > MAX_STEPS:
        raise SweepRangeError(f"at most {MAX_STEPS} grid points, got {steps}")
    return [float(x) for x in np.linspace(alpha_min, alpha_max, steps)]


def sweep(alpha_min: float, alpha_max: float, steps: int) -> list:
    """Reports on a uniform inclusive grid, ordered by alpha."""
    return classify_block(grid(alpha_min, alpha_max, steps)).reports()


def find_threshold(lo: float, hi: float, tol: float) -> ThresholdResult:
    """Bisect the single verdict change of the witness pair inside [lo, hi].

    A preliminary scan must see exactly one change between adjacent points;
    zero or several raise NonMonotoneBoundaryError rather than guessing.
    The bisection steps on closed-form verdicts; the weights of its
    midpoints are cross-checked together once it ends.
    """
    if not (0.0 < lo < hi < 1.0):
        raise SweepRangeError(f"need 0 < lo < hi < 1, got [{lo}, {hi}]")
    if not tol > 0.0:
        raise SweepRangeError(f"tolerance must be positive, got {tol}")
    if not math.isfinite(tol):
        raise SweepRangeError(f"tolerance must be finite, got {tol}")

    points = [float(x) for x in np.linspace(lo, hi, SCAN_POINTS)]
    codes = classify_block(points).codes
    changes = np.flatnonzero(codes[1:] != codes[:-1])
    if len(changes) != 1:
        raise NonMonotoneBoundaryError(
            f"expected exactly one verdict change on [{lo}, {hi}], "
            f"found {len(changes)}"
        )
    i = int(changes[0])
    a, b = points[i], points[i + 1]
    verdict_below, verdict_above = VERDICTS[codes[i]], VERDICTS[codes[i + 1]]
    midpoints, initial, final = [], [], []
    while b - a > tol:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:  # float resolution exhausted
            break
        initial.append(SchmidtVector.from_values(initial_spectrum_values(mid)).probs)
        final.append(SchmidtVector.from_values(final_spectrum_values(mid)).probs)
        midpoints.append(mid)
        if classify(initial[-1], final[-1]) is verdict_below:
            a = mid
        else:
            b = mid
    _cross_check(midpoints, np.reshape(initial, (-1, 3)), np.reshape(final, (-1, 3)))
    return ThresholdResult(
        alpha_star=0.5 * (a + b),
        bracket=(a, b),
        verdict_below=verdict_below,
        verdict_above=verdict_above,
        grid_sign_changes=len(changes),
    )


def no_deleting_check(alpha) -> bool:
    """True when the backward (deletion-direction) conversion is blocked."""
    return classify_construction(alpha).backward_blocked


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
    return dict(zip(REPORT_FIELDS, (
        report.alpha,
        *report.initial_spectrum.probs,
        *report.final_spectrum.probs,
        str(report.verdict),
        report.entropy_initial,
        report.entropy_final,
        report.forward_blocked,
        report.backward_blocked,
        report.paper_claim_upheld,
    )))
