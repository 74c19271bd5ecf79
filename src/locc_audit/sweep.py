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

from .construction import closed_form_rows, require_interior, witness_gram
from .majorization import Verdict, entropy_rows

# The witness pair's exact verdict boundary (Nielsen's majorization
# criterion on the closed-form spectra): the smallest double above the one
# root in (0, 1) of p(a) = 2a^6 - 2a^5 + 3a^4 - 4a^3 + 2a^2 - 6a + 3, the
# factor of the closed forms' forward gap whose sign changes there.  The
# pair is Incomparable at alpha >= R and ForwardOnly below it; p, the
# signs of the other gaps and R itself are proved in
# tests/test_witness_algebra.py.
R = 0.5271653746551654
# The witness pair's verdict below R, and at or above it.
WITNESS_VERDICTS = (Verdict.FORWARD_ONLY, Verdict.INCOMPARABLE)
# The deletion direction is blocked at every overlap in (0, 1), so an
# exact deleter would beat LOCC there: the closed forms' backward gaps are
# negative on all of it, proved in tests/test_witness_algebra.py.
NO_DELETING = True
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
    """Verdict scan found no change where one was required."""


class InternalInconsistencyError(RuntimeError):
    """Closed-form and branch-Gram weights differ beyond ROUTE_GAP."""


@dataclass(frozen=True)
class PairReport:
    alpha: float
    initial_spectrum: tuple
    final_spectrum: tuple
    verdict: Verdict
    entropy_initial: float
    entropy_final: float

    @property
    def forward_blocked(self) -> bool:
        return self.verdict is Verdict.INCOMPARABLE

    @property
    def backward_blocked(self) -> bool:
        return NO_DELETING

    @property
    def paper_claim_upheld(self) -> bool:
        return self.verdict is Verdict.INCOMPARABLE


@dataclass(frozen=True)
class ThresholdResult:
    alpha_star: float
    bracket: tuple


@dataclass(frozen=True)
class WitnessBlock:
    """Closed-form reports of the witness pair at n overlaps, as arrays.

    Row k holds what the PairReport of alphas[k] holds: the overlap as a
    double, the descending initial and final weights, whether the pair is
    incomparable there (alpha >= R; ForwardOnly otherwise), and both
    entropies.
    """

    alphas: np.ndarray
    initial: np.ndarray
    final: np.ndarray
    incomparable: np.ndarray
    entropy_initial: np.ndarray
    entropy_final: np.ndarray

    def reports(self) -> list:
        return [
            PairReport(
                alpha=alpha,
                initial_spectrum=tuple(li),
                final_spectrum=tuple(lf),
                verdict=WITNESS_VERDICTS[incomparable],
                entropy_initial=ent_i,
                entropy_final=ent_f,
            )
            for alpha, li, lf, incomparable, ent_i, ent_f in zip(
                self.alphas.tolist(),
                self.initial.tolist(),
                self.final.tolist(),
                self.incomparable.tolist(),
                self.entropy_initial.tolist(),
                self.entropy_final.tolist(),
            )
        ]


def classify_construction(alpha) -> PairReport:
    """Full convertibility report for the witness pair at one overlap.

    The spectra come from the closed forms and the verdict from the
    overlap's side of R; the numeric route
    (the eigenvalues of Alice's 3 x 3 branch Gram matrix, read from the
    machines' words, over their sum) must give the same weights within
    ROUTE_GAP or InternalInconsistencyError is raised.
    """
    return classify_block([alpha]).reports()[0]


def classify_block(alphas) -> WitnessBlock:
    """The witness pair at a list of overlaps, classified as one block.

    Each row holds the cross-checked closed-form spectra of its overlap
    alone (see _checked_spectra), the verdict of the overlap's side of R,
    and the entropies of its weights.
    """
    doubles, initial, final = _checked_spectra(alphas)
    return WitnessBlock(
        alphas=doubles,
        initial=initial,
        final=final,
        incomparable=doubles >= R,
        entropy_initial=entropy_rows(initial),
        entropy_final=entropy_rows(final),
    )


def _checked_spectra(alphas) -> tuple:
    """The overlaps as doubles and their (n, 3) descending closed-form
    initial and final weights, held to the numeric route.

    The first overlap, in list order, that is not a real number or lies
    outside (0, 1) raises the scalar gate's error.  Then, CROSS_CHECK_BLOCK
    overlaps at a time, the closed-form rows of the doubles
    (closed_form_rows, bit for bit the scalar closed forms) are held to
    the Schmidt weights of the branch Gram matrices of both states, from
    one stacked eigensolve; the first overlap, in list order, where a
    numeric weight differs from the closed-form one by more than ROUTE_GAP
    raises InternalInconsistencyError.  Weights, not verdicts, are
    compared: the verdicts come from R alone.
    """
    alphas = list(alphas)
    if not all(issubclass(kind, float) for kind in set(map(type, alphas))):
        for alpha in alphas:  # a non-number stops here, in list order
            require_interior(alpha)
    doubles = np.array(alphas, dtype=np.float64)
    outside = ~((doubles > 0.0) & (doubles < 1.0))
    if outside.any():
        require_interior(alphas[int(np.argmax(outside))])
    spectra = np.empty((len(doubles), 2, 3))
    for start in range(0, len(doubles), CROSS_CHECK_BLOCK):
        rows = slice(start, start + CROSS_CHECK_BLOCK)
        chunk = doubles[rows]
        closed = spectra[rows] = closed_form_rows(chunk.tolist())
        gap = np.abs(_numeric_spectra(chunk) - closed).max(axis=(1, 2))
        off = ~(gap <= ROUTE_GAP)
        if off.any():
            k = int(np.argmax(off))
            raise InternalInconsistencyError(
                f"alpha={float(chunk[k])}: closed-form and numeric weights differ "
                f"by {gap[k]:.3g}, more than {ROUTE_GAP:g}"
            )
    return doubles, spectra[:, 0], spectra[:, 1]


def _numeric_spectra(alphas) -> np.ndarray:
    """(n, 2, 3) Schmidt weights of the witness pair at each overlap: the
    eigenvalues of each state's branch Gram matrix over their sum,
    descending."""
    weights = np.linalg.eigvalsh(witness_gram(alphas))
    return (weights / weights.sum(axis=-1, keepdims=True))[..., ::-1]


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

    A preliminary scan must see the change between adjacent points; a scan
    without it raises NonMonotoneBoundaryError rather than guessing.  The
    bisection steps on the side of R, so alpha_star lands within tol of
    the root (or, below the spacing of doubles, between R and its
    predecessor).  The closed-form weights of the scan points and then of
    the midpoints are cross-checked together once it ends, before a scan
    without the change is reported.
    """
    if not (0.0 < lo < hi < 1.0):
        raise SweepRangeError(f"need 0 < lo < hi < 1, got [{lo}, {hi}]")
    if not tol > 0.0:
        raise SweepRangeError(f"tolerance must be positive, got {tol}")
    if not math.isfinite(tol):
        raise SweepRangeError(f"tolerance must be finite, got {tol}")

    points = [float(x) for x in np.linspace(lo, hi, SCAN_POINTS)]
    # the verdict is monotone in alpha: it changes once on the scan when
    # R lies in (points[0], points[-1]], between the pair around it
    crossing = points[0] < R <= points[-1]
    midpoints = []
    if crossing:
        i = int(np.searchsorted(points, R))
        a, b = points[i - 1], points[i]
        while b - a > tol:
            mid = 0.5 * (a + b)
            if mid <= a or mid >= b:  # float resolution exhausted
                break
            midpoints.append(mid)
            if mid < R:
                a = mid
            else:
                b = mid
    _checked_spectra(points + midpoints)
    if not crossing:
        raise NonMonotoneBoundaryError(
            f"expected exactly one verdict change on [{lo}, {hi}], found 0"
        )
    return ThresholdResult(alpha_star=0.5 * (a + b), bracket=(a, b))


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
        *report.initial_spectrum,
        *report.final_spectrum,
        str(report.verdict),
        report.entropy_initial,
        report.entropy_final,
        report.forward_blocked,
        report.backward_blocked,
        report.paper_claim_upheld,
    )))
