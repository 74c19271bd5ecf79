"""Schmidt vectors and deterministic-LOCC convertibility classification.

A bipartite pure state converts to another with certainty under local
operations and classical communication exactly when its Schmidt vector is
majorized by the target's: every partial sum of the descending-sorted
source weights stays below the corresponding target partial sum.  On top
of that single test this module builds the four-way verdict for a pair
(equivalent, one-way in either direction, or incomparable) and the closed
three-level shortcut that reads incomparability off the largest and
smallest weights alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import PureState

# All comparisons of near-equal Schmidt weights are absolute: the values
# live in [0, 1], where a relative tolerance misbehaves near zero.
ATOL = 1e-10

_ZERO_CLAMP = 1e-12


class FastPathInapplicable(ValueError):
    """Triple shortcut precondition (strict order, strict positivity) fails."""


class Verdict(Enum):
    EQUIVALENT = "Equivalent"
    FORWARD_ONLY = "ForwardOnly"
    BACKWARD_ONLY = "BackwardOnly"
    INCOMPARABLE = "Incomparable"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class SchmidtVector:
    """Descending probability vector of squared Schmidt coefficients."""

    probs: tuple

    @classmethod
    def from_values(cls, values) -> "SchmidtVector":
        vals = [float(x) for x in values]
        if not vals:
            raise ValueError("Schmidt vector must be non-empty")
        if min(vals) < -_ZERO_CLAMP:
            raise ValueError(f"negative Schmidt weight {min(vals)}")
        vals = [0.0 if v < 0.0 else v for v in vals]
        total = 0.0
        for v in vals:  # left to right: sum() is compensated from Python 3.12
            total += v
        if abs(total - 1.0) > ATOL:
            raise ValueError(f"Schmidt weights sum to {total}, not 1 within 1e-10")
        return cls(tuple(sorted(vals, reverse=True)))

    def __len__(self) -> int:
        return len(self.probs)


def _weights(v) -> tuple:
    if isinstance(v, SchmidtVector):
        return v.probs
    return tuple(float(x) for x in v)


def schmidt_vector(state: PureState) -> SchmidtVector:
    """Schmidt vector of a bipartite pure state.

    The Schmidt coefficients are the singular values of the dim_a x dim_b
    amplitude matrix (LAPACK SVD, either side may be the smaller), so the
    weights are their squares: min(dim_a, dim_b) of them, never negative,
    rescaled to sum to 1.
    """
    amps = state.amps.reshape(1, state.dim_a, state.dim_b)
    return SchmidtVector.from_values(_svd_weights(amps)[0].tolist())


def _svd_weights(amps) -> np.ndarray:
    s = np.linalg.svd(amps, compute_uv=False)
    weights = s * s
    weights /= weights.sum(axis=-1, keepdims=True)
    return weights


def schmidt_rows(values) -> np.ndarray:
    """SchmidtVector.from_values applied to every row of an (n, k) array.

    Each row is checked for negative weights, clamped at zero and gated on
    its sum, taken left to right over the unsorted values as from_values
    does, then sorted descending, keeping tied entries in their input
    order as sorted() does.  The first offending row raises from_values'
    error.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.shape[1] == 0 and len(vals):
        raise ValueError("Schmidt vector must be non-empty")
    lowest = vals.min(axis=1, initial=np.inf)
    vals = np.where(vals < 0.0, 0.0, vals)
    total = np.zeros(len(vals))
    for column in vals.T:
        total += column
    negative = lowest < -_ZERO_CLAMP
    bad = negative | (np.abs(total - 1.0) > ATOL)
    if bad.any():
        k = int(np.argmax(bad))
        if negative[k]:
            raise ValueError(f"negative Schmidt weight {float(lowest[k])}")
        raise ValueError(
            f"Schmidt weights sum to {float(total[k])}, not 1 within 1e-10"
        )
    # a stable ascending sort of the negated rows; negating twice is exact
    return -np.sort(-vals, axis=1, kind="stable")


def entanglement_entropy(sv) -> float:
    """Entropy of entanglement in bits: -sum p log2 p, with 0 log 0 := 0."""
    total = 0.0
    for p in _weights(sv):
        if p > _ZERO_CLAMP:
            total -= p * math.log2(p)
    return total


def entropy_rows(values) -> np.ndarray:
    """entanglement_entropy of each row of an (n, k) array of weights.

    The logarithms come from math.log2 and each row's terms are subtracted
    left to right, so every entropy is the double the scalar function gives.
    """
    vals = np.asarray(values, dtype=np.float64)
    kept = vals > _ZERO_CLAMP
    flat = np.where(kept, vals, 1.0).ravel()
    logs = np.fromiter(map(math.log2, flat), np.float64, flat.size).reshape(vals.shape)
    terms = np.where(kept, vals * logs, 0.0)
    total = np.zeros(len(vals))
    for column in terms.T:
        total -= column
    return total


def is_majorized_by(a, b) -> bool:
    """Whether every partial sum of a stays within ATOL below b's.

    True means the state carrying Schmidt vector a converts to the one
    carrying b deterministically.  The shorter vector is zero-padded.
    """
    pa = list(_weights(a))
    pb = list(_weights(b))
    n = max(len(pa), len(pb))
    pa += [0.0] * (n - len(pa))
    pb += [0.0] * (n - len(pb))
    run_a = 0.0
    run_b = 0.0
    for x, y in zip(pa, pb):
        run_a += x
        run_b += y
        if run_a > run_b + ATOL:
            return False
    return True


# Verdict codes index this tuple: 2 * (forward blocked) + (backward blocked).
VERDICTS = (
    Verdict.EQUIVALENT,
    Verdict.FORWARD_ONLY,
    Verdict.BACKWARD_ONLY,
    Verdict.INCOMPARABLE,
)


def classify(a, b) -> Verdict:
    """Four-way convertibility verdict for a pair of Schmidt vectors."""
    return VERDICTS[2 * (not is_majorized_by(a, b)) + (not is_majorized_by(b, a))]


def majorized_rows(a, b) -> np.ndarray:
    """is_majorized_by for each row pair of two (n, k) arrays of weights.

    The running sums are cumsum rows, accumulated left to right as the
    scalar loop does, so every comparison sees the same doubles.
    """
    return ~(np.cumsum(a, axis=1) > np.cumsum(b, axis=1) + ATOL).any(axis=1)


def classify_rows(a, b) -> np.ndarray:
    """classify for each row pair, as (n,) integer codes into VERDICTS."""
    forward_blocked = ~majorized_rows(a, b)
    backward_blocked = ~majorized_rows(b, a)
    return 2 * forward_blocked.astype(np.int64) + backward_blocked


def incomparable_fast_path_d3(a, b) -> bool:
    """Incomparability of two strictly ordered positive triples.

    For triples with a1 > a2 > a3 > 0 the pair is incomparable exactly when
    one vector has both the larger head and the larger tail:
    (a1 > b1 and a3 > b3) or (b1 > a1 and b3 > a3).  Ties or zeros raise
    FastPathInapplicable; callers then fall back to classify().
    """
    pa = _weights(a)
    pb = _weights(b)
    for name, p in (("a", pa), ("b", pb)):
        if len(p) != 3:
            raise FastPathInapplicable(f"{name} is not a triple")
        if not (p[0] > p[1] > p[2] > 0.0):
            raise FastPathInapplicable(f"{name} is not strictly decreasing and positive")
    return (pa[0] > pb[0] and pa[2] > pb[2]) or (pb[0] > pa[0] and pb[2] > pa[2])
