"""Schmidt vectors and deterministic-LOCC convertibility classification.

A bipartite pure state converts to another with certainty under local
operations and classical communication exactly when its Schmidt vector is
majorized by the target's: every partial sum of the descending-sorted
source weights stays below the corresponding target partial sum.  On top
of that single test this module builds the four-way verdict for a pair
(equivalent, one-way in either direction, or incomparable) and the closed
three-level shortcut that reads incomparability off the largest and
smallest weights alone.  A Schmidt vector is the descending tuple of its
finite float weights; every function here also takes any iterable of
numbers (the majorization test sorts them, the shortcut requires them
sorted), and a NaN or infinite weight raises ValueError.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

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


def _weights(v) -> tuple:
    weights = tuple(map(float, v))
    if not all(map(math.isfinite, weights)):
        bad = next(w for w in weights if not math.isfinite(w))
        raise ValueError(f"Schmidt weights must be finite, got {bad}")
    return weights


def schmidt_vector(amps) -> tuple:
    """Schmidt vector of a bipartite pure state, given as its dim_a x dim_b
    amplitude matrix.

    The Schmidt coefficients are the singular values of that matrix
    (LAPACK SVD, either side may be the smaller, returned descending), so
    the weights are their squares over their sum: min(dim_a, dim_b) of
    them, never negative, and already a Schmidt vector.  The matrix passes
    no gate here: linalg.normalized is the one norm gate.
    """
    s = np.linalg.svd(amps, compute_uv=False)
    weights = s * s
    return tuple((weights / weights.sum()).tolist())


def entanglement_entropy(sv) -> float:
    """Entropy of entanglement in bits: -sum p log2 p, with 0 log 0 := 0."""
    total = 0.0
    for p in _weights(sv):
        if p > _ZERO_CLAMP:
            total -= p * math.log2(p)
    return total


def entropy_rows(values) -> np.ndarray:
    """entanglement_entropy along the last axis of an (..., k) array of
    weights, giving an (...) array.

    One weight column at a time: the logarithms come from math.log2 and the
    columns are subtracted left to right, so every entropy is the double
    the scalar function gives, and the temporaries stay a column's size.
    """
    vals = np.asarray(values, dtype=np.float64)
    total = np.zeros(vals.shape[:-1])
    for column in np.moveaxis(vals, -1, 0):
        kept = column > _ZERO_CLAMP
        terms = column[kept]  # a copy: each weight p becomes p log2 p in place
        terms *= np.fromiter(map(math.log2, terms), np.float64, terms.size)
        total[kept] -= terms
    return total


def is_majorized_by(a, b) -> bool:
    """Whether every partial sum of a stays within ATOL below b's.

    True means the state carrying Schmidt vector a converts to the one
    carrying b deterministically.  Each side is sorted descending first
    and the shorter one zero-padded.
    """
    pa = sorted(_weights(a), reverse=True)
    pb = sorted(_weights(b), reverse=True)
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
    a, b = _weights(a), _weights(b)  # each read once: either may be an iterator
    return VERDICTS[2 * (not is_majorized_by(a, b)) + (not is_majorized_by(b, a))]


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
