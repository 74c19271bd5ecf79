"""Reference answers the benchmark checks the program's outputs against.

Nothing here imports locc_audit.  The witness spectra are evaluated in
exact Fraction arithmetic from the construction's closed forms, written out
again here; majorization is decided on exact partial sums with no
tolerance; witness amplitudes are built from the branch words by a product
over basis-index bits; generic Schmidt vectors come from numpy's SVD.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Unique root in (0, 1) of 2a^6 - 2a^5 + 3a^4 - 4a^3 + 2a^2 - 6a + 3: the
# exact boundary between ForwardOnly (below) and Incomparable (above) for
# the witness pair.  Checked against sympy in the self-test.
THRESHOLD_POLY = (2, -2, 3, -4, 2, -6, 3)  # highest degree first
THRESHOLD_ROOT = 0.527165374655165417

# A verdict the program decides with its 1e-10 absolute tolerance can
# differ from the exact one only when the exact partial-sum excess lies
# within that band (ROADMAP item 3).  The slack covers float rounding.
TOLERANCE_BAND = 2e-10
# The threshold bisection converges onto the edge of that band, not onto
# the root; the edge lies about 3.2e-10 above the root.
THRESHOLD_BAND = 1e-9

WORDS = (  # (alice level, sign, word) of the pre-cloning witness state
    (0, +1, "ZPZP"),
    (0, +1, "PZPZ"),
    (1, +1, "ZPPZ"),
    (1, -1, "PZZP"),
    (2, +1, "ZZPP"),
    (2, -1, "PPZZ"),
)
BLANKS = {
    "zero": (1.0, 0.0),
    "one": (0.0, 1.0),
    "plus": (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
}


def witness_spectra(alpha) -> tuple:
    """Exact descending spectra (initial, final) of the witness pair."""
    a = Fraction(alpha)
    a2, a3, a4, a5 = a**2, a**3, a**4, a**5
    initial = ((1 + a4) / (3 - a4), (1 - a4) / (3 - a4), (1 - a4) / (3 - a4))
    final = (
        (1 + a5) / (3 - a5),
        (1 + a2) * (1 - a3) / (3 - a5),
        (1 - a2) * (1 + a3) / (3 - a5),
    )
    return tuple(sorted(initial, reverse=True)), tuple(sorted(final, reverse=True))


def excess(x, y) -> Fraction:
    """Largest partial-sum excess of x over y; x converts to y iff <= 0."""
    n = max(len(x), len(y))
    x = list(x) + [Fraction(0)] * (n - len(x))
    y = list(y) + [Fraction(0)] * (n - len(y))
    run = Fraction(0)
    worst = None
    for p, q in zip(x, y):
        run += p - q
        worst = run if worst is None else max(worst, run)
    return worst


def verdict(x, y) -> str:
    forward = excess(x, y) <= 0
    backward = excess(y, x) <= 0
    if forward and backward:
        return "Equivalent"
    if forward:
        return "ForwardOnly"
    if backward:
        return "BackwardOnly"
    return "Incomparable"


def tolerance_decided(x, y) -> bool:
    """Whether a tolerance of TOLERANCE_BAND could flip the verdict of x, y."""
    return any(0 < excess(p, q) <= TOLERANCE_BAND for p, q in ((x, y), (y, x)))


def exact_probs(values) -> tuple:
    """Floats as exact Fractions, rescaled to sum to exactly 1, descending."""
    fr = [Fraction(float(v)) for v in values]
    total = sum(fr)
    return tuple(sorted((v / total for v in fr), reverse=True))


def entropy(probs) -> float:
    return -sum(float(p) * math.log2(float(p)) for p in probs if p > 1e-12)


def witness_amplitudes(alpha: float, which: str, blank: str) -> np.ndarray:
    """Normalized 3 x 32 amplitude matrix of a witness state.

    Bob's register is five qubits, most significant first: the four word
    symbols and the blank before cloning, the five cloned symbols after.
    """
    beta = math.sqrt(max(0.0, 1.0 - alpha * alpha))
    qubit = {"Z": (1.0, 0.0), "P": (alpha, beta)}
    amps = np.zeros((3, 32))
    for level, sign, word in WORDS:
        if which == "final":
            factors = [qubit[s] for s in word + word[3]]
        else:
            factors = [qubit[s] for s in word] + [BLANKS[blank]]
        for idx in range(32):
            bits = [(idx >> (4 - k)) & 1 for k in range(5)]
            amps[level, idx] += sign * math.prod(f[b] for f, b in zip(factors, bits))
    return amps / np.linalg.norm(amps)


def svd_schmidt(matrix) -> list:
    """Descending squared singular values: the Schmidt vector."""
    s = np.linalg.svd(np.asarray(matrix), compute_uv=False)
    return [float(x) for x in s**2]
