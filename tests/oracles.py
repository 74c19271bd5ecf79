"""Independent reference implementations used only to check the library.

Everything here is exact.  The majorization oracle compares partial sums
of Fractions with no tolerance at all; the reduced-density oracle builds
the full 3 x 32 amplitude matrix with sympy and traces out the second
subsystem by an explicit matrix product, so it shares no code path with
the word-overlap Gram shortcut in the package.  The one floating-point
reference, the np.kron chain expansion, fixes the exact bits the numeric
amplitudes must keep.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import sympy as sp

from locc_audit import INITIAL_TERMS


def exact_classify(a, b) -> str:
    """Four-way LOCC verdict from exact partial sums.

    a, b: probability vectors as Fractions, descending, summing to 1.
    """
    fwd = _exact_majorized(a, b)
    bwd = _exact_majorized(b, a)
    if fwd and bwd:
        return "Equivalent"
    if fwd:
        return "ForwardOnly"
    if bwd:
        return "BackwardOnly"
    return "Incomparable"


def _exact_majorized(a, b) -> bool:
    # a is majorized by b: every partial sum of a stays <= that of b
    d = max(len(a), len(b))
    pa = list(a) + [Fraction(0)] * (d - len(a))
    pb = list(b) + [Fraction(0)] * (d - len(b))
    run_a = Fraction(0)
    run_b = Fraction(0)
    for x, y in zip(pa, pb):
        run_a += x
        run_b += y
        if run_a > run_b:
            return False
    return True


def _qubit(symbol: str, alpha: sp.Rational):
    if symbol == "Z":
        return sp.Matrix([1, 0])
    if symbol == "P":
        return sp.Matrix([alpha, sp.sqrt(1 - alpha**2)])
    raise ValueError(f"unknown symbol {symbol!r}")


def sympy_reduced_density(terms, has_blank: bool, alpha: Fraction) -> sp.Matrix:
    """Exact normalized 3x3 reduced state via full tensor expansion.

    terms: iterable of (level, sign, word) with Alice levels in {1, 2, 3}.
    The blank register, when present, is |0>.
    """
    a = sp.Rational(alpha.numerator, alpha.denominator)
    width = 2 ** (len(terms[0][2]) + (1 if has_blank else 0))
    amps = sp.zeros(3, width)
    for level, sign, word in terms:
        branch = sp.Matrix([1])
        for ch in word:
            branch = sp.Matrix(sp.kronecker_product(branch, _qubit(ch, a)))
        if has_blank:
            branch = sp.Matrix(sp.kronecker_product(branch, sp.Matrix([1, 0])))
        amps[level - 1, :] += sign * branch.T
    rho = sp.expand(amps * amps.T)
    return sp.expand(rho / sp.trace(rho))


def sympy_spectrum(rho: sp.Matrix) -> list:
    """Descending exact eigenvalues of a rational sympy matrix as Fractions."""
    eigs = []
    for value, mult in rho.eigenvals().items():
        value = sp.nsimplify(value)
        eigs.extend([Fraction(int(value.p), int(value.q))] * int(mult))
    return sorted(eigs, reverse=True)


def fraction_matrix(rho: sp.Matrix):
    """3x3 nested list of Fractions from a rational sympy matrix."""
    out = []
    for i in range(rho.rows):
        row = []
        for j in range(rho.cols):
            v = sp.nsimplify(rho[i, j])
            row.append(Fraction(int(v.p), int(v.q)))
        out.append(row)
    return out


def kron_chain_expansion(state, blank) -> np.ndarray:
    """Unnormalized amplitudes of a SymbolicState by a chain of np.kron.

    Each branch word is expanded symbol by symbol, left to right, starting
    from [1], then the blank 2-vector while the state still carries it,
    and the signed words are summed per Alice level in term order.
    """
    alpha = float(state.alpha)
    beta = math.sqrt(max(0.0, 1.0 - alpha * alpha))
    symbol_vecs = {
        "Z": np.array([1.0, 0.0], dtype=np.complex128),
        "P": np.array([alpha, beta], dtype=np.complex128),
    }
    width = 2 ** (len(state.words[0]) + (1 if state.has_blank else 0))
    amps = np.zeros((3, width), dtype=np.complex128)
    for (level, sign, _), word in zip(INITIAL_TERMS, state.words):
        vec = np.array([1.0], dtype=np.complex128)
        for sym in word:
            vec = np.kron(vec, symbol_vecs[sym])
        if state.has_blank:
            vec = np.kron(vec, np.asarray(blank, dtype=np.complex128))
        amps[level - 1] += sign * vec
    return amps.reshape(-1)
