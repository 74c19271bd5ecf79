"""Symbolic construction of the cloning/deleting witness pair.

The no-cloning and no-deleting audits both run on one six-particle state:
Alice holds a qutrit, Bob holds four qubits entangled with it plus a spare
"blank" qubit.  Each Alice level is paired with a signed two-word branch
over the alphabet {Z, P}, where Z stands for |0> and P for the overlap
qubit |psi> = alpha |0> + beta |1>:

    level 1:  + Z P Z P   + P Z P Z
    level 2:  + Z P P Z   - P Z Z P
    level 3:  + Z Z P P   - P P Z Z

A hypothetical exact cloner (|0>|b> -> |0>|0>, |psi>|b> -> |psi>|psi>)
acting on Bob's fourth qubit and the blank duplicates the fourth symbol of
every word; the matching exact deleter (|00> -> |0>|b>, |psi psi> ->
|psi>|b>) removes the copy again.  Both machines are word substitutions
on Bob's branch words, the only domain where they are defined, so a state
is its six words and their overlap alpha (beta follows from it): word k
keeps the level and sign of INITIAL_TERMS[k], and 4-letter words still
carry the blank.

Because every pairwise overlap of branch words is a power of alpha, the
3x3 reduced state on Alice's side has entries polynomial in alpha and is
computed exactly when alpha is a Fraction.  The closed-form spectra:

    initial:  (1 + a^4) / (3 - a^4),  (1 - a^4) / (3 - a^4)  twice
    final:    (1 + a^5) / (3 - a^5),
              (1 + a^2)(1 - a^3) / (3 - a^5),
              (1 - a^2)(1 + a^3) / (3 - a^5)

with squared pre-normalization norms 2(3 - a^4) and 2(3 - a^5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from numbers import Real

import numpy as np

from .linalg import DensityMatrix, PureState

ZERO_SYMBOL = "Z"
PSI_SYMBOL = "P"

# (Alice level, sign, word) rows of the pre-cloning state; the blank qubit
# is held separately and appended on expansion.
INITIAL_TERMS = (
    (1, +1, "ZPZP"),
    (1, +1, "PZPZ"),
    (2, +1, "ZPPZ"),
    (2, -1, "PZZP"),
    (3, +1, "ZZPP"),
    (3, -1, "PPZZ"),
)

BLANK_CHOICES = {
    "zero": (1.0, 0.0),
    "one": (0.0, 1.0),
    "plus": (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
}


class DegenerateOverlapError(ValueError):
    """Overlap alpha is 0 or 1: the two machine inputs coincide or are
    orthogonal and the witness construction collapses."""


class MissingBlankError(ValueError):
    """Cloner applied to a state that no longer carries its blank qubit."""


class MachineDomainError(ValueError):
    """Deleter applied outside its domain of doubled last symbols."""


@dataclass(frozen=True)
class SymbolicState:
    """Six branch words over {Z, P} and the overlap alpha they are read at.

    Word k carries the Alice level and sign of INITIAL_TERMS[k].  The words
    share one length: 4 while the blank qubit is still attached, 5 after
    cloning consumed it.  Any iterable of words is stored as a tuple.
    alpha is kept as given, a float or a Fraction (which keeps the overlap
    algebra exact), in [0, 1]: only the state builders reject 0 and 1.
    """

    words: tuple
    alpha: object

    def __post_init__(self):
        _require_unit(self.alpha)
        words = tuple(self.words)
        object.__setattr__(self, "words", words)
        if len(words) != len(INITIAL_TERMS):
            raise ValueError(f"a state has six branch words, got {len(words)}")
        for w in words:
            if not isinstance(w, str) or w.strip(ZERO_SYMBOL + PSI_SYMBOL):
                raise ValueError(f"branch word must be a string over {{Z, P}}, got {w!r}")
        if {len(w) for w in words} not in ({4}, {5}):
            raise ValueError(f"branch words must share one length, 4 or 5, got {words}")

    @property
    def has_blank(self) -> bool:
        return len(self.words[0]) == 4


def build_initial(alpha) -> SymbolicState:
    """The pre-cloning witness state for a strictly interior overlap."""
    require_interior(alpha)
    return SymbolicState(words=[w for _, _, w in INITIAL_TERMS], alpha=alpha)


def apply_cloner(state: SymbolicState) -> SymbolicState:
    """Duplicate the fourth symbol of every word, consuming the blank."""
    if not state.has_blank:
        raise MissingBlankError("cloner needs the blank qubit, already consumed")
    return SymbolicState(words=[w + w[3] for w in state.words], alpha=state.alpha)


def apply_deleter(state: SymbolicState) -> SymbolicState:
    """Remove the doubled last symbol of every word, releasing a blank.

    Only defined where the last two symbols agree (inputs |00> or
    |psi psi>); anything else raises MachineDomainError.  Exact inverse of
    apply_cloner at the word level.
    """
    if state.has_blank:
        raise MachineDomainError("deleter needs a 5-symbol state without blank")
    for w in state.words:
        if w[-1] != w[-2]:
            raise MachineDomainError(
                f"deleter undefined on word {w!r}: last two symbols differ"
            )
    return SymbolicState(words=[w[:-1] for w in state.words], alpha=state.alpha)


def blank_state(choice: str) -> np.ndarray:
    """The blank qubit's amplitude pair, by its name in BLANK_CHOICES."""
    try:
        return np.asarray(BLANK_CHOICES[choice], dtype=np.complex128)
    except (KeyError, TypeError):  # TypeError: an unhashable non-name
        raise ValueError(f"unknown blank state {choice!r}") from None


def raw_expansion(state: SymbolicState, blank="zero") -> np.ndarray:
    """Unnormalized numeric amplitudes, row-major in (Alice, Bob) index.

    Each branch word's vector is the outer product of its symbol vectors,
    taken left to right over all six words at once; the signed words are
    then added into the three levels in term order.  The squared norm of
    the result is the construction normalizer 2(3 - alpha^4) with the
    blank attached, 2(3 - alpha^5) after cloning.
    """
    blank_vector = blank_state(blank)  # checked even once cloning consumed it
    a = float(state.alpha)
    psi = (a, math.sqrt(max(0.0, 1.0 - a * a)))
    symbols = {ZERO_SYMBOL: (1.0, 0.0), PSI_SYMBOL: psi}
    tail = [blank_vector] if state.has_blank else []
    rows = [[symbols[c] for c in w] + tail for w in state.words]
    factors = np.array(rows, dtype=np.complex128)  # (6, L, 2)
    words = factors[:, 0]
    for k in range(1, factors.shape[1]):
        words = (words[..., None] * factors[:, None, k]).reshape(6, 2 ** (k + 1))
    amps = np.zeros((3, words.shape[-1]), dtype=np.complex128)
    for (level, sign, _), word in zip(INITIAL_TERMS, words):
        amps[level - 1] += sign * word
    return amps.reshape(-1)


def expand(state: SymbolicState, blank="zero") -> PureState:
    """Numeric 3 x 32 pure state realizing the symbolic construction."""
    raw = raw_expansion(state, blank)
    dim_b = raw.size // 3
    return PureState(3, dim_b, raw / np.linalg.norm(raw))


def _gram_tensor(state: SymbolicState) -> np.ndarray:
    """Integer (L + 1, 3, 3) tensor C of the branch words, L their length.

    Two words overlap by alpha to the number of places where they differ,
    so C[d, j, k] sums the sign products of the level j + 1 and level k + 1
    word pairs that differ in d places, and the branch Gram matrix is the
    sum over d of alpha^d C[d].  The blank is shared by every word and
    drops out.
    """
    rows = [(lvl - 1, sign, w) for (lvl, sign, _), w in zip(INITIAL_TERMS, state.words)]
    tensor = np.zeros((len(state.words[0]) + 1, 3, 3), dtype=np.int64)
    for j, s, w in rows:
        for k, t, u in rows:
            tensor[sum(x != y for x, y in zip(w, u)), j, k] += s * t
    return tensor


def _gram_sum(tensor, alpha):
    """The sum over d of alpha^d tensor[d], in the arithmetic of alpha:
    exact for a Fraction, one matrix per overlap for an (n, 1, 1) array.
    The powers are running products, so an overlap gives the same doubles
    alone or stacked."""
    gram, power = 0, 1
    for c in tensor:
        gram = gram + power * c
        power = power * alpha
    return gram


def branch_gram(state: SymbolicState):
    """Unnormalized 3x3 Gram matrix of the level branch vectors.

    Entry [j][k] is <B_k|B_j>, the word-overlap tensor of the state
    evaluated at its overlap, so it is exact (Fraction-valued) whenever
    the overlap alpha is a Fraction.
    """
    return _gram_sum(_gram_tensor(state), state.alpha).tolist()


def witness_gram(alphas) -> np.ndarray:
    """Unnormalized (n, 2, 3, 3) branch Gram matrices of the witness pair.

    Row k holds branch_gram of build_initial(alphas[k]) and of its cloned
    image, as doubles, bit for bit: the pre-cloning tensor is padded with
    a zero layer, which adds a zero.  The overlaps are not checked.
    """
    a = np.asarray(alphas, dtype=np.float64).reshape(-1, 1, 1, 1)
    return _gram_sum(_WITNESS_GRAMS, a)


def normalizer(state: SymbolicState):
    """Squared pre-normalization norm: the trace of the branch Gram matrix."""
    gram = branch_gram(state)
    return gram[0][0] + gram[1][1] + gram[2][2]


def gram_reduced_density(state: SymbolicState) -> DensityMatrix:
    """Alice's reduced density matrix from symbolic overlaps alone: the
    branch Gram matrix over its trace.

    Matches partial_trace_b of the numeric expansion within 1e-12 for any
    blank choice, since the blank drops out of every overlap.
    """
    norm = normalizer(state)
    entries = [[float(g / norm) for g in row] for row in branch_gram(state)]
    return DensityMatrix(3, np.array(entries, dtype=np.complex128))


def initial_spectrum_values(alpha):
    """Closed-form reduced-state spectrum before cloning, unsorted.

    Returns ((1+a^4)/(3-a^4), (1-a^4)/(3-a^4), (1-a^4)/(3-a^4)) in the
    arithmetic of alpha (exact for Fractions).
    """
    return _initial_formula(alpha**4)


def final_spectrum_values(alpha):
    """Closed-form reduced-state spectrum after cloning, unsorted.

    Returns ((1+a^5)/(3-a^5), (1+a^2)(1-a^3)/(3-a^5),
    (1-a^2)(1+a^3)/(3-a^5)) in the arithmetic of alpha.
    """
    return _final_formula(alpha**2, alpha**3, alpha**5)


# The closed forms on given powers of alpha: Fractions, floats, or the
# arrays of closed_form_rows, so the scalar and array routes share them.
def _initial_formula(a4):
    lam2 = (1 - a4) / (3 - a4)
    return ((1 + a4) / (3 - a4), lam2, lam2)


def _final_formula(a2, a3, a5):
    den = 3 - a5
    return ((1 + a5) / den, (1 + a2) * (1 - a3) / den, (1 - a2) * (1 + a3) / den)


def closed_form_rows(alphas) -> np.ndarray:
    """(n, 2, 3) descending closed-form weights of the witness pair.

    Row k holds closed_form_initial_spectrum and closed_form_final_spectrum
    of the double alphas[k], bit for bit, from one array pass: the powers
    come from math.pow, the C pow that float ** int calls (numpy's ** may
    round differently: a * a for a square, a SIMD pow on some CPUs), and
    the formulas above run on them in numpy's correctly rounded + - * /.
    The overlaps are not checked.
    """
    alphas = list(alphas)
    a2, a3, a4, a5 = (
        np.fromiter(map(math.pow, alphas, repeat(k)), np.float64, len(alphas))
        for k in (2.0, 3.0, 4.0, 5.0)
    )
    values = np.array([_initial_formula(a4), _final_formula(a2, a3, a5)])
    return np.sort(values.transpose(2, 0, 1))[..., ::-1]


def closed_form_initial_spectrum(alpha) -> tuple:
    """Descending Schmidt vector of the pre-cloning state from closed form
    (weights positive on (0, 1): sorted, not gated as input)."""
    require_interior(alpha)
    values = map(float, initial_spectrum_values(alpha))
    return tuple(sorted(values, reverse=True))


def closed_form_final_spectrum(alpha) -> tuple:
    """Descending Schmidt vector of the post-cloning state from closed form."""
    require_interior(alpha)
    values = map(float, final_spectrum_values(alpha))
    return tuple(sorted(values, reverse=True))


def _require_unit(alpha) -> float:
    """The overlap gate: alpha, a real number such as a float or a
    Fraction (not text), lies in [0, 1]."""
    if not isinstance(alpha, Real):
        raise ValueError(f"alpha must be a real number, got {alpha!r}")
    a = float(alpha)
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return a


def require_interior(alpha):
    """The overlap gate of the builders and closed forms: alpha passes
    the [0, 1] gate, then DegenerateOverlapError rejects 0 and 1."""
    a = _require_unit(alpha)
    if a <= 0.0 or a >= 1.0:
        raise DegenerateOverlapError(
            f"overlap alpha={a} is degenerate: need 0 < alpha < 1"
        )


# Word-overlap tensors of the witness pair, stacked (6, 2, 3, 3), read from
# the symbolic machines once: the words do not depend on the overlap, so any
# interior one serves.  The pre-cloning words are one letter shorter.
_WITNESS_PRE = build_initial(0.5)
_WITNESS_GRAMS = np.stack([
    np.concatenate([_gram_tensor(_WITNESS_PRE), np.zeros((1, 3, 3), np.int64)]),
    _gram_tensor(apply_cloner(_WITNESS_PRE)),
], axis=1)
