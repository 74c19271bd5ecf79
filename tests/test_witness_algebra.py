"""The witness pair's algebra as a sympy proof over a symbolic overlap a.

Each side's branch Gram matrix is built from the same integer word-overlap
tensor that the numeric cross-check evaluates.  Its characteristic
polynomial over its trace equals the product of (x - lambda) over that
side's closed-form spectrum, as rational functions of a: the closed forms
are the spectra of the symbolic machines for every overlap, not only at
sampled ones.  The partial-sum gaps of the verdict then follow from two
factorizations.
"""

from __future__ import annotations

import pytest
import sympy as sp

from locc_audit import (
    QubitSpec,
    apply_cloner,
    build_initial,
    final_spectrum_values,
    initial_spectrum_values,
)
from locc_audit.construction import _gram_tensor

a, x = sp.symbols("a x")
WITNESS = build_initial(QubitSpec(0.5))  # the words do not depend on alpha
SIDES = [
    (WITNESS, initial_spectrum_values),
    (apply_cloner(WITNESS), final_spectrum_values),
]
# f2 - i1 = a^2 (1 + a) p(a) / ((3 - a^4)(3 - a^5)); p decides the forward
# verdict
P = 2 * a**6 - 2 * a**5 + 3 * a**4 - 4 * a**3 + 2 * a**2 - 6 * a + 3


def _symbolic_gram(state) -> sp.Matrix:
    tensor = _gram_tensor(state).tolist()
    return sum((a**d * sp.Matrix(c) for d, c in enumerate(tensor)), sp.zeros(3, 3))


@pytest.mark.parametrize("side", [0, 1], ids=["initial", "final"])
def test_gram_spectrum_is_the_closed_form(side):
    state, values = SIDES[side]
    gram = _symbolic_gram(state)
    rho = gram / gram.trace()
    expected = sp.prod([x - lam for lam in values(a)])
    assert sp.cancel(rho.charpoly(x).as_expr() - expected) == 0


def test_deletion_gap_is_negative_on_the_open_interval():
    # i2 = i3 is the smallest initial weight, so the two largest final
    # weights sum to at least 1 - f3 > 1 - i2 = i1 + i2 when f3 < i2: the
    # backward majorization fails.  Every factor below is positive on (0, 1).
    _, i2, _ = initial_spectrum_values(a)
    _, _, f3 = final_spectrum_values(a)
    expected = -(a**2) * (1 - a) ** 2 * (1 + a) * (a**2 + 3) / (
        (3 - a**4) * (3 - a**5)
    )
    assert sp.cancel(f3 - i2 - expected) == 0


def test_forward_boundary_polynomial_has_one_interior_root():
    i1, _, _ = initial_spectrum_values(a)
    _, f2, _ = final_spectrum_values(a)
    gap = sp.cancel(f2 - i1)
    assert sp.cancel(gap * (3 - a**4) * (3 - a**5) / (a**2 * (1 + a)) - P) == 0
    # count_roots counts the closed interval; p is nonzero at both ends
    p = sp.Poly(P, a)
    assert p.eval(0) == 3 and p.eval(1) == -2
    assert p.count_roots(0, 1) == 1
    (root,) = [r for r in p.real_roots() if 0 < r < 1]
    assert abs(sp.N(root, 30) - sp.Rational("0.52716537465516541709")) < 1e-19
