"""The witness block, bit for bit against the scalar route.

The report path classifies whole lists of overlaps as (n, 3) arrays.  Every
double it produces (weights, entropies) must be exactly what
closed_form_*_spectrum and entanglement_entropy give for one pair, and its
entropies what the scalar gives on any descending triple, including ties,
zeros and negatives.  Its verdicts follow the exact rule (sweep.R), which the
scalar 1e-10-tolerance classify agrees with everywhere outside the tolerance
band.
"""

from __future__ import annotations

import math

import numpy as np

from locc_audit import (
    Verdict,
    classify,
    closed_form_final_spectrum,
    closed_form_initial_spectrum,
    entanglement_entropy,
)
import locc_audit.construction as construction_module
import locc_audit.majorization as majorization_module
import locc_audit.sweep as sweep_module
from locc_audit import cli
from locc_audit.majorization import VERDICTS, entropy_rows

# tolerance-edge and band overlaps named in the project's history
EDGE_ALPHAS = [8e-6, 0.5271653750094808, 0.9999995]


def _bits(rows) -> bytes:
    return np.asarray(rows, dtype=np.float64).tobytes()


def _random_alphas(seed: int, n: int) -> list:
    """Uniform overlaps plus log-uniform ones crowding both endpoints."""
    rng = np.random.default_rng(seed)
    third = n // 3
    near = 10.0 ** rng.uniform(-9, -1, size=third)
    alphas = np.concatenate([rng.uniform(0.0, 1.0, n - 2 * third), near, 1.0 - near])
    alphas = [float(a) for a in alphas if 0.0 < a < 1.0]
    return alphas + EDGE_ALPHAS


def _in_tolerance_band(alpha: float) -> bool:
    """Overlaps where a partial-sum gap of the exact spectra lies within
    about ATOL of zero, so the tolerance verdict may differ from the exact
    one: the backward gap near 0 (about alpha^2 / 3) and near 1 (about
    2 (1 - alpha)^2), and the forward gap near R."""
    return alpha < 1.74e-5 or alpha > 1 - 7.1e-6 or abs(alpha - sweep_module.R) < 1e-9


def test_closed_form_block_matches_scalar_route():
    alphas = _random_alphas(6001, 100_000)
    block = sweep_module.classify_block(alphas)
    initial, final, tolerance_codes, ent_i, ent_f = [], [], [], [], []
    for alpha in alphas:
        li = closed_form_initial_spectrum(alpha)
        lf = closed_form_final_spectrum(alpha)
        initial.append(li)
        final.append(lf)
        tolerance_codes.append(VERDICTS.index(classify(li, lf)))
        ent_i.append(entanglement_entropy(li))
        ent_f.append(entanglement_entropy(lf))
    codes = [1 + 2 * (alpha >= sweep_module.R) for alpha in alphas]
    assert block.alphas.tolist() == alphas
    assert _bits(block.initial) == _bits(initial)
    assert _bits(block.final) == _bits(final)
    assert block.incomparable.tolist() == [c == 3 for c in codes]
    assert _bits(block.entropy_initial) == _bits(ent_i)
    assert _bits(block.entropy_final) == _bits(ent_f)
    # the tolerance route differs from the exact rule only inside the band,
    # and the random overlaps reach the band at both ends
    differ = [a for a, c, t in zip(alphas, codes, tolerance_codes) if c != t]
    assert all(_in_tolerance_band(a) for a in differ)
    assert min(differ) < 1e-5 and max(differ) > 1 - 1e-5
    # the overlaps named in the project's history: the band's low edge
    # (Equivalent by tolerance), the midpoint where the routes once split,
    # and the band's high edge (BackwardOnly by tolerance)
    edge = sweep_module.classify_block(EDGE_ALPHAS)
    assert edge.incomparable.tolist() == [False, True, True]
    assert [VERDICTS[c] for c in tolerance_codes[-3:]] == [
        Verdict.EQUIVALENT, Verdict.INCOMPARABLE, Verdict.BACKWARD_ONLY,
    ]


# Overlaps where numpy's ** on an array rounds a power differently from the
# C pow that float ** int calls, and the difference reaches a printed
# weight: a ** 2 is a multiply (0.42672114373024106 moves lf3), and on a
# CPU with AVX-512 the SIMD pow of a ** 3, ** 4 and ** 5 differs by an
# ulp at the others.  0.04097352393619469 is one where the SIMD a ** 4
# differs but no weight moves.  The ** 3 to ** 5 cases can only fail on a
# CPU with AVX-512.
POW_SPLIT_ALPHAS = {
    2: [0.42672114373024106, 0.9083301217185581],
    3: [0.8452249817012268],
    4: [0.04097352393619469, 0.7002440577845749],
    5: [0.8946977936861454],
}


def test_block_powers_are_the_scalar_pow():
    alphas = [a for split in POW_SPLIT_ALPHAS.values() for a in split]
    rows = construction_module.closed_form_rows(alphas)
    block = sweep_module.classify_block(alphas)
    for alpha, row, li, lf in zip(alphas, rows, block.initial, block.final):
        want_i = closed_form_initial_spectrum(alpha)
        want_f = closed_form_final_spectrum(alpha)
        assert _bits(row) == _bits([want_i, want_f]), alpha
        assert _bits(li) == _bits(want_i) and _bits(lf) == _bits(want_f), alpha


# Each triple's left-to-right sum and its exactly rounded sum fall on
# opposite sides of parse_inline_schmidt's 1e-9 gate: the first is inside
# it left to right, the other two outside.
GATE_SPLIT_TRIPLES = [
    [0.18088054490054023, 0.441365823944026, 0.37775363015543373],
    [0.401487477299289, 0.12508417350012688, 0.47342835020058405],
    [0.3100119987660067, 0.47409749019875885, 0.21589051003523446],
]


def _parse_outcome(values):
    try:
        return cli.parse_inline_schmidt(",".join(map(repr, values)))
    except ValueError as exc:
        return str(exc)


def _left_to_right_outcome(values):
    total = (values[0] + values[1]) + values[2]
    # the exactly rounded sum falls on the other side of the gate
    tol = cli.INLINE_SUM_TOL
    assert (abs(math.fsum(values) - 1.0) > tol) != (abs(total - 1.0) > tol)
    if abs(total - 1.0) > tol:
        return f"Schmidt weights sum to {total}, not 1 within 1e-9"
    return tuple(sorted((v / total for v in values), reverse=True))


def test_sums_run_left_to_right_whatever_builtin_sum_does(monkeypatch, capsys):
    # Python 3.12's sum() of floats is compensated; shadowing sum with
    # math.fsum must change neither the gate nor any printed weight.
    argv = ["analyze", "--schmidt-a", "0.6,0.3,0.1", "--schmidt-b", "1"]
    assert cli.main(argv) == 0
    expected_cli = capsys.readouterr().out
    expected = [_left_to_right_outcome(v) for v in GATE_SPLIT_TRIPLES]
    assert [isinstance(e, str) for e in expected] == [False, True, True]
    assert [_parse_outcome(v) for v in GATE_SPLIT_TRIPLES] == expected
    for module in (cli, majorization_module):
        monkeypatch.setattr(module, "sum", math.fsum, raising=False)
    assert [_parse_outcome(v) for v in GATE_SPLIT_TRIPLES] == expected
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected_cli


def _triples(seed: int, n: int) -> list:
    """Descending triples with ties, signed zeros, tiny and larger
    negatives, and sums on both sides of 1."""
    rng = np.random.default_rng(seed)
    pool = [0.0, -0.0, -1e-13, -1e-12, -2e-12, 1e-12, 2e-12, 0.5, 0.25, 1 / 3,
            0.2, 0.3, 0.125, 1e-11]
    rows = []
    for _ in range(n):
        a, b = (pool[i] if rng.random() < 0.6 else float(rng.uniform(0, 0.6))
                for i in rng.integers(len(pool), size=2))
        c = 1.0 - a - b
        kind = rng.integers(6)
        if kind == 0:
            row = [a, a, 1.0 - 2 * a]  # tie
        elif kind == 1:
            row = [a, c, b]
        elif kind == 2:
            row = [c, b, a + float(rng.choice([0.0, 0.9e-10, 1.1e-10, -1.1e-10]))]
        else:
            row = [a, b, c]
        rows.append(sorted(row, reverse=True))
    return rows


def test_entropy_rows_match_scalar_entropy():
    rows = np.array(_triples(6007, 8000))
    expected = [entanglement_entropy(r) for r in rows.tolist()]
    assert _bits(entropy_rows(rows)) == _bits(expected)
