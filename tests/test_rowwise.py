"""Row-wise majorization and the witness block, bit for bit against the
scalar route.

The report path classifies whole lists of overlaps as (n, 3) arrays.  Every
double it produces (weights, entropies) and every verdict and blocked flag
must be exactly what SchmidtVector.from_values, classify, is_majorized_by
and entanglement_entropy give for one pair, including on the edge of the
1e-10 tolerance band and on ties, zeros and clamped negatives.
"""

from __future__ import annotations

import importlib
import math
import re

import numpy as np
import pytest

from locc_audit import (
    QubitSpec,
    SchmidtVector,
    apply_cloner,
    build_initial,
    classify,
    entanglement_entropy,
    expand,
    final_spectrum_values,
    initial_spectrum_values,
    is_majorized_by,
)
from locc_audit import cli
from locc_audit.majorization import (
    ATOL,
    VERDICTS,
    classify_rows,
    entropy_rows,
    majorized_rows,
    schmidt_rows,
)

sweep_module = importlib.import_module("locc_audit.sweep")
majorization_module = importlib.import_module("locc_audit.majorization")

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


def _assert_rows_match_scalar(initial, final):
    """classify_rows and majorized_rows against the scalar functions."""
    codes = classify_rows(initial, final).tolist()
    forward = majorized_rows(initial, final).tolist()
    backward = majorized_rows(final, initial).tolist()
    for k, (li, lf) in enumerate(zip(initial.tolist(), final.tolist())):
        assert VERDICTS[codes[k]] is classify(li, lf)
        assert forward[k] is is_majorized_by(li, lf)
        assert backward[k] is is_majorized_by(lf, li)


def test_closed_form_block_matches_scalar_route():
    alphas = _random_alphas(6001, 100_000)
    block = sweep_module._witness_block(alphas)
    initial, final, codes, ent_i, ent_f = [], [], [], [], []
    for alpha in alphas:
        li = SchmidtVector.from_values(initial_spectrum_values(alpha))
        lf = SchmidtVector.from_values(final_spectrum_values(alpha))
        initial.append(li.probs)
        final.append(lf.probs)
        codes.append(VERDICTS.index(classify(li, lf)))
        ent_i.append(entanglement_entropy(li))
        ent_f.append(entanglement_entropy(lf))
        assert (not is_majorized_by(li, lf)) == (codes[-1] >= 2)
        assert (not is_majorized_by(lf, li)) == (codes[-1] % 2 == 1)
    assert block.alphas == alphas
    assert _bits(block.initial) == _bits(initial)
    assert _bits(block.final) == _bits(final)
    assert block.codes.tolist() == codes
    assert block.forward_blocked.tolist() == [c >= 2 for c in codes]
    assert block.backward_blocked.tolist() == [c % 2 == 1 for c in codes]
    assert _bits(block.entropy_initial) == _bits(ent_i)
    assert _bits(block.entropy_final) == _bits(ent_f)
    # the band edges below 1.73e-5 and above 1 - 7e-6 are reached
    assert {VERDICTS[c] for c in codes} >= set(VERDICTS[1:])


def test_numeric_spectra_verdicts_match_scalar_route():
    alphas = _random_alphas(6002, 100_000)
    step = sweep_module.CROSS_CHECK_BLOCK
    for start in range(0, len(alphas), step):
        chunk = alphas[start:start + step]
        initial = sweep_module._numeric_spectra(chunk, cloned=False)
        final = sweep_module._numeric_spectra(chunk, cloned=True)
        _assert_rows_match_scalar(initial, final)


def test_svd_weight_rows_are_schmidt_vectors():
    rng = np.random.default_rng(6003)
    alphas = [float(a) for a in rng.uniform(1e-6, 1 - 1e-6, 500)] + EDGE_ALPHAS
    witness = [expand(apply_cloner(build_initial(QubitSpec(a)))) for a in alphas]
    stacks = [np.array([psi.amps.reshape(3, psi.dim_b) for psi in witness])]
    for shape in ((200, 3, 32), (50, 8, 8), (50, 2, 64)):
        amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        amps[::7, -1] = 0.0  # rank-deficient rows give zero weights
        stacks.append(amps)
    for amps in stacks:
        amps = amps / np.linalg.norm(amps.reshape(len(amps), -1), axis=1)[:, None, None]
        rows = majorization_module._svd_weights(amps).tolist()
        probs = [SchmidtVector.from_values(w).probs for w in rows]
        assert _bits(schmidt_rows(majorization_module._svd_weights(amps))) == _bits(probs)


# Each triple's left-to-right sum and its exactly rounded sum fall on
# opposite sides of the 1e-10 gate.
GATE_SPLIT_TRIPLES = [
    [0.11654222512878631, 0.09234661661639372, 0.79111115815482],
    [0.41788255195993484, 0.17310682716202136, 0.40901062077804384],
    [0.41878898783128643, 0.2225817290609734, 0.35862928320774007],
]


def _outcome(check, values):
    try:
        return tuple(check(values))
    except ValueError as exc:
        return str(exc)


def _from_values(values):
    return SchmidtVector.from_values(values).probs


def _row_values(values):
    return schmidt_rows([values])[0].tolist()


def test_sums_run_left_to_right_whatever_builtin_sum_does(monkeypatch, capsys):
    # Python 3.12's sum() of floats is compensated; shadowing sum with
    # math.fsum must change neither the gate nor any printed weight.
    argv = ["analyze", "--schmidt-a", "0.6,0.3,0.1", "--schmidt-b", "1"]
    assert cli.main(argv) == 0
    expected_cli = capsys.readouterr().out
    expected = [_outcome(_row_values, v) for v in GATE_SPLIT_TRIPLES]
    assert [_outcome(_from_values, v) for v in GATE_SPLIT_TRIPLES] == expected
    for module in (cli, majorization_module):
        monkeypatch.setattr(module, "sum", math.fsum, raising=False)
    assert [_outcome(_from_values, v) for v in GATE_SPLIT_TRIPLES] == expected
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected_cli


def _triples(seed: int, n: int) -> list:
    """Triples with ties, signed zeros, clamped and rejected negatives, and
    sums on both sides of the 1e-10 gate."""
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
        rows.append(row)
    return rows


def _scalar_outcome(row):
    try:
        return SchmidtVector.from_values(row).probs
    except ValueError as exc:
        return str(exc)


def _row_outcome(row):
    try:
        return tuple(schmidt_rows([row])[0].tolist())
    except ValueError as exc:
        return str(exc)


def test_schmidt_rows_match_from_values_row_by_row():
    outcomes = {"ok": 0, "negative": 0, "sum": 0}
    for row in _triples(6004, 8000):
        expected = _scalar_outcome(row)
        got = _row_outcome(row)
        if isinstance(expected, str):
            assert got == expected
            outcomes["negative" if "negative" in expected else "sum"] += 1
        else:
            assert _bits(got) == _bits(expected)  # signed zeros included
            outcomes["ok"] += 1
    assert min(outcomes.values()) > 100


def test_schmidt_rows_raises_for_the_first_bad_row():
    good = [0.5, 0.25, 0.25]
    negative = [0.75, 0.25 + 2e-11, -2e-11]
    off_sum = [0.5, 0.25, 0.125]
    for bad in (negative, off_sum):
        message = _scalar_outcome(bad)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            schmidt_rows([good, good, bad, off_sum, negative])
    with pytest.raises(ValueError, match="^Schmidt vector must be non-empty$"):
        schmidt_rows(np.zeros((2, 0)))
    assert schmidt_rows(np.zeros((0, 3))).shape == (0, 3)


def test_row_verdicts_match_scalar_on_ties_and_tolerance_edges():
    rng = np.random.default_rng(6005)
    valid = [r for r in _triples(6006, 8000) if not isinstance(_scalar_outcome(r), str)]
    a = schmidt_rows(valid)
    # partners: an unrelated row, the row itself, and the row moved by
    # about the tolerance in each partial sum
    shuffled = a[rng.permutation(len(a))]
    steps = [-1.000001, -1.0, -0.999999, 0.0, 0.999999, 1.0, 1.000001]
    shift = ATOL * rng.choice(steps, size=(len(a), 1))
    nudged = a + shift * np.array([1.0, -1.0, 0.0])
    for b in (shuffled, a, nudged):
        _assert_rows_match_scalar(a, b)
        _assert_rows_match_scalar(b, a)


def test_entropy_rows_match_scalar_entropy():
    valid = [r for r in _triples(6007, 8000) if not isinstance(_scalar_outcome(r), str)]
    rows = schmidt_rows(valid)
    expected = [entanglement_entropy(r) for r in rows.tolist()]
    assert _bits(entropy_rows(rows)) == _bits(expected)
