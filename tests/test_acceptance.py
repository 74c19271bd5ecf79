"""Acceptance gate: one test per shipped claim, one printed line each.

Each criterion prints `[criterion NN] name: PASS/FAIL (detail)` with
capture suspended, so the lines reach the terminal even on green runs,
then asserts.  The numbered set:

  01 closed-form spectra match numeric extraction (1e-10, 99-point grid)
  02 pre-normalization norms equal 2(3-a^4) / 2(3-a^5) (1e-12)
  03 reduced-state structure: diagonal initial, single final off-diagonal
  04 backward (deletion-direction) conversion blocked at every overlap
  05 largest final closed-form weight below largest initial weight
  06 incomparable for alpha >= 0.6; ForwardOnly at 0.5 with exact sums
  07 verdict threshold lands within its tolerance of the root
  08 float classifier agrees with the exact-rational oracle; triple fast path
  09 entropy never increases along allowed conversions; d=2 totally ordered
  10 deleter inverts cloner exactly; spectra blind to the blank choice
"""

from __future__ import annotations

import sys
from fractions import Fraction

import numpy as np

from conftest import float_probs, simplex_pair, strict_triple_pair
from locc_audit import (
    QubitSpec,
    Verdict,
    apply_cloner,
    apply_deleter,
    build_initial,
    classify,
    classify_construction,
    closed_form_final_spectrum,
    closed_form_initial_spectrum,
    entanglement_entropy,
    expand,
    final_spectrum_values,
    find_threshold,
    grid,
    incomparable_fast_path_d3,
    initial_spectrum_values,
    no_deleting_check,
    normalizer,
    partial_trace_b,
    gram_reduced_density,
    raw_expansion,
    schmidt_vector,
)
from oracles import exact_classify

# Criterion 07's target: the verdict boundary of the exact spectra, the
# one root in (0, 1) of the forward gap's factor p (see
# tests/test_witness_algebra.py), which find_threshold(0.3, 0.9, 1e-10)
# must land within its tolerance of.
ALPHA_STAR = 0.52716537465516541709

GRID = grid(0.01, 0.99, 99)


def report(capsys, num: int, name: str, ok: bool, detail: str = "") -> str:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {name}: {status}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        sys.stdout.write(line + "\n")
        sys.stdout.flush()
    return line


def witness_pair(alpha: float):
    pre = build_initial(QubitSpec(alpha))
    return pre, apply_cloner(pre)


def test_criterion_01_closed_form_fidelity(capsys):
    worst = 0.0
    for alpha in GRID:
        q = QubitSpec(alpha)
        pre, post = witness_pair(alpha)
        dev_i = np.max(
            np.abs(
                np.array(schmidt_vector(expand(pre)))
                - np.array(closed_form_initial_spectrum(q))
            )
        )
        dev_f = np.max(
            np.abs(
                np.array(schmidt_vector(expand(post)))
                - np.array(closed_form_final_spectrum(q))
            )
        )
        worst = max(worst, dev_i, dev_f)
    ok = worst <= 1e-10
    line = report(capsys, 1, "closed-form fidelity", ok, f"max deviation {worst:.3e} vs 1e-10")
    assert ok, line


def test_criterion_02_normalizers(capsys):
    worst = 0.0
    for alpha in GRID:
        pre, post = witness_pair(alpha)
        raw_i = raw_expansion(pre)
        raw_f = raw_expansion(post)
        n_i = 2.0 * (3.0 - alpha**4)
        n_f = 2.0 * (3.0 - alpha**5)
        worst = max(
            worst,
            abs(np.vdot(raw_i, raw_i).real - n_i),
            abs(np.vdot(raw_f, raw_f).real - n_f),
            abs(float(normalizer(pre)) - n_i),
            abs(float(normalizer(post)) - n_f),
        )
    ok = worst <= 1e-12
    line = report(capsys, 2, "normalizer identities", ok, f"max deviation {worst:.3e} vs 1e-12")
    assert ok, line


def test_criterion_03_reduced_state_structure(capsys):
    worst_off = 0.0
    worst_entry = 0.0
    worst_route = 0.0
    off_diag = ~np.eye(3, dtype=bool)
    for alpha in GRID:
        pre, post = witness_pair(alpha)
        for rho_i in (
            partial_trace_b(expand(pre)).entries,
            gram_reduced_density(pre).entries,
        ):
            worst_off = max(worst_off, np.max(np.abs(rho_i[off_diag])))
        expected = -2.0 * alpha**2 * (1.0 - alpha) / (2.0 * (3.0 - alpha**5))
        for rho_f in (
            partial_trace_b(expand(post)).entries,
            gram_reduced_density(post).entries,
        ):
            worst_entry = max(worst_entry, abs(rho_f[1, 2] - expected))
            worst_off_f = max(abs(rho_f[0, 1]), abs(rho_f[0, 2]))
            worst_entry = max(worst_entry, worst_off_f)
        for state in (pre, post):
            gap = np.max(
                np.abs(
                    partial_trace_b(expand(state)).entries
                    - gram_reduced_density(state).entries
                )
            )
            worst_route = max(worst_route, float(gap))
    ok = worst_off <= 1e-12 and worst_entry <= 1e-12 and worst_route <= 1e-12
    line = report(
        capsys,
        3,
        "reduced-state structure",
        ok,
        f"initial off-diag {worst_off:.3e}, final [2,3] dev {worst_entry:.3e}, "
        f"route gap {worst_route:.3e} vs 1e-12",
    )
    assert ok, line


def test_criterion_04_no_deleting_universal(capsys):
    blocked = [no_deleting_check(alpha) for alpha in GRID]
    tail_gap = min(
        min(initial_spectrum_values(a)) - min(final_spectrum_values(a)) for a in GRID
    )
    ok = all(blocked) and tail_gap > 0.0
    line = report(
        capsys,
        4,
        "no-deleting universality",
        ok,
        f"blocked at {sum(blocked)}/99 points, min tail gap {tail_gap:.3e}",
    )
    assert ok, line


def test_criterion_05_head_inequality(capsys):
    head_gap = min(
        initial_spectrum_values(a)[0] - final_spectrum_values(a)[0] for a in GRID
    )
    ok = head_gap > 0.0
    line = report(capsys, 5, "head inequality", ok, f"min head gap {head_gap:.3e}")
    assert ok, line


def test_criterion_06_incomparability_region(capsys):
    high = [a for a in GRID if a >= 0.6 - 1e-12]
    float_ok = all(
        classify_construction(a).verdict is Verdict.INCOMPARABLE for a in high
    )
    exact_ok = True
    for k in range(60, 100):
        a = Fraction(k, 100)
        li = sorted(initial_spectrum_values(a), reverse=True)
        lf = sorted(final_spectrum_values(a), reverse=True)
        if exact_classify(li, lf) != "Incomparable":
            exact_ok = False
            break

    half = classify_construction(0.5)
    li = sorted(initial_spectrum_values(Fraction(1, 2)), reverse=True)
    lf = sorted(final_spectrum_values(Fraction(1, 2)), reverse=True)
    half_ok = (
        half.verdict is Verdict.FORWARD_ONLY
        and half.paper_claim_upheld is False
        and exact_classify(li, lf) == "ForwardOnly"
        and Fraction(17, 47) <= Fraction(35, 95)
        and Fraction(32, 47) <= Fraction(68, 95)
        and li[0] == Fraction(17, 47)
        and li[0] + li[1] == Fraction(32, 47)
        and lf[0] == Fraction(35, 95)
        and lf[0] + lf[1] == Fraction(68, 95)
    )
    ok = float_ok and exact_ok and half_ok
    line = report(
        capsys,
        6,
        "incomparability region",
        ok,
        f"{len(high)} grid points >= 0.6 incomparable, alpha=0.5 ForwardOnly "
        "with 17/47 <= 35/95 and 32/47 <= 68/95",
    )
    assert ok, line


def test_criterion_07_threshold_regression(capsys):
    first = find_threshold(0.3, 0.9, 1e-10)
    second = find_threshold(0.3, 0.9, 1e-10)
    deviation = abs(first.alpha_star - ALPHA_STAR)
    ok = (
        first == second
        and deviation <= 1e-10
        and 0.50 < first.alpha_star < 0.60
        and first.bracket[1] - first.bracket[0] <= 1e-10
    )
    line = report(
        capsys,
        7,
        "threshold regression",
        ok,
        f"alpha_star={first.alpha_star!r}, |dev|={deviation:.3e} vs 1e-10",
    )
    assert ok, line


def test_criterion_08_exact_oracle_agreement(capsys):
    rng = np.random.default_rng(20240816)
    disagreements = 0
    for i in range(1000):
        d = (2, 3, 4, 6)[i % 4]
        a, b = simplex_pair(rng, d)
        got = str(classify(float_probs(a), float_probs(b)))
        if got != exact_classify(a, b):
            disagreements += 1

    rng = np.random.default_rng(424242)
    fast_mismatches = 0
    for _ in range(1000):
        a, b = strict_triple_pair(rng)
        fa, fb = float_probs(a), float_probs(b)
        fast = incomparable_fast_path_d3(fa, fb)
        if fast != (classify(fa, fb) is Verdict.INCOMPARABLE):
            fast_mismatches += 1

    ok = disagreements == 0 and fast_mismatches == 0
    line = report(
        capsys,
        8,
        "majorization engine vs exact oracle",
        ok,
        f"{disagreements}/1000 oracle disagreements, "
        f"{fast_mismatches}/1000 fast-path mismatches",
    )
    assert ok, line


def test_criterion_09_entropy_monotone(capsys):
    rng = np.random.default_rng(1618)
    violations = 0
    forward_seen = 0
    for i in range(1000):
        d = (2, 3, 4, 6)[i % 4]
        a, b = simplex_pair(rng, d)
        fa, fb = float_probs(a), float_probs(b)
        if classify(fa, fb) is Verdict.FORWARD_ONLY:
            forward_seen += 1
            if entanglement_entropy(fa) < entanglement_entropy(fb) - 1e-9:
                violations += 1

    rng = np.random.default_rng(2718)
    d2_incomparable = 0
    for _ in range(1000):
        a, b = simplex_pair(rng, 2)
        if classify(float_probs(a), float_probs(b)) is Verdict.INCOMPARABLE:
            d2_incomparable += 1

    ok = violations == 0 and d2_incomparable == 0 and forward_seen > 0
    line = report(
        capsys,
        9,
        "entropy monotone",
        ok,
        f"0 violations across {forward_seen} ForwardOnly pairs, "
        f"{d2_incomparable}/1000 d=2 incomparable",
    )
    assert ok, line


def test_criterion_10_machines_and_blank(capsys):
    round_trip_ok = True
    for alpha in (0.3, 0.5, 0.73, 0.9):
        state = build_initial(QubitSpec(alpha))
        if apply_deleter(apply_cloner(state)) != state:
            round_trip_ok = False

    worst = 0.0
    for alpha in (0.4, 0.73):
        state = build_initial(QubitSpec(alpha))
        spectra = [
            np.array(schmidt_vector(expand(state, blank=b)))
            for b in ("zero", "one", "plus")
        ]
        for other in spectra[1:]:
            worst = max(worst, float(np.max(np.abs(other - spectra[0]))))

    ok = round_trip_ok and worst <= 1e-12
    line = report(
        capsys,
        10,
        "machine round trip and blank invariance",
        ok,
        f"round trip exact: {round_trip_ok}, max spectral spread {worst:.3e} vs 1e-12",
    )
    assert ok, line
