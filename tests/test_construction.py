"""Witness construction: word tables, machines, expansion, closed forms."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from locc_audit import (
    BLANK_CHOICES,
    INITIAL_TERMS,
    BranchTerm,
    DegenerateOverlapError,
    MachineDomainError,
    MissingBlankError,
    QubitSpec,
    SymbolicState,
    apply_cloner,
    apply_deleter,
    blank_state,
    branch_gram,
    build_initial,
    closed_form_final_spectrum,
    closed_form_initial_spectrum,
    expand,
    final_spectrum_values,
    gram_reduced_density,
    initial_spectrum_values,
    normalizer,
    partial_trace_b,
    raw_expansion,
    schmidt_vector,
    witness_gram,
)
from oracles import (
    exact_classify,
    fraction_matrix,
    kron_chain_expansion,
    sympy_reduced_density,
    sympy_spectrum,
)

ALPHAS = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
KRON_ALPHAS = [Fraction(1, 2), 1e-3, 0.3, 0.8, 0.999]


def term_rows(state: SymbolicState):
    return [(t.alice_level, t.sign, t.word) for t in state.terms]


class TestQubitSpec:
    def test_beta_derived_from_alpha(self):
        q = QubitSpec(0.6)
        assert q.beta == pytest.approx(0.8, abs=1e-12)
        assert q.alpha_float**2 + q.beta**2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [-0.1, 1.5])
    def test_out_of_range_alpha_rejected(self, alpha):
        with pytest.raises(ValueError):
            QubitSpec(alpha)

    def test_endpoints_are_representable(self):
        assert QubitSpec(0.0).beta == 1.0
        assert QubitSpec(1.0).beta == 0.0

    def test_fraction_alpha_preserved(self):
        q = QubitSpec(Fraction(1, 2))
        assert q.alpha == Fraction(1, 2)
        assert q.alpha_float == 0.5


class TestBuildInitial:
    def test_word_table(self):
        state = build_initial(QubitSpec(0.5))
        assert term_rows(state) == list(INITIAL_TERMS)
        assert state.has_blank is True
        assert state.word_length == 4

    def test_structure_is_alpha_independent(self):
        a = build_initial(QubitSpec(0.5))
        b = build_initial(QubitSpec(0.999))
        assert term_rows(a) == term_rows(b)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_degenerate_overlap_rejected(self, alpha):
        with pytest.raises(DegenerateOverlapError):
            build_initial(QubitSpec(alpha))


class TestSymbolicStateInvariants:
    def test_wrong_sign_pattern_rejected(self):
        terms = tuple(
            BranchTerm(lvl, +1, word) for lvl, _, word in INITIAL_TERMS
        )
        with pytest.raises(ValueError):
            SymbolicState(terms=terms, has_blank=True, qubit=QubitSpec(0.5))

    def test_wrong_term_count_rejected(self):
        terms = tuple(
            BranchTerm(lvl, sign, word) for lvl, sign, word in INITIAL_TERMS[:5]
        )
        with pytest.raises(ValueError):
            SymbolicState(terms=terms, has_blank=True, qubit=QubitSpec(0.5))

    def test_mixed_word_lengths_rejected(self):
        rows = [list(r) for r in INITIAL_TERMS]
        rows[0][2] = "ZPZPP"
        terms = tuple(BranchTerm(lvl, sign, word) for lvl, sign, word in rows)
        with pytest.raises(ValueError):
            SymbolicState(terms=terms, has_blank=True, qubit=QubitSpec(0.5))

    def test_word_length_must_match_blank_flag(self):
        terms = tuple(
            BranchTerm(lvl, sign, word) for lvl, sign, word in INITIAL_TERMS
        )
        with pytest.raises(ValueError):
            SymbolicState(terms=terms, has_blank=False, qubit=QubitSpec(0.5))

    def test_bad_symbol_rejected(self):
        with pytest.raises(ValueError):
            BranchTerm(1, +1, "ZPXQ")


class TestMachines:
    def test_cloner_duplicates_fourth_symbol(self):
        final = apply_cloner(build_initial(QubitSpec(0.5)))
        assert term_rows(final) == [
            (1, +1, "ZPZPP"),
            (1, +1, "PZPZZ"),
            (2, +1, "ZPPZZ"),
            (2, -1, "PZZPP"),
            (3, +1, "ZZPPP"),
            (3, -1, "PPZZZ"),
        ]
        assert final.has_blank is False

    def test_cloner_requires_blank(self):
        final = apply_cloner(build_initial(QubitSpec(0.5)))
        with pytest.raises(MissingBlankError):
            apply_cloner(final)

    def test_deleter_inverts_cloner_exactly(self):
        initial = build_initial(QubitSpec(0.7))
        assert apply_deleter(apply_cloner(initial)) == initial

    def test_deleter_rejects_mismatched_tail(self):
        rows = [
            (1, +1, "ZPZPZ"),
            (1, +1, "PZPZZ"),
            (2, +1, "ZPPZZ"),
            (2, -1, "PZZPP"),
            (3, +1, "ZZPPP"),
            (3, -1, "PPZZZ"),
        ]
        terms = tuple(BranchTerm(lvl, sign, word) for lvl, sign, word in rows)
        state = SymbolicState(terms=terms, has_blank=False, qubit=QubitSpec(0.5))
        with pytest.raises(MachineDomainError):
            apply_deleter(state)

    def test_deleter_rejects_pre_cloning_state(self):
        with pytest.raises(MachineDomainError):
            apply_deleter(build_initial(QubitSpec(0.5)))


class TestBlankState:
    def test_named_choices_are_unit_vectors(self):
        for name in BLANK_CHOICES:
            assert np.linalg.norm(blank_state(name)) == pytest.approx(1.0)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            blank_state("minus")

    def test_non_unit_vector_rejected(self):
        with pytest.raises(ValueError, match="unknown blank state"):
            blank_state((0.5, 0.5))

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError, match="unknown blank state"):
            blank_state((1.0, 0.0, 0.0))

    def test_non_name_rejected(self):
        # the amplitude pair of "one", as a tuple or a list, is not its name
        for choice in ((0.0, 1.0), [0.0, 1.0], None):
            with pytest.raises(ValueError, match="unknown blank state"):
                blank_state(choice)


class TestExpansion:
    def test_dimensions_are_three_by_thirtytwo(self):
        initial = build_initial(QubitSpec(0.5))
        final = apply_cloner(initial)
        for state in (initial, final):
            ps = expand(state)
            assert (ps.dim_a, ps.dim_b) == (3, 32)

    def test_normalizer_values_at_half(self):
        initial = build_initial(QubitSpec(0.5))
        final = apply_cloner(initial)
        # 2(3 - 1/16) = 47/8 and 2(3 - 1/32) = 95/16
        raw_i = raw_expansion(initial)
        raw_f = raw_expansion(final)
        assert np.vdot(raw_i, raw_i).real == pytest.approx(47.0 / 8.0, abs=1e-12)
        assert np.vdot(raw_f, raw_f).real == pytest.approx(95.0 / 16.0, abs=1e-12)

    def test_normalizer_matches_gram_trace(self):
        for alpha in ALPHAS:
            initial = build_initial(QubitSpec(alpha))
            for state in (initial, apply_cloner(initial)):
                raw = raw_expansion(state)
                assert np.vdot(raw, raw).real == pytest.approx(
                    float(normalizer(state)), abs=1e-12
                )

    def test_blank_choice_does_not_change_the_spectrum(self):
        state = build_initial(QubitSpec(0.73))
        spectra = [
            schmidt_vector(expand(state, blank=b)).probs
            for b in ("zero", "one", "plus")
        ]
        for other in spectra[1:]:
            np.testing.assert_allclose(other, spectra[0], atol=1e-12)

    def test_blank_is_ignored_after_cloning(self):
        final = apply_cloner(build_initial(QubitSpec(0.5)))
        a = expand(final, blank="zero")
        b = expand(final, blank="one")
        np.testing.assert_array_equal(a.amps, b.amps)


    @pytest.mark.parametrize("alpha", KRON_ALPHAS)
    def test_bit_identical_to_kron_chain(self, alpha):
        pre = build_initial(QubitSpec(alpha))
        for state in (pre, apply_cloner(pre)):
            for blank in sorted(BLANK_CHOICES):
                ref = kron_chain_expansion(state, blank_state(blank))
                amps = raw_expansion(state, blank)
                assert np.array_equal(amps, ref)
                assert amps.tobytes() == ref.tobytes()  # signed zeros included

    def test_stacked_gram_rows_are_branch_grams(self):
        alphas = [1e-300, 1e-3, 0.3, 0.5, 0.8, 0.999, 1 - 1e-16]
        for cloned in (False, True):
            stacked = witness_gram(alphas, cloned=cloned)
            assert stacked.shape == (len(alphas), 3, 3)
            for alpha, got in zip(alphas, stacked.tolist()):
                state = build_initial(QubitSpec(alpha))
                assert got == branch_gram(apply_cloner(state) if cloned else state)
            assert witness_gram([], cloned=cloned).shape == (0, 3, 3)


class TestReducedDensity:
    def test_initial_structure_on_grid(self):
        for alpha in ALPHAS:
            rho = gram_reduced_density(build_initial(QubitSpec(alpha))).entries
            n = 2.0 * (3.0 - alpha**4)
            expected = (
                np.diag(
                    [2 * (1 + alpha**4), 2 * (1 - alpha**4), 2 * (1 - alpha**4)]
                )
                / n
            )
            np.testing.assert_allclose(rho, expected, atol=1e-12)

    def test_final_off_diagonal_entry(self):
        for alpha in ALPHAS:
            state = apply_cloner(build_initial(QubitSpec(alpha)))
            rho = gram_reduced_density(state).entries
            n = 2.0 * (3.0 - alpha**5)
            assert rho[1, 2].real == pytest.approx(
                -2.0 * alpha**2 * (1.0 - alpha) / n, abs=1e-12
            )
            assert rho[0, 1] == pytest.approx(0.0, abs=1e-12)
            assert rho[0, 2] == pytest.approx(0.0, abs=1e-12)

    def test_agrees_with_numeric_partial_trace(self):
        for alpha in ALPHAS:
            initial = build_initial(QubitSpec(alpha))
            for state in (initial, apply_cloner(initial)):
                symbolic = gram_reduced_density(state).entries
                numeric = partial_trace_b(expand(state)).entries
                np.testing.assert_allclose(numeric, symbolic, atol=1e-12)

    def test_orthogonal_symbol_limit_bypassing_the_gate(self):
        # at alpha = 0 the six branches are orthogonal and the reduction
        # is maximally mixed; only the oracle path may go there
        terms = tuple(
            BranchTerm(lvl, sign, word) for lvl, sign, word in INITIAL_TERMS
        )
        state = SymbolicState(terms=terms, has_blank=True, qubit=QubitSpec(Fraction(0)))
        gram = branch_gram(state)
        assert gram == [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
        np.testing.assert_array_equal(
            gram_reduced_density(state).entries, np.eye(3) / 3.0
        )


class TestClosedFormSpectra:
    def test_exact_values_at_half(self):
        assert initial_spectrum_values(Fraction(1, 2)) == (
            Fraction(17, 47),
            Fraction(15, 47),
            Fraction(15, 47),
        )
        assert final_spectrum_values(Fraction(1, 2)) == (
            Fraction(33, 95),
            Fraction(35, 95),
            Fraction(27, 95),
        )

    def test_sorted_wrappers_at_half(self):
        q = QubitSpec(0.5)
        np.testing.assert_allclose(
            closed_form_initial_spectrum(q).probs,
            [17.0 / 47.0, 15.0 / 47.0, 15.0 / 47.0],
            atol=1e-15,
        )
        # the second closed-form value is the largest here
        np.testing.assert_allclose(
            closed_form_final_spectrum(q).probs,
            [35.0 / 95.0, 33.0 / 95.0, 27.0 / 95.0],
            atol=1e-15,
        )

    def test_spectra_sum_to_one_exactly_for_fractions(self):
        for num in (1, 3, 7, 9):
            a = Fraction(num, 10)
            assert sum(initial_spectrum_values(a)) == 1
            assert sum(final_spectrum_values(a)) == 1

    def test_endpoint_gating(self):
        for alpha in (0.0, 1.0):
            with pytest.raises(DegenerateOverlapError):
                closed_form_initial_spectrum(QubitSpec(alpha))
            with pytest.raises(DegenerateOverlapError):
                closed_form_final_spectrum(QubitSpec(alpha))

    def test_small_alpha_limit(self):
        q = QubitSpec(1e-6)
        np.testing.assert_allclose(
            closed_form_initial_spectrum(q).probs, [1 / 3] * 3, atol=1e-6
        )
        np.testing.assert_allclose(
            closed_form_final_spectrum(q).probs, [1 / 3] * 3, atol=1e-6
        )

    def test_large_alpha_limit(self):
        q = QubitSpec(1.0 - 1e-9)
        np.testing.assert_allclose(
            closed_form_initial_spectrum(q).probs, [1.0, 0.0, 0.0], atol=1e-6
        )
        np.testing.assert_allclose(
            closed_form_final_spectrum(q).probs, [1.0, 0.0, 0.0], atol=1e-6
        )

    def test_closed_form_matches_numeric_extraction(self):
        for alpha in ALPHAS:
            q = QubitSpec(alpha)
            initial = build_initial(q)
            final = apply_cloner(initial)
            np.testing.assert_allclose(
                schmidt_vector(expand(initial)).probs,
                closed_form_initial_spectrum(q).probs,
                atol=1e-10,
            )
            np.testing.assert_allclose(
                schmidt_vector(expand(final)).probs,
                closed_form_final_spectrum(q).probs,
                atol=1e-10,
            )


class TestInequalities:
    def test_final_head_below_initial_head(self):
        for alpha in ALPHAS:
            li = initial_spectrum_values(alpha)
            lf = final_spectrum_values(alpha)
            assert lf[0] < li[0]

    def test_final_tail_below_initial_tail(self):
        for alpha in ALPHAS:
            li = initial_spectrum_values(alpha)
            lf = final_spectrum_values(alpha)
            assert min(lf) < min(li)


class TestFullExpansionOracle:
    """Exact sympy partial trace vs the word-overlap Gram shortcut."""

    @pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(3, 10), Fraction(9, 10)])
    def test_reduced_densities_agree_exactly(self, alpha):
        q = QubitSpec(alpha)
        initial = build_initial(q)
        for state in (initial, apply_cloner(initial)):
            rho = sympy_reduced_density(term_rows(state), state.has_blank, alpha)
            n = normalizer(state)
            gram = branch_gram(state)
            expected = [[gram[j][k] / n for k in range(3)] for j in range(3)]
            assert fraction_matrix(rho) == expected

    @pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(3, 10), Fraction(9, 10)])
    def test_spectra_agree_exactly(self, alpha):
        q = QubitSpec(alpha)
        initial = build_initial(q)
        rho_i = sympy_reduced_density(term_rows(initial), True, alpha)
        assert sympy_spectrum(rho_i) == sorted(
            initial_spectrum_values(alpha), reverse=True
        )
        final = apply_cloner(initial)
        rho_f = sympy_reduced_density(term_rows(final), False, alpha)
        assert sympy_spectrum(rho_f) == sorted(
            final_spectrum_values(alpha), reverse=True
        )

    def test_exact_verdicts_at_reference_points(self):
        half_i = sorted(initial_spectrum_values(Fraction(1, 2)), reverse=True)
        half_f = sorted(final_spectrum_values(Fraction(1, 2)), reverse=True)
        assert exact_classify(half_i, half_f) == "ForwardOnly"
        high_i = sorted(initial_spectrum_values(Fraction(9, 10)), reverse=True)
        high_f = sorted(final_spectrum_values(Fraction(9, 10)), reverse=True)
        assert exact_classify(high_i, high_f) == "Incomparable"
