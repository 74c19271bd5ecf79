"""Witness construction: word tables, machines, expansion, closed forms."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locc_audit import (
    BLANK_CHOICES,
    INITIAL_TERMS,
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
WITNESS_WORDS = tuple(word for _, _, word in INITIAL_TERMS)


def term_rows(state: SymbolicState):
    return [(lvl, sign, w) for (lvl, sign, _), w in zip(INITIAL_TERMS, state.words)]


class TestQubitSpec:
    def test_beta_derived_from_alpha(self):
        q = QubitSpec(0.6)
        assert q.beta == pytest.approx(0.8, abs=1e-12)
        assert float(q.alpha) ** 2 + q.beta**2 == pytest.approx(1.0, abs=1e-12)

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
        assert float(q.alpha) == 0.5


class TestBuildInitial:
    def test_word_table(self):
        state = build_initial(QubitSpec(0.5))
        assert term_rows(state) == list(INITIAL_TERMS)
        assert state.words == WITNESS_WORDS
        assert state.has_blank is True

    def test_structure_is_alpha_independent(self):
        a = build_initial(QubitSpec(0.5))
        b = build_initial(QubitSpec(0.999))
        assert term_rows(a) == term_rows(b)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_degenerate_overlap_rejected(self, alpha):
        with pytest.raises(DegenerateOverlapError):
            build_initial(QubitSpec(alpha))


class TestSymbolicStateInvariants:
    def test_wrong_term_count_rejected(self):
        with pytest.raises(ValueError, match="six branch words"):
            SymbolicState(words=WITNESS_WORDS[:5], qubit=QubitSpec(0.5))

    def test_mixed_lengths_rejected(self):
        words = ("ZPZPP",) + WITNESS_WORDS[1:]
        with pytest.raises(ValueError, match="one length"):
            SymbolicState(words=words, qubit=QubitSpec(0.5))

    @pytest.mark.parametrize("length", [0, 3, 6])
    def test_words_must_have_four_or_five_letters(self, length):
        words = ["ZPZPZP"[:length]] * 6
        with pytest.raises(ValueError, match="one length"):
            SymbolicState(words=words, qubit=QubitSpec(0.5))

    def test_bad_symbol_rejected(self):
        for word in ("ZPXQ", "zpzp", "ZP P", ["Z", "P", "Z", "P"], 1234):
            with pytest.raises(ValueError, match="string over"):
                SymbolicState(words=(word,) + WITNESS_WORDS[1:], qubit=QubitSpec(0.5))

    def test_any_iterable_of_words_is_stored_as_the_tuple(self):
        q = QubitSpec(0.5)
        state = SymbolicState(words=WITNESS_WORDS, qubit=q)
        for words in (list(WITNESS_WORDS), iter(WITNESS_WORDS)):
            other = SymbolicState(words=words, qubit=q)
            assert other.words == WITNESS_WORDS
            assert other == state
            assert hash(other) == hash(state)


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
        words = ("ZPZPZ", "PZPZZ", "ZPPZZ", "PZZPP", "ZZPPP", "PPZZZ")
        state = SymbolicState(words=words, qubit=QubitSpec(0.5))
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
            schmidt_vector(expand(state, blank=b))
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


WORDS = st.lists(st.text("ZP", min_size=4, max_size=4), min_size=6, max_size=6)
OVERLAPS = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=1000),
    st.floats(min_value=0.0, max_value=1.0),
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(words=WORDS, tails=st.text("ZP", min_size=6, max_size=6), alpha=OVERLAPS)
def test_machines_and_numeric_routes_on_any_word_table(words, tails, alpha):
    """The machines and both numeric routes hold on every word table, not
    only the witness: each table and its clone expand to the np.kron
    chain's bits, and the Gram route agrees with the expansion."""
    pre = SymbolicState(words=words, qubit=QubitSpec(alpha))
    assert apply_deleter(apply_cloner(pre)) == pre
    five = SymbolicState(words=[w + t for w, t in zip(words, tails)], qubit=pre.qubit)
    if any(w[-1] != w[-2] for w in five.words):
        with pytest.raises(MachineDomainError):
            apply_deleter(five)
    else:
        assert apply_deleter(five).words == tuple(w[:-1] for w in five.words)
    for state in (pre, apply_cloner(pre), five):
        for blank in sorted(BLANK_CHOICES):
            ref = kron_chain_expansion(state, blank_state(blank))
            assert raw_expansion(state, blank).tobytes() == ref.tobytes()
        raw = raw_expansion(state)
        assert float(normalizer(state)) == pytest.approx(np.vdot(raw, raw).real, abs=1e-12)
        np.testing.assert_allclose(
            gram_reduced_density(state).entries,
            partial_trace_b(expand(state)).entries,
            rtol=0,
            atol=1e-12,
        )


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
        state = SymbolicState(words=WITNESS_WORDS, qubit=QubitSpec(Fraction(0)))
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
            closed_form_initial_spectrum(q),
            [17.0 / 47.0, 15.0 / 47.0, 15.0 / 47.0],
            atol=1e-15,
        )
        # the second closed-form value is the largest here
        np.testing.assert_allclose(
            closed_form_final_spectrum(q),
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
            closed_form_initial_spectrum(q), [1 / 3] * 3, atol=1e-6
        )
        np.testing.assert_allclose(
            closed_form_final_spectrum(q), [1 / 3] * 3, atol=1e-6
        )

    def test_large_alpha_limit(self):
        q = QubitSpec(1.0 - 1e-9)
        np.testing.assert_allclose(
            closed_form_initial_spectrum(q), [1.0, 0.0, 0.0], atol=1e-6
        )
        np.testing.assert_allclose(
            closed_form_final_spectrum(q), [1.0, 0.0, 0.0], atol=1e-6
        )

    def test_closed_form_matches_numeric_extraction(self):
        for alpha in ALPHAS:
            q = QubitSpec(alpha)
            initial = build_initial(q)
            final = apply_cloner(initial)
            np.testing.assert_allclose(
                schmidt_vector(expand(initial)),
                closed_form_initial_spectrum(q),
                atol=1e-10,
            )
            np.testing.assert_allclose(
                schmidt_vector(expand(final)),
                closed_form_final_spectrum(q),
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
