"""Witness construction: word tables, machines, expansion, closed forms."""

from __future__ import annotations

import math
from decimal import Decimal
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
    SymbolicState,
    apply_cloner,
    apply_deleter,
    blank_state,
    branch_gram,
    build_initial,
    classify_block,
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
from locc_audit.cli import main
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


# every library call that builds from an overlap, so rejects one outside (0, 1)
BUILDERS = {
    "build_initial": build_initial,
    "closed_form_initial_spectrum": closed_form_initial_spectrum,
    "closed_form_final_spectrum": closed_form_final_spectrum,
    "classify_block": lambda alpha: classify_block([0.5, alpha]),
}


def p_symbol(alpha):
    """The amplitudes (alpha, beta) that raw_expansion gives the symbol P."""
    raw = raw_expansion(SymbolicState(words=["PZZZ"] * 6, alpha=alpha))
    # level 1 holds P Z Z Z twice, then the blank |0>: the |0> and |1> of
    # P land at Bob indices 0 and 16
    return (raw[0] / 2).real, (raw[16] / 2).real


def show_state_error(alpha, capsys):
    assert main(["show-state", "--alpha", str(alpha), "--which", "initial"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


class TestOverlapGate:
    """One gate checks an overlap: [0, 1] first, then the open interval
    (TestBuildInitial), with the same message from every entry."""

    def test_beta_derived_from_alpha(self):
        alpha, beta = p_symbol(0.6)
        assert alpha == 0.6
        assert beta == math.sqrt(1.0 - 0.6 * 0.6)
        assert beta == pytest.approx(0.8, abs=1e-12)

    @pytest.mark.parametrize("alpha, shown", [
        pytest.param(-0.1, "-0.1", id="-0.1"),
        pytest.param(1.5, "1.5", id="1.5"),
        pytest.param(math.nan, "nan", id="nan"),
        pytest.param(Fraction(3, 2), "3/2", id="3/2"),
    ])
    def test_out_of_range_alpha_rejected(self, alpha, shown, capsys):
        message = f"alpha must lie in [0, 1], got {shown}"
        calls = dict(BUILDERS, SymbolicState=lambda a: SymbolicState(WITNESS_WORDS, a))
        for name, call in calls.items():
            with pytest.raises(ValueError) as exc:
                call(alpha)
            assert type(exc.value) is ValueError, name
            assert str(exc.value) == message, name
        if isinstance(alpha, float):  # the CLI reads a float
            assert show_state_error(alpha, capsys) == f"error: {message}\n"

    @pytest.mark.parametrize("alpha", ["0.5", b"0.5", 0.5j, Decimal("0.5")],
                             ids=["str", "bytes", "complex", "Decimal"])
    def test_non_number_alpha_rejected(self, alpha):
        # numpy would read the text '0.5' as 0.5: the gate must stop it
        # first.  A Decimal is no numbers.Real (it refuses mixed arithmetic
        # with floats), so it is rejected too.
        message = f"alpha must be a real number, got {alpha!r}"
        calls = dict(BUILDERS, SymbolicState=lambda a: SymbolicState(WITNESS_WORDS, a))
        for name, call in calls.items():
            with pytest.raises(ValueError) as exc:
                call(alpha)
            assert type(exc.value) is ValueError, name
            assert str(exc.value) == message, name

    def test_block_names_the_first_bad_overlap_in_list_order(self):
        with pytest.raises(ValueError, match=r"^alpha must be a real number, got '0\.5'$"):
            classify_block([0.3, "0.5", 1.5])
        with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\], got 1\.5$"):
            classify_block([0.3, 1.5, "0.5"])
        with pytest.raises(DegenerateOverlapError):
            classify_block([Fraction(1, 2), 0.0, b"0.5"])

    def test_endpoints_are_representable(self):
        for alpha, beta in ((0.0, 1.0), (1.0, 0.0)):
            assert SymbolicState(words=WITNESS_WORDS, alpha=alpha).alpha == alpha
            assert p_symbol(alpha) == (alpha, beta)

    def test_fraction_alpha_preserved(self):
        state = build_initial(Fraction(1, 2))
        assert type(state.alpha) is Fraction
        assert apply_cloner(state).alpha is state.alpha
        # 2(3 - a^4) at a = 1/2, exactly
        assert normalizer(state) == Fraction(47, 8)
        assert p_symbol(Fraction(1, 2))[0] == 0.5


class TestBuildInitial:
    def test_word_table(self):
        state = build_initial(0.5)
        assert term_rows(state) == list(INITIAL_TERMS)
        assert state.words == WITNESS_WORDS
        assert state.has_blank is True

    def test_structure_is_alpha_independent(self):
        a = build_initial(0.5)
        b = build_initial(0.999)
        assert term_rows(a) == term_rows(b)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_degenerate_overlap_rejected(self, alpha, capsys):
        # one error with one message from every builder
        message = f"overlap alpha={alpha} is degenerate: need 0 < alpha < 1"
        for name, call in BUILDERS.items():
            with pytest.raises(DegenerateOverlapError) as exc:
                call(alpha)
            assert str(exc.value) == message, name
        assert show_state_error(alpha, capsys) == f"error: {message}\n"


class TestSymbolicStateInvariants:
    def test_wrong_term_count_rejected(self):
        with pytest.raises(ValueError, match="six branch words"):
            SymbolicState(words=WITNESS_WORDS[:5], alpha=0.5)

    def test_mixed_lengths_rejected(self):
        words = ("ZPZPP",) + WITNESS_WORDS[1:]
        with pytest.raises(ValueError, match="one length"):
            SymbolicState(words=words, alpha=0.5)

    @pytest.mark.parametrize("length", [0, 3, 6])
    def test_words_must_have_four_or_five_letters(self, length):
        words = ["ZPZPZP"[:length]] * 6
        with pytest.raises(ValueError, match="one length"):
            SymbolicState(words=words, alpha=0.5)

    def test_bad_symbol_rejected(self):
        for word in ("ZPXQ", "zpzp", "ZP P", ["Z", "P", "Z", "P"], 1234):
            with pytest.raises(ValueError, match="string over"):
                SymbolicState(words=(word,) + WITNESS_WORDS[1:], alpha=0.5)

    def test_any_iterable_of_words_is_stored_as_the_tuple(self):
        state = SymbolicState(words=WITNESS_WORDS, alpha=0.5)
        for words in (list(WITNESS_WORDS), iter(WITNESS_WORDS)):
            other = SymbolicState(words=words, alpha=0.5)
            assert other.words == WITNESS_WORDS
            assert other == state
            assert hash(other) == hash(state)


class TestMachines:
    def test_cloner_duplicates_fourth_symbol(self):
        final = apply_cloner(build_initial(0.5))
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
        final = apply_cloner(build_initial(0.5))
        with pytest.raises(MissingBlankError):
            apply_cloner(final)

    def test_deleter_inverts_cloner_exactly(self):
        initial = build_initial(0.7)
        assert apply_deleter(apply_cloner(initial)) == initial

    def test_deleter_rejects_mismatched_tail(self):
        words = ("ZPZPZ", "PZPZZ", "ZPPZZ", "PZZPP", "ZZPPP", "PPZZZ")
        state = SymbolicState(words=words, alpha=0.5)
        with pytest.raises(MachineDomainError):
            apply_deleter(state)

    def test_deleter_rejects_pre_cloning_state(self):
        with pytest.raises(MachineDomainError):
            apply_deleter(build_initial(0.5))


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
        initial = build_initial(0.5)
        final = apply_cloner(initial)
        for state in (initial, final):
            ps = expand(state)
            assert (ps.dim_a, ps.dim_b) == (3, 32)

    def test_normalizer_values_at_half(self):
        initial = build_initial(0.5)
        final = apply_cloner(initial)
        # 2(3 - 1/16) = 47/8 and 2(3 - 1/32) = 95/16
        raw_i = raw_expansion(initial)
        raw_f = raw_expansion(final)
        assert np.vdot(raw_i, raw_i).real == pytest.approx(47.0 / 8.0, abs=1e-12)
        assert np.vdot(raw_f, raw_f).real == pytest.approx(95.0 / 16.0, abs=1e-12)

    def test_normalizer_matches_gram_trace(self):
        for alpha in ALPHAS:
            initial = build_initial(alpha)
            for state in (initial, apply_cloner(initial)):
                raw = raw_expansion(state)
                assert np.vdot(raw, raw).real == pytest.approx(
                    float(normalizer(state)), abs=1e-12
                )

    def test_blank_choice_does_not_change_the_spectrum(self):
        state = build_initial(0.73)
        spectra = [
            schmidt_vector(expand(state, blank=b))
            for b in ("zero", "one", "plus")
        ]
        for other in spectra[1:]:
            np.testing.assert_allclose(other, spectra[0], atol=1e-12)

    def test_blank_is_ignored_after_cloning(self):
        final = apply_cloner(build_initial(0.5))
        a = expand(final, blank="zero")
        b = expand(final, blank="one")
        np.testing.assert_array_equal(a.amps, b.amps)

    def test_unknown_blank_rejected_before_and_after_cloning(self):
        # the cloned state has no blank left, but the name is still checked
        initial = build_initial(0.5)
        for state in (initial, apply_cloner(initial)):
            for build in (expand, raw_expansion):
                with pytest.raises(ValueError, match="unknown blank state"):
                    build(state, blank="bogus")


    @pytest.mark.parametrize("alpha", KRON_ALPHAS)
    def test_bit_identical_to_kron_chain(self, alpha):
        pre = build_initial(alpha)
        for state in (pre, apply_cloner(pre)):
            for blank in sorted(BLANK_CHOICES):
                ref = kron_chain_expansion(state, blank_state(blank))
                amps = raw_expansion(state, blank)
                assert np.array_equal(amps, ref)
                assert amps.tobytes() == ref.tobytes()  # signed zeros included

    def test_stacked_gram_rows_are_branch_grams(self):
        alphas = [1e-300, 1e-3, 0.3, 0.5, 0.8, 0.999, 1 - 1e-16]
        stacked = witness_gram(alphas)
        assert stacked.shape == (len(alphas), 2, 3, 3)
        for alpha, got in zip(alphas, stacked.tolist()):
            state = build_initial(alpha)
            assert got == [branch_gram(state), branch_gram(apply_cloner(state))]
        assert witness_gram([]).shape == (0, 2, 3, 3)


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
    pre = SymbolicState(words=words, alpha=alpha)
    assert apply_deleter(apply_cloner(pre)) == pre
    five = SymbolicState(words=[w + t for w, t in zip(words, tails)], alpha=pre.alpha)
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
            rho = gram_reduced_density(build_initial(alpha)).entries
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
            state = apply_cloner(build_initial(alpha))
            rho = gram_reduced_density(state).entries
            n = 2.0 * (3.0 - alpha**5)
            assert rho[1, 2].real == pytest.approx(
                -2.0 * alpha**2 * (1.0 - alpha) / n, abs=1e-12
            )
            assert rho[0, 1] == pytest.approx(0.0, abs=1e-12)
            assert rho[0, 2] == pytest.approx(0.0, abs=1e-12)

    def test_agrees_with_numeric_partial_trace(self):
        for alpha in ALPHAS:
            initial = build_initial(alpha)
            for state in (initial, apply_cloner(initial)):
                symbolic = gram_reduced_density(state).entries
                numeric = partial_trace_b(expand(state)).entries
                np.testing.assert_allclose(numeric, symbolic, atol=1e-12)

    def test_orthogonal_symbol_limit_bypassing_the_gate(self):
        # at alpha = 0 the six branches are orthogonal and the reduction
        # is maximally mixed; only the oracle path may go there
        state = SymbolicState(words=WITNESS_WORDS, alpha=Fraction(0))
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
        alpha = 0.5
        np.testing.assert_allclose(
            closed_form_initial_spectrum(alpha),
            [17.0 / 47.0, 15.0 / 47.0, 15.0 / 47.0],
            atol=1e-15,
        )
        # the second closed-form value is the largest here
        np.testing.assert_allclose(
            closed_form_final_spectrum(alpha),
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
                closed_form_initial_spectrum(alpha)
            with pytest.raises(DegenerateOverlapError):
                closed_form_final_spectrum(alpha)

    def test_small_alpha_limit(self):
        alpha = 1e-6
        np.testing.assert_allclose(
            closed_form_initial_spectrum(alpha), [1 / 3] * 3, atol=1e-6
        )
        np.testing.assert_allclose(
            closed_form_final_spectrum(alpha), [1 / 3] * 3, atol=1e-6
        )

    def test_large_alpha_limit(self):
        alpha = 1.0 - 1e-9
        np.testing.assert_allclose(
            closed_form_initial_spectrum(alpha), [1.0, 0.0, 0.0], atol=1e-6
        )
        np.testing.assert_allclose(
            closed_form_final_spectrum(alpha), [1.0, 0.0, 0.0], atol=1e-6
        )

    def test_closed_form_matches_numeric_extraction(self):
        for alpha in ALPHAS:
            initial = build_initial(alpha)
            final = apply_cloner(initial)
            np.testing.assert_allclose(
                schmidt_vector(expand(initial)),
                closed_form_initial_spectrum(alpha),
                atol=1e-10,
            )
            np.testing.assert_allclose(
                schmidt_vector(expand(final)),
                closed_form_final_spectrum(alpha),
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
        initial = build_initial(alpha)
        for state in (initial, apply_cloner(initial)):
            rho = sympy_reduced_density(term_rows(state), state.has_blank, alpha)
            n = normalizer(state)
            gram = branch_gram(state)
            expected = [[gram[j][k] / n for k in range(3)] for j in range(3)]
            assert fraction_matrix(rho) == expected

    @pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(3, 10), Fraction(9, 10)])
    def test_spectra_agree_exactly(self, alpha):
        initial = build_initial(alpha)
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
