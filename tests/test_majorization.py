"""Majorization engine: Schmidt vectors, verdicts, and the triple fast path."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import float_probs, simplex_pair, strict_triple_pair
from locc_audit import (
    FastPathInapplicable,
    PureState,
    Verdict,
    build_initial,
    classify,
    entanglement_entropy,
    expand,
    incomparable_fast_path_d3,
    is_majorized_by,
    schmidt_vector,
)
from oracles import exact_classify


def bell_state() -> PureState:
    amps = np.zeros((2, 2), dtype=complex)
    amps[0, 0] = amps[1, 1] = 1.0 / np.sqrt(2.0)
    return PureState(2, 2, amps)


class TestSchmidtVector:
    def test_is_a_descending_tuple_of_floats(self):
        sv = schmidt_vector(expand(build_initial(0.5)))
        assert type(sv) is tuple
        assert all(type(p) is float for p in sv)
        assert list(sv) == sorted(sv, reverse=True)

    def test_bell(self):
        np.testing.assert_allclose(schmidt_vector(bell_state()), [0.5, 0.5])

    def test_product(self):
        amps = np.zeros((2, 2), dtype=complex)
        amps[0, 1] = 1.0
        np.testing.assert_allclose(schmidt_vector(PureState(2, 2, amps)), [1.0, 0.0])

    def test_witness_initial_at_half(self):
        sv = schmidt_vector(expand(build_initial(0.5)))
        np.testing.assert_allclose(
            sv, [17.0 / 47.0, 15.0 / 47.0, 15.0 / 47.0], atol=1e-12
        )

    def test_length_is_smaller_dimension(self):
        rng = np.random.default_rng(3)
        amps = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
        amps /= np.linalg.norm(amps)
        assert len(schmidt_vector(PureState(3, 8, amps))) == 3

    def test_wide_alice_side_is_cut_to_bob_rank(self):
        rng = np.random.default_rng(4)
        amps = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        amps /= np.linalg.norm(amps)
        sv = schmidt_vector(PureState(3, 2, amps))
        assert len(sv) == 2
        assert sum(sv) == pytest.approx(1.0, abs=1e-10)

    def test_svd_route_is_side_symmetric(self):
        rng = np.random.default_rng(64)
        m = rng.normal(size=(64, 2)) + 1j * rng.normal(size=(64, 2))
        m /= np.linalg.norm(m)
        tall = schmidt_vector(PureState(64, 2, m))
        wide = schmidt_vector(PureState(2, 64, m.T))
        expected = np.linalg.svd(m, compute_uv=False) ** 2
        assert len(tall) == len(wide) == 2
        np.testing.assert_allclose(tall, wide, rtol=0, atol=1e-12)
        np.testing.assert_allclose(tall, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(wide, expected, rtol=0, atol=1e-12)

    def test_rank_deficient_state_has_zero_not_negative_weights(self):
        rng = np.random.default_rng(44)
        u = rng.normal(size=4) + 1j * rng.normal(size=4)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        m = np.outer(u, v)
        sv = schmidt_vector(PureState(4, 4, m / np.linalg.norm(m)))
        assert len(sv) == 4
        assert sv[0] == pytest.approx(1.0, abs=1e-12)
        assert all(0.0 <= p <= 1e-15 for p in sv[1:])


class TestEntropy:
    def test_bell_is_one_bit(self):
        assert entanglement_entropy((0.5, 0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_product_is_zero(self):
        assert entanglement_entropy((1.0, 0.0, 0.0)) == 0.0

    def test_maximally_mixed_qutrit(self):
        got = entanglement_entropy((1 / 3, 1 / 3, 1 / 3))
        assert got == pytest.approx(1.584962500721156, abs=1e-12)

    def test_matches_direct_formula(self):
        probs = (0.6, 0.3, 0.1)
        expected = -sum(p * math.log2(p) for p in probs)
        assert entanglement_entropy(probs) == pytest.approx(expected, abs=1e-14)


class TestIsMajorizedBy:
    def test_everything_majorized_by_point_mass(self):
        assert is_majorized_by((0.5, 0.5), (1.0, 0.0))

    def test_point_mass_not_majorized_by_uniform(self):
        assert not is_majorized_by((1.0, 0.0), (0.5, 0.5))

    def test_partial_sum_failure_at_k2(self):
        # k=2: 0.8 > 0.75
        assert not is_majorized_by((0.4, 0.4, 0.2), (0.5, 0.25, 0.25))

    def test_zero_padding_of_shorter_vector(self):
        assert is_majorized_by((1 / 3, 1 / 3, 1 / 3), (0.5, 0.5))
        assert not is_majorized_by((0.5, 0.5), (1 / 3, 1 / 3, 1 / 3))
        # unequal sums: only the padded second partial sum tells, 0.4 > 0.3
        assert not is_majorized_by((0.2, 0.2), (0.3,))

    @pytest.mark.parametrize("kind", [tuple, list, np.array, iter])
    def test_accepts_any_iterable_of_weights(self, kind):
        assert is_majorized_by(kind((0.5, 0.5)), kind((1.0, 0.0)))
        assert not is_majorized_by(kind((1.0, 0.0)), kind((0.5, 0.5)))

    def test_each_side_is_sorted_first(self):
        # in the order given, the first partial sums read 0.2 against 0.5
        assert is_majorized_by((0.5, 0.5), (0.2, 0.8))
        assert not is_majorized_by((0.2, 0.8), (0.5, 0.5))

    def test_tolerance_is_absolute(self):
        assert is_majorized_by((0.5 + 5e-11, 0.5 - 5e-11), (0.5, 0.5))
        assert not is_majorized_by((0.5 + 5e-10, 0.5 - 5e-10), (0.5, 0.5))


class TestClassify:
    def test_identical_vectors_equivalent(self):
        v = (1 / 3, 1 / 3, 1 / 3)
        assert classify(v, v) is Verdict.EQUIVALENT

    def test_forward_only(self):
        assert classify((0.5, 0.5), (1.0, 0.0)) is Verdict.FORWARD_ONLY

    def test_backward_only(self):
        assert classify((1.0, 0.0), (0.5, 0.5)) is Verdict.BACKWARD_ONLY

    @pytest.mark.parametrize("kind", [tuple, list, np.array, iter])
    def test_reads_each_side_once(self, kind):
        # an iterator is used up by one reading: classify must not read twice
        a, b = (0.4, 0.4, 0.2), (0.5, 0.25, 0.25)
        assert classify(kind(a), kind(b)) is Verdict.INCOMPARABLE
        assert entanglement_entropy(kind(a)) == entanglement_entropy(a)

    @pytest.mark.parametrize("a, b", [
        ((0.2, 0.8), (0.5, 0.5)),
        ([0.1, 0.3, 0.6], [0.5, 0.3, 0.2]),
    ])
    def test_unsorted_weights_give_the_sorted_verdict(self, a, b):
        # partial sums taken in the order given read both pairs ForwardOnly
        ordered = sorted(a, reverse=True), sorted(b, reverse=True)
        assert classify(*ordered) is Verdict.BACKWARD_ONLY
        assert classify(a, b) is Verdict.BACKWARD_ONLY

    def test_incomparable_pair(self):
        got = classify((0.4, 0.4, 0.2), (0.5, 0.25, 0.25))
        assert got is Verdict.INCOMPARABLE

    def test_verdict_prints_its_tag(self):
        assert str(Verdict.INCOMPARABLE) == "Incomparable"


class TestFastPath:
    def test_comparable_triples(self):
        # neither relation fires; the general classifier says ForwardOnly
        a, b = (0.5, 0.3, 0.2), (0.6, 0.25, 0.15)
        assert incomparable_fast_path_d3(a, b) is False
        assert classify(a, b) is Verdict.FORWARD_ONLY

    def test_unsorted_input_rejected(self):
        with pytest.raises(FastPathInapplicable):
            incomparable_fast_path_d3((0.5, 0.26, 0.24), (0.52, 0.22, 0.26))

    def test_incomparable_triples(self):
        # second relation: b1 > a1 and b3 > a3
        a, b = (0.45, 0.35, 0.20), (0.50, 0.26, 0.24)
        assert incomparable_fast_path_d3(a, b) is True
        assert classify(a, b) is Verdict.INCOMPARABLE

    def test_ties_rejected(self):
        with pytest.raises(FastPathInapplicable):
            incomparable_fast_path_d3((0.4, 0.4, 0.2), (0.5, 0.3, 0.2))

    def test_zero_tail_rejected(self):
        with pytest.raises(FastPathInapplicable):
            incomparable_fast_path_d3((0.6, 0.4, 0.0), (0.5, 0.3, 0.2))

    def test_wrong_length_rejected(self):
        with pytest.raises(FastPathInapplicable):
            incomparable_fast_path_d3((0.6, 0.4), (0.5, 0.3, 0.2))


class TestNonFiniteWeights:
    """A NaN or infinite weight has no place in a partial-sum order, so
    every function that reads weights rejects it instead of a verdict."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_every_weight_reader_rejects_it(self, bad):
        calls = [
            lambda: classify((bad, 0.5), (1.0, 0.0)),
            lambda: classify((1.0, 0.0), [0.5, bad]),
            lambda: is_majorized_by((bad,), (1.0,)),
            lambda: is_majorized_by((1.0,), iter([bad])),
            lambda: entanglement_entropy((bad, 1.0)),
            lambda: incomparable_fast_path_d3((0.5, 0.3, 0.2), (0.6, bad, 0.1)),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"must be finite, got {bad}"):
                call()

    def test_first_non_finite_weight_is_named(self):
        with pytest.raises(ValueError, match="got -inf"):
            is_majorized_by((0.5, -math.inf, math.nan), (1.0,))


class TestPairProperties:
    """Seeded ensemble checks; the acceptance suite reruns the big ones."""

    def test_antisymmetry(self):
        rng = np.random.default_rng(421)
        flip = {
            Verdict.FORWARD_ONLY: Verdict.BACKWARD_ONLY,
            Verdict.BACKWARD_ONLY: Verdict.FORWARD_ONLY,
            Verdict.EQUIVALENT: Verdict.EQUIVALENT,
            Verdict.INCOMPARABLE: Verdict.INCOMPARABLE,
        }
        for i in range(1000):
            d = (2, 3, 4, 6)[i % 4]
            a, b = simplex_pair(rng, d)
            fa, fb = float_probs(a), float_probs(b)
            assert classify(fb, fa) is flip[classify(fa, fb)]

    def test_exact_oracle_agreement_small_sample(self):
        rng = np.random.default_rng(77)
        for i in range(200):
            d = (2, 3, 4, 6)[i % 4]
            a, b = simplex_pair(rng, d)
            got = classify(float_probs(a), float_probs(b))
            assert str(got) == exact_classify(a, b)

    def test_fast_path_matches_classifier(self):
        rng = np.random.default_rng(88)
        for _ in range(300):
            a, b = strict_triple_pair(rng)
            fa, fb = float_probs(a), float_probs(b)
            fast = incomparable_fast_path_d3(fa, fb)
            assert fast == (classify(fa, fb) is Verdict.INCOMPARABLE)

    def test_d2_is_totally_ordered(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            a, b = simplex_pair(rng, 2)
            assert classify(float_probs(a), float_probs(b)) is not Verdict.INCOMPARABLE


def _normalized(xs):
    total = sum(xs)
    return tuple(sorted((x / total for x in xs), reverse=True))


@settings(derandomize=True, max_examples=60)
@given(st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=6))
def test_reflexivity(xs):
    v = _normalized(xs)
    assert classify(v, v) is Verdict.EQUIVALENT


@settings(derandomize=True, max_examples=60)
@given(
    st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=5),
    st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=5),
)
def test_trailing_zeros_never_change_the_verdict(xs, ys):
    a = _normalized(xs)
    b = _normalized(ys)
    assert classify(a + (0.0,), b) is classify(a, b)
    assert classify(a, b + (0.0, 0.0)) is classify(a, b)


@settings(derandomize=True, max_examples=60)
@given(
    st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=5),
    st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=5),
    st.data(),
)
def test_shuffled_weights_give_the_sorted_verdict(xs, ys, data):
    a = _normalized(xs)
    b = _normalized(ys)
    shuffled_a = data.draw(st.permutations(a))
    shuffled_b = data.draw(st.permutations(b))
    assert classify(shuffled_a, shuffled_b) is classify(a, b)
