"""Dense-linalg layer: products, partial trace, and the eigh wrapper."""

from __future__ import annotations

import numpy as np
import pytest

from locc_audit import (
    apply_cloner,
    build_initial,
    expand,
    gram_reduced_density,
    hermitian_eigs,
    partial_trace_b,
)
from locc_audit.linalg import (
    ATOL_ITERATIVE,
    NotHermitianError,
    NotNormalizedError,
    ShapeError,
    kron,
    normalized,
)

# structural identities (Hermiticity, exact reductions) hold to this
STRUCTURAL_TOL = 1e-12


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


def random_pure_state(rng: np.random.Generator, da: int, db: int) -> np.ndarray:
    amps = rng.normal(size=(da, db)) + 1j * rng.normal(size=(da, db))
    amps /= np.linalg.norm(amps)
    return amps


class TestKron:
    def test_identity_pair(self):
        out = kron(np.eye(2), np.eye(2))
        np.testing.assert_array_equal(out, np.eye(4))

    def test_basis_vectors(self):
        e0 = np.array([1.0, 0.0])
        e1 = np.array([0.0, 1.0])
        np.testing.assert_array_equal(kron(e0, e1), [0.0, 1.0, 0.0, 0.0])

    def test_hand_expanded_block(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        two = 2.0 * np.eye(2)
        expected = np.array(
            [
                [0.0, 0.0, 2.0, 0.0],
                [0.0, 0.0, 0.0, 2.0],
                [2.0, 0.0, 0.0, 0.0],
                [0.0, 2.0, 0.0, 0.0],
            ]
        )
        np.testing.assert_array_equal(kron(x, two), expected)

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            np.testing.assert_allclose(
                np.trace(kron(a, b)), np.trace(a) * np.trace(b), atol=1e-12
            )

    def test_empty_operand_rejected(self):
        with pytest.raises(ShapeError):
            kron(np.zeros((0, 2)), np.eye(2))


class TestNormalized:
    def test_small_norm_drift_is_renormalized(self):
        amps = np.zeros((2, 2), dtype=complex)
        amps[0, 0] = 1.0 + 2e-7
        state = normalized(amps)
        assert state.shape == (2, 2)
        assert abs(np.linalg.norm(state) - 1.0) <= 1e-12

    def test_gross_norm_violation_rejected(self):
        amps = np.zeros((2, 2), dtype=complex)
        amps[0, 0] = 1.5
        with pytest.raises(
            NotNormalizedError, match=r"^state norm 1\.5 is outside the 1e-6 gate$"
        ):
            normalized(amps)

    def test_nonfinite_amplitude_rejected(self):
        amps = np.zeros((2, 2), dtype=complex)
        amps[0, 0] = np.nan
        with pytest.raises(ValueError, match="^amps contains NaN or Inf entries$"):
            normalized(amps)

    def test_shape_mismatch_rejected(self):
        # a flat amplitude vector is not a state: the gate takes the matrix
        with pytest.raises(ShapeError):
            normalized(np.array([1.0, 0.0, 0.0, 0.0]))

    def test_nonpositive_dimension_rejected(self):
        for empty in (np.zeros((0, 2)), np.zeros((2, 0)), np.zeros((0, 0))):
            with pytest.raises(ShapeError, match="expected a non-empty matrix"):
                normalized(empty)

    def test_finite_check_comes_first(self):
        # a NaN in a non-matrix is named as a NaN, not as a shape fault
        with pytest.raises(ValueError, match="^amps contains NaN or Inf entries$"):
            normalized(np.array([np.nan, 1.0]))


class TestPartialTrace:
    def test_bell_state_is_maximally_mixed(self):
        amps = np.zeros((2, 2), dtype=complex)
        amps[0, 0] = amps[1, 1] = 1.0 / np.sqrt(2.0)
        rho = partial_trace_b(amps)
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-15)

    def test_product_state_is_rank_one(self):
        amps = np.zeros((2, 3), dtype=complex)
        amps[1, 2] = 1.0
        rho = partial_trace_b(amps)
        expected = np.zeros((2, 2))
        expected[1, 1] = 1.0
        np.testing.assert_allclose(rho, expected, atol=1e-15)

    def test_witness_initial_reduced_state_at_half(self):
        # exact reduction is diag(17, 15, 15) / 47
        state = expand(build_initial(0.5))
        rho = partial_trace_b(state)
        expected = np.diag([17.0, 15.0, 15.0]) / 47.0
        np.testing.assert_allclose(rho, expected, atol=STRUCTURAL_TOL)

    def test_tampered_norm_rejected(self):
        amps = np.zeros((2, 2), dtype=complex)
        amps[0, 0] = amps[1, 1] = 1.0 / np.sqrt(2.0)
        with pytest.raises(NotNormalizedError):
            partial_trace_b(amps * 1.5)

    def test_norm_drift_within_the_gate_is_divided_out(self):
        # a norm 5e-7 off passes the gate, and the trace is still 1
        amps = np.zeros((2, 2), dtype=complex)
        amps[0, 0] = amps[1, 1] = 1.0 / np.sqrt(2.0)
        rho = partial_trace_b(amps * (1.0 + 5e-7))
        assert abs(np.trace(rho) - 1.0) <= 1e-15

    def test_random_states_yield_valid_density_matrices(self):
        """Hermiticity, unit trace, and positivity on a seeded ensemble."""
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            da = int(rng.integers(2, 4))
            db = int(rng.integers(2, 33))
            h = partial_trace_b(random_pure_state(rng, da, db))
            assert np.max(np.abs(h - h.conj().T)) <= STRUCTURAL_TOL
            assert abs(np.trace(h).real - 1.0) <= ATOL_ITERATIVE
            assert np.linalg.eigvalsh(h).min() >= -1e-12


class TestHermitianEigs:
    def test_identity(self):
        np.testing.assert_allclose(hermitian_eigs(np.eye(3)), [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("c", [0.25, 0.5, 1.0])
    def test_symmetric_two_by_two(self, c):
        h = np.array([[2.0, -c], [-c, 2.0]])
        np.testing.assert_allclose(
            hermitian_eigs(h), [2.0 + c, 2.0 - c], atol=STRUCTURAL_TOL
        )

    def test_witness_final_spectrum_at_half(self):
        # eigenvalues 35/95, 33/95, 27/95 of the cloned-state reduction
        rho = gram_reduced_density(apply_cloner(build_initial(0.5)))
        expected = np.array([35.0, 33.0, 27.0]) / 95.0
        np.testing.assert_allclose(hermitian_eigs(rho), expected, atol=STRUCTURAL_TOL)

    def test_descending_order_and_oracle_agreement(self):
        rng = np.random.default_rng(99)
        for n in range(2, 9):
            for _ in range(8):
                h = random_hermitian(rng, n)
                got = hermitian_eigs(h)
                assert np.all(np.diff(got) <= 1e-14)
                np.testing.assert_allclose(
                    got, np.linalg.eigvalsh(h)[::-1], atol=1e-12
                )

    def test_large_matrix(self):
        """96 x 96 case: matches the reference solver."""
        rng = np.random.default_rng(960)
        h = random_hermitian(rng, 96)
        np.testing.assert_allclose(
            hermitian_eigs(h), np.linalg.eigvalsh(h)[::-1],
            atol=1e-10 * np.linalg.norm(h),
        )

    def test_one_by_one(self):
        np.testing.assert_allclose(hermitian_eigs(np.array([[3.5]])), [3.5])

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hermitian_eigs(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_reads_both_triangles(self):
        # Hermitian within the gate, not exactly: the eigenvalues are those
        # of the Hermitian part, whichever triangle holds the larger entry
        h = np.array([[0.0, 1.0 + 4e-11], [1.0, 0.0]])
        np.testing.assert_array_equal(hermitian_eigs(h), hermitian_eigs(h.T))
        np.testing.assert_allclose(
            hermitian_eigs(h), [1.0 + 2e-11, -1.0 - 2e-11], rtol=0, atol=1e-14
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite(self, bad):
        h = np.eye(2)
        h[0, 0] = bad
        with pytest.raises(ValueError, match="^matrix contains NaN or Inf entries$"):
            hermitian_eigs(h)

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError, match="expected a square matrix"):
            hermitian_eigs(np.ones((2, 3)))

    @pytest.mark.parametrize("shape", [(0, 0), (3,), (1, 1, 1)])
    def test_rejects_empty_or_non_matrix(self, shape):
        # (0, 0) once reached numpy's max and raised its zero-size error
        with pytest.raises(ShapeError, match="expected a non-empty matrix"):
            hermitian_eigs(np.zeros(shape))
