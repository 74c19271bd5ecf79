"""Dense-linalg layer: products, partial trace, and the eigh wrapper."""

from __future__ import annotations

import numpy as np
import pytest

from locc_audit import (
    ATOL_ITERATIVE,
    ATOL_STRUCTURAL,
    DensityMatrix,
    NotHermitianError,
    NotNormalizedError,
    PureState,
    ShapeError,
    apply_cloner,
    build_initial,
    expand,
    gram_reduced_density,
    hermitian_eigs,
    kron,
    partial_trace_b,
)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


def random_pure_state(rng: np.random.Generator, da: int, db: int) -> PureState:
    amps = rng.normal(size=(da, db)) + 1j * rng.normal(size=(da, db))
    amps /= np.linalg.norm(amps)
    return PureState(da, db, amps)


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


class TestPureState:
    def test_small_norm_drift_is_renormalized(self):
        amps = np.zeros((2, 2), dtype=complex)
        amps[0, 0] = 1.0 + 2e-7
        state = PureState(2, 2, amps)
        assert abs(np.linalg.norm(state.amps) - 1.0) <= 1e-12

    def test_gross_norm_violation_rejected(self):
        amps = np.zeros((2, 2), dtype=complex)
        amps[0, 0] = 1.5
        with pytest.raises(NotNormalizedError):
            PureState(2, 2, amps)

    def test_nonfinite_amplitude_rejected(self):
        amps = np.zeros((2, 2), dtype=complex)
        amps[0, 0] = np.nan
        with pytest.raises(ValueError):
            PureState(2, 2, amps)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            PureState(2, 3, np.zeros((2, 2), dtype=complex))

    def test_nonpositive_dimension_rejected(self):
        with pytest.raises(ShapeError, match="subsystem dimensions must be positive"):
            PureState(0, 2, np.zeros(0, dtype=complex))


class TestPartialTrace:
    def test_bell_state_is_maximally_mixed(self):
        amps = np.zeros((2, 2), dtype=complex)
        amps[0, 0] = amps[1, 1] = 1.0 / np.sqrt(2.0)
        rho = partial_trace_b(PureState(2, 2, amps))
        np.testing.assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-15)

    def test_product_state_is_rank_one(self):
        amps = np.zeros((2, 3), dtype=complex)
        amps[1, 2] = 1.0
        rho = partial_trace_b(PureState(2, 3, amps))
        expected = np.zeros((2, 2))
        expected[1, 1] = 1.0
        np.testing.assert_allclose(rho.entries, expected, atol=1e-15)

    def test_witness_initial_reduced_state_at_half(self):
        # exact reduction is diag(17, 15, 15) / 47
        state = expand(build_initial(0.5))
        rho = partial_trace_b(state)
        expected = np.diag([17.0, 15.0, 15.0]) / 47.0
        np.testing.assert_allclose(rho.entries, expected, atol=ATOL_STRUCTURAL)

    def test_tampered_norm_rejected(self):
        amps = np.zeros((2, 2), dtype=complex)
        amps[0, 0] = amps[1, 1] = 1.0 / np.sqrt(2.0)
        state = PureState(2, 2, amps)
        object.__setattr__(state, "amps", state.amps * 1.5)
        with pytest.raises(NotNormalizedError):
            partial_trace_b(state)

    def test_random_states_yield_valid_density_matrices(self):
        """Hermiticity, unit trace, and positivity on a seeded ensemble."""
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            da = int(rng.integers(2, 4))
            db = int(rng.integers(2, 33))
            rho = partial_trace_b(random_pure_state(rng, da, db))
            h = rho.entries
            assert np.max(np.abs(h - h.conj().T)) <= ATOL_STRUCTURAL
            assert abs(np.trace(h).real - 1.0) <= ATOL_ITERATIVE
            assert np.linalg.eigvalsh(h).min() >= -1e-12


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            DensityMatrix(2, np.array([[0.5, 0.1], [0.2, 0.5]], dtype=complex))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(2, np.eye(2, dtype=complex))

    def test_rejects_nonfinite(self):
        bad = np.eye(2, dtype=complex) / 2
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            DensityMatrix(2, bad)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ShapeError, match="expected a 2x2 matrix"):
            DensityMatrix(2, np.eye(3))


class TestHermitianEigs:
    def test_identity(self):
        np.testing.assert_allclose(hermitian_eigs(np.eye(3)), [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("c", [0.25, 0.5, 1.0])
    def test_symmetric_two_by_two(self, c):
        h = np.array([[2.0, -c], [-c, 2.0]])
        np.testing.assert_allclose(
            hermitian_eigs(h), [2.0 + c, 2.0 - c], atol=ATOL_STRUCTURAL
        )

    def test_witness_final_spectrum_at_half(self):
        # eigenvalues 35/95, 33/95, 27/95 of the cloned-state reduction
        rho = gram_reduced_density(apply_cloner(build_initial(0.5)))
        expected = np.array([35.0, 33.0, 27.0]) / 95.0
        np.testing.assert_allclose(hermitian_eigs(rho), expected, atol=ATOL_STRUCTURAL)

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

    def test_accepts_density_matrix_wrapper(self):
        rho = DensityMatrix(2, np.eye(2, dtype=complex) / 2)
        np.testing.assert_allclose(hermitian_eigs(rho), [0.5, 0.5])

    def test_one_by_one(self):
        np.testing.assert_allclose(hermitian_eigs(np.array([[3.5]])), [3.5])

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hermitian_eigs(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError, match="expected a square matrix"):
            hermitian_eigs(np.ones((2, 3)))
