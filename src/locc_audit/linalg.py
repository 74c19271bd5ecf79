"""Dense complex linear algebra for small bipartite-state calculations.

Plain numpy on small matrices (dimension <= 96): tensor products, the
norm gate of a pure state (its amplitude matrix), partial trace over the
second subsystem, and Hermitian eigenvalues through LAPACK (numpy's
eigvalsh).  All functions are pure and deterministic for fixed
inputs.
"""

from __future__ import annotations

import numpy as np

# Input gates: hermitian_eigs rejects an entry of h - h^H beyond
# ATOL_ITERATIVE; normalized divides a pure state by a norm within
# NORM_GATE of 1 and rejects one beyond it (exit 3 for a state file).
ATOL_ITERATIVE = 1e-10
NORM_GATE = 1e-6


class ShapeError(ValueError):
    """Operands have incompatible or invalid dimensions."""


class NotNormalizedError(ValueError):
    """Pure-state norm deviates from 1 beyond the input gate."""


class NotHermitianError(ValueError):
    """Matrix is not Hermitian within tolerance."""


def _finite_matrix(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    if arr.ndim != 2 or arr.size == 0:
        raise ShapeError(f"expected a non-empty matrix, got shape {arr.shape}")
    return arr


def normalized(amps) -> np.ndarray:
    """A bipartite pure state: its (dim_a, dim_b) amplitude matrix, Alice's
    index first, divided by its norm, which must lie within NORM_GATE of 1
    (else NotNormalizedError)."""
    m = _finite_matrix(amps, "amps")
    with np.errstate(over="ignore"):  # an overflowing norm reads as inf
        norm = float(np.linalg.norm(m))
    if abs(norm - 1.0) > NORM_GATE:
        raise NotNormalizedError(f"state norm {norm} is outside the 1e-6 gate")
    return m / norm


def kron(a, b) -> np.ndarray:
    """Tensor (Kronecker) product of two matrices or vectors."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.size == 0 or b.size == 0:
        raise ShapeError("kron operands must be non-empty")
    return np.kron(a, b)


def partial_trace_b(amps) -> np.ndarray:
    """Reduced density matrix on the first subsystem, tracing out the second:
    the (dim_a, dim_a) complex array m m^H of the gated m = normalized(amps),
    Hermitian by construction, with trace 1 within rounding."""
    m = normalized(amps)
    return m @ m.conj().T


def hermitian_eigs(h) -> np.ndarray:
    """Eigenvalues (descending) of a Hermitian matrix via LAPACK's eigvalsh.

    The input must be finite, square, non-empty and Hermitian within 1e-10
    (ATOL_ITERATIVE); it is symmetrized before the solve.
    """
    a = _finite_matrix(h, "matrix")
    if a.shape[0] != a.shape[1]:
        raise ShapeError("expected a square matrix")
    if np.max(np.abs(a - a.conj().T)) > ATOL_ITERATIVE:
        raise NotHermitianError("matrix is not Hermitian within 1e-10")
    return np.linalg.eigvalsh((a + a.conj().T) / 2.0)[::-1]
