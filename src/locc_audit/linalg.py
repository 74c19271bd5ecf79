"""Dense complex linear algebra for small bipartite-state calculations.

Plain numpy on small matrices (dimension <= 96): tensor products, partial
trace over the second subsystem, and Hermitian eigenvalues through LAPACK
(numpy's eigvalsh).  All functions are pure and deterministic for fixed
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerance regime: structural identities are checked at 1e-12, iteratively
# computed quantities at 1e-10, and input normalization is gated at 1e-6
# (inputs inside the gate are renormalized silently, beyond it rejected).
ATOL_STRUCTURAL = 1e-12
ATOL_ITERATIVE = 1e-10
NORM_GATE = 1e-6


class ShapeError(ValueError):
    """Operands have incompatible or invalid dimensions."""


class NotNormalizedError(ValueError):
    """State vector norm deviates from 1 beyond the input gate."""


class NotHermitianError(ValueError):
    """Matrix is not Hermitian within tolerance."""


def _as_finite_complex(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return arr


@dataclass
class PureState:
    """Bipartite pure state, amplitudes row-major in (Alice index, Bob index).

    The amplitude vector is renormalized on construction when its norm is
    within NORM_GATE of 1; a larger deviation raises NotNormalizedError.
    """

    dim_a: int
    dim_b: int
    amps: np.ndarray

    def __post_init__(self):
        if self.dim_a < 1 or self.dim_b < 1:
            raise ShapeError("subsystem dimensions must be positive")
        self.amps = _as_finite_complex(self.amps, "amps").reshape(-1)
        if self.amps.size != self.dim_a * self.dim_b:
            raise ShapeError(
                f"expected {self.dim_a * self.dim_b} amplitudes, got {self.amps.size}"
            )
        with np.errstate(over="ignore"):  # an overflowing norm reads as inf
            norm = float(np.linalg.norm(self.amps))
        if abs(norm - 1.0) > NORM_GATE:
            raise NotNormalizedError(f"state norm {norm} is outside the 1e-6 gate")
        self.amps = self.amps / norm


@dataclass
class DensityMatrix:
    """Hermitian, trace-one matrix (a reduced state on one side)."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        self.entries = _as_finite_complex(self.entries, "entries")
        if self.entries.shape != (self.dim, self.dim):
            raise ShapeError(f"expected a {self.dim}x{self.dim} matrix")
        if np.max(np.abs(self.entries - self.entries.conj().T)) > ATOL_STRUCTURAL:
            raise NotHermitianError("density matrix is not Hermitian within 1e-12")
        tr = complex(np.trace(self.entries))
        if abs(tr - 1.0) > ATOL_ITERATIVE:
            raise ValueError(f"density matrix trace {tr} is not 1 within 1e-10")


def kron(a, b) -> np.ndarray:
    """Tensor (Kronecker) product of two matrices or vectors."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.size == 0 or b.size == 0:
        raise ShapeError("kron operands must be non-empty")
    return np.kron(a, b)


def partial_trace_b(state: PureState) -> DensityMatrix:
    """Reduced density matrix on the first subsystem, tracing out the second.

    rho[j, k] = sum_m amps[j, m] * conj(amps[k, m]).  The result is divided
    by its trace so the unit-trace invariant holds exactly.
    """
    amps = np.asarray(state.amps, dtype=np.complex128).reshape(-1)
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > NORM_GATE:
        raise NotNormalizedError(f"state norm {norm} is outside the 1e-6 gate")
    m = amps.reshape(state.dim_a, state.dim_b)
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    return DensityMatrix(state.dim_a, rho)


def hermitian_eigs(h) -> np.ndarray:
    """Eigenvalues (descending) of a Hermitian matrix via LAPACK's eigvalsh.

    Accepts a plain ndarray or a DensityMatrix.  The input must be
    Hermitian within 1e-10 and is symmetrized before the solve.
    """
    if isinstance(h, DensityMatrix):
        h = h.entries
    a = _as_finite_complex(h, "matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError("expected a square matrix")
    if np.max(np.abs(a - a.conj().T)) > ATOL_ITERATIVE:
        raise NotHermitianError("matrix is not Hermitian within 1e-10")
    return np.linalg.eigvalsh((a + a.conj().T) / 2.0)[::-1]
