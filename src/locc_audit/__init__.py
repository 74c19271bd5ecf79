"""Majorization-based LOCC convertibility of bipartite pure states, with a
verification sweep over the no-cloning/no-deleting witness construction."""

from .construction import (
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
    raw_expansion,
    witness_gram,
)
from .linalg import (
    ATOL_ITERATIVE,
    ATOL_STRUCTURAL,
    NORM_GATE,
    DensityMatrix,
    NotHermitianError,
    NotNormalizedError,
    PureState,
    ShapeError,
    hermitian_eigs,
    kron,
    partial_trace_b,
)
from .majorization import (
    FastPathInapplicable,
    Verdict,
    classify,
    entanglement_entropy,
    incomparable_fast_path_d3,
    is_majorized_by,
    schmidt_vector,
)
from .sweep import (
    REPORT_FIELDS,
    InternalInconsistencyError,
    NonMonotoneBoundaryError,
    PairReport,
    SweepRangeError,
    ThresholdResult,
    classify_block,
    classify_construction,
    find_threshold,
    grid,
    no_deleting_check,
    report_row,
)

__version__ = "0.1.0"
