"""Majorization-based LOCC convertibility of bipartite pure states, with a
verification sweep over the no-cloning/no-deleting witness construction.
A name not exported here is imported from its module."""

from .construction import (
    INITIAL_TERMS,
    DegenerateOverlapError,
    apply_cloner,
    apply_deleter,
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
)
from .linalg import hermitian_eigs, partial_trace_b
from .majorization import (
    Verdict,
    classify,
    entanglement_entropy,
    incomparable_fast_path_d3,
    is_majorized_by,
    schmidt_vector,
)
from .sweep import (
    PairReport,
    ThresholdResult,
    classify_block,
    classify_construction,
    find_threshold,
    grid,
    no_deleting_check,
)

__version__ = "0.1.0"
