"""Exact computation in the geometry of totally nonnegative matrices.

The package connects three pictures of the same cell decomposition: grid
diagrams with their restoration algorithm, planar networks with path
counting, and restricted permutations with their minor families, plus the
quantum and Poisson algebras sitting over the same combinatorics.
"""

from .cells import (
    AdmissibleVerdict,
    CellDescriptor,
    UnifyingReport,
    admissible_families,
    cell_of,
    is_admissible,
    unifying_check,
)
from .diagrams import CauchonDiagram, count_diagrams, enumerate_diagrams, is_cauchon, non_le_fillings
from .errors import ConsistencyError, DomainError, ResourceGuardError
from .matrices import (
    Matrix,
    MinorFamily,
    MinorIndex,
    all_minors,
    initial_minors,
    is_tnn_bruteforce,
    is_tp,
    minor,
    minor_count,
)
from .networks import PlanarNetwork, nonintersecting_count, path_matrix, postnikov_network
from .permutations import (
    Permutation,
    bruhat_leq,
    enumerate_restricted,
    inverse_pipe_dream,
    longest_element,
    minor_family,
    pipe_dream,
)
from .poisson import FlowPath, FlowReport, bracket, jacobi_check, semiclassical_check, verify_flow
from .quantum import QPoly, commutator, is_central_2x2_determinant, quantum_minor
from .cauchon import (
    TnnVerdict,
    build_TC,
    delete_step,
    deleting_derivations,
    ones_TC,
    restoration,
    restore_step,
    symbolic_TC,
    tnn_test,
    vanishing_family,
)
from .scalars import LaurentQ, MPoly, QQ

__version__ = "0.1.0"

__all__ = [
    "AdmissibleVerdict",
    "CauchonDiagram",
    "CellDescriptor",
    "ConsistencyError",
    "DomainError",
    "FlowPath",
    "FlowReport",
    "LaurentQ",
    "MPoly",
    "Matrix",
    "MinorFamily",
    "MinorIndex",
    "Permutation",
    "PlanarNetwork",
    "QPoly",
    "QQ",
    "ResourceGuardError",
    "TnnVerdict",
    "UnifyingReport",
    "admissible_families",
    "all_minors",
    "bracket",
    "bruhat_leq",
    "build_TC",
    "cell_of",
    "commutator",
    "count_diagrams",
    "delete_step",
    "deleting_derivations",
    "enumerate_diagrams",
    "enumerate_restricted",
    "initial_minors",
    "inverse_pipe_dream",
    "is_admissible",
    "is_cauchon",
    "is_central_2x2_determinant",
    "is_tnn_bruteforce",
    "is_tp",
    "jacobi_check",
    "longest_element",
    "minor",
    "minor_count",
    "minor_family",
    "non_le_fillings",
    "nonintersecting_count",
    "ones_TC",
    "path_matrix",
    "pipe_dream",
    "postnikov_network",
    "quantum_minor",
    "restoration",
    "restore_step",
    "semiclassical_check",
    "symbolic_TC",
    "tnn_test",
    "unifying_check",
    "vanishing_family",
    "verify_flow",
]
