"""Exact computation in the geometry of totally nonnegative matrices.

The package connects three pictures of the same cell decomposition: grid
diagrams with their restoration algorithm, planar networks with path
counting, and restricted permutations with their minor families, plus the
quantum and Poisson algebras sitting over the same combinatorics.

The names below are the library example of the README and the error types
every call may raise; everything else is imported from its module.
"""

from .cauchon import tnn_test, vanishing_family
from .cells import cell_of
from .diagrams import CauchonDiagram
from .errors import ConsistencyError, DomainError, ResourceGuardError
from .matrices import Matrix
from .permutations import pipe_dream

__version__ = "0.1.0"

__all__ = [
    "CauchonDiagram",
    "ConsistencyError",
    "DomainError",
    "Matrix",
    "ResourceGuardError",
    "cell_of",
    "pipe_dream",
    "tnn_test",
    "vanishing_family",
]
