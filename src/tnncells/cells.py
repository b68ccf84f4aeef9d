"""Admissible minor families and cell classification of TNN matrices.

A family of minors is admissible when some totally nonnegative matrix
vanishes exactly on it. Each such family is indexed two independent ways:
by a diagram (the zero minors of its restored unit-weight canonical matrix)
and by a restricted permutation (through its combinatorial minor family).
A matrix living in the cell gives a third reading, its own zero minors.
The theory says they agree; this module computes them separately and
treats any disagreement as an internal error rather than a tolerable
approximation.

:func:`unifying_check` walks a grid once. Each diagram's witness is restored
and scanned once, for the first two readings and, for ``verify all``, for the
Lindstrom comparison with its network's path-family counts. The walk keeps
only mismatches and counts, and checks its diagram count by formula.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cache, partial
from itertools import chain
from operator import eq
from typing import Any, Iterable

from . import guards
from .diagrams import CauchonDiagram, enumerate_diagrams, poly_bernoulli
from .errors import ConsistencyError, DomainError
from .matrices import Matrix, MinorFamily, MinorIndex, iter_minor_indices, scan_minors
from .networks import nonintersecting_counts, postnikov_network
from .permutations import Permutation, minor_family, pipe_dream
from .cauchon import tnn_test, vanishing_family, witness_scan


@dataclass(frozen=True)
class CellDescriptor:
    """One nonempty cell: its minor family with both combinatorial labels."""

    family: MinorFamily
    diagram: CauchonDiagram
    permutation: Permutation

    def __post_init__(self) -> None:
        if (self.family.m, self.family.p) != (self.diagram.m, self.diagram.p):
            raise DomainError("family and diagram ambient sizes differ")
        if self.permutation.n != self.diagram.m + self.diagram.p:
            raise DomainError("permutation size does not match the grid")

    def to_json(self) -> dict[str, Any]:
        return {
            "diagram": self.diagram.to_json(),
            "permutation": self.permutation.one_line(),
            "family": self.family.to_json(),
        }


def admissible_families(m: int, p: int) -> tuple[CellDescriptor, ...]:
    """One descriptor per diagram, in diagram enumeration order.

    Families come from the permutation route, which is pure combinatorics;
    the exhaustive agreement with the restoration route is the job of
    :func:`unifying_check`. Distinctness across descriptors is still
    asserted here because admissibility testing relies on it. Each grid is
    built once per process; the guard is checked on every call.
    """
    guards.ensure_enumerable(m, p, what="cell enumeration")
    return tuple(_admissible_table(m, p).values())


@cache
def _admissible_table(m: int, p: int) -> dict[int, CellDescriptor]:
    """The grid's descriptors keyed by the mask of their family."""
    table: dict[int, CellDescriptor] = {}
    for diagram in enumerate_diagrams(m, p):
        w = pipe_dream(diagram)
        family = minor_family(w, m, p)
        if family.mask in table:
            raise ConsistencyError(
                f"diagrams {table[family.mask].diagram} and {diagram} share a family"
            )
        table[family.mask] = CellDescriptor(family, diagram, w)
    return table


@dataclass(frozen=True)
class AdmissibleVerdict:
    admissible: bool
    descriptor: CellDescriptor | None


def is_admissible(family: MinorFamily) -> AdmissibleVerdict:
    """Is the family the vanishing set of some nonempty cell?"""
    guards.ensure_enumerable(family.m, family.p, what="cell enumeration")
    descriptor = _admissible_table(family.m, family.p).get(family.mask)
    return AdmissibleVerdict(descriptor is not None, descriptor)


def cell_of(matrix: Matrix) -> CellDescriptor:
    """Classify a TNN matrix by the cell it belongs to.

    Three routes are computed and compared: the matrix's own vanishing
    minors, the vanishing family of the diagram produced by deleting
    derivations (read off that diagram's unit-weight witness), and the minor
    family of that diagram's permutation. Disagreement raises
    ConsistencyError since it would falsify the classification theorems,
    not merely this input.
    """
    scan = scan_minors(matrix)
    if scan.negative is not None:
        raise DomainError("matrix is not totally nonnegative: minor {} = {}".format(*scan.negative))
    direct = scan.zeros
    verdict = tnn_test(matrix)
    if not verdict.is_tnn or verdict.diagram is None:
        raise ConsistencyError(
            "brute-force minors say TNN but deleting derivations disagrees"
        )
    diagram = verdict.diagram
    via_restoration = vanishing_family(diagram)
    w = pipe_dream(diagram)
    via_permutation = minor_family(w, matrix.m, matrix.p)
    routes = (("permutation", via_permutation), ("restoration", via_restoration))
    for route, family in routes:
        if direct.mask != family.mask:
            raise ConsistencyError(
                f"direct minors {direct} disagree with {route} family {family} "
                f"for diagram\n{diagram}"
            )
    return CellDescriptor(direct, diagram, w)


# ---------------------------------------------------------------------------
# The exhaustive cross-check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnifyingReport:
    """One walk over a grid. ``expected`` is its diagram count by formula, and
    ``lindstrom`` is (checked, mismatched) minors against path-family counts,
    None when the walk was not asked for them."""

    m: int
    p: int
    total: int
    expected: int
    agreements: int
    mismatches: tuple[dict[str, Any], ...]
    elapsed: float
    lindstrom: tuple[int, int] | None = None

    @property
    def ok(self) -> bool:
        """Every diagram's routes agree, and the walk saw as many as expected."""
        return not self.mismatches and self.total == self.expected

    def to_json(self) -> dict[str, Any]:
        return {
            "m": self.m,
            "p": self.p,
            "total": self.total,
            "expected": self.expected,
            "agreements": self.agreements,
            "mismatches": list(self.mismatches),
            "elapsed_seconds": round(self.elapsed, 3),
            "ok": self.ok,
        }


def _check_diagram(
    diagram: CauchonDiagram, indices: tuple[MinorIndex, ...] | None = None
) -> tuple[dict[str, Any] | None, int]:
    """Worker: from the diagram's :func:`~tnncells.cauchon.witness_scan`, check
    Cauchon's theorem, that the unit-weight witness is TNN, which no deletion
    sweep can (it undoes any restoration), naming the scan's negative minor,
    then compare its zero minors with the permutation's family. Return that
    mismatch or None, and how many of ``indices`` (the grid's minors in scan
    order) differ from the network's disjoint path-family counts, which
    Lindstrom-Gessel-Viennot says they equal; an unscanned size differs."""
    scan = witness_scan(diagram)
    missed = 0
    if indices is not None:
        counts = nonintersecting_counts(postnikov_network(diagram), indices)
        missed = len(indices) - sum(map(eq, counts, chain(*scan.sizes)))
    w = pipe_dream(diagram)
    via_permutation = minor_family(w, diagram.m, diagram.p)
    if scan.negative is not None:
        problem, via_restoration = "witness minor {} = {} is negative".format(*scan.negative), None
    elif (zeros := scan.zeros).mask != via_permutation.mask:
        problem = "restoration family differs from permutation family"
        via_restoration = str(zeros)
    else:
        return None, missed
    return {
        "diagram": diagram.to_json(),
        "permutation": w.one_line(),
        "problems": [problem],
        "restoration": via_restoration,
        "permutation_family": str(via_permutation),
    }, missed


def unifying_check(
    m: int, p: int, *, jobs: int = 1, lindstrom: bool = False
) -> UnifyingReport:
    """Verify the route agreement for every diagram of the grid in one walk, and
    its diagram count against :func:`~tnncells.diagrams.poly_bernoulli`. With
    ``lindstrom``, as ``verify all`` asks, the same scans and workers also
    compare every minor with its network's path-family count."""
    guards.ensure_enumerable(m, p, what="unifying check")
    started = time.monotonic()
    indices = tuple(iter_minor_indices(m, p)) if lindstrom else None
    check = partial(_check_diagram, indices=indices)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            total, mismatches, missed = _tally(pool.map(check, enumerate_diagrams(m, p), chunksize=8))
    else:
        total, mismatches, missed = _tally(map(check, enumerate_diagrams(m, p)))
    return UnifyingReport(
        m, p, total, poly_bernoulli(m, p), total - len(mismatches), tuple(mismatches),
        time.monotonic() - started,
        None if indices is None else (total * len(indices), missed),
    )


def _tally(results: Iterable[tuple[dict[str, Any] | None, int]]) -> tuple[int, list, int]:
    """(diagrams, mismatches, minors missed) over the workers' results."""
    total = missed = 0
    mismatches = []
    for mismatch, misses in results:
        total += 1
        missed += misses
        if mismatch is not None:
            mismatches.append(mismatch)
    return total, mismatches, missed
