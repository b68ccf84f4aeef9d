"""Admissible minor families and cell classification of TNN matrices.

A family of minors is admissible when some totally nonnegative matrix
vanishes exactly on it. Each such family is indexed two independent ways:
by a diagram (the zero minors of its restored unit-weight canonical matrix)
and by a restricted permutation (through its combinatorial minor family).
A matrix living in the cell gives a third reading, its own zero minors.
The theory says they agree; this module computes them separately and
treats any disagreement as an internal error rather than a tolerable
approximation.

:func:`unifying_check` walks a grid once, depth first from the bottom row up
(see :class:`_Walk`). Witness row i and every path from source i depend only
on diagram rows i..m, so a walk node restores row i, adds the minor tables
with top row i and, for ``verify all``, extends the disjoint path families
and compares the new minors with their counts, once for every diagram above
it; each leaf, one diagram, compares its zero mask with its permutation's
family, an OR of necklace terms. A node's row fixes a prefix of the pipe
dream's inverse and with it one more term, so each node ORs that term into
its parent's, and a leaf adds only the last p of the n. The walk keeps only
mismatches and counts, checks its diagram count by formula, and splits
across workers by bottom row.

Row 1 has no row above it, so three things are linear in its 0/1 seed row:
witness row 1, every minor with row 1 and every path-family count from
source 1. For a row-1 white set S with lowest column low, S's row, minors
and counts are the sums of those of S - {low} and {low}. If no singleton
{a} has a negative minor, a row-1 minor of S then vanishes exactly when it
vanishes for both, so S's zero mask is the AND of theirs, and S is charged
the path steps the full route would spend. The empty row's seed is 0, so
its row and its minors with row 1 are 0, and no path leaves source 1. Most
leaves have two or more white cells in row 1 or none and are read this way,
with no restoration, minor kernel or path walk of their own; their
permutation route still runs in full. :class:`_Walk` proves these and says
when it falls back.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache, lru_cache, partial
from math import comb
from operator import add, itemgetter, ne
from typing import Any, Iterator

from . import guards
from .diagrams import CauchonDiagram, enumerate_diagrams, poly_bernoulli, row_forces
from .errors import ConsistencyError, DomainError, require_grid
from .matrices import Matrix, MinorFamily, _top_row_plan, scan_int_minors, scan_minors, subsets
from .networks import GridNetwork, _row_step
from .permutations import (
    Permutation, _necklace_mask, _necklace_step, _necklace_term, is_restricted, minor_family,
    pipe_dream, pipe_dream_suffix,
)
from .cauchon import tnn_test, vanishing_family, witness_row


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
    built once per process; the sizes and the guard are checked on every call.
    """
    require_grid(m, p)
    guards.ensure_enumerable(m, p, what="cell enumeration")
    return tuple(_admissible_table(m, p).values())


@cache
def _admissible_table(m: int, p: int) -> dict[int, CellDescriptor]:
    """The grid's descriptors keyed by the mask of their family."""
    table: dict[int, CellDescriptor] = {}
    terms: dict[tuple[int, int], int] = {}  # necklace terms, see _necklace_term
    for diagram in enumerate_diagrams(m, p):
        w = pipe_dream(diagram)
        family = MinorFamily._from_mask(m, p, _necklace_mask(w.inverse().images, m, p, terms))
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


def check_walk(m: int, p: int, jobs: int) -> None:
    """Refuse what :func:`unifying_check` cannot take before it starts: sizes
    or a worker count below 1 (DomainError), and a grid or worker count over
    its guards."""
    require_grid(m, p)
    guards.ensure_enumerable(m, p, what="unifying check")
    if jobs < 1:
        raise DomainError(f"jobs must be at least 1, got {jobs}")
    guards.ensure(jobs, guards.WORKER_LIMIT, "worker processes")
    guards.ensure_minor_table(m, p)
    guards.ensure_sweep(m, p)
    guards.ensure_minor_family(m, p)


def unifying_check(
    m: int, p: int, *, jobs: int = 1, lindstrom: bool = False
) -> UnifyingReport:
    """Verify the route agreement for every diagram of the grid in one walk
    (see :class:`_Walk`), and its diagram count against
    :func:`~tnncells.diagrams.poly_bernoulli`. With ``lindstrom``, as ``verify
    all`` asks, the walk also compares every minor with its network's
    path-family count. ``jobs`` workers split the walk by bottom row, one task
    per pattern, and return only counts and mismatches, in any order;
    mismatches are reported in :func:`~tnncells.diagrams.enumerate_diagrams`
    order. The pool's modules load only when ``jobs`` is above 1, and the
    first task to raise (a guard trip, a consistency failure) ends every
    worker at once: leaving the pool's block terminates it."""
    check_walk(m, p, jobs)
    started = time.monotonic()
    # one necklace term memo for the check; a task sent to a worker takes its own copy
    walk = partial(_walk_bottom, m, p, lindstrom, {})
    if jobs > 1:
        from multiprocessing import Pool  # here, as a one-worker run never needs it

        # the fewer columns a bottom row forces black, the more diagrams lie
        # above it; the largest tasks first keep the workers busy to the end
        tasks = sorted(_row_patterns(p, 0), key=lambda task: task[1].bit_count())
        with Pool(min(jobs, len(tasks))) as pool:
            results = list(pool.imap_unordered(walk, tasks))
    else:
        results = map(walk, _row_patterns(p, 0))
    total = missed = 0
    found: list[tuple[int, dict[str, Any]]] = []
    for count, mismatches, misses in results:
        total += count
        missed += misses
        found += mismatches
    found.sort(key=itemgetter(0))
    minors = sum(comb(m, k) * comb(p, k) for k in range(1, min(m, p) + 1))
    return UnifyingReport(
        m, p, total, poly_bernoulli(m, p), total - len(found),
        tuple(mismatch for _, mismatch in found), time.monotonic() - started,
        (total * minors, missed) if lindstrom else None,
    )


def _walk_bottom(
    m: int, p: int, lindstrom: bool, terms: dict[tuple[int, int], int],
    bottom: tuple[int, int],
) -> tuple[int, list[tuple[int, dict[str, Any]]], int]:
    """Worker: walk the diagrams whose bottom row is ``bottom``, a (black mask,
    forced columns) of :func:`_row_patterns`, with the necklace term memo
    ``terms``. Returns their count, their mismatches keyed by diagram bitmask,
    and the minors the Lindstrom check missed."""
    walk = _Walk(m, p, lindstrom, terms)
    count = walk.node(m, *bottom)
    return count, walk.mismatches, walk.missed


def _row_patterns(p: int, forced: int) -> Iterator[tuple[int, int]]:
    """Each row's black mask (bit a - 1 for column a) that holds ``forced``, the
    columns the rows below force, with those it and they force black in every
    row above (:func:`~tnncells.diagrams.row_forces`). Streamed, as a wide
    grid has 2^p rows."""
    free, extra = ~forced & ((1 << p) - 1), 0
    while True:
        black = forced | extra
        yield black, forced | row_forces(black)
        if extra == free:
            return
        extra = (extra - free) & free  # the next subset of the free columns


@lru_cache(maxsize=4096)
def _seed(p: int, black: int) -> tuple[int, ...]:
    """The seed row (1 on white cells) of the black mask ``black``."""
    return tuple(1 - (black >> a & 1) for a in range(p))


@cache
def _row_one_minors(m: int, p: int) -> int:
    """The mask of the m x p grid's minors with row 1."""
    return sum(((1 << comb(p, rows.bit_count())) - 1) << bit
               for rows, _, _, bit in _top_row_plan(m, p, 1))


@cache
def _column_positions(p: int) -> dict[int, int]:
    """Each column set as a sink mask (bit a for column a) mapped to its position
    among the sets of its size in :func:`~tnncells.matrices.subsets` order."""
    return {sum(1 << a for a in cols): j
            for k in range(1, p + 1) for j, cols in enumerate(subsets(p, k))}


class _Walk:
    """One depth-first walk over the diagrams of an m x p grid from row m up.

    A node fixes one seed row i under the rows its path fixed (``seeds``). It
    restores witness row i from them (:func:`~tnncells.cauchon.witness_row`),
    adds the minor tables with top row i by Laplace along it, ORing each one's
    zero bits into its parent's mask as it is built; it left-multiplies its
    parent's pipe dream suffix by row i. With a network it also adds row i
    above its parent's disjoint path-family states
    (:func:`~tnncells.networks._row_step` with ``planar``: a family that is
    not disjoint cannot cancel in the count), and compares its new minors
    with their counts, once on behalf of every diagram above it. The rows
    above it are those of :func:`_row_patterns`, reversed below row 2.
    A leaf, row 1, is one diagram, checked by :meth:`leaf` against its
    permutation's family: the OR over j = 1..n of one necklace term
    (:func:`~tnncells.permutations._necklace_term`) per (j, I_j), read off
    its suffix, the inverse of its pipe dream, and built along the path.
    Per-row state is kept by row index, row m + 1 holding the empty path's.

    The necklace along the walk. Row i's black cells swap entries k and k + 1
    of the inverse, k = m - i + a, so only entries m - i + 1..m - i + p + 1,
    and every row above it only entries m - i + 2 and up. So once row i is
    fixed, entries 1..m - i + 1 are final, and so are I_1..I_{m-i+2}, since
    I_{j+1} is I_j stepped by entry j
    (:func:`~tnncells.permutations._necklace_step`). The root holds I_1 = [m]
    and term 1; node i >= 2 takes the step by entry m - i + 1 and ORs term
    m - i + 2 into its parent's OR (``necklace`` and ``crowded``), once for
    every leaf above it; a leaf takes the last p steps from row 2's I_m and
    ORs terms m + 1..n. ``terms``, the check's memo, builds each (j, I_j)
    once: at most n * C(n, m) of them.

    Row 1 by linearity. Below a row-2 node every set S of the free columns is
    row 1's white set of one leaf, and :meth:`row_one` visits them in
    increasing order of S as a mask. For |S| >= 2, with low its lowest column
    and A = S - {low}, both A and {low} come first and S's seed is the sum of
    theirs. Three linearities follow, each because no row lies above row 1:

    - Witness row. :func:`~tnncells.cauchon.witness_row` starts from the seed
      and only adds one entry into another, at pivots read off the seed rows
      below, which the leaves share: a linear map, so row(S) = row(A) +
      row({low}).
    - Minors. Laplace along row 1 makes each minor with row 1 a linear form
      in witness row 1, whose cofactors lie in rows 2..m and are shared, so
      it is the sum of A's and {low}'s. The minors without row 1 are the
      row-2 node's.
    - Path counts. No source but s_1 enters row 1, and s_1's path runs left
      along it and turns down at one white dot a of S; from a on it is a path
      of {a}'s network, with the same vertices below row 1 and the same sink.
      The row-1 vertices it passes lie on no other path, so a family of S is
      disjoint, and order-preserving, exactly when the family of {a} with the
      same other paths is. So each count with source 1 is the sum over a in S
      of {a}'s, and S's row-1 minors match their counts when every
      singleton's do.

    The AND rule. If no singleton has a negative minor, then by induction on
    |S| neither has A, so each row-1 minor of S is a sum of two nonnegative
    values and vanishes exactly when both do. Each zero mask is the row-2
    node's mask OR the row's own row-1 zeros, so S's mask is A's AND
    {low}'s, and S has a negative minor exactly when the row-2 node has one.

    The spend. The walk of s_1's paths in S visits s_1 once, each dot of S
    once, and below dot a just what it visits in {a}; its paths are the
    singletons' paths, each tried against the row-2 node's states. So with
    base = spent[2] + 1, spent(S) = base + the sum over a in S of
    (spent({a}) - base), that is spent(A) + spent({low}) - base, charged to
    ``guards.PATH_STEP_LIMIT`` as the full route charges it.

    The empty row. S = {} has the zero seed, so by the first two linearities
    witness row 1 and every minor with row 1 are 0: the zero mask is the
    row-2 node's OR every minor with row 1 (:func:`_row_one_minors`), and the
    negative flag is the row-2 node's. s_1 has no white dot to turn down at,
    so its walk visits s_1 alone and finds no path: the leaf is charged
    spent[2] + 1 steps, every count with source 1 is 0, and it misses no
    minor. None of this needs the AND rule, so the empty row is read this
    way even after a fallback.

    The fallback. Once a singleton has a negative minor or a minor that
    differs from its count, the AND rule or the count sum no longer holds,
    and the node's remaining leaves with two or more white cells run
    :meth:`node` in full, so mismatches and missed minors are the full
    route's. The singletons always run it. Only the restoration route is
    read this way: every leaf builds its own suffix and finishes its own
    necklace family, and compares them.
    """

    def __init__(self, m: int, p: int, lindstrom: bool, terms: dict[tuple[int, int], int]) -> None:
        self.m, self.p = m, p
        self.seeds: list[tuple[int, ...]] = [()] * (m + 2)
        self.rows: list[list[int]] = [[]] * (m + 2)  # witness rows, scanned on a negative
        self.tables: dict[int, list[int]] = {0: [1]}  # by row set mask, see _top_row_plan
        self.zeros, self.negative = [0] * (m + 2), [False] * (m + 2)
        self.inverse = [tuple(range(1, m + p + 1))] * (m + 2)
        self.terms = terms  # necklace terms, see _necklace_term
        self.necklace = [(1 << m) - 1] * (m + 2)  # the last I_j a row fixes; the root's is I_1
        self.crowded = [_necklace_term(m, p, 1, self.necklace[m + 1], terms)] * (m + 2)  # terms' OR
        self.network = GridNetwork(m, p) if lindstrom else None
        self.spent = [0] * (m + 2)  # path steps, with a network
        if self.network is not None:
            self.heads = [self.network.sinks] * (m + 2)
            self.states: list[list[dict]] = [[{(0, 0, 0): 1}]] * (m + 2)
        self.missed = 0
        self.mismatches: list[tuple[int, dict[str, Any]]] = []

    def node(self, i: int, black: int, forced: int) -> int:
        """Visit the node of row i with the black mask ``black``, whose rows above
        may not whiten the columns ``forced``; returns its leaves."""
        m, p, tables = self.m, self.p, self.tables
        self.seeds[i] = seed = _seed(p, black)
        self.rows[i] = row = witness_row(seed, self.seeds[i + 1:m + 1])
        plan = _top_row_plan(m, p, i)
        zeros, negative = self.zeros[i + 1], self.negative[i + 1]
        for rows, rest, kernel, bit in plan:
            tables[rows] = table = kernel(row, tables[rest])
            for j, value in enumerate(table, bit):
                if not value:
                    zeros |= 1 << j
                elif value < 0:
                    negative = True
        self.zeros[i], self.negative[i] = zeros, negative
        self.inverse[i] = inverse = pipe_dream_suffix(self.inverse[i + 1], m, i, seed)
        if i > 1:  # entry j = m - i + 1 of the inverse is final, and so is I_{j+1}
            j = m - i + 1
            self.necklace[i] = necklace = _necklace_step(
                m, m + p, j, self.necklace[i + 1], inverse[j - 1])
            self.crowded[i] = self.crowded[i + 1] | _necklace_term(m, p, j + 1, necklace, self.terms)
        missed = 0 if self.network is None else self._lindstrom(i, seed, plan)
        if i == 1:
            self.leaf()
            leaves = 1
        elif i == 2:
            leaves = self.row_one(list(_row_patterns(p, forced))[::-1])
        else:
            leaves = sum(self.node(i - 1, *above) for above in _row_patterns(p, forced))
        self.missed += missed * leaves
        return leaves

    def row_one(self, rows: list[tuple[int, int]]) -> int:
        """Visit a row-2 node's leaves, ``rows`` in increasing order of their set
        S of white columns, and return their number. The empty row is read by
        rule and the singletons run :meth:`node`; a larger S is read off
        S - {low} and {low} by linearity (see the class docstring) until a
        singleton has a negative minor or a missed Lindstrom minor, and then
        runs it too."""
        read: dict[int, tuple[list[int], int, int]] = {}  # by S: witness row 1, zeros, spent
        base = self.spent[2] + 1
        linear, full = True, (1 << self.p) - 1
        for black, forced in rows:
            seed, white = _seed(self.p, black), full ^ black
            rest = white & (white - 1)
            if not white or linear and rest:
                if white:
                    row, zeros, steps = read[rest]
                    low, low_zeros, low_steps = read[white ^ rest]
                    row, zeros = list(map(add, row, low)), zeros & low_zeros
                    steps += low_steps - base
                else:  # witness row 1 is 0, and so is every minor with row 1
                    row, steps = [0] * self.p, base
                    zeros = self.zeros[2] | _row_one_minors(self.m, self.p)
                self.seeds[1], self.rows[1] = seed, row
                self.zeros[1], self.negative[1] = zeros, self.negative[2]
                if self.network is not None:
                    self.spent[1] = steps
                    guards.ensure(steps, guards.PATH_STEP_LIMIT, "steps of one path family count")
                self.inverse[1] = pipe_dream_suffix(self.inverse[2], self.m, 1, seed)
                self.leaf()
            else:
                missed = self.missed
                self.node(1, black, forced)
                if not rest:
                    linear = linear and not self.negative[1] and self.missed == missed
            read[white] = self.rows[1], self.zeros[1], self.spent[1]
        return len(rows)

    def _lindstrom(self, i: int, seed: tuple[int, ...], plan: Any) -> int:
        """Extend the path-family states by the paths from source i; the number
        of new minors (those of ``plan``) that differ from their counts."""
        network, states = self.network, self.states[i + 1]
        source, self.heads[i] = network.add_row(i, seed, self.heads[i + 1])
        new, self.spent[i] = _row_step(
            network, source, 1 << i, -1, states, self.spent[i + 1], planar=True)
        self.states[i] = states + [new]
        counts = {rows: [0] * len(self.tables[rows]) for rows, *_ in plan}
        position = _column_positions(self.p)
        for (rows, cols, _), weight in new.items():
            counts[rows][position[cols]] += weight
        return sum(sum(map(ne, values, self.tables[rows]))
                   for rows, values in counts.items() if values != self.tables[rows])

    def leaf(self) -> None:
        """Check the diagram the path fixed: Cauchon's theorem, that no witness
        minor is negative, which no deletion sweep can (it undoes any
        restoration), naming the most negative minor of the first size with
        one, then that its zero minors are its permutation's family: row 2's
        OR of necklace terms with the last p terms, which row 1 fixes, ORed
        in. Keep a mismatch with the diagram's bitmask;
        only then is the permutation built, from the suffix, and a permutation
        the walk made outside the window is reported with it."""
        m, p, inverse = self.m, self.p, self.inverse[1]
        necklace, via_permutation = self.necklace[2], self.crowded[2]
        for j in range(m, m + p):
            necklace = _necklace_step(m, m + p, j, necklace, inverse[j - 1])
            via_permutation |= _necklace_term(m, p, j + 1, necklace, self.terms)
        self.crowded[1] = via_permutation
        if self.negative[1]:
            scan = scan_int_minors(self.rows[1:m + 1], m, p, 1)
            problems = ["witness minor {} = {} is negative".format(*scan.negative)]
            via_restoration = None
        elif self.zeros[1] != via_permutation:
            problems = ["restoration family differs from permutation family"]
            via_restoration = str(MinorFamily._from_mask(m, p, self.zeros[1]))
        else:
            return
        w = Permutation(inverse).inverse()
        if not is_restricted(w, m, p):
            problems.append(f"permutation {w} violates the window condition for ({m},{p})")
        seeds = self.seeds[1:m + 1]
        black = frozenset((i, a) for i, seed in enumerate(seeds, 1)
                          for a, white in enumerate(seed, 1) if not white)
        self.mismatches.append((int("".join(str(1 - x) for seed in seeds for x in seed), 2), {
            "diagram": CauchonDiagram._make(m, p, black).to_json(),
            "permutation": w.one_line(),
            "problems": problems,
            "restoration": via_restoration,
            "permutation_family": str(MinorFamily._from_mask(m, p, via_permutation)),
        }))
