"""Deleting derivations, restoration, TNN testing and canonical matrices.

One elementary step at index (j, beta) rewrites every entry strictly
northwest of the pivot:

    x[i,a]  ->  x[i,a] -/+ x[i,beta] * x[j,beta]^(-1) * x[j,a]

for i < j and a < beta, provided the pivot x[j,beta] is nonzero; a zero
pivot makes the step the identity. Deleting derivations composes the minus
steps from (m,p) down to (1,1) in reverse lexicographic order; restoration
composes the plus steps in the opposite direction. Each minus step undoes
the matching plus step on any matrix whatsoever (the step never touches row
j or column beta, so the pivot is the same on both sides), hence the two
sweeps are mutually inverse with no genericity assumptions.

A ``Fraction`` matrix is swept on integer rows, numerators over one positive
denominator per row; a unit pivot ratio, as in every unit-weight restoration,
needs no scaling. Entries of other rings do their own arithmetic.

The canonical matrix of a diagram arises by seeding zeros on black cells,
nonzero scalars on white cells, and restoring. Its identically-zero minors
form the vanishing family of the diagram. They are exactly the minors that
vanish on its integer matrix of path counts with every white cell set to 1,
the unit-weight witness. Its row i depends only on the seed rows i..m, as
restoration step (j, beta) edits only rows above j, through row j, which is
still the seed when the step runs; with 0/1 seeds every pivot is 1, so
:func:`witness_row` restores a row by additions alone, with no division.
The exhaustive check of :mod:`tnncells.cells` walks the diagrams from the
bottom row up and restores each row once per walk node; :func:`ones_TC`,
which :func:`witness_scan` scans, is that walk along one diagram's path.
The sweeps stay for ``restore``, ``delete``, :func:`tnn_test` and
:func:`symbolic_TC`, and the tests compare the two kernels on every diagram
through 4x4. A witness
minor that is negative breaks Cauchon's theorem (see :func:`vanishing_family`).

Every sweep, and the witness, is charged by :func:`guards.ensure_sweep`
before it starts; ``tnn-check`` asks the same guard whether to run
:func:`tnn_test` at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from functools import lru_cache
from typing import Any, Iterable, Iterator, Mapping, Sequence

from . import guards
from .diagrams import CauchonDiagram, Cell, is_cauchon
from .errors import ConsistencyError, DomainError
from .matrices import Matrix, MinorFamily, MinorScan, _cleared, _require_rational, scan_int_minors
from .scalars import MPoly

StepIndex = tuple[int, int]


def step_indices(m: int, p: int) -> list[StepIndex]:
    """All step indices of the m x p grid in ascending lexicographic order."""
    return [(j, beta) for j in range(1, m + 1) for beta in range(1, p + 1)]


def _apply_step(rows: list[list[Any]], j: int, beta: int, sign: int) -> None:
    """Apply the step at (j, beta) to ``rows``, editing them in place."""
    pivot_row = rows[j - 1]
    pivot = pivot_row[beta - 1]
    if not pivot or j == 1 or beta == 1:  # or nothing lies northwest of it
        return
    for row in rows[:j - 1]:
        factor = row[beta - 1] / pivot
        if not factor:
            continue
        if sign < 0:
            factor = -factor
        for a in range(beta - 1):
            row[a] += factor * pivot_row[a]


def _apply_int_step(rows: list[list[int]], j: int, beta: int, sign: int) -> None:
    """:func:`_apply_step` on integer rows (numerators, then a positive denominator):
    it adds sign * f * r_j[a] / (d_i * P) to x[i,a], for f = r_i[beta] and
    P = r_j[beta] in lowest terms, P > 0; row j's denominator cancels."""
    pivot_row = rows[j - 1]
    pivot = pivot_row[beta - 1]
    if not pivot or j == 1 or beta == 1:
        return
    for row in rows[:j - 1]:
        if not row[beta - 1]:
            continue
        g = gcd(row[beta - 1], pivot)
        f, P = sign * row[beta - 1] // g, pivot // g
        if P < 0:
            f, P = -f, -P
        if P == 1:
            for a in range(beta - 1):
                row[a] += f * pivot_row[a]
        else:  # scale the row and its denominator by P, then reduce them
            tail = [x * P for x in row[beta - 1:]]
            row[:] = [x * P + f * y for x, y in zip(row[:beta - 1], pivot_row)] + tail
            if (g := gcd(*row)) > 1:
                row[:] = [x // g for x in row]


def _working_rows(matrix: Matrix) -> tuple[list[list[Any]], Any, Any]:
    """A sweep's working rows, the step that edits them, and their reader back to a
    Matrix: a ``Fraction`` row becomes its numerators over its lcm denominator."""
    if not all(isinstance(x, Fraction) for row in matrix.rows for x in row):
        return [list(r) for r in matrix.rows], _apply_step, Matrix
    cleared = [_cleared([r]) for r in matrix.rows]  # (lcm, [numerators]) per row
    rows = [ints + [d] for d, (ints,) in cleared]
    return rows, _apply_int_step, lambda int_rows: Matrix(
        [[Fraction(n, r[-1]) for n in r[:-1]] for r in int_rows])


def _sweep(working: tuple, m: int, p: int, sign: int) -> Iterator[tuple[StepIndex, Any, Any]]:
    """Run one sweep on an m x p matrix's working (rows, step, reader), editing
    the rows in place: plus steps from (1,1) up to (m,p), minus steps the other
    way. Yield (step, rows, reader) after each step; the guard is checked first."""
    guards.ensure_sweep(m, p)
    steps = step_indices(m, p)
    rows, apply, read = working
    for j, beta in steps if sign > 0 else reversed(steps):
        apply(rows, j, beta, sign)
        yield (j, beta), rows, read


def deleting_stages(matrix: Matrix) -> Iterator[tuple[StepIndex, Matrix]]:
    """Yield (step, matrix after that step) from (m,p) down to (1,1).

    The sweep's work is checked against the guard before the first step.
    """
    for step, rows, read in _sweep(_working_rows(matrix), matrix.m, matrix.p, -1):
        yield step, read(rows)


def restoration_stages(matrix: Matrix) -> Iterator[tuple[StepIndex, Matrix]]:
    """Yield (step, matrix after that step) from (1,1) up to (m,p).

    The sweep's work is checked against the guard before the first step.
    """
    for step, rows, read in _sweep(_working_rows(matrix), matrix.m, matrix.p, +1):
        yield step, read(rows)


def deleting_derivations(matrix: Matrix) -> Matrix:
    *_, (_, rows, read) = _sweep(_working_rows(matrix), matrix.m, matrix.p, -1)
    return read(rows)


def restoration(matrix: Matrix) -> Matrix:
    *_, (_, rows, read) = _sweep(_working_rows(matrix), matrix.m, matrix.p, +1)
    return read(rows)


# ---------------------------------------------------------------------------
# TNN testing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TnnVerdict:
    is_tnn: bool
    diagram: CauchonDiagram | None
    final: Matrix


def tnn_test(matrix: Matrix) -> TnnVerdict:
    """Decide total nonnegativity by one deleting-derivations sweep.

    The input is totally nonnegative exactly when the sweep's output is
    entrywise nonnegative and its zero set is a valid diagram.
    """
    _require_rational(matrix.rows, "the TNN test")
    *_, (_, rows, read) = _sweep(_working_rows(matrix), matrix.m, matrix.p, -1)
    # the integer rows' signs and zeros are the entries', over positive denominators
    zeros = frozenset((i, a) for i, r in enumerate(rows, 1)
                      for a, x in enumerate(r, 1) if not x)
    if any(x < 0 for r in rows for x in r) or not is_cauchon(matrix.m, matrix.p, zeros):
        return TnnVerdict(False, None, read(rows))
    return TnnVerdict(True, CauchonDiagram._make(matrix.m, matrix.p, zeros), read(rows))


# ---------------------------------------------------------------------------
# Canonical matrices of a diagram
# ---------------------------------------------------------------------------


def seed_matrix(
    diagram: CauchonDiagram, zero: Any, assignment: Mapping[Cell, Any]
) -> Matrix:
    """``zero`` on black cells, the assigned nonzero scalar on white cells."""
    rows = [[zero] * diagram.p for _ in range(diagram.m)]
    for i, a in diagram.white_cells():
        rows[i - 1][a - 1] = value = assignment.get((i, a))
        if not value:
            what = "assigned zero" if (i, a) in assignment else "has no assigned value"
            raise DomainError(f"white cell ({i},{a}) {what}")
    return Matrix(rows)


def build_TC(
    diagram: CauchonDiagram, zero: Any, assignment: Mapping[Cell, Any]
) -> Matrix:
    """Restore the seeded matrix of the diagram; ``zero`` is the ring's zero.

    :func:`symbolic_TC` seeds white-cell variables; the benchmark seeds
    rational weights with ``scalars.QQ``, which keeps this name public.
    """
    return restoration(seed_matrix(diagram, zero, assignment))


def white_variable(cell: Cell) -> str:
    return f"t[{cell[0]},{cell[1]}]"


def symbolic_TC(diagram: CauchonDiagram) -> Matrix:
    """The canonical matrix with an independent variable per white cell.

    Every pivot used during restoration is an untouched seed entry (steps at
    row j never modify row j), so each division is by a single white-cell
    variable and the entries are Laurent polynomials in those variables.
    Deleting derivations retraces the same pivots, so the inverse sweep
    divides only by them too.
    """
    white = diagram.white_cells()
    names = tuple(white_variable(c) for c in white)
    assignment = {c: MPoly.var(names, name) for c, name in zip(white, names)}
    return build_TC(diagram, MPoly.zero(names), assignment)


@lru_cache(maxsize=4096)
def _pivots(seed: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The steps a 0/1 seed row j makes on every row above it: per white column
    beta > 1, in increasing order, (beta - 1, the 0-based white columns left of it)."""
    white = [a for a, x in enumerate(seed) if x]
    return tuple((b, tuple(white[:t])) for t, b in enumerate(white) if t)


def witness_row(seed: Sequence[int], below: Iterable[Sequence[int]]) -> list[int]:
    """Row i of the unit-weight witness from its 0/1 seed row (1 on white cells) and
    the seed rows i+1..m below it, tuples in increasing order: the restoration's steps
    (j, beta) edit row i only through seed row j, which no earlier step has
    touched, and every pivot is a 0/1 seed entry, so row i is restored by
    x[a] += x[beta] wherever seed row j has 1 at both beta and a < beta, for
    j = i+1..m, then beta = 2..p. Its entries count paths, with no division."""
    x = list(seed)
    for pattern in below:
        for b, lefts in _pivots(pattern):
            if xb := x[b]:
                for a in lefts:
                    x[a] += xb
    return x


def _witness_rows(diagram: CauchonDiagram) -> list[list[int]]:
    """The integer rows of :func:`ones_TC`, each restored by :func:`witness_row`
    from the bottom row up: the diagram walk along one path, charged as a sweep
    before the first row."""
    guards.ensure_sweep(diagram.m, diagram.p)
    rows: list[list[int]] = []
    below: list[tuple[int, ...]] = []
    for i in range(diagram.m, 0, -1):
        seed = tuple(int((i, a) not in diagram.black) for a in range(1, diagram.p + 1))
        rows.insert(0, witness_row(seed, below))
        below.insert(0, seed)
    return rows


def ones_TC(diagram: CauchonDiagram) -> Matrix:
    """The canonical matrix with every white cell set to 1 (rational entries)."""
    return Matrix(_witness_rows(diagram))


# ---------------------------------------------------------------------------
# Vanishing families
# ---------------------------------------------------------------------------


def witness_scan(diagram: CauchonDiagram) -> MinorScan:
    """The :class:`MinorScan` of the diagram's unit-weight witness ``ones_TC``,
    restored row by row and scanned in integers. The minor table's guard is
    checked before the witness is built."""
    guards.ensure_minor_table(diagram.m, diagram.p)
    return scan_int_minors(_witness_rows(diagram), diagram.m, diagram.p, 1)


def vanishing_family(diagram: CauchonDiagram) -> MinorFamily:
    """The minors of the symbolic canonical matrix that vanish identically.

    They are the zero minors of :func:`witness_scan`. The canonical matrix is
    the weighted path matrix of the diagram's planar network (a path gains
    t[i,a] at each row-to-column turn and 1/t[i,a] at each column-to-row
    turn), so by Lindstrom-Gessel-Viennot each minor is a sum of Laurent
    monomials with coefficient +1, one per vertex-disjoint path family. With
    every white cell set to 1 the minor counts those families, and it is zero
    exactly when the symbolic minor is, and never negative (Cauchon's
    theorem), so a negative one raises ConsistencyError.
    """
    scan = witness_scan(diagram)
    if scan.negative is not None:
        ix, value = scan.negative
        raise ConsistencyError(f"witness minor {ix} = {value} is negative on\n{diagram}")
    return scan.zeros
