"""Resource guards for the enumerative operations.

Everything in this package is desk scale by design: diagrams, permutations and
cell tables are enumerated exhaustively. The guards below keep a mistyped size
from turning into an unbounded computation. The CAUCHON_GUARD environment
variable (an integer, interpreted as the maximum allowed m*p) raises or lowers
the ceiling of the enumerations, and of nothing else, for a whole process. The
other guards are fixed module constants counted in units of work and checked
through :func:`ensure`: a k x k quantum minor expands k! words, every minor
table and family is counted by :func:`ensure_minor_table`, a minor family's
grid by its size (a bit per minor, plus each row and column set times the
intervals of its side), a quantum or Poisson grid by its (mp)^2 generator
pairs before any of its tables is built, a parsed permutation or a diagram's
pipe dream holds one entry per letter and a network read from JSON one
source or sink per letter, a power in an expression multiplies once per unit
of its exponent, each parenthesis in an expression costs its reader one
level of recursion, a count of disjoint path families takes a step per
vertex its walks visit and per (partial family, path) pair it tries, a path
matrix a step per vertex and edge each source's propagation may visit, a
restoration or deleting-derivations sweep, or the initial minors'
eliminations, may rewrite (m*p)^2 entries, one ``--jobs`` may start a
bounded number of worker processes, and one product of exact values
or Poisson bracket produces |f|*|g| term pairs (in the quantum product,
pairs of coefficient terms, plus the terms each memo entry of its letter
insertions sums). The product budget
is checked before the pairs are formed and again as the insertion memo grows,
so a product over budget stops early. The expression reader checks its
limits on a first, zero-valued read, before it evaluates anything.
"""

from __future__ import annotations

import os
from functools import cache
from math import comb, factorial

from .errors import ResourceGuardError

DEFAULT_CELL_LIMIT = 16

GUARD_ENV_VAR = "CAUCHON_GUARD"

# 8! = 40,320 words take about a second; 9! take several seconds and
# hundreds of MB.
QUANTUM_MINOR_TERM_LIMIT = factorial(8)

# All minors of a 10x10 matrix (184,755) take about a second; 11x11 has
# 705,431 and takes several.
MINOR_TABLE_LIMIT = comb(20, 10) - 1

# Largest exponent magnitude in an expression's ``^``.
EXPONENT_LIMIT = 100

# Deepest nesting of parentheses in an expression: six Python frames a level
# keep 100 levels well inside the default recursion limit of 1,000.
NESTING_LIMIT = 100

# Vertices the walks visit plus (partial family, path) pairs tried in one
# count of disjoint path families. The full minor of the all-white 5x5
# network takes 35,713; that of the all-white 6x6 network is refused within a
# second. One path matrix is charged the vertices and edges from each source
# on: 1,805 at 10x10 all-white, 976,315 at 86x86.
PATH_STEP_LIMIT = 1_000_000

# A bound on the grid of one minor family, counted as the bits of its mask
# plus each row and column set times the intervals [r..s] of its side: 10x10
# is about 0.3 M units, 11x11 about 0.98 M (a cold family in about 0.3 s),
# 12x12 over the limit, and 400x1 is 32 M.
MINOR_FAMILY_WORK_LIMIT = 1_000_000

# Entries one restoration or deleting-derivations sweep may rewrite: each of
# its m*p steps edits at most the m*p entries of one working copy, (m*p)^2 in
# all. A 30x30 Pascal matrix (0.81 M) takes about 0.15 s per rational sweep
# on a 2-vCPU host; a 10x10 matrix is 10,000. The initial minors' Bareiss
# eliminations are charged the entries they rewrite: 954,304 at 31x31.
SWEEP_WORK_LIMIT = 1_000_000

# Letters in one parsed permutation: a Bruhat comparison at 1,000 letters
# builds two million-entry rank tables in about a second. A diagram's or a
# JSON network's m + p is held to the same limit.
PERMUTATION_LETTER_LIMIT = 1_000

# Ordered generator pairs, (mp)^2, of one quantum or Poisson grid, checked
# before any of its tables is built: the coordinate names, the bracket table
# (an entry per pair), the product's rewrite rules and the semiclassical
# check's pair list. At 10x10 (10,000) the bracket table takes about 10 ms and
# the semiclassical check of all 4,950 pairs about a second; the 20x20 bracket
# table would take 0.5 s and 140 MB.
ALGEBRA_PAIR_LIMIT = 10_000

# Worker processes one ``--jobs`` may start. The walk of ``cells verify`` and
# ``verify all`` has one task per bottom-row pattern (32 at 5x5) and never
# starts more workers than tasks; each worker is a whole Python process.
WORKER_LIMIT = 64

# Terms one product of exact values may produce. The largest product the 4x4
# quantum and Poisson checks make, the 4x4 quantum determinant times itself,
# is charged 3,453; the last product of (a+b+c+d)^9 at 2x2, 12,396. The
# second product of a quantum commutator is charged its pairs plus only the
# insertion memo entries the first did not make: for the determinant with
# itself, its 576 pairs alone.
PRODUCT_TERM_LIMIT = 30_000


def cell_limit() -> int:
    """Maximum m*p allowed for exhaustive enumeration."""
    raw = os.environ.get(GUARD_ENV_VAR)
    if raw is None:
        return DEFAULT_CELL_LIMIT
    try:
        value = int(raw)
    except ValueError as exc:
        raise ResourceGuardError(
            f"{GUARD_ENV_VAR} must be an integer, got {raw!r}"
        ) from exc
    if value < 1:
        raise ResourceGuardError(f"{GUARD_ENV_VAR} must be positive, got {value}")
    return value


def ensure(count: int, limit: int, what: str) -> None:
    """Raise ResourceGuardError when ``count`` units of ``what`` exceed ``limit``."""
    if count > limit:
        raise ResourceGuardError(f"{what}: {count} exceeds the limit of {limit}")


def ensure_enumerable(m: int, p: int, *, what: str = "enumeration") -> None:
    """Raise ResourceGuardError when an m x p grid exceeds the guard."""
    limit = cell_limit()
    if m * p > limit:
        raise ResourceGuardError(
            f"{what} for a {m}x{p} grid exceeds the guard (m*p = {m * p} > {limit}); "
            f"set {GUARD_ENV_VAR} to raise the limit"
        )


@cache
def ensure_minor_family(m: int, p: int) -> None:
    """Refuse an m x p grid whose minor family would cost over
    MINOR_FAMILY_WORK_LIMIT units: a bit per minor, plus each row and column set
    times the intervals [r..s] of its side, counted size by size."""
    work = 0
    for k in range(1, min(m, p) + 1):
        rs, cs = comb(m, k), comb(p, k)
        work += rs * cs + cs * p * (p + 1) // 2 + rs * m * (m + 1) // 2
        if work > MINOR_FAMILY_WORK_LIMIT:
            break
    ensure(work, MINOR_FAMILY_WORK_LIMIT, "minor family work")


@cache
def ensure_minor_table(m: int, p: int) -> None:
    """Refuse an m x p grid of over MINOR_TABLE_LIMIT minors, counted size by size."""
    count = 0
    for k in range(1, min(m, p) + 1):
        count += comb(m, k) * comb(p, k)
        ensure(count, MINOR_TABLE_LIMIT, f"minors of the {m}x{p} grid")
