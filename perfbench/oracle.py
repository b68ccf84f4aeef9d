"""Independent exact checks that the benchmark holds the program's verdicts to.

Nothing here imports tnncells. Determinants use plain fraction Gaussian
elimination, the deletion sweep is written afresh from the elementary step
x[i,a] -> x[i,a] - x[i,b] * x[j,b]^(-1) * x[j,a], and the diagram count
comes from the closed poly-Bernoulli formula, so a defect in the program's
own arithmetic cannot make the benchmark agree with it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, factorial

Cell = tuple[int, int]
MinorKey = tuple[tuple[int, ...], tuple[int, ...]]


def det(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant by Gaussian elimination over the rationals."""
    a = [list(r) for r in rows]
    n = len(a)
    value = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            value = -value
        value *= a[c][c]
        for r in range(c + 1, n):
            if a[r][c] != 0:
                f = a[r][c] / a[c][c]
                for k in range(c + 1, n):
                    a[r][k] -= f * a[c][k]
    return value


def minor_keys(m: int, p: int) -> list[MinorKey]:
    """Every (rows, cols) pair of an m x p matrix, 1-based."""
    return [
        (rows, cols)
        for k in range(1, min(m, p) + 1)
        for rows in combinations(range(1, m + 1), k)
        for cols in combinations(range(1, p + 1), k)
    ]


def minor_value(a: list[list[Fraction]], key: MinorKey) -> Fraction:
    rows, cols = key
    return det([[a[i - 1][c - 1] for c in cols] for i in rows])


def vanishing_minors(a: list[list[Fraction]]) -> frozenset[MinorKey]:
    return frozenset(
        key for key in minor_keys(len(a), len(a[0])) if minor_value(a, key) == 0
    )


def deletion_sweep(a: list[list[Fraction]]) -> list[list[Fraction]]:
    """Deleting derivations: steps (j, b) from (m, p) down to (1, 1)."""
    x = [list(r) for r in a]
    m, p = len(x), len(x[0])
    for j in range(m, 0, -1):
        for b in range(p, 0, -1):
            pivot = x[j - 1][b - 1]
            if pivot == 0:
                continue
            for i in range(j - 1):
                f = x[i][b - 1] / pivot
                if f == 0:
                    continue
                for c in range(b - 1):
                    x[i][c] -= f * x[j - 1][c]
    return x


def is_le_diagram(m: int, p: int, black: frozenset[Cell]) -> bool:
    """Every black cell has only black cells to its left or only above it."""
    return all(
        all((i, c) in black for c in range(1, a))
        or all((r, a) in black for r in range(1, i))
        for (i, a) in black
    )


def tnn_cell(a: list[list[Fraction]]) -> frozenset[Cell] | None:
    """The diagram of a totally nonnegative matrix, or None when it is not TNN.

    A matrix is TNN exactly when its deletion sweep ends entrywise
    nonnegative with a zero set obeying the left-or-above rule; that zero set
    is its diagram.
    """
    final = deletion_sweep(a)
    if any(v < 0 for row in final for v in row):
        return None
    zeros = frozenset(
        (i + 1, c + 1) for i, row in enumerate(final) for c, v in enumerate(row) if v == 0
    )
    return zeros if is_le_diagram(len(a), len(a[0]), zeros) else None


def _stirling2(n: int, k: int) -> int:
    return sum(
        (-1) ** (k - j) * comb(k, j) * j ** n for j in range(k + 1)
    ) // factorial(k)


def diagram_count(m: int, p: int) -> int:
    """Number of m x p diagrams: the poly-Bernoulli number B_m^(-p)."""
    return sum(
        factorial(j) ** 2 * _stirling2(m + 1, j + 1) * _stirling2(p + 1, j + 1)
        for j in range(min(m, p) + 1)
    )
