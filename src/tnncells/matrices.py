"""Exact matrices, minors and positivity predicates.

The matrix type is deliberately small: immutable row-major storage whose
entries do their own arithmetic through Python operators, so a matrix's ring
is the type of its entries (``Fraction``, or an exact value such as
``MPoly``); plain ints are lifted to ``Fraction``. All
indices in the public API are 1-based; row sets and column sets are strictly
increasing tuples, and composite minors print as ``[1,2|2,3]``.

A family of minors is a bitmask over its grid's minor order (size, then
rows, then columns), the order of :func:`iter_minor_indices` and of the
minor tables, so comparing two families compares two integers.

Minors are taken over the rationals only. Every verdict read off all minors
of a matrix comes from one scan of one integer table, :class:`MinorScan`, and
:func:`all_minors` lists the table: each k-minor follows from the (k-1)-minors
by Laplace expansion along its last row, in at most k multiply-adds with no
division. Integer rows enter directly; rational ones have their denominators
cleared once per matrix. Single determinants and minors run Bareiss.
Every rational-only call checks once that the entries it reads are
``Fraction``. Other matrices (the symbolic canonical matrices, whose entries
are Laurent polynomials in the white-cell variables) are for display,
entrywise arithmetic and the sweeps, not for determinants.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from functools import cache
from itertools import chain, combinations
from math import comb, lcm
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

from . import guards
from .errors import DomainError, json_int, parse_json

# ---------------------------------------------------------------------------
# Minor indexing
# ---------------------------------------------------------------------------


class MinorIndex(namedtuple("MinorIndex", "rows cols")):
    """Row and column sets of one minor, sorted ascending and 1-based.

    It is the validated named tuple ``(rows, cols)``, so it equals, orders and
    hashes as that pair. Indices known valid are built by ``_make``.
    """

    __slots__ = ()

    def __new__(cls, rows: Iterable[int], cols: Iterable[int]) -> "MinorIndex":
        ix = super().__new__(cls, tuple(rows), tuple(cols))
        if len(ix.rows) != len(ix.cols) or not ix.rows:
            raise DomainError(f"need equally many rows and columns, got {ix}")
        for seq, kind in ((ix.rows, "row"), (ix.cols, "column")):
            if any(x < 1 for x in seq):
                raise DomainError(f"{kind} indices must be positive in {ix}")
            if any(a >= b for a, b in zip(seq, seq[1:])):
                raise DomainError(f"{kind} indices must increase strictly in {ix}")
        return ix

    @property
    def size(self) -> int:
        return len(self.rows)

    def fits(self, m: int, p: int) -> bool:
        return self.rows[-1] <= m and self.cols[-1] <= p

    def transposed(self) -> "MinorIndex":
        return MinorIndex._make((self.cols, self.rows))

    def __str__(self) -> str:
        return "[{}|{}]".format(
            ",".join(map(str, self.rows)), ",".join(map(str, self.cols))
        )

    _PATTERN = re.compile(r"^\s*\[\s*([0-9,\s]+)\|\s*([0-9,\s]+)\]\s*$")

    @classmethod
    def parse(cls, text: str) -> "MinorIndex":
        match = cls._PATTERN.match(text)
        if not match:
            raise DomainError(f"cannot parse minor index {text!r}")
        rows = tuple(int(x) for x in match.group(1).split(","))
        cols = tuple(int(x) for x in match.group(2).split(","))
        return cls(rows, cols)

    def to_json(self) -> dict[str, list[int]]:
        return {"rows": list(self.rows), "cols": list(self.cols)}

    @classmethod
    def from_json(cls, obj: Any) -> "MinorIndex":
        if not isinstance(obj, dict) or set(obj) != {"rows", "cols"}:
            raise DomainError(f"minor index JSON needs rows and cols, got {obj!r}")
        try:
            rows = tuple(json_int(x, "minor index row") for x in obj["rows"])
            cols = tuple(json_int(x, "minor index column") for x in obj["cols"])
        except TypeError as exc:
            raise DomainError(f"minor index JSON needs integer lists, got {obj!r}") from exc
        return cls(rows, cols)


@cache
def subsets(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The k-subsets of 1..n as increasing tuples, in lexicographic order."""
    return tuple(combinations(range(1, n + 1), k))


@cache
def subset_index(n: int, k: int) -> dict[tuple[int, ...], int]:
    """Each k-subset of 1..n mapped to its position in :func:`subsets`."""
    return {s: i for i, s in enumerate(subsets(n, k))}


def _bit_positions(mask: int) -> Iterator[int]:
    """The positions of the set bits of a nonnegative int, ascending."""
    digits = bin(mask)[:1:-1]  # least significant first
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


class MinorFamily:
    """A set of minors inside a fixed ambient size, held as a bitmask.

    Bit i stands for the i-th minor of the m x p grid in
    :func:`iter_minor_indices` order (size, then rows, then columns), which is
    also the order of the minor tables. Within size k, the minor
    on the i-th row set and j-th column set (positions in :func:`subsets`) is
    bit ``offset + i * comb(p, k) + j``. Members are decoded from the mask
    only when asked for. The public constructor validates its members and
    guards the grid's minor count; code that built a mask itself uses
    ``_from_mask``.
    """

    __slots__ = ("m", "p", "mask")

    def __init__(self, m: int, p: int, members: Iterable[MinorIndex]) -> None:
        guards.ensure_minor_table(m, p)
        mask = 0
        for ix in members:
            ix = MinorIndex(*ix)
            if not ix.fits(m, p):
                raise DomainError(f"{ix} does not fit in {m}x{p}")
            mask |= 1 << self._bit(m, p, ix)
        self._set(m, p, mask)

    @classmethod
    def _from_mask(cls, m: int, p: int, mask: int) -> "MinorFamily":
        family = object.__new__(cls)
        family._set(m, p, mask)
        return family

    def _set(self, m: int, p: int, mask: int) -> None:
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("MinorFamily is immutable")

    def __reduce__(self) -> tuple[Any, tuple[int, int, int]]:
        return (MinorFamily._from_mask, (self.m, self.p, self.mask))

    @staticmethod
    def _bit(m: int, p: int, ix: MinorIndex) -> int:
        """The bit of a minor that fits in m x p."""
        k = len(ix.rows)
        offset = sum(comb(m, j) * comb(p, j) for j in range(1, k))
        return (
            offset
            + subset_index(m, k)[ix.rows] * comb(p, k)
            + subset_index(p, k)[ix.cols]
        )

    @property
    def members(self) -> frozenset[MinorIndex]:
        return frozenset(self)

    def __contains__(self, ix: MinorIndex) -> bool:
        return ix.fits(self.m, self.p) and bool(
            self.mask >> self._bit(self.m, self.p, ix) & 1
        )

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[MinorIndex]:
        offset = 0
        for k in range(1, min(self.m, self.p) + 1):
            block = self.mask >> offset
            if not block:
                return
            rows, cols = subsets(self.m, k), subsets(self.p, k)
            size = len(rows) * len(cols)
            for i in _bit_positions(block & ((1 << size) - 1)):
                yield MinorIndex._make((rows[i // len(cols)], cols[i % len(cols)]))
            offset += size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MinorFamily):
            return NotImplemented
        return (self.m, self.p, self.mask) == (other.m, other.p, other.mask)

    def __hash__(self) -> int:
        return hash((self.m, self.p, self.mask))

    def __repr__(self) -> str:
        return f"MinorFamily({self.m}, {self.p}, {self})"

    def __str__(self) -> str:
        return "{" + ", ".join(str(ix) for ix in self) + "}"

    def to_json(self) -> dict[str, Any]:
        return {
            "m": self.m,
            "p": self.p,
            "members": [ix.to_json() for ix in self],
        }

    @classmethod
    def from_json(cls, obj: Any) -> "MinorFamily":
        if not isinstance(obj, dict) or not {"m", "p", "members"} <= set(obj):
            raise DomainError("minor family JSON needs m, p and members")
        m, p = json_int(obj["m"], "m"), json_int(obj["p"], "p")
        try:
            items = list(obj["members"])
        except TypeError as exc:
            raise DomainError(f"bad minor family JSON field: {exc}") from exc
        return cls(m, p, [MinorIndex.from_json(x) for x in items])


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


class Matrix:
    """An immutable m x p matrix; plain int entries become ``Fraction``."""

    __slots__ = ("m", "p", "rows")

    def __init__(self, rows: Sequence[Sequence[Any]]):
        rows = tuple(map(tuple, rows))
        if int in set(map(type, chain.from_iterable(rows))):
            rows = tuple(
                tuple(Fraction(x) if type(x) is int else x for x in r) for r in rows
            )
        if not rows or not rows[0]:
            raise DomainError("matrices need at least one row and one column")
        p = len(rows[0])
        if any(len(r) != p for r in rows):
            raise DomainError("ragged rows")
        object.__setattr__(self, "m", len(rows))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Matrix is immutable")

    def entry(self, i: int, alpha: int) -> Any:
        """Entry in row i, column alpha (1-based)."""
        if not (1 <= i <= self.m and 1 <= alpha <= self.p):
            raise DomainError(f"entry ({i},{alpha}) outside {self.m}x{self.p}")
        return self.rows[i - 1][alpha - 1]

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self.rows))

    def equals(self, other: "Matrix") -> bool:
        return self.rows == other.rows

    def __str__(self) -> str:
        cells = [[str(x) for x in row] for row in self.rows]
        width = max(len(c) for row in cells for c in row)
        return "\n".join(
            "[ " + "  ".join(c.rjust(width) for c in row) + " ]" for row in cells
        )

    def __repr__(self) -> str:
        return f"Matrix({self.m}x{self.p})"


# ---------------------------------------------------------------------------
# Determinants
# ---------------------------------------------------------------------------


def _det_bareiss_int(rows: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix (Bareiss)."""
    n = len(rows)
    a = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def _cleared(rows: Sequence[Sequence[Fraction]]) -> tuple[int, list[list[int]]]:
    """The least common denominator s of the entries, and s times the rows."""
    scale = lcm(*(x.denominator for row in rows for x in row))
    if scale == 1:  # integer entries, as in every path matrix
        return 1, [[x.numerator for x in row] for row in rows]
    return scale, [[x.numerator * (scale // x.denominator) for x in row] for row in rows]


def _det_rational(rows: list[list[Fraction]]) -> Fraction:
    scale, ints = _cleared(rows)
    return Fraction(_det_bareiss_int(ints), scale ** len(rows))


def determinant(matrix: Matrix) -> Fraction:
    if matrix.m != matrix.p:
        raise DomainError(f"determinant of non-square {matrix.m}x{matrix.p}")
    _require_rational(matrix.rows, "a determinant")
    return _det_rational([list(r) for r in matrix.rows])


def minor(matrix: Matrix, ix: MinorIndex) -> Fraction:
    """The exact value of one minor of a rational matrix."""
    if not ix.fits(matrix.m, matrix.p):
        raise DomainError(f"{ix} does not fit in {matrix.m}x{matrix.p}")
    sub = _submatrix(matrix, ix)
    _require_rational(sub, "a minor")
    return _det_rational(sub)


def _submatrix(matrix: Matrix, ix: MinorIndex) -> list[list[Any]]:
    return [[matrix.rows[i - 1][a - 1] for a in ix.cols] for i in ix.rows]


def minor_count(m: int, p: int) -> int:
    """How many minors an m x p matrix has in total."""
    if m < 1 or p < 1:
        raise DomainError("sizes must be at least 1")
    return comb(m + p, m) - 1


def iter_minor_indices(m: int, p: int) -> Iterator[MinorIndex]:
    """All minor indices of an m x p matrix, ordered by size then rows, columns."""
    for k in range(1, min(m, p) + 1):
        for rows in combinations(range(1, m + 1), k):
            for cols in combinations(range(1, p + 1), k):
                yield MinorIndex._make((rows, cols))


@cache
def _expansions(p: int, k: int) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
    """Per k-subset of columns, its Laplace terms as (column, position of the other
    k-1 columns among the (k-1)-subsets): the plus terms, then the minus terms."""
    index = subset_index(p, k - 1)
    return tuple(
        tuple(tuple((c - 1, index[cols[:j - 1] + cols[j:]])
                    for j, c in enumerate(cols, 1) if (k + j) % 2 == odd) for odd in (0, 1))
        for cols in subsets(p, k)
    )


def _int_minor_sizes(rows: Sequence[Sequence[int]], m: int, p: int) -> Iterator[list[int]]:
    """Every minor of an integer m x p matrix as one list of ints per size, in
    :func:`iter_minor_indices` order. A k-minor is the Laplace expansion of
    (k-1)-minors along its last row: at most k multiply-adds, no division."""
    prev = [[1]]  # per row set, its minors by column set
    for k in range(1, min(m, p) + 1):
        index, expansions = subset_index(m, k - 1), _expansions(p, k)
        table, values = [], []
        for r in subsets(m, k):
            sub, last = prev[index[r[:-1]]], rows[r[-1] - 1]
            out = []
            for plus, minus in expansions:
                total = 0
                for c, rest in plus:
                    if x := last[c]:
                        total += x * sub[rest]
                for c, rest in minus:
                    if x := last[c]:
                        total -= x * sub[rest]
                out.append(total)
            table.append(out)
            values += out
        yield values
        prev = table


@cache
def _minor_keys(m: int, p: int, k: int) -> tuple[MinorIndex, ...]:
    """The k-minors of the m x p grid in :func:`iter_minor_indices` order."""
    return tuple(MinorIndex._make((r, c)) for r in subsets(m, k) for c in subsets(p, k))


def all_minors(matrix: Matrix) -> list[tuple[MinorIndex, Fraction]]:
    _require_rational(matrix.rows, "a minor table")
    guards.ensure_minor_table(matrix.m, matrix.p)
    scale, rows = _cleared(matrix.rows)
    return [(ix, Fraction(value, scale**k))
            for k, values in enumerate(_int_minor_sizes(rows, matrix.m, matrix.p), 1)
            for ix, value in zip(_minor_keys(matrix.m, matrix.p, k), values)]


class MinorScan(NamedTuple):
    """A scan of the minors of scale * A: ``sizes[k - 1]`` holds the k-minors as
    ints in :func:`iter_minor_indices` order, from k = 1 up to the first size
    with a negative minor; ``negative`` is the most negative minor of that size
    (the first on ties) and its value in A, or None when no minor is negative."""

    m: int
    p: int
    scale: int
    sizes: tuple[list[int], ...]
    negative: tuple[MinorIndex, Fraction] | None

    @property
    def zeros(self) -> MinorFamily:
        """The zero minors among the sizes read, built when read."""
        flat = list(chain.from_iterable(self.sizes))
        bits = "".join("0" if value else "1" for value in reversed(flat))
        return MinorFamily._from_mask(self.m, self.p, int(bits, 2))


def scan_int_minors(rows: Sequence[Sequence[int]], m: int, p: int, scale: int) -> MinorScan:
    """The :class:`MinorScan` of ``rows``, an integer m x p matrix that is
    ``scale`` times a matrix A; the grid's minor count is guarded first."""
    guards.ensure_minor_table(m, p)
    sizes = []
    negative = None
    for k, values in enumerate(_int_minor_sizes(rows, m, p), 1):
        sizes.append(values)
        if (value := min(values)) < 0:
            negative = _minor_keys(m, p, k)[values.index(value)], Fraction(value, scale**k)
            break
    return MinorScan(m, p, scale, tuple(sizes), negative)


def scan_minors(matrix: Matrix) -> MinorScan:
    """:func:`scan_int_minors` of a rational matrix, its denominators cleared once."""
    _require_rational(matrix.rows, "a minor table")
    scale, rows = _cleared(matrix.rows)
    return scan_int_minors(rows, matrix.m, matrix.p, scale)


def initial_minor_index(i: int, alpha: int) -> MinorIndex:
    """The initial minor whose bottom-right entry sits at (i, alpha).

    It uses min(i, alpha) consecutive rows and columns ending at row i and
    column alpha, so the block touches row 1 or column 1.
    """
    k = min(i, alpha)
    return MinorIndex(
        tuple(range(i - k + 1, i + 1)), tuple(range(alpha - k + 1, alpha + 1))
    )


def initial_minors(matrix: Matrix) -> list[tuple[MinorIndex, Any]]:
    """The n^2 initial minors of a square matrix, row-major by corner entry;
    the entries their eliminations rewrite are guarded first."""
    if matrix.m != matrix.p:
        raise DomainError("initial minors are defined for square matrices")
    _require_rational(matrix.rows, "initial minors")
    n = matrix.m
    # 2(n - k) + 1 of them are k x k, and Bareiss rewrites j^2 entries at step j < k
    work = sum((2 * (n - k) + 1) * (k - 1) * k * (2 * k - 1) // 6 for k in range(2, n + 1))
    guards.ensure(work, guards.SWEEP_WORK_LIMIT, "entries initial minors' eliminations rewrite")
    indices = (initial_minor_index(i, a) for i in range(1, n + 1) for a in range(1, n + 1))
    return [(ix, _det_rational(_submatrix(matrix, ix))) for ix in indices]


def _require_rational(rows: Iterable[Sequence[Any]], what: str) -> None:
    """Refuse rows with an entry that is not a ``Fraction``."""
    for row in rows:
        for x in row:
            if not isinstance(x, Fraction):
                raise DomainError(
                    f"{what} needs rational entries, not {type(x).__name__}"
                )


def is_tp(matrix: Matrix) -> bool:
    """Total positivity of a square rational matrix via its initial minors."""
    if matrix.m != matrix.p:
        raise DomainError("total positivity test is for square matrices")
    return all(value > 0 for _, value in initial_minors(matrix))


def is_tnn_bruteforce(matrix: Matrix) -> tuple[bool, MinorIndex | None]:
    """Check every minor for nonnegativity; on failure report a witness, the
    worst minor of the smallest failing size (:class:`MinorScan`'s rule)."""
    negative = scan_minors(matrix).negative
    return (True, None) if negative is None else (False, negative[0])


# ---------------------------------------------------------------------------
# Interchange formats
# ---------------------------------------------------------------------------


def parse_rational(text: str) -> Fraction:
    """An integer, ``a/b`` or decimal literal; exponents are refused.

    ``Fraction`` would expand ``1e999999999`` into a billion-digit integer.
    """
    text = str(text).strip()
    if "e" in text.lower():
        raise DomainError(f"exponent notation is not accepted in {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"bad rational literal {text!r}") from exc


def matrix_from_json(obj: Any) -> Matrix:
    """Read ``{"m": ..., "p": ..., "entries": [[...], ...]}`` matrices."""
    if not isinstance(obj, dict) or not {"m", "p", "entries"} <= set(obj):
        raise DomainError("matrix JSON needs m, p and entries")
    m, p = json_int(obj["m"], "m"), json_int(obj["p"], "p")
    try:
        entries = [list(row) for row in obj["entries"]]
    except TypeError as exc:
        raise DomainError(f"bad matrix JSON field: {exc}") from exc
    if len(entries) != m or any(len(row) != p for row in entries):
        raise DomainError(f"entries do not form an {m}x{p} grid")
    rows = [[parse_rational(x) for x in row] for row in entries]
    return Matrix(rows)


def matrix_to_json(matrix: Matrix) -> dict[str, Any]:
    _require_rational(matrix.rows, "JSON export")
    return {
        "m": matrix.m,
        "p": matrix.p,
        "entries": [[str(x) for x in row] for row in matrix.rows],
    }


def matrix_from_csv(text: str) -> Matrix:
    """Read one matrix row per line, entries comma-separated rationals."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        rows.append([parse_rational(cell) for cell in line.split(",")])
    if not rows:
        raise DomainError("no rows in CSV input")
    return Matrix(rows)


def load_matrix_text(text: str) -> Matrix:
    """Accept either the JSON or the CSV matrix format."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return matrix_from_json(parse_json(text, "matrix"))
    if stripped.startswith("["):
        raise DomainError(
            'matrix JSON is an object {"m", "p", "entries"}, not a bare array'
        )
    return matrix_from_csv(text)
