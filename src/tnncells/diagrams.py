"""Cauchon diagrams: validation, enumeration and text formats.

A diagram colors the cells of an m x p grid black or white, subject to one
rule: a black cell must have all cells strictly to its left black, or all
cells strictly above it black. The same objects appear elsewhere as
Le-diagrams, written as 0/1 grids in which 0 marks a black cell; both
notations are accepted on input and the dot/hash grid is the canonical
output.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Any, Iterator

from . import guards
from .errors import DomainError, json_int, parse_json

Cell = tuple[int, int]

WHITE_CHAR = "."
BLACK_CHAR = "#"


def _first_violation(m: int, p: int, black: frozenset[Cell]) -> Cell | None:
    """The first black cell in row-major order that breaks the rule, found in one
    pass over the grid in that order."""
    for (i, alpha) in black:
        if not (1 <= i <= m and 1 <= alpha <= p):
            raise DomainError(f"cell ({i},{alpha}) outside {m}x{p} grid")
    above = [True] * p  # per column: are all cells above the current row black?
    for i in range(1, m + 1):
        left = True  # are all cells left of the current one black?
        for alpha in range(1, p + 1):
            if (i, alpha) not in black:
                left = above[alpha - 1] = False
            elif not (left or above[alpha - 1]):
                return (i, alpha)
    return None


def is_cauchon(m: int, p: int, black: Any) -> bool:
    """Does the coloring satisfy the all-left-black or all-above-black rule?"""
    if m < 1 or p < 1:
        raise DomainError("grid sizes must be at least 1")
    if not isinstance(black, frozenset):  # a frozenset is read as it is
        black = frozenset((int(i), int(a)) for i, a in black)
    return _first_violation(m, p, black) is None


def parse_grid(text: str) -> tuple[int, int, Iterator[Cell]]:
    """Read a dot/hash grid or a 0/1 Le grid as (m, p, black cells).

    `/` may separate rows. Malformed text raises DomainError. The black cells
    are yielded only as they are read, so the diagram constructor checks the
    size, from the text's row count and width, before it reads any cell. The
    coloring is not checked against the diagram rule.
    """
    body = text.strip().replace("/", "\n")
    lines = [line.strip() for line in body.splitlines() if line.strip()]
    if not lines:
        raise DomainError("empty diagram text")
    width = len(lines[0])
    if any(len(line) != width for line in lines):
        raise DomainError("diagram rows differ in length")
    charset = set("".join(lines))
    if charset <= {WHITE_CHAR, BLACK_CHAR}:
        black_char = BLACK_CHAR
    elif charset <= {"0", "1"}:
        black_char = "0"
    else:
        raise DomainError(
            f"diagram text must use {WHITE_CHAR}{BLACK_CHAR} or 01, "
            f"got {''.join(sorted(charset))!r}"
        )
    black = (
        (i + 1, a + 1)
        for i, line in enumerate(lines)
        for a, ch in enumerate(line)
        if ch == black_char
    )
    return len(lines), width, black


def _check_size(m: int, p: int) -> None:
    """The checks a grid size passes before any cell is read: every diagram's
    pipe dream is a permutation of m + p letters."""
    if m < 1 or p < 1:
        raise DomainError("grid sizes must be at least 1")
    guards.ensure(m + p, guards.PERMUTATION_LETTER_LIMIT, "pipe dream letters")


@dataclass(frozen=True)
class CauchonDiagram:
    """A valid black/white coloring of the m x p grid."""

    m: int
    p: int
    black: frozenset[Cell]

    def __post_init__(self) -> None:
        # the size comes first: the cells may still be unread (see parse_grid)
        _check_size(self.m, self.p)
        cells = frozenset((int(i), int(a)) for i, a in self.black)
        object.__setattr__(self, "black", cells)
        offender = _first_violation(self.m, self.p, cells)
        if offender is not None:
            raise DomainError(
                f"cell {offender} is black with a white cell to its left "
                "and a white cell above"
            )

    @classmethod
    def _make(cls, m: int, p: int, black: frozenset[Cell]) -> "CauchonDiagram":
        """A diagram whose coloring is known valid, built without re-checking it."""
        diagram = object.__new__(cls)
        diagram.__dict__.update(m=m, p=p, black=black)
        return diagram

    # -- basic queries --------------------------------------------------------

    def white_cells(self) -> list[Cell]:
        """All white cells in row-major order."""
        return [
            (i, a)
            for i in range(1, self.m + 1)
            for a in range(1, self.p + 1)
            if (i, a) not in self.black
        ]

    def black_sorted(self) -> list[Cell]:
        return sorted(self.black)

    def transpose(self) -> "CauchonDiagram":
        return CauchonDiagram(
            self.p, self.m, frozenset((a, i) for (i, a) in self.black)
        )

    # -- text formats ----------------------------------------------------------

    def to_ascii(self) -> str:
        return "\n".join(
            "".join(
                BLACK_CHAR if (i, a) in self.black else WHITE_CHAR
                for a in range(1, self.p + 1)
            )
            for i in range(1, self.m + 1)
        )

    @classmethod
    def from_ascii(cls, text: str) -> "CauchonDiagram":
        """Parse a dot/hash grid or a 0/1 Le grid; `/` may separate rows."""
        return cls(*parse_grid(text))

    def to_json(self) -> dict[str, Any]:
        return {
            "m": self.m,
            "p": self.p,
            "black": [list(cell) for cell in self.black_sorted()],
        }

    @classmethod
    def from_json(cls, obj: Any) -> "CauchonDiagram":
        if not isinstance(obj, dict) or not {"m", "p", "black"} <= set(obj):
            raise DomainError("diagram JSON needs m, p and black")
        m, p = json_int(obj["m"], "m"), json_int(obj["p"], "p")
        _check_size(m, p)  # before any cell is read
        try:
            black = frozenset(
                (json_int(i, "cell row"), json_int(a, "cell column"))
                for i, a in obj["black"]
            )
        except (TypeError, ValueError) as exc:
            raise DomainError(f"bad diagram JSON field: {exc}") from exc
        return cls(m, p, black)

    @classmethod
    def load_text(cls, text: str) -> "CauchonDiagram":
        stripped = text.lstrip()
        if stripped.startswith("{"):
            return cls.from_json(parse_json(text, "diagram"))
        return cls.from_ascii(text)

    def __str__(self) -> str:
        return self.to_ascii()


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def enumerate_diagrams(m: int, p: int) -> Iterator[CauchonDiagram]:
    """Stream every diagram of the grid once, in ascending bitmask order.

    Cells are read row-major with the first cell most significant and black
    as 1, so the all-white diagram comes first and the all-black one last.
    Backtracking checks each black placement against the one-pass rule
    check's flags: "all black to the left", carried along the row, and "all
    black above", kept per column and restored on backtrack. Both are exact,
    so no completed coloring is rejected and the diagrams are built without
    re-validation. The enumeration guard is checked when the call is made.
    """
    if m < 1 or p < 1:
        raise DomainError("grid sizes must be at least 1")
    guards.ensure_enumerable(m, p, what="diagram enumeration")
    cells = [(i, a) for i in range(1, m + 1) for a in range(1, p + 1)]
    black: set[Cell] = set()
    above = [True] * (p + 1)  # per column: are all cells above the current row black?

    def walk(k: int, left: bool) -> Iterator[CauchonDiagram]:
        if k == len(cells):
            yield CauchonDiagram._make(m, p, frozenset(black))
            return
        i, alpha = cells[k]
        left = left or alpha == 1  # nothing is left of a row's first cell
        was_above, above[alpha] = above[alpha], False
        yield from walk(k + 1, False)
        above[alpha] = was_above
        if left or was_above:
            black.add((i, alpha))
            yield from walk(k + 1, left)
            black.discard((i, alpha))

    return walk(0, True)


def poly_bernoulli(m: int, p: int) -> int:
    """The number of diagrams of the m x p grid by formula, with no enumeration:
    the poly-Bernoulli number B_m^(-p) = sum_j (j!)^2 S(m+1, j+1) S(p+1, j+1),
    S the Stirling numbers of the second kind."""
    rows, cols = _stirling_row(m + 1), _stirling_row(p + 1)
    return sum(factorial(j) ** 2 * rows[j + 1] * cols[j + 1] for j in range(min(m, p) + 1))


def _stirling_row(n: int) -> list[int]:
    """S(n, k) for k = 0..n, by S(n, k) = k S(n-1, k) + S(n-1, k-1)."""
    row = [1]
    for _ in range(n):
        row = [k * s + t for k, (s, t) in enumerate(zip(row + [0], [0] + row))]
    return row
