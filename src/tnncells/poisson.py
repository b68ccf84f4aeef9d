"""The standard Poisson bracket on matrix coordinates, and flow checking.

Coordinates Y[i,a] generate a commutative polynomial ring. On generators
with (i,a) lexicographically before (k,g) the bracket is

    same row or same column:  {Y[i,a], Y[k,g]} = Y[i,a] Y[k,g]
    i < k, a > g:             0
    i < k, a < g:             2 Y[i,g] Y[k,a]

and extends to polynomials by bilinearity and the Leibniz rule. The q-side
engine reproduces the same table through commutators: [X, X'] / (q - 1) at
q = 1 must match the bracket on the corresponding coordinates, and
:func:`semiclassical_check` verifies exactly that, treating a failed exact
division by (q - 1) as a broken invariant rather than bad input.

Hamiltonian paths are checked in a small closed-form function ring: sums
p(t) * e^(l*t) with rational l and rational polynomial p. Distinct
exponentials are linearly independent over polynomials, so a zero residual
in this ring is an identity, not an approximation, and a nonzero residual
is reported as its exact expression.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, groupby
from operator import add
from typing import Any, Mapping

from . import guards
from .errors import ConsistencyError, DomainError, json_int
from .quantum import _TWO_BY_TWO_ALIASES, QPoly, commutator
from .scalars import ExactValue, MPoly, add_terms, evaluate_expression, int_const

Cell = tuple[int, int]


def coordinate_name(i: int, a: int) -> str:
    return f"Y[{i},{a}]"


@lru_cache(maxsize=None)
def coordinate_names(m: int, p: int) -> tuple[str, ...]:
    return tuple(
        coordinate_name(i, a)
        for i in range(1, m + 1)
        for a in range(1, p + 1)
    )


def coordinate(m: int, p: int, i: int, a: int) -> MPoly:
    if not (1 <= i <= m and 1 <= a <= p):
        raise DomainError(f"coordinate Y[{i},{a}] outside {m}x{p}")
    return MPoly.var(coordinate_names(m, p), coordinate_name(i, a))


@lru_cache(maxsize=None)
def _bracket_table(m: int, p: int) -> tuple[tuple[Any, ...], ...]:
    """``table[u][v]`` for coordinates u, v (row-major) is None when
    {Y_u, Y_v} = 0, else ``(c, shift)`` with {Y_u, Y_v} = c Y^(e_u + e_v + shift);
    ``shift`` is None when it is zero. The entries for u < v are the three
    cases of the bracket on generators, and antisymmetry gives the rest."""
    cells = [(i, a) for i in range(1, m + 1) for a in range(1, p + 1)]
    table: list[list[Any]] = [[None] * len(cells) for _ in cells]
    for s, t in combinations(range(len(cells)), 2):
        (i, a), (k, g) = cells[s], cells[t]
        if i == k or a == g:
            entry = (1, None)
        elif a > g:
            continue
        else:  # 2 Y[i,g] Y[k,a]
            shift = [0] * len(cells)
            shift[s] = shift[t] = -1
            shift[(i - 1) * p + g - 1] = shift[(k - 1) * p + a - 1] = 1
            entry = (2, tuple(shift))
        table[s][t], table[t][s] = entry, (-entry[0], entry[1])
    return tuple(map(tuple, table))


def bracket(m: int, p: int, f: MPoly, g: MPoly) -> MPoly:
    """{f, g}, one pair of monomials at a time: by bilinearity and Leibniz,
    {c Y^A, d Y^B} sums c d A_u B_v {Y_u, Y_v} Y^(A + B - e_u - e_v) over the
    u, v with A_u, B_v nonzero, for exponents of either sign. It is charged
    one unit per pair of terms, as a product."""
    names = coordinate_names(m, p)
    if f.names != names or g.names != names:
        raise DomainError(f"operands must live in the {m}x{p} coordinate ring")
    guards.ensure(len(f.terms) * len(g.terms), guards.PRODUCT_TERM_LIMIT, "terms of one product")
    table = _bracket_table(m, p)
    right = [(B, d, [(v, b) for v, b in enumerate(B) if b]) for B, d in g.terms.items()]
    total: dict[tuple[int, ...], int] = {}
    for A, c in f.terms.items():
        left = [(table[u], c * a) for u, a in enumerate(A) if a]
        for B, d, support in right:
            AB = tuple(map(add, A, B))
            for row, ca in left:
                for v, b in support:
                    entry = row[v]
                    if entry is not None:
                        coeff, shift = entry
                        key = AB if shift is None else tuple(map(add, AB, shift))
                        total[key] = total.get(key, 0) + ca * d * b * coeff
    return MPoly.zero(names)._new({e: c for e, c in total.items() if c})


def jacobi_check(m: int, p: int, f: MPoly, g: MPoly, h: MPoly) -> MPoly:
    """{f,{g,h}} + {g,{h,f}} + {h,{f,g}}; zero when the bracket is honest."""
    return (
        bracket(m, p, f, bracket(m, p, g, h))
        + bracket(m, p, g, bracket(m, p, h, f))
        + bracket(m, p, h, bracket(m, p, f, g))
    )


def parse_poisson(text: str, m: int, p: int) -> MPoly:
    """Parse a polynomial in Y[i,a] (aliases a,b,c,d at 2x2) with int coefficients."""
    names = coordinate_names(m, p)

    def const(value: Fraction) -> MPoly:
        return MPoly.const(names, int_const(value))

    def symbol(name: str) -> MPoly:
        if (m, p) == (2, 2) and name in _TWO_BY_TWO_ALIASES:
            return coordinate(m, p, *_TWO_BY_TWO_ALIASES[name])
        if name.startswith("Y["):
            i, a = name[2:-1].split(",")
            return coordinate(m, p, int(i), int(a))
        raise DomainError(f"unknown coordinate {name!r} for a {m}x{p} grid")

    def power(base: MPoly, exponent: int) -> MPoly:
        if exponent < 0:
            raise DomainError("Poisson polynomials admit nonnegative powers only")
        return base ** exponent

    return evaluate_expression(text, const=const, symbol=symbol, power=power)


# ---------------------------------------------------------------------------
# The quantum-to-Poisson bridge
# ---------------------------------------------------------------------------


def semiclassical_poly(qpoly: QPoly) -> MPoly:
    """Divide by (q - 1), set q = 1 and read the words commutatively."""
    m, p = qpoly.m, qpoly.p
    terms = {}
    for word, coeff in qpoly.terms.items():
        try:
            scaled = coeff.divided_by_q_minus_one()
        except DomainError as exc:
            raise ConsistencyError(
                f"coefficient {coeff} of {word} is not divisible by q - 1"
            ) from exc
        exps = [0] * (m * p)
        for i, a in word:
            exps[(i - 1) * p + a - 1] += 1
        # distinct normal words are distinct multisets of generators
        terms[tuple(exps)] = scaled.at_one()
    return MPoly(coordinate_names(m, p), terms)


def semiclassical_check(m: int, p: int, i: int, a: int, k: int, g: int) -> bool:
    """Does [X,X']/(q-1) at q=1 reproduce {Y,Y'} for this generator pair?"""
    if (i, a) == (k, g):
        raise DomainError("pick two distinct generators")
    comm = commutator(
        QPoly.generator(m, p, i, a), QPoly.generator(m, p, k, g)
    )
    classical = semiclassical_poly(comm)
    expected = bracket(m, p, coordinate(m, p, i, a), coordinate(m, p, k, g))
    return classical == expected


def semiclassical_pairs(m: int, p: int) -> list[tuple[Cell, Cell, bool]]:
    """Every pair of distinct generators, row-major, with its semiclassical check."""
    gens = [(i, a) for i in range(1, m + 1) for a in range(1, p + 1)]
    return [
        (u, v, semiclassical_check(m, p, *u, *v)) for u, v in combinations(gens, 2)
    ]


# ---------------------------------------------------------------------------
# Closed-form functions of t
# ---------------------------------------------------------------------------


class ExpPoly(ExactValue):
    """A finite sum of terms c * t^d * e^(l*t) with rational c and l.

    Terms map ``(l, d)`` to a nonzero ``Fraction`` c. This is a canonical
    form because the functions t^d e^(l t) are linearly independent;
    consequently is_zero and equality are exact.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[Fraction, int], Fraction | int]):
        clean: dict[tuple[Fraction, int], Fraction] = {}
        for (lam, degree), coeff in terms.items():
            if not (isinstance(degree, int) and degree >= 0):
                raise DomainError(f"degree {degree!r} is not a nonnegative integer")
            coeff = Fraction(coeff)
            if coeff:
                clean[(Fraction(lam), degree)] = coeff
        object.__setattr__(self, "terms", clean)

    @classmethod
    def const(cls, value: Fraction | int) -> "ExpPoly":
        return cls({(0, 0): value})

    @classmethod
    def t(cls) -> "ExpPoly":
        return cls({(0, 1): 1})

    @classmethod
    def exponential(cls, lam: Fraction) -> "ExpPoly":
        return cls({(lam, 0): 1})

    def _coerce(self, other: Any) -> "ExpPoly":
        if isinstance(other, ExpPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return ExpPoly.const(other)
        return NotImplemented  # type: ignore[return-value]

    @staticmethod
    def _combine(k1: tuple[Fraction, int], k2: tuple[Fraction, int]) -> tuple:
        return (k1[0] + k2[0], k1[1] + k2[1])

    def derivative(self) -> "ExpPoly":
        # (c t^d e^(l t))' = c d t^(d-1) e^(l t) + c l t^d e^(l t); within
        # each part the keys stay distinct and the coefficients nonzero.
        lowered = {(lam, d - 1): c * d for (lam, d), c in self.terms.items() if d}
        scaled = {(lam, d): c * lam for (lam, d), c in self.terms.items() if lam}
        return self._new(add_terms(lowered, scaled.items()))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        by_rate = groupby(sorted(self.terms.items()), key=lambda item: item[0][0])
        for lam, group in by_rate:
            poly = " + ".join(
                f"{c}" if d == 0 else (f"{c}*t" if d == 1 else f"{c}*t^{d}")
                for (_, d), c in group
            )
            chunks.append(f"({poly})" if lam == 0 else f"({poly})*exp({lam}*t)")
        return " + ".join(chunks)

    def __repr__(self) -> str:
        return f"ExpPoly({self})"


def parse_path_entry(text: str) -> ExpPoly:
    """Parse one path coordinate: rationals, t, and exp(<rational>*t)."""
    def symbol(name: str) -> ExpPoly:
        if name == "t":
            return ExpPoly.t()
        raise DomainError(f"paths know only the variable t, not {name!r}")

    def call(func: str, arg: ExpPoly) -> ExpPoly:
        if func != "exp":
            raise DomainError(f"unknown function {func!r}")
        if arg.is_zero:
            return ExpPoly.const(1)
        if set(arg.terms) != {(0, 1)}:
            raise DomainError("exp arguments must be rational multiples of t")
        return ExpPoly.exponential(arg.terms[(0, 1)])

    return evaluate_expression(text, const=ExpPoly.const, symbol=symbol, call=call)


@dataclass(frozen=True)
class FlowPath:
    """A matrix of closed-form functions of t."""

    m: int
    p: int
    entries: tuple[tuple[ExpPoly, ...], ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.m or any(
            len(row) != self.p for row in self.entries
        ):
            raise DomainError(f"path entries do not form an {self.m}x{self.p} grid")

    def entry(self, i: int, a: int) -> ExpPoly:
        return self.entries[i - 1][a - 1]

    @classmethod
    def from_json(cls, obj: Any) -> "FlowPath":
        if not isinstance(obj, dict) or not {"m", "p", "entries"} <= set(obj):
            raise DomainError("path JSON needs m, p and entries")
        m, p = json_int(obj["m"], "m"), json_int(obj["p"], "p")
        try:
            cells = [list(row) for row in obj["entries"]]
        except TypeError as exc:
            raise DomainError(f"bad path JSON field: {exc}") from exc
        entries = tuple(
            tuple(parse_path_entry(str(cell)) for cell in row) for row in cells
        )
        return cls(m, p, entries)


@dataclass(frozen=True)
class FlowReport:
    """The flow equation's residual d/dt Y[i,a] - {H, Y[i,a]} along a path.

    ``residual`` is the first nonzero residual in row-major order, at
    ``coordinate``; it is zero, with no coordinate, when the path is an
    exact flow.
    """

    residual: ExpPoly
    coordinate: Cell | None

    @property
    def symbolic_zero(self) -> bool:
        return self.residual.is_zero

    def __str__(self) -> str:
        if self.coordinate is None:
            return "flow equation holds exactly"
        return f"residual at {coordinate_name(*self.coordinate)}: {self.residual}"


def verify_flow(path: FlowPath, hamiltonian: MPoly) -> FlowReport:
    """Check d/dt of each path entry against {H, Y[i,a]} along the path.

    Residuals are computed in the closed-form ring, where zero is decided
    exactly, so the report is exact either way.
    """
    m, p = path.m, path.p
    names = coordinate_names(m, p)
    if hamiltonian.names != names:
        raise DomainError(f"Hamiltonian must live in the {m}x{p} coordinate ring")
    values = {
        coordinate_name(i, a): path.entry(i, a)
        for i in range(1, m + 1)
        for a in range(1, p + 1)
    }
    for i in range(1, m + 1):
        for a in range(1, p + 1):
            flow_rhs = bracket(m, p, hamiltonian, coordinate(m, p, i, a))
            residual = path.entry(i, a).derivative() - flow_rhs.evaluate(values)
            if not residual.is_zero:
                return FlowReport(residual, (i, a))
    return FlowReport(ExpPoly.const(0), None)
