"""Quantum matrix algebra: normal forms, commutators and quantum minors.

Generators X[i,a] sit at the cells of an m x p grid and satisfy, for
(i,a) lexicographically before (k,g):

    same row or same column:   X[k,g] X[i,a] = q^(-1) X[i,a] X[k,g]
    i < k and a > g:           the two generators commute
    i < k and a < g:           X[k,g] X[i,a] = X[i,a] X[k,g]
                                 - (q - q^(-1)) X[i,g] X[k,a]

Monomials in normal form list their generators in nondecreasing
lexicographic order; every product is rewritten back to that basis. Each
rewrite strictly lowers the word in degree-lex order, so reduction
terminates, and the Ore-extension presentation guarantees the basis is
honest (confluence is exercised by tests rather than assumed: reduction
strategies are pluggable).

Coefficients are integer Laurent polynomials in q. The parameter is never
specialized here; the q = 1 limit belongs to the Poisson side.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, compress, count, islice
from itertools import permutations as iter_permutations
from math import factorial
from operator import gt, lt
from typing import Any, Iterable, Literal

from . import guards
from .errors import DomainError
from .permutations import inversion_count
from .scalars import ExactValue, LaurentQ, add_terms, evaluate_expression, int_const

Gen = tuple[int, int]
Word = tuple[Gen, ...]

Strategy = Literal["leftmost", "rightmost"]

_TWO_BY_TWO_ALIASES = {"a": (1, 1), "b": (1, 2), "c": (2, 1), "d": (2, 2)}


_Q_INVERSE = LaurentQ.q_power(-1)
_STRAIGHTENING = -LaurentQ.Q_MINUS_QINV


def _pair_product(v: Gen, u: Gen) -> list[tuple[Word, LaurentQ]]:
    """Normal form of X_v X_u for an out-of-order pair v > u."""
    (k, g), (i, a) = v, u
    if i == k or a == g:
        return [((u, v), _Q_INVERSE)]
    if i < k and a > g:
        return [((u, v), LaurentQ.ONE)]
    # i < k and a < g: the straightening relation
    return [((u, v), LaurentQ.ONE), (((i, g), (k, a)), _STRAIGHTENING)]


def _normal_forms(
    words: list[Word], strategy: Strategy, spent: int
) -> dict[Word, dict[Word, LaurentQ]]:
    """Normal forms of ``words``, memoised for every word met on the way.

    Each rewrite replaces a word by the words of one pair product at its
    leftmost (or rightmost) out-of-order spot. An explicit stack reduces
    those words before the word itself, so long rewrite chains need no
    recursion. ``spent`` is the work already charged to the product; each
    rewrite adds the terms it produces against ``guards.PRODUCT_TERM_LIMIT``.
    """
    memo: dict[Word, dict[Word, LaurentQ]] = {}
    stack: list[tuple[Word, list[tuple[Word, LaurentQ]] | None]] = [
        (word, None) for word in words
    ]
    while stack:
        word, children = stack.pop()
        if children is None:
            if word in memo:
                continue
            if strategy == "leftmost":
                descents = map(gt, word, islice(word, 1, None))
                spots = compress(count(), descents)
            else:  # read from the right, a descent is a rise
                descents = map(lt, reversed(word), islice(reversed(word), 1, None))
                spots = compress(count(len(word) - 2, -1), descents)
            t = next(spots, None)
            if t is None:
                memo[word] = {word: LaurentQ.ONE}
                continue
            head, tail = word[:t], word[t + 2:]
            children = [
                (head + pair + tail, coeff)
                for pair, coeff in _pair_product(word[t], word[t + 1])
            ]
            pending = [(child, None) for child, _ in children if child not in memo]
            if pending:
                stack.append((word, children))
                stack.extend(pending)
                continue
        out: dict[Word, LaurentQ] = {}
        for child, coeff in children:
            normal = memo[child]
            spent += len(normal)
            add_terms(out, normal.items() if coeff is LaurentQ.ONE else (
                (reduced, coeff * inner) for reduced, inner in normal.items()
            ))
        guards.ensure(spent, guards.PRODUCT_TERM_LIMIT, "terms of one product")
        memo[word] = out
    return memo


def _coefficient_terms(f: "QPoly") -> int:
    return sum(len(coeff.terms) for coeff in f.terms.values())


class QPoly(ExactValue):
    """An element of the quantum matrix algebra in normal form.

    Terms map normally ordered words to nonzero ``LaurentQ`` coefficients.
    Sums, negation, equality and hashing are the shared ones; the product
    rewrites words back to normal form.
    """

    __slots__ = ("m", "p", "terms")

    _context = ("m", "p")

    def __init__(self, m: int, p: int, terms: dict[Word, LaurentQ]):
        clean: dict[Word, LaurentQ] = {}
        for word, coeff in terms.items():
            if coeff.is_zero:
                continue
            for (i, a) in word:
                if not (1 <= i <= m and 1 <= a <= p):
                    raise DomainError(f"generator X[{i},{a}] outside {m}x{p}")
            if any(x > y for x, y in zip(word, word[1:])):
                raise DomainError(f"word {word} is not normally ordered")
            clean[word] = coeff
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "terms", clean)

    # -- constructors -----------------------------------------------------------

    @classmethod
    def zero(cls, m: int, p: int) -> "QPoly":
        return cls(m, p, {})

    @classmethod
    def const(cls, m: int, p: int, value: LaurentQ | int) -> "QPoly":
        coeff = value if isinstance(value, LaurentQ) else LaurentQ.const(value)
        return cls(m, p, {(): coeff})

    @classmethod
    def one(cls, m: int, p: int) -> "QPoly":
        return cls.const(m, p, 1)

    @classmethod
    def generator(cls, m: int, p: int, i: int, a: int) -> "QPoly":
        return cls(m, p, {((i, a),): LaurentQ.ONE})

    # -- ring structure -----------------------------------------------------------

    def _check(self, other: "QPoly") -> None:
        if (self.m, self.p) != (other.m, other.p):
            raise DomainError("mixed ambient grid sizes")

    def _coerce(self, other: Any) -> "QPoly":
        if isinstance(other, QPoly):
            self._check(other)
            return other
        if isinstance(other, (int, LaurentQ)):
            return QPoly.const(self.m, self.p, other)
        return NotImplemented  # type: ignore[return-value]

    def scaled(self, coeff: LaurentQ | int) -> "QPoly":
        if not coeff:
            return self._new({})
        return self._new({w: coeff * c for w, c in self.terms.items()})

    def multiply(self, other: "QPoly", strategy: Strategy = "leftmost") -> "QPoly":
        """The product in normal form; ``strategy`` picks the rewrite spot.

        It is charged one unit per pair of coefficient terms, the work of
        multiplying the ``LaurentQ`` coefficient of every word pair.
        """
        self._check(other)
        pairs = _coefficient_terms(self) * _coefficient_terms(other)
        guards.ensure(pairs, guards.PRODUCT_TERM_LIMIT, "terms of one product")
        products = [
            (w1 + w2, c1 * c2)
            for w1, c1 in self.terms.items()
            for w2, c2 in other.terms.items()
        ]
        memo = _normal_forms([w for w, _ in products], strategy, pairs)
        return self._new(add_terms({}, (
            (reduced, coeff * inner)
            for word, coeff in products
            for reduced, inner in memo[word].items()
        )))

    def __mul__(self, other: Any) -> "QPoly":
        if isinstance(other, (int, LaurentQ)):
            return self.scaled(other)
        if isinstance(other, QPoly):
            return self.multiply(other)
        return NotImplemented

    # -- presentation ---------------------------------------------------------------

    def _gen_str(self, gen: Gen, aliases: bool) -> str:
        if aliases and (self.m, self.p) == (2, 2):
            for name, cell in _TWO_BY_TWO_ALIASES.items():
                if cell == gen:
                    return name
        return f"X[{gen[0]},{gen[1]}]"

    def to_str(self, aliases: bool = True) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for word in sorted(self.terms, key=lambda w: (len(w), w)):
            coeff = self.terms[word]
            # pull a negative leading q-power out so sums read "x - (...)*y"
            sign = ""
            if coeff.terms[max(coeff.terms)] < 0:
                sign, coeff = "-", -coeff
            gens = "*".join(self._gen_str(g, aliases) for g in word)
            coeff_str = str(coeff)
            if word:
                if coeff == LaurentQ.ONE:
                    body = gens
                elif len(coeff.terms) > 1:
                    body = f"({coeff_str})*{gens}"
                else:
                    body = f"{coeff_str}*{gens}"
            else:
                body = coeff_str if len(coeff.terms) <= 1 else f"({coeff_str})"
            chunks.append(sign + body)
        out = chunks[0]
        for chunk in chunks[1:]:
            out += f" - {chunk[1:]}" if chunk.startswith("-") else f" + {chunk}"
        return out

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"QPoly({self.to_str()})"


# ---------------------------------------------------------------------------
# Derived operations
# ---------------------------------------------------------------------------


def commutator(f: QPoly, g: QPoly) -> QPoly:
    return f.multiply(g) - g.multiply(f)


def quantum_minor(
    m: int, p: int, rows: Iterable[int], cols: Iterable[int]
) -> QPoly:
    """The signed permutation sum; rows strictly increasing keep it normal."""
    rows = tuple(rows)
    cols = tuple(cols)
    if len(rows) != len(cols):
        raise DomainError("quantum minors need equally many rows and columns")
    if any(x >= y for x, y in zip(rows, rows[1:])) or any(
        x >= y for x, y in zip(cols, cols[1:])
    ):
        raise DomainError("row and column sets must increase strictly")
    if not rows:
        return QPoly.one(m, p)
    k = len(rows)
    guards.ensure(factorial(k), guards.QUANTUM_MINOR_TERM_LIMIT,
                  f"terms of a {k}x{k} quantum minor")
    # Distinct permutations give distinct words, so no two terms merge.
    return QPoly(m, p, {
        tuple(zip(rows, (cols[s] for s in sigma))): LaurentQ.minus_q_to(
            inversion_count(sigma)
        )
        for sigma in iter_permutations(range(len(rows)))
    })


def defining_relations_hold(m: int, p: int) -> list[tuple[Gen, Gen]]:
    """Check every generator pair's relation as a normal-form identity.

    Returns the list of offending pairs (empty on success). Each check
    reduces the product taken in the wrong order and compares against the
    relation's right-hand side built independently from sums of ordered
    words, so a reduction bug cannot cancel itself out.
    """
    gens = [(i, a) for i in range(1, m + 1) for a in range(1, p + 1)]
    bad = []
    for u, v in combinations(gens, 2):
        xu = QPoly.generator(m, p, *u)
        xv = QPoly.generator(m, p, *v)
        wrong_order = xv.multiply(xu)
        (i, a), (k, g) = u, v
        if i == k or a == g:
            expected = QPoly(m, p, {(u, v): LaurentQ.q_power(-1)})
        elif a > g:
            expected = QPoly(m, p, {(u, v): LaurentQ.ONE})
        else:
            expected = QPoly(
                m,
                p,
                {
                    (u, v): LaurentQ.ONE,
                    ((i, g), (k, a)): -LaurentQ.Q_MINUS_QINV,
                },
            )
        if wrong_order != expected:
            bad.append((u, v))
    return bad


def is_central_2x2_determinant() -> bool:
    """Does the 2x2 quantum determinant commute with all four generators?"""
    dq = quantum_minor(2, 2, (1, 2), (1, 2))
    return all(
        commutator(dq, QPoly.generator(2, 2, i, a)).is_zero
        for i in (1, 2)
        for a in (1, 2)
    )


# ---------------------------------------------------------------------------
# Expression parsing
# ---------------------------------------------------------------------------


def parse_qpoly(text: str, m: int, p: int) -> QPoly:
    """Parse an expression over X[i,a] (a,b,c,d at 2x2), q and integers."""
    def const(value: Fraction) -> QPoly:
        return QPoly.const(m, p, int_const(value))

    def symbol(name: str) -> QPoly:
        if name == "q":
            return QPoly.const(m, p, LaurentQ.q_power(1))
        if (m, p) == (2, 2) and name in _TWO_BY_TWO_ALIASES:
            return QPoly.generator(m, p, *_TWO_BY_TWO_ALIASES[name])
        if name.startswith("X["):
            i, a = name[2:-1].split(",")
            return QPoly.generator(m, p, int(i), int(a))
        raise DomainError(f"unknown generator {name!r} for a {m}x{p} grid")

    def power(base: QPoly, exponent: int) -> QPoly:
        if exponent < 0:
            if set(base.terms) == {()}:
                return QPoly.const(m, p, base.terms[()] ** exponent)
            raise DomainError("negative powers only apply to powers of q")
        return base ** exponent

    return evaluate_expression(text, const=const, symbol=symbol, power=power)
