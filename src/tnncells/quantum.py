"""Quantum matrix algebra: normal forms, commutators and quantum minors.

Generators X[i,a] sit at the cells of an m x p grid and satisfy, for
(i,a) lexicographically before (k,g):

    same row or same column:   X[k,g] X[i,a] = q^(-1) X[i,a] X[k,g]
    i < k and a > g:           the two generators commute
    i < k and a < g:           X[k,g] X[i,a] = X[i,a] X[k,g]
                                 - (q - q^(-1)) X[i,g] X[k,a]

Monomials in normal form list their generators in nondecreasing
lexicographic order. A product inserts its right factor's generators one
at a time: X_x goes into a word ending in X_v > X_x by rewriting that pair
by the relation above. Each rewrite strictly lowers the word in degree-lex
order, so insertion terminates, and the Ore-extension presentation
guarantees the basis is honest (tested against leftmost word rewriting).

Inserting X_x never moves the letters of the word up to x. A rewrite of
X_v X_y with v > y makes only letters >= y: X_y and X_v themselves, or, when
it straightens, X_s X_t with s = (i, g) and t = (k, a) for y = (i, a) and
v = (k, g), i < k and a < g, so s > y and t > y. Inserting X_x into the
suffix of letters above x only ever rewrites pairs of letters >= x, so by
induction on the rewrites every word of (suffix above x) * X_x has letters
>= x only, and word * X_x is the word's prefix of letters <= x followed by
that product, in normal form and with the same coefficients. The memo of
insertions is therefore keyed on (suffix above x, x), and one entry serves
every prefix. The right factor's words are walked as a prefix trie, so a
shared prefix is inserted once, and the memo lives for one product, or for
both products of one commutator.

A product adds its terms, times a sign, into a flat table keyed by (word,
q-exponent) with int values, and the table becomes a QPoly once, at the end.
A commutator adds fg with +1 and gf with -1 into one table, so the terms the
two products share cancel as ints (every term of [D_q, D_q] does) and only
the terms that survive are built into coefficients.

Coefficients are integer Laurent polynomials in q. The parameter is never
specialized here; the q = 1 limit belongs to the Poisson side.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from itertools import permutations as iter_permutations
from math import factorial, prod
from typing import Any, Iterable

from . import guards
from .errors import DomainError, require_grid
from .permutations import inversion_count
from .scalars import ExactValue, LaurentQ, _signed_sum, add_terms, evaluate_expression, int_const

Gen = tuple[int, int]
Word = tuple[Gen, ...]

_TWO_BY_TWO_ALIASES = {"a": (1, 1), "b": (1, 2), "c": (2, 1), "d": (2, 2)}


def _check_grid(m: int, p: int) -> None:
    """Refuse sizes below 1, and a grid over the algebra guard before any of
    its per-grid tables is built."""
    require_grid(m, p)
    guards.ensure((m * p) ** 2, guards.ALGEBRA_PAIR_LIMIT, f"generator pairs of the {m}x{p} grid")


@lru_cache(maxsize=None)
def _rewrites(m: int, p: int) -> tuple[tuple[Gen, ...], dict[Gen, int], tuple]:
    """The cells in lexicographic order, their letters (indices), and for
    letters u < v the rewrite ``rules[v][u]`` of X_v X_u: ``(e, None)`` for
    q^e X_u X_v (q-commute, e = -1, or commute, e = 0), ``(0, (s, t))`` for
    X_u X_v - (q - q^(-1)) X_s X_t (straighten)."""
    _check_grid(m, p)
    cells = tuple((i, a) for i in range(1, m + 1) for a in range(1, p + 1))
    letter = {cell: x for x, cell in enumerate(cells)}
    rules = tuple(tuple((-1, None) if i == k or a == g else (0, None) if a > g
                        else (0, (letter[i, g], letter[k, a])) for i, a in cells[:v])
                  for v, (k, g) in enumerate(cells))
    return cells, letter, rules


def _insert(key: tuple, rules: tuple, memo: dict, spent: int) -> int:
    """Memoise suffix * X_x for ``key = (suffix, x)``, every letter of suffix
    above x, as {(normal word, q-exponent): int}.

    For suffix = head + (v,), X_v X_x is rewritten by its rule and v goes back
    on the right of head * X_x: no rewrite makes a letter larger than its
    pair. A straightening term head * X_s * X_t splits each lookup at its
    letter, as the product does: head * X_s is head's letters up to s, the
    lead, followed by the entry of the rest, and the same for each of its
    words times X_t (the module docstring proves the prefix never moves). A
    stack fills what an entry needs first, so long chains need no recursion.
    Adds the terms each entry sums to ``spent``, checked against the product
    budget, and returns it.
    """
    limit = guards.PRODUCT_TERM_LIMIT
    stack = [key]
    while stack:
        key = stack[-1]
        if key in memo:
            stack.pop()
            continue
        word, x = key
        if not word:
            memo[stack.pop()] = {((x,), 0): 1}
            continue
        head, v = word[:-1], word[-1]
        shift, pair = rules[v][x]
        needs = [] if (head, x) in memo else [(head, x)]
        if pair is not None:
            s, t = pair
            cut = bisect_right(head, s)
            pre, above = head[:cut], (head[cut:], s)
            if above not in memo:
                needs.append(above)
            else:
                rests = ((u[bisect_right(u, t):], t) for u, _ in memo[above])
                needs += [rest for rest in rests if rest not in memo]
        if needs:
            stack += needs
            continue
        stack.pop()
        out = {(u + (v,), e + shift): c for (u, e), c in memo[head, x].items()}
        spent += len(out)
        if pair is not None:
            for (u, e), c in memo[above].items():
                cut = bisect_right(u, t)
                lead, tail = pre + u[:cut], memo[u[cut:], t]
                spent += len(tail)
                add_terms(out, (
                    ((lead + w, e + f + de), sign * c * d)
                    for (w, f), d in tail.items() for de, sign in ((1, -1), (-1, 1))
                ))
        memo[key] = out
        if spent > limit:
            guards.ensure(spent, limit, "terms of one product")
    return spent


class QPoly(ExactValue):
    """An element of the quantum matrix algebra in normal form.

    Terms map normally ordered words to nonzero ``LaurentQ`` coefficients.
    Sums, negation, equality and hashing are the shared ones; the product
    rewrites words back to normal form.
    """

    __slots__ = ("m", "p", "terms")

    _context = ("m", "p")
    _scalars = (int, LaurentQ)

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

    def _scalar(self, value: LaurentQ | int) -> "QPoly":
        return QPoly.const(self.m, self.p, value)

    def scaled(self, coeff: LaurentQ | int) -> "QPoly":
        if not coeff:
            return self._new({})
        return self._new({w: coeff * c for w, c in self.terms.items()})

    def multiply(self, other: "QPoly") -> "QPoly":
        """The product in normal form: g's letters go into f's words one at a time.

        Inside, words are cell indices and coefficients flat ints keyed by
        (word, q-exponent). g's words are read as a prefix trie, so f times a
        prefix is formed once for every word of g that starts with it.
        Charged a unit per pair of coefficient terms, plus the terms each memo
        entry on (suffix above the letter, letter) sums, plus the terms of the
        entry each (word, q-exponent) term reads; the memo and the term table
        live for this call.
        """
        table: dict[tuple, int] = {}
        self._product(other, {}, table, 1)
        return self._from_table(table)

    def _product(self, other: "QPoly", memo: dict, table: dict, sign: int) -> None:
        """Add ``sign * self * other`` into ``table``, reading and filling
        ``memo`` of suffix * X_x entries.

        ``table`` maps (word of cell indices, q-exponent) to a nonzero int, and
        a term that cancels leaves it, so one table can hold fg - gf with only
        the surviving terms. A word w times X_x is w's letters up to x, the
        prefix, followed by the entry of (the rest of w, x): inserting X_x
        makes only letters >= x, so the prefix never moves (the module
        docstring has the proof). Charged its pairs, the entries it adds, and
        the length of each entry it reads, each read checked at once, so a
        product whose entries are all made already is still bounded by its
        reads."""
        self._check_ring(other)
        _, letter, rules = _rewrites(self.m, self.p)
        limit = guards.PRODUCT_TERM_LIMIT
        spent = prod(sum(len(c.terms) for c in h.terms.values()) for h in (self, other))
        guards.ensure(spent, limit, "terms of one product")
        # g's words by letter; a node's None key holds its word's coefficient
        trie: dict = {}
        for v, d in other.terms.items():
            node = trie
            for x in map(letter.__getitem__, v):
                node = node.setdefault(x, {})
            node[None] = d
        start = {(tuple(map(letter.__getitem__, w)), e): sign * k
                 for w, c in self.terms.items() for e, k in c.terms.items()}
        # (letter, its node, f times the node's parent prefix), depth first in
        # g's word order, so memo entries are made, and the budget trips, in
        # the order of inserting g's words one by one
        stack = [(x, node, start) for x, node in reversed(trie.items())]
        while stack:
            x, node, terms = stack.pop()
            if x is None:
                add_terms(table, (((w, e + f), k * c)
                                  for (w, e), k in terms.items() for f, c in node.terms.items()))
                continue
            grown: dict[tuple, int] = {}
            for (w, e), k in terms.items():
                cut = bisect_right(w, x)
                if cut == len(w):
                    key = (w + (x,), e)
                    grown[key] = grown.get(key, 0) + k
                    continue
                above = (w[cut:], x)
                entry = memo.get(above)
                if entry is None:
                    spent = _insert(above, rules, memo, spent)
                    entry = memo[above]
                pre = w[:cut]
                spent += len(entry)
                if spent > limit:
                    guards.ensure(spent, limit, "terms of one product")
                for (u, f), c in entry.items():
                    key = (pre + u, e + f)
                    grown[key] = grown.get(key, 0) + k * c
            terms = {key: c for key, c in grown.items() if c}
            stack += [(y, child, terms) for y, child in reversed(node.items())]

    def _from_table(self, table: dict) -> "QPoly":
        """The element of this ring whose terms ``table`` holds, as
        :meth:`_product` fills it: a LaurentQ per word, built once."""
        cells = _rewrites(self.m, self.p)[0]
        out: dict[Word, dict[int, int]] = {}
        for (w, e), k in table.items():
            out.setdefault(tuple(map(cells.__getitem__, w)), {})[e] = k
        return self._new({w: LaurentQ.ONE._new(c) for w, c in out.items()})

    def __mul__(self, other: Any) -> "QPoly":
        if isinstance(other, (int, LaurentQ)):
            return self.scaled(other)
        if isinstance(other, QPoly):
            return self.multiply(other)
        return NotImplemented

    # -- presentation ---------------------------------------------------------------

    def _gen_str(self, gen: Gen) -> str:
        if (self.m, self.p) == (2, 2):
            for name, cell in _TWO_BY_TWO_ALIASES.items():
                if cell == gen:
                    return name
        return f"X[{gen[0]},{gen[1]}]"

    def to_str(self) -> str:
        chunks = []
        for word, coeff in sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0])):
            # pull a negative leading q-power out so sums read "x - (...)*y"
            sign = -1 if coeff.terms[max(coeff.terms)] < 0 else 1
            coeff = sign * coeff
            text = str(coeff) if len(coeff.terms) == 1 else f"({coeff})"
            factors = [] if word and coeff == LaurentQ.ONE else [text]
            chunks.append((sign, "*".join(factors + [self._gen_str(g) for g in word])))
        return _signed_sum(chunks)

    def __str__(self) -> str:
        return self.to_str()


# ---------------------------------------------------------------------------
# Derived operations
# ---------------------------------------------------------------------------


def commutator(f: QPoly, g: QPoly) -> QPoly:
    """fg - gf, added up in one term table: fg goes in with sign +1 and gf
    with -1, so the terms they share cancel as ints and only the survivors
    become coefficients. Both products share one insertion memo, since
    suffix * X_x depends only on the grid, the suffix and the letter, and a
    word's prefix of letters up to x never moves: gf is charged its pairs, the
    entries fg did not make and every entry it reads."""
    memo: dict[tuple, dict] = {}
    table: dict[tuple, int] = {}
    f._product(g, memo, table, 1)
    g._product(f, memo, table, -1)
    return f._from_table(table)


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
    _check_grid(m, p)

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
