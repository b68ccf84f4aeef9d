"""Exact scalar arithmetic: Laurent polynomials in many variables and in q.

Every exact value here is a sparse sum of terms: a dict ``terms`` from a key
to a nonzero coefficient. :class:`ExactValue` owns that representation and
writes the ring operations on it once: the exact zero test, ``+``, unary
``-``, ``==``, ``hash`` and the commutative product, together with
subtraction, reflected operators and integer powers. A subclass names the
ring its elements live in and how the keys of two terms combine in a
product. Two concrete rings live in this module:

* :class:`MPoly`, multivariate Laurent polynomials with integer coefficients
  over a fixed, ordered tuple of variable names, keyed by exponent vectors;
  division is exact by a unit monomial and refused otherwise;
* :class:`LaurentQ`, Laurent polynomials in a single parameter q, keyed by
  the exponent of q.

``QPoly`` (quantum, keyed by normal words, with its own rewriting product)
and ``ExpPoly`` (flows, keyed by ``(l, d)`` for ``t^d e^(l t)``) derive from
it too. Results of the shared operations are built through the trusted
``_new``; the public constructors keep validating what comes from outside.
A matrix's ring is the type of its entries: ``Fraction`` for the rationals,
``MPoly`` for a symbolic canonical matrix. No separate tag names it.

The module also contains the small expression grammar shared by the command
line tools: variables such as ``t[1,3]`` or ``a``, integer (and ``3/2``
rational) literals in ASCII digits, ``+ - * ^``, parentheses, and optionally
function calls like ``exp(...)``. :func:`evaluate_expression` evaluates text
as it reads it, through callbacks into the algebra of the caller's choice, so
one grammar serves commutative polynomials, Laurent polynomials, quantum
polynomials and flow paths alike. Sums, products and runs of minus signs are
read in loops; only parentheses recurse, to at most ``guards.NESTING_LIMIT``
levels. A first, zero-valued read rejects malformed text before any costly
work.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add
from typing import Any, Callable, Hashable, Iterable, Mapping, Sequence

from . import guards
from .errors import DomainError

# ---------------------------------------------------------------------------
# Shared sparse-term arithmetic
# ---------------------------------------------------------------------------


def add_terms(terms: dict, pairs: Iterable[tuple[Hashable, Any]]) -> dict:
    """Add ``(key, nonzero coeff)`` pairs into ``terms`` in place.

    A sum that cancels leaves its key out, so ``terms`` keeps only nonzero
    coefficients. Returns ``terms``.
    """
    for key, coeff in pairs:
        if key in terms:
            coeff = terms[key] + coeff
            if not coeff:
                del terms[key]
                continue
        terms[key] = coeff
    return terms


def _signed_sum(chunks: list[tuple[Any, str]]) -> str:
    """Print ``(coeff, body)`` terms as ``b1 - b2 + b3``; the sign is coeff's."""
    if not chunks:
        return "0"
    (coeff, body), *rest = chunks
    return ("-" if coeff < 0 else "") + body + "".join(
        f" {'-' if c < 0 else '+'} {b}" for c, b in rest
    )


class ExactValue:
    """An immutable sparse sum of terms with the ring operations written once.

    A subclass declares a ``terms`` slot (key -> nonzero coefficient) and the
    slots named in ``_context``, which fix the ring an element lives in
    (a variable tuple, a grid size); elements interoperate only within one
    ring. It names the types of its scalars in ``_scalars`` and lifts one into
    the ring with ``_scalar``, and supplies ``_combine``, the key of the
    product of two terms, for the commutative product. Reflected operators
    serve scalars (ints, coefficients), which are central. Negative powers
    invert through ``_inverse``, which refuses by default.
    """

    __slots__ = ()

    _context: tuple[str, ...] = ()
    _scalars: tuple[type, ...] = (int,)

    def _ring(self) -> tuple:
        return tuple(getattr(self, slot) for slot in self._context)

    def _check_ring(self, other: Any) -> None:
        if self._context and self._ring() != other._ring():
            raise DomainError(f"mixed rings: {type(self).__name__} over "
                              f"{self._ring()} and over {other._ring()}")

    def _coerce(self, other: Any) -> Any:
        """``other`` in this ring: itself over the same ring, a lifted scalar, or NotImplemented."""
        if type(other) is type(self):
            self._check_ring(other)
            return other
        if isinstance(other, self._scalars):
            return self._scalar(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"

    def _new(self, terms: dict) -> Any:
        """An element of this ring with trusted terms: valid keys, no zeros."""
        out = object.__new__(type(self))
        for slot in self._context:
            object.__setattr__(out, slot, getattr(self, slot))
        object.__setattr__(out, "terms", terms)
        return out

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: Any) -> bool:
        if type(other) is not type(self):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.terms == other.terms and self._ring() == other._ring()

    def __hash__(self) -> int:
        return hash((self._ring(), frozenset(self.terms.items())))

    def __add__(self, other: Any) -> Any:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._new(add_terms(dict(self.terms), other.terms.items()))

    def __neg__(self) -> Any:
        return self._new({key: -coeff for key, coeff in self.terms.items()})

    def __mul__(self, other: Any) -> Any:
        """The commutative product: coefficients multiply, keys ``_combine``."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        guards.ensure(len(self.terms) * len(other.terms), guards.COMMUTATIVE_TERM_LIMIT,
                      "terms of one product")
        combine = self._combine
        return self._new(add_terms({}, (
            (combine(k1, k2), c1 * c2)
            for k1, c1 in self.terms.items()
            for k2, c2 in other.terms.items()
        )))

    def __radd__(self, other: Any) -> Any:
        return self + other

    def __rmul__(self, other: Any) -> Any:
        return self * other

    def __sub__(self, other: Any) -> Any:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Any) -> Any:
        return (-self) + other

    def __pow__(self, exponent: int) -> Any:
        if not isinstance(exponent, int):
            return NotImplemented
        base = self if exponent >= 0 else self._inverse()
        result = self._coerce(1)
        for _ in range(abs(exponent)):
            result = result * base
        return result

    def _inverse(self) -> Any:
        raise DomainError(f"{type(self).__name__} admits nonnegative powers only")


# ---------------------------------------------------------------------------
# Multivariate Laurent polynomials
# ---------------------------------------------------------------------------


class MPoly(ExactValue):
    """A multivariate Laurent polynomial with integer coefficients.

    Terms map exponent vectors (tuples aligned with ``names``, entries of any
    sign) to nonzero integer coefficients. Instances are immutable; all
    operators return new values. Two polynomials interoperate only when built
    over the same variable tuple; across tuples ``==`` is False and the
    other operators raise DomainError.
    """

    __slots__ = ("names", "terms")

    _context = ("names",)

    def __init__(self, names: Sequence[str], terms: Mapping[tuple[int, ...], int]):
        names = tuple(names)
        clean: dict[tuple[int, ...], int] = {}
        for exps, coeff in terms.items():
            if coeff == 0:
                continue
            exps = tuple(exps)
            if len(exps) != len(names):
                raise DomainError(
                    f"exponent vector {exps} does not match {len(names)} variables"
                )
            clean[exps] = coeff
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "terms", clean)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, names: Sequence[str]) -> "MPoly":
        return cls(names, {})

    @classmethod
    def const(cls, names: Sequence[str], value: int) -> "MPoly":
        return cls(names, {(0,) * len(names): value})

    @classmethod
    def one(cls, names: Sequence[str]) -> "MPoly":
        return cls.const(names, 1)

    @classmethod
    def var(cls, names: Sequence[str], name: str) -> "MPoly":
        names = tuple(names)
        try:
            k = names.index(name)
        except ValueError:
            raise DomainError(f"unknown variable {name!r}") from None
        exps = tuple(1 if i == k else 0 for i in range(len(names)))
        return cls(names, {exps: 1})

    # -- ring structure ------------------------------------------------------

    def _scalar(self, value: int) -> "MPoly":
        return MPoly.const(self.names, value)

    @staticmethod
    def _combine(e1: tuple[int, ...], e2: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(add, e1, e2))

    def __truediv__(self, other: Any) -> "MPoly":
        """Exact division by a unit monomial: one term, coefficient +-1."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if len(other.terms) != 1:
            raise DomainError(f"cannot divide by {other}: not a monomial")
        (d, unit), = other.terms.items()
        if abs(unit) != 1:
            raise DomainError(f"cannot divide by {other}: coefficient is not +-1")
        return self._new({
            tuple(a - b for a, b in zip(exps, d)): coeff * unit
            for exps, coeff in self.terms.items()
        })

    def _inverse(self) -> "MPoly":
        return MPoly.one(self.names) / self

    # -- queries -------------------------------------------------------------

    def evaluate(self, values: Mapping[str, Any]) -> Any:
        """Evaluate with variable values from any commutative ring.

        The ring's elements must support ``+``, ``*`` and integer ``**``
        (negative exponents need exact inverses, e.g. Fraction); the integer
        coefficients multiply in from the left. Every variable that
        actually occurs must be assigned.
        """
        missing = {self.names[k]
                   for exps in self.terms
                   for k, e in enumerate(exps) if e and self.names[k] not in values}
        if missing:
            raise DomainError(f"no value for variables {sorted(missing)}")
        result: Any = 0
        for exps, coeff in self.terms.items():
            term: Any = coeff
            for k, e in enumerate(exps):
                if e:
                    term = term * values[self.names[k]] ** e
            result = result + term
        return result

    # -- presentation ---------------------------------------------------------

    def _sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items(),
                      key=lambda item: (sum(item[0]), item[0]), reverse=True)

    def __str__(self) -> str:
        chunks = []
        for exps, coeff in self._sorted_terms():
            factors = []
            for name, e in zip(self.names, exps):
                if e == 1:
                    factors.append(name)
                elif e:
                    factors.append(f"{name}^{e}")
            if not factors:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(coeff))] + factors)
            chunks.append((coeff, body))
        return _signed_sum(chunks)


# ---------------------------------------------------------------------------
# Laurent polynomials in q
# ---------------------------------------------------------------------------


class LaurentQ(ExactValue):
    """A Laurent polynomial in the deformation parameter q.

    Terms map (possibly negative) exponents of q to arbitrary-precision
    integer coefficients. The parameter stays formal: nothing ever
    specialises q except :meth:`at_one`, which implements the q=1 limit used
    by the semiclassical comparison.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, int]):
        object.__setattr__(self, "terms", {e: c for e, c in terms.items() if c != 0})

    @classmethod
    def const(cls, value: int) -> "LaurentQ":
        return cls({0: value})

    @classmethod
    def q_power(cls, exponent: int, coeff: int = 1) -> "LaurentQ":
        return cls({exponent: coeff})

    @classmethod
    def minus_q_to(cls, length: int) -> "LaurentQ":
        """(-q)^length, the sign-and-weight factor of quantum minors."""
        return cls({length: (-1) ** length})

    ZERO: "LaurentQ"
    ONE: "LaurentQ"
    Q_MINUS_QINV: "LaurentQ"

    def _scalar(self, value: int) -> "LaurentQ":
        return LaurentQ.const(value)

    _combine = staticmethod(add)

    def _inverse(self) -> "LaurentQ":
        if len(self.terms) != 1:
            raise DomainError("only monomials in q are invertible")
        (e, c), = self.terms.items()
        if abs(c) != 1:
            raise DomainError("only unit monomials in q are invertible")
        return self._new({-e: c})

    def at_one(self) -> int:
        """Specialise q = 1."""
        return sum(self.terms.values())

    def divided_by_q_minus_one(self) -> "LaurentQ":
        """Exact quotient by (q - 1); DomainError when it does not divide."""
        if self.is_zero:
            return LaurentQ({})
        lo = min(self.terms)
        hi = max(self.terms)
        # Shift to an ordinary polynomial, synthetic-divide at the root 1,
        # then shift back.
        poly = [self.terms.get(e, 0) for e in range(lo, hi + 1)]
        degree = len(poly) - 1
        quotient = [0] * degree
        carry = poly[degree]
        for k in range(degree - 1, -1, -1):
            quotient[k] = carry
            carry = poly[k] + carry
        if carry != 0:
            raise DomainError("Laurent polynomial is not divisible by q - 1")
        return LaurentQ({lo + k: c for k, c in enumerate(quotient)})

    def __str__(self) -> str:
        chunks = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            if e == 0:
                body = str(abs(c))
            else:
                q = "q" if e == 1 else f"q^{e}"
                body = q if abs(c) == 1 else f"{abs(c)}*{q}"
            chunks.append((c, body))
        return _signed_sum(chunks)


LaurentQ.ZERO = LaurentQ({})
LaurentQ.ONE = LaurentQ({0: 1})
LaurentQ.Q_MINUS_QINV = LaurentQ({1: 1, -1: -1})


# The rational zero. A matrix's ring is the type of its entries, so no tag
# names it; the name survives because the benchmark passes it as the zero
# that ``cauchon.build_TC`` seeds on black cells.
QQ = Fraction(0)


# ---------------------------------------------------------------------------
# Expression grammar
# ---------------------------------------------------------------------------


_TOKEN = re.compile(r"[0-9]+|[A-Za-z]+|\S")


class _Reader:
    """Recursive descent over one expression, evaluating as it reads."""

    def __init__(self, text: str, const: Callable, symbol: Callable,
                 power: Callable, call: Callable | None):
        self.text = text
        self.tokens = _TOKEN.findall(text)
        self.pos = 0
        self.depth = 0
        self.const, self.symbol, self.power, self.call = const, symbol, power, call

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise DomainError(f"unexpected end of expression in {self.text!r}")
        self.pos += 1
        return tok

    def expect(self, token: str) -> None:
        tok = self.take()
        if tok != token:
            raise DomainError(f"expected {token!r}, found {tok!r} in {self.text!r}")

    def integer(self, tok: str) -> int | None:
        """The value of a token of ASCII digits; None for any other token."""
        if not (tok.isascii() and tok.isdigit()):
            return None
        try:
            return int(tok)
        except ValueError:  # more digits than int() converts
            raise DomainError(f"integer literal too long in {self.text!r}") from None

    def read(self) -> Any:
        value = self.sum()
        if self.peek() is not None:
            raise DomainError(f"trailing input {self.peek()!r} in {self.text!r}")
        return value

    def sum(self) -> Any:
        value = self.product()
        while (op := self.peek()) in ("+", "-"):
            self.pos += 1
            right = self.product()
            value = value + right if op == "+" else value - right
        return value

    def product(self) -> Any:
        value = self.signed()
        while self.peek() == "*":
            self.pos += 1
            value = value * self.signed()
        return value

    def signed(self) -> Any:
        """A factor after any run of minus signs, which bind looser than ``^``."""
        negate = False
        while self.peek() == "-":
            self.pos += 1
            negate = not negate
        value = self.factor()
        return -value if negate else value

    def factor(self) -> Any:
        base = self.atom()
        if self.peek() != "^":
            return base
        self.pos += 1
        sign = 1
        if self.peek() == "-":
            self.pos += 1
            sign = -1
        tok = self.take()
        exponent = self.integer(tok)
        if exponent is None:
            raise DomainError(f"expected integer exponent, found {tok!r}")
        guards.ensure(exponent, guards.EXPONENT_LIMIT, "exponent")
        return self.power(base, sign * exponent)

    def group(self) -> Any:
        """The sum inside a parenthesis whose ``(`` has been read."""
        self.depth += 1
        guards.ensure(self.depth, guards.NESTING_LIMIT, "depth of parentheses")
        value = self.sum()
        self.expect(")")
        self.depth -= 1
        return value

    def atom(self) -> Any:
        tok = self.take()
        if tok == "(":
            return self.group()
        num = self.integer(tok)
        if num is not None:
            # A '/' between two integer literals is a rational literal, not
            # an operator; general division is outside the grammar.
            if self.peek() != "/":
                return self.const(Fraction(num))
            self.pos += 1
            den = self.integer(self.take())
            if not den:
                raise DomainError(f"bad rational literal in {self.text!r}")
            return self.const(Fraction(num, den))
        if tok.isascii() and tok.isalpha():
            if self.peek() == "[":
                self.pos += 1
                i = self.integer(self.take())
                self.expect(",")
                j = self.integer(self.take())
                self.expect("]")
                if i is None or j is None:
                    raise DomainError(f"bad variable index in {self.text!r}")
                return self.symbol(f"{tok}[{i},{j}]")
            if self.call is not None and self.peek() == "(":
                self.pos += 1
                return self.call(tok, self.group())
            return self.symbol(tok)
        raise DomainError(f"unexpected token {tok!r} in {self.text!r}")


def evaluate_expression(
    text: str,
    *,
    const: Callable[[Fraction], Any],
    symbol: Callable[[str], Any],
    power: Callable[[Any, int], Any] = pow,
    call: Callable[[str, Any], Any] | None = None,
) -> Any:
    """Evaluate expression text in an arbitrary algebra.

    ``const`` receives exact rationals; algebras that only admit integers
    should raise DomainError on a proper fraction. ``power`` receives a value
    and an integer exponent of magnitude at most ``guards.EXPONENT_LIMIT``.
    ``name(...)`` is read as a call only when ``call`` is given. A first read
    with every callback returning 0 fails malformed text (DomainError) and
    an exponent or nesting over its limit (ResourceGuardError) before any
    costly work; the second read evaluates.
    """
    def zero(*args: Any) -> int:
        return 0

    _Reader(text, zero, zero, zero, None if call is None else zero).read()
    return _Reader(text, const, symbol, power, call).read()


def int_const(value: Fraction) -> int:
    """Coerce a literal to int, rejecting proper fractions."""
    if value.denominator != 1:
        raise DomainError(f"integer coefficient required, got {value}")
    return int(value)
