"""Exact scalar domains: multivariate Laurent polynomials, Laurent ring in q."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from tnncells.errors import DomainError, ResourceGuardError
from tnncells.poisson import ExpPoly, parse_path_entry, parse_poisson
from tnncells.quantum import QPoly, parse_qpoly
from tnncells.scalars import (
    LaurentQ,
    MPoly,
    evaluate_expression,
)

NAMES = ("x", "y")


def poly_strategy():
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
    term = st.tuples(exps, st.integers(-9, 9))
    return st.lists(term, max_size=5).map(
        lambda ts: sum(
            (MPoly(NAMES, {e: c}) for e, c in ts),
            MPoly.zero(NAMES),
        )
    )


def _ring_axioms(f, g, h, commutative=True):
    if commutative:
        assert f + g == g + f
        assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert (g + h) * f == g * f + h * f
    assert f + 0 == f and 0 + f == f
    assert f * 1 == f and 1 * f == f


@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_mpoly_ring_axioms(f, g, h):
    _ring_axioms(f, g, h)
    assert f + MPoly.zero(NAMES) == f
    assert f * MPoly.one(NAMES) == f


def laurent_q_strategy():
    return st.dictionaries(
        st.integers(-3, 3), st.integers(-5, 5), max_size=4
    ).map(LaurentQ)


def exp_poly_strategy():
    key = st.tuples(
        st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(2)]),
        st.integers(0, 2),
    )
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.dictionaries(key, coeff, max_size=4).map(ExpPoly)


def qpoly_strategy():
    gens = [parse_qpoly(name, 2, 2) for name in "abcd"]
    word = st.lists(st.sampled_from(gens), max_size=2)
    term = st.tuples(laurent_q_strategy(), word)
    return st.lists(term, max_size=3).map(lambda ts: sum(
        (QPoly.one(2, 2).scaled(c) * _product(w) for c, w in ts), QPoly.zero(2, 2)
    ))


def _product(factors):
    out = QPoly.one(2, 2)
    for x in factors:
        out = out * x
    return out


# Each exact value type: a strategy for its elements, its validating
# constructor applied to an element's terms, and whether its product commutes.
RINGS = {
    "MPoly": (poly_strategy, lambda x: MPoly(x.names, x.terms), True),
    "LaurentQ": (laurent_q_strategy, lambda x: LaurentQ(x.terms), True),
    "ExpPoly": (exp_poly_strategy, lambda x: ExpPoly(x.terms), True),
    "QPoly": (qpoly_strategy, lambda x: QPoly(x.m, x.p, x.terms), False),
}


@pytest.mark.parametrize("kind", ["LaurentQ", "ExpPoly", "QPoly"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ring_axioms(kind, data):
    strategy, _, commutative = RINGS[kind]
    f, g, h = (data.draw(strategy()) for _ in range(3))
    _ring_axioms(f, g, h, commutative)


@pytest.mark.parametrize("kind", sorted(RINGS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_shared_operations_keep_terms_canonical(kind, data):
    strategy, rebuild, _ = RINGS[kind]
    f, g = data.draw(strategy()), data.draw(strategy())
    for x in (f + g, f * g, -f, f - g, f + (-f), (f + g) + (-g), f * g - g * f):
        assert all(x.terms.values()), x.terms
        assert rebuild(x) == x
        assert hash(rebuild(x)) == hash(x)


def test_values_of_different_rings_are_unequal():
    x = MPoly.var(NAMES, "x")
    other = MPoly.var(("x", "z"), "x")
    assert x != other and x.terms == other.terms
    with pytest.raises(DomainError):
        x + other
    assert QPoly.one(2, 2) != QPoly.one(2, 3)


@given(poly_strategy(), st.integers(-4, 4), st.integers(-4, 4))
def test_mpoly_evaluation_is_a_homomorphism(f, x, y):
    g = MPoly.var(NAMES, "x") - MPoly.const(NAMES, 7)
    point = {"x": Fraction(x), "y": Fraction(y)}
    assert (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point)
    assert (f + g).evaluate(point) == f.evaluate(point) + g.evaluate(point)


def test_mpoly_str_orders_by_degree():
    x = MPoly.var(NAMES, "x")
    y = MPoly.var(NAMES, "y")
    s = str(x * x + y + MPoly.const(NAMES, 3))
    assert s.index("x") < s.index("y") < s.index("3")


def test_partial_derivative_product_rule():
    x = MPoly.var(NAMES, "x")
    y = MPoly.var(NAMES, "y")
    f = x * x * y + y
    g = x * y + MPoly.const(NAMES, 2)
    lhs = oracles.partial(f * g, "x")
    rhs = oracles.partial(f, "x") * g + f * oracles.partial(g, "x")
    assert lhs == rhs


class TestLaurentMPoly:
    @pytest.mark.parametrize("divisor", ["x", "-x*y^2", "x^-1"])
    @given(f=poly_strategy())
    def test_division_by_a_unit_monomial_inverts_multiplication(self, divisor, f):
        d = _mpoly(divisor)
        assert (f * d) / d == f
        assert (f / d) * d == f

    @pytest.mark.parametrize("divisor", ["x + 1", "2*x"])
    def test_other_divisors_are_refused(self, divisor):
        with pytest.raises(DomainError):
            _mpoly("x") / _mpoly(divisor)

    def test_zero_divisor_raises_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            _mpoly("x") / MPoly.zero(NAMES)

    def test_negative_powers_print_and_parse_back(self):
        f = _mpoly("x^-2*y - 3*y^-1 + 1")
        assert f == _mpoly("y") / _mpoly("x^2") - 3 * _mpoly("y^-1") + 1
        assert str(f) == "1 - 3*y^-1 + x^-2*y"
        assert _mpoly(str(f)) == f


def _mpoly(text):
    return oracles.read_laurent(text, NAMES)


class TestLaurentQ:
    def test_basic_ops(self):
        q = LaurentQ.q_power(1)
        qinv = LaurentQ.q_power(-1)
        assert q * qinv == LaurentQ.ONE
        assert q - q == LaurentQ.ZERO
        assert (q + qinv) * (q - qinv) == LaurentQ.q_power(2) - LaurentQ.q_power(-2)

    def test_at_one(self):
        v = LaurentQ({2: 3, 0: -1, -1: 4})
        assert v.at_one() == 6

    def test_divided_by_q_minus_one(self):
        # q^2 - 1 = (q - 1)(q + 1)
        v = LaurentQ.q_power(2) - LaurentQ.ONE
        quotient = v.divided_by_q_minus_one()
        assert quotient == LaurentQ.q_power(1) + LaurentQ.ONE

    def test_divided_by_q_minus_one_requires_root(self):
        with pytest.raises(DomainError):
            LaurentQ.ONE.divided_by_q_minus_one()

    @given(st.dictionaries(st.integers(-3, 3), st.integers(-5, 5), max_size=4))
    def test_division_inverts_multiplication(self, coeffs):
        v = LaurentQ(coeffs)
        prod = v * (LaurentQ.q_power(1) - LaurentQ.ONE)
        assert prod.divided_by_q_minus_one() == v


# Two elements a, b of each exact value type, and a unit monomial (None where
# the type has no inverses).
EXACT_VALUES = {
    "MPoly": lambda: (
        _mpoly("x^2*y - 3*y^-1 + 1"), _mpoly("x - y + 2"), _mpoly("-x*y^-2")
    ),
    "LaurentQ": lambda: (
        LaurentQ({1: 1, 0: -2, -1: 3}), LaurentQ({2: 1, 0: 1}), LaurentQ({3: -1})
    ),
    "QPoly": lambda: (
        parse_qpoly("a*d + q*b - 2", 2, 2), parse_qpoly("c - q^-1*d", 2, 2), None
    ),
    "ExpPoly": lambda: (
        parse_path_entry("t + exp(2*t) - 1/2"),
        parse_path_entry("3*t*exp(-1*t) + 1"),
        None,
    ),
}


@pytest.mark.parametrize("kind", sorted(EXACT_VALUES))
class TestSharedOperators:
    def test_subtraction(self, kind):
        a, b, _ = EXACT_VALUES[kind]()
        assert a - b == a + (-b)
        assert a - b != b - a
        assert 1 - a == -(a - 1)
        assert a and not a - a

    def test_powers(self, kind):
        a, _, _ = EXACT_VALUES[kind]()
        assert a**0 == 1
        assert a**1 == a
        assert a**3 == a * a * a

    def test_immutable(self, kind):
        a, _, _ = EXACT_VALUES[kind]()
        slot = type(a).__slots__[0]
        before = getattr(a, slot)
        with pytest.raises(AttributeError):
            setattr(a, slot, None)
        assert getattr(a, slot) is before

    def test_negative_powers(self, kind):
        a, _, unit = EXACT_VALUES[kind]()
        if unit is None:
            with pytest.raises(DomainError):
                a**-1
        else:
            assert unit**-2 * unit**2 == 1
            assert unit**-1 * unit == 1
            for non_unit in (a, 2 * unit):
                with pytest.raises(DomainError):
                    non_unit**-2


class TestParser:
    def test_rational_literal(self):
        total = _eval_numeric("3/4 + x", {"x": Fraction(1, 4)})
        assert total == 1

    def test_indexed_symbols(self):
        assert _eval_numeric("Y[1,2] * 2", {"Y[1,2]": Fraction(5)}) == 10

    def test_power_and_unary_minus(self):
        assert _eval_numeric("-x^3", {"x": Fraction(2)}) == -8

    def test_unbalanced_parens_rejected(self):
        with pytest.raises(DomainError):
            _eval_numeric("(x + 1", {"x": Fraction(1)})

    def test_unknown_character_rejected(self):
        with pytest.raises(DomainError):
            _eval_numeric("x @ y", {"x": Fraction(1), "y": Fraction(1)})


_EXPRESSION_TOKENS = [
    *"abcdqt", "Y[1,2]", "X[2,1]", *"()+-*^/,[]", *"0123456789", "exp", " ",
    "²", "@",
]


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(st.sampled_from(_EXPRESSION_TOKENS), max_size=30).map("".join),
    st.text(max_size=20),
))
def test_expression_readers_raise_only_domain_or_guard_errors(text):
    readers = (
        lambda: parse_poisson(text, 2, 2),
        lambda: parse_qpoly(text, 2, 2),
        lambda: parse_path_entry(text),
    )
    for read in readers:
        try:
            read()
        except (DomainError, ResourceGuardError):
            pass


def _eval_numeric(text, env):
    return evaluate_expression(text, const=Fraction, symbol=lambda s: env[s])
