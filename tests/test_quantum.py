"""The q-deformed coordinate ring: rewriting, minors, commutators."""

import pytest
from hypothesis import given, settings, strategies as st

from tnncells.errors import DomainError, ResourceGuardError
from tnncells.quantum import (
    QPoly,
    commutator,
    defining_relations_hold,
    is_central_2x2_determinant,
    parse_qpoly,
    quantum_minor,
)
from tnncells.scalars import LaurentQ


def gen(i, a, m=2, p=2):
    return QPoly.generator(m, p, i, a)


def word_strategy(m, p, max_len=4):
    gens = st.tuples(st.integers(1, m), st.integers(1, p))
    return st.lists(gens, max_size=max_len)


def product_of(word, m, p, strategy="leftmost"):
    acc = QPoly.one(m, p)
    for i, a in word:
        acc = acc.multiply(QPoly.generator(m, p, i, a), strategy)
    return acc


class TestRelations:
    def test_2x2_row_and_column_q_commutation(self):
        a, b, c, d = gen(1, 1), gen(1, 2), gen(2, 1), gen(2, 2)
        q = LaurentQ.q_power(1)
        assert a * b == (b * a).scaled(q)
        assert a * c == (c * a).scaled(q)
        assert b * d == (d * b).scaled(q)
        assert c * d == (d * c).scaled(q)

    def test_2x2_antidiagonal_commutes(self):
        b, c = gen(1, 2), gen(2, 1)
        assert commutator(b, c).is_zero

    def test_2x2_diagonal_straightening(self):
        a, b, c, d = gen(1, 1), gen(1, 2), gen(2, 1), gen(2, 2)
        assert commutator(a, d) == (b * c).scaled(LaurentQ.Q_MINUS_QINV)

    def test_table_survives_transcription(self):
        assert defining_relations_hold(2, 2) == []
        assert defining_relations_hold(2, 3) == []
        assert defining_relations_hold(3, 2) == []
        assert defining_relations_hold(3, 3) == []

    def test_quantum_determinant_is_central(self):
        assert is_central_2x2_determinant()


class TestNormalForm:
    @given(word_strategy(2, 2))
    @settings(max_examples=40)
    def test_strategies_agree(self, word):
        assert product_of(word, 2, 2, "leftmost") == product_of(
            word, 2, 2, "rightmost"
        )

    @given(word_strategy(2, 3, max_len=3))
    @settings(max_examples=30)
    def test_strategies_agree_rectangular(self, word):
        assert product_of(word, 2, 3, "leftmost") == product_of(
            word, 2, 3, "rightmost"
        )

    @given(word_strategy(2, 2, max_len=3), word_strategy(2, 2, max_len=2))
    @settings(max_examples=30)
    def test_multiplication_is_associative(self, u, v):
        f = product_of(u, 2, 2)
        g = product_of(v, 2, 2)
        h = gen(2, 2)
        assert (f * g) * h == f * (g * h)

    @pytest.mark.parametrize("strategy", ["leftmost", "rightmost"])
    def test_long_rewrite_chains_need_no_recursion(self, strategy):
        # 1,600 rewrites in one chain, each a q-commutation: far deeper than
        # Python's recursion limit and far inside the product budget.
        a40, b40 = parse_qpoly("a^40", 2, 2), parse_qpoly("b^40", 2, 2)
        expected = (a40 * b40).scaled(LaurentQ.q_power(-1600))
        assert b40.multiply(a40, strategy) == expected

    def test_product_budget_counts_coefficient_terms(self):
        # 10 words with 100-term coefficients: 100 word pairs, but 1,000,000
        # pairs of coefficient terms, far over the product budget
        coeff = LaurentQ({e: 1 for e in range(100)})
        f = QPoly(2, 2, {((1, 1),) * k: coeff for k in range(1, 11)})
        with pytest.raises(ResourceGuardError):
            f.multiply(f)

    def test_normal_words_pass_through(self):
        a, d = gen(1, 1), gen(2, 2)
        f = a * d
        assert list(f.terms) == [((1, 1), (2, 2))]

    def test_specializing_q_to_one_recovers_commutativity(self):
        a, b = gen(1, 1), gen(1, 2)
        diff = commutator(a, b)
        assert all(c.at_one() == 0 for c in diff.terms.values())


class TestQuantumMinor:
    def test_empty_minor_is_one(self):
        assert quantum_minor(2, 2, (), ()) == QPoly.one(2, 2)

    def test_single_entry(self):
        assert quantum_minor(2, 2, (1,), (2,)) == gen(1, 2)

    def test_2x2_determinant(self):
        Dq = quantum_minor(2, 2, (1, 2), (1, 2))
        a, b, c, d = gen(1, 1), gen(1, 2), gen(2, 1), gen(2, 2)
        assert Dq == a * d - (b * c).scaled(LaurentQ.q_power(1))

    def test_3x3_minor_has_six_terms(self):
        full = quantum_minor(3, 3, (1, 2, 3), (1, 2, 3))
        assert len(full.terms) == 6
        signs = {c.terms[min(c.terms)] for c in full.terms.values()}
        assert signs == {1, -1}

    def test_rows_and_cols_must_fit(self):
        with pytest.raises(DomainError):
            quantum_minor(2, 2, (1, 3), (1, 2))

    def test_size_mismatch_rejected(self):
        with pytest.raises(DomainError):
            quantum_minor(2, 2, (1,), (1, 2))


class TestParsing:
    def test_aliases_at_2x2(self):
        assert parse_qpoly("a*d - q*b*c", 2, 2) == quantum_minor(2, 2, (1, 2), (1, 2))

    def test_indexed_generators(self):
        f = parse_qpoly("X[1,1]*X[2,2]", 2, 2)
        assert f == gen(1, 1) * gen(2, 2)

    def test_q_inverse_constant(self):
        f = parse_qpoly("q^-1 * a", 2, 2)
        assert f == gen(1, 1).scaled(LaurentQ.q_power(-1))

    def test_integer_coefficients(self):
        f = parse_qpoly("2*a + a", 2, 2)
        assert f == gen(1, 1).scaled(3)

    def test_rejects_unknown_names(self):
        with pytest.raises(DomainError):
            parse_qpoly("z", 2, 2)

    def test_rejects_negative_powers_of_generators(self):
        with pytest.raises(DomainError):
            parse_qpoly("a^-1", 2, 2)

    def test_str_uses_aliases_at_2x2(self):
        f = commutator(gen(1, 1), gen(2, 2))
        assert f.to_str() == "(q - q^-1)*b*c"
