"""The q-deformed coordinate ring: rewriting, minors, commutators."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from tnncells import guards
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

import oracles


def gen(i, a, m=2, p=2):
    return QPoly.generator(m, p, i, a)


def word_strategy(m, p, max_len=4):
    gens = st.tuples(st.integers(1, m), st.integers(1, p))
    return st.lists(gens, max_size=max_len)


def product_of(word, m, p):
    acc = QPoly.one(m, p)
    for i, a in word:
        acc = acc.multiply(QPoly.generator(m, p, i, a))
    return acc


def qpoly_strategy(m, p, max_len):
    """Sums of up to two words, each with a Laurent coefficient in q."""
    coeff = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), max_size=2)
    term = st.tuples(coeff.map(LaurentQ), word_strategy(m, p, max_len))
    return st.lists(term, max_size=2).map(lambda ts: sum(
        (product_of(w, m, p).scaled(c) for c, w in ts), QPoly.zero(m, p)
    ))


def prefix_sharing_strategy(m, p):
    """Right factors whose normal words share prefixes. Each term is a prefix
    of one sorted spine word (the empty prefix, a constant, included), then
    letters not below the prefix's last one, with a Laurent coefficient."""
    cell = st.tuples(st.integers(1, m), st.integers(1, p))
    nonzero = st.integers(-3, 3).filter(bool)
    coeff = st.dictionaries(st.integers(-2, 2), nonzero, min_size=1, max_size=2).map(LaurentQ)
    term = st.tuples(st.integers(0, 3), st.lists(cell, max_size=1), coeff)

    def build(spine, terms):
        spine = sorted(spine)
        total = QPoly.zero(m, p)
        for k, tail, c in terms:
            head = spine[:k]
            word = tuple(head + sorted(x for x in tail if not head or x >= head[-1]))
            total += QPoly(m, p, {word: c})
        return total

    return st.builds(build, st.lists(cell, min_size=1, max_size=3),
                     st.lists(term, min_size=2, max_size=4))


def assert_matches_rewriting(word, m, p):
    """Letter insertion against leftmost rewriting: the word built one
    generator at a time, and the product of its two halves."""
    expected = oracles.rewriting_normal_form(word, m, p)
    assert product_of(word, m, p) == expected
    cut = len(word) // 2
    f, g = product_of(word[:cut], m, p), product_of(word[cut:], m, p)
    assert f.multiply(g) == expected == oracles.rewriting_product(f, g)


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

    def test_4x4_quantum_determinant_is_central(self):
        full = (1, 2, 3, 4)
        det = quantum_minor(4, 4, full, full)
        for i in full:
            for a in full:
                assert commutator(det, gen(i, a, 4, 4)).is_zero, (i, a)


class TestNormalForm:
    @given(word_strategy(2, 2))
    @settings(max_examples=40)
    def test_strategies_agree(self, word):
        assert_matches_rewriting(word, 2, 2)

    @given(word_strategy(2, 3, max_len=3))
    @settings(max_examples=30)
    def test_strategies_agree_rectangular(self, word):
        assert_matches_rewriting(word, 2, 3)

    @given(word_strategy(3, 3))
    @settings(max_examples=40)
    def test_strategies_agree_3x3(self, word):
        assert_matches_rewriting(word, 3, 3)

    @given(qpoly_strategy(2, 3, 3), qpoly_strategy(2, 3, 3))
    @settings(max_examples=30)
    def test_products_with_q_coefficients_match_rewriting(self, f, g):
        assert f.multiply(g) == oracles.rewriting_product(f, g)

    @given(word_strategy(2, 2, max_len=3), word_strategy(2, 2, max_len=2))
    @settings(max_examples=30)
    def test_multiplication_is_associative(self, u, v):
        f = product_of(u, 2, 2)
        g = product_of(v, 2, 2)
        h = gen(2, 2)
        assert (f * g) * h == f * (g * h)

    @given(qpoly_strategy(2, 3, 3), prefix_sharing_strategy(2, 3))
    @settings(max_examples=40)
    def test_right_factors_sharing_prefixes_match_rewriting(self, f, g):
        assert f.multiply(g) == oracles.rewriting_product(f, g)

    @pytest.mark.parametrize(
        "g",
        [
            "2 + X[1,2]*X[2,1]",
            "X[1,1] + (q - q^-1)*X[1,1]*X[2,2]",
            "X[1,1]*X[1,2] + q^2*X[1,1]*X[1,3] - 3*X[1,1]*X[2,1]*X[2,3]",
            "q^-1 - X[1,3] + q*X[1,3]*X[2,1] + X[1,3]*X[2,1]*X[2,2]",
        ],
        ids=["constant-term", "word-and-its-prefix", "shared-prefix", "all-at-once"],
    )
    def test_right_factor_trie_shapes_match_rewriting(self, g):
        f = parse_qpoly("X[2,3]*X[1,2] + q^-1*X[2,2]*X[1,3] + 3", 2, 3)
        g = parse_qpoly(g, 2, 3)
        assert f.multiply(g) == oracles.rewriting_product(f, g)
        assert g.multiply(f) == oracles.rewriting_product(g, f)

    def test_commutator_is_the_difference_of_products(self):
        sets = [s for k in (1, 2, 3) for s in combinations((1, 2, 3), k)]
        minors = [quantum_minor(3, 3, rows, cols)
                  for rows in sets for cols in sets if len(rows) == len(cols)]
        assert len(minors) == 19
        for f in minors:
            for g in minors:
                assert commutator(f, g) == f.multiply(g) - g.multiply(f)

    # Letter insertion only ever rewrites the rightmost out-of-order pair, the
    # one its new letter makes; the oracle rewrites the leftmost one.
    @pytest.mark.parametrize("rewriting", ["leftmost", "rightmost"])
    def test_long_rewrite_chains_need_no_recursion(self, rewriting):
        # 1,600 rewrites in one chain, each a q-commutation: far deeper than
        # Python's recursion limit and far inside the product budget.
        a40, b40 = parse_qpoly("a^40", 2, 2), parse_qpoly("b^40", 2, 2)
        expected = (a40 * b40).scaled(LaurentQ.q_power(-1600))
        product = {"leftmost": oracles.rewriting_product, "rightmost": QPoly.multiply}
        assert product[rewriting](b40, a40) == expected

    def test_product_budget_counts_coefficient_terms(self):
        # 10 words with 100-term coefficients: 100 word pairs, but 1,000,000
        # pairs of coefficient terms, far over the product budget
        coeff = LaurentQ({e: 1 for e in range(100)})
        f = QPoly(2, 2, {((1, 1),) * k: coeff for k in range(1, 11)})
        with pytest.raises(ResourceGuardError):
            f.multiply(f)

    @pytest.fixture
    def charges(self, monkeypatch):
        """The values passed to the product budget, in the order charged."""
        seen = []
        ensure = guards.ensure

        def recording(value, limit, what):
            if what == "terms of one product":
                seen.append(value)
            return ensure(value, limit, what)

        monkeypatch.setattr(guards, "ensure", recording)
        return seen

    def test_product_charges_match_the_documented_ones(self, charges):
        # a product is charged its 24 x 24 pairs first, then each memo entry
        det = quantum_minor(4, 4, (1, 2, 3, 4), (1, 2, 3, 4))
        det.multiply(det)
        assert (charges[0], charges[-1]) == (576, 3453)
        charges.clear()
        parse_qpoly("(a+b+c+d)^9", 2, 2)
        assert charges[-1] == 12_396

    def test_commutator_charges_its_second_product_new_entries_only(self, charges):
        # g*f is det*det again: every entry it reads fg made, so it is
        # charged its pairs alone
        det = quantum_minor(4, 4, (1, 2, 3, 4), (1, 2, 3, 4))
        assert commutator(det, det).is_zero
        assert charges[0] == 576
        assert charges[-2:] == [3453, 576]

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
