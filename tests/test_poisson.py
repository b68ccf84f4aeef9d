"""Bracket table, Jacobi identity, q -> 1 limits, and flow verification."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from tnncells.errors import DomainError
from tnncells.poisson import (
    ExpPoly,
    FlowPath,
    bracket,
    coordinate,
    coordinate_names,
    jacobi_check,
    parse_path_entry,
    parse_poisson,
    semiclassical_check,
    semiclassical_poly,
    verify_flow,
)
from tnncells.quantum import QPoly, commutator, parse_qpoly, quantum_minor
from tnncells.scalars import MPoly

import oracles


def poly_strategy(m, p, max_terms=3, low=0):
    names = coordinate_names(m, p)
    width = len(names)
    exps = st.tuples(*([st.integers(low, 2)] * width))
    term = st.tuples(exps, st.integers(-6, 6))
    return st.lists(term, max_size=max_terms).map(
        lambda ts: sum(
            (MPoly(names, {e: c}) for e, c in ts), MPoly.zero(names)
        )
    )


class TestBracketTable:
    def test_pinned_2x2_values(self):
        a = parse_poisson("a", 2, 2)
        b = parse_poisson("b", 2, 2)
        c = parse_poisson("c", 2, 2)
        d = parse_poisson("d", 2, 2)
        assert str(bracket(2, 2, a, d)) == "2*Y[1,2]*Y[2,1]"
        assert bracket(2, 2, b, c).is_zero
        assert bracket(2, 2, a, b) == a * b
        assert bracket(2, 2, a, c) == a * c
        assert bracket(2, 2, b, d) == b * d

    @given(poly_strategy(2, 2), poly_strategy(2, 2))
    def test_antisymmetry(self, f, g):
        assert bracket(2, 2, f, g) == -bracket(2, 2, g, f)

    @given(poly_strategy(2, 2), poly_strategy(2, 2), poly_strategy(2, 2))
    @settings(max_examples=40)
    def test_leibniz_rule(self, f, g, h):
        lhs = bracket(2, 2, f, g * h)
        rhs = bracket(2, 2, f, g) * h + g * bracket(2, 2, f, h)
        assert lhs == rhs

    @given(poly_strategy(2, 2), poly_strategy(2, 2), poly_strategy(2, 2))
    @settings(max_examples=25)
    def test_jacobi_identity_random(self, f, g, h):
        assert jacobi_check(2, 2, f, g, h).is_zero

    @pytest.mark.parametrize("m, p", [(2, 2), (2, 3)])
    @given(data=st.data())
    @settings(max_examples=40)
    def test_bracket_matches_partial_derivatives(self, m, p, data):
        # Laurent exponents too: verify_flow brackets any Hamiltonian
        f, g = (data.draw(poly_strategy(m, p, low=-2)) for _ in range(2))
        assert bracket(m, p, f, g) == oracles.partial_bracket(m, p, f, g)

    def test_jacobi_identity_generators_2x3(self):
        gens = [coordinate(2, 3, i, a) for i in (1, 2) for a in (1, 2, 3)]
        for x in range(len(gens)):
            for y in range(x + 1, len(gens)):
                for z in range(y + 1, len(gens)):
                    assert jacobi_check(2, 3, gens[x], gens[y], gens[z]).is_zero


class TestSemiclassical:
    def test_all_pairs_2x2_and_2x3(self):
        for m, p in [(2, 2), (2, 3)]:
            cells = [(i, a) for i in range(1, m + 1) for a in range(1, p + 1)]
            for s, u in enumerate(cells):
                for v in cells[s + 1:]:
                    assert semiclassical_check(m, p, *u, *v), (m, p, u, v)

    def test_every_pair_of_3x3_minors(self):
        # [D_I, D_J] / (q - 1) at q = 1 is {d_I, d_J} for all 19 x 19 ordered
        # pairs of quantum minors and their classical (Leibniz) minors
        cells = [[coordinate(3, 3, i, a) for a in (1, 2, 3)] for i in (1, 2, 3)]
        index_sets = [
            s for k in (1, 2, 3) for s in combinations((1, 2, 3), k)
        ]
        minors = [
            (quantum_minor(3, 3, r, c), oracles.leibniz_minor(cells, r, c))
            for r in index_sets for c in index_sets if len(r) == len(c)
        ]
        assert len(minors) == 19
        for qf, f in minors:
            for qg, g in minors:
                assert semiclassical_poly(commutator(qf, qg)) == bracket(3, 3, f, g)

    def test_commutator_scaling_pins_the_factor(self):
        # [a, b] = (1 - q^-1) ab has image ab under (f - f|_{q=1})/(q-1) at q=1
        f = commutator(parse_qpoly("a", 2, 2), parse_qpoly("b", 2, 2))
        assert str(semiclassical_poly(f)) == "Y[1,1]*Y[1,2]"

    def test_classical_product_has_no_semiclassical_shadow(self):
        f = parse_qpoly("a*d", 2, 2)
        g = parse_qpoly("d*a", 2, 2)
        # both normal-order to ad with different q powers; difference scales bc
        assert semiclassical_poly(f - g) == -semiclassical_poly(g - f)


class TestExpPoly:
    def test_derivative_of_exponential(self):
        e2 = ExpPoly.exponential(Fraction(2))
        assert e2.derivative() == e2 * 2

    def test_derivative_product_rule(self):
        t = ExpPoly.t()
        f = t * ExpPoly.exponential(Fraction(3)) + t * t
        g = ExpPoly.exponential(Fraction(-1)) + ExpPoly.const(2)
        lhs = (f * g).derivative()
        rhs = f.derivative() * g + f * g.derivative()
        assert lhs == rhs

    def test_distinct_frequencies_do_not_collapse(self):
        f = ExpPoly.exponential(Fraction(1)) - ExpPoly.exponential(Fraction(2))
        assert not f.is_zero

    def test_parse_path_entry(self):
        f = parse_path_entry("3*t*exp(2*t) + 1/2")
        expect = (
            ExpPoly.t() * ExpPoly.exponential(Fraction(2)) * 3
            + ExpPoly.const(Fraction(1, 2))
        )
        assert f == expect

    def test_parse_rejects_non_linear_exponent(self):
        with pytest.raises(DomainError):
            parse_path_entry("exp(t*t)")

    def test_parse_rejects_unknown_symbols(self):
        with pytest.raises(DomainError):
            parse_path_entry("s + 1")


class TestFlows:
    def path(self, entries):
        return FlowPath(2, 2, tuple(tuple(row) for row in entries))

    def test_linear_flow_is_exact(self):
        t = ExpPoly.t()
        path = self.path(
            [[ExpPoly.const(0), ExpPoly.const(3)], [ExpPoly.const(5), t * 30]]
        )
        H = parse_poisson("a", 2, 2)
        report = verify_flow(path, H)
        assert report.symbolic_zero
        assert report.coordinate is None
        assert str(report) == "flow equation holds exactly"

    def test_exponential_flow_is_exact(self):
        e2 = ExpPoly.exponential(Fraction(2))
        e4 = ExpPoly.exponential(Fraction(4))
        path = self.path([[ExpPoly.const(2), e2], [e2, e4 * Fraction(1, 2)]])
        H = parse_poisson("a", 2, 2)
        report = verify_flow(path, H)
        assert report.symbolic_zero

    def test_broken_path_is_reported(self):
        t = ExpPoly.t()
        path = self.path(
            [[ExpPoly.const(0), ExpPoly.const(3)], [ExpPoly.const(5), t * 29]]
        )
        H = parse_poisson("a", 2, 2)
        report = verify_flow(path, H)
        assert not report.symbolic_zero
        # d/dt (29 t) - {Y[1,1], Y[2,2]} = 29 - 2*3*5
        assert report.residual == ExpPoly.const(-1)
        assert report.coordinate == (2, 2)
        assert str(report) == "residual at Y[2,2]: (-1)"

    def test_constant_hamiltonian_freezes_everything(self):
        path = self.path(
            [[ExpPoly.const(1), ExpPoly.const(2)], [ExpPoly.const(3), ExpPoly.const(4)]]
        )
        H = parse_poisson("7", 2, 2)
        assert verify_flow(path, H).symbolic_zero

    def test_from_json(self):
        path = FlowPath.from_json(
            {"m": 1, "p": 1, "entries": [["2*exp(1*t)"]]}
        )
        H = parse_poisson("Y[1,1]", 1, 1)
        # dY/dt = {Y, Y} = 0 but the path moves, so this must fail
        report = verify_flow(path, H)
        assert not report.symbolic_zero
        assert report.residual == ExpPoly.exponential(Fraction(1)) * 2


def test_parse_poisson_rejects_fractional_coefficients():
    with pytest.raises(DomainError):
        parse_poisson("1/2 * a", 2, 2)
