"""Entrywise deletion and restoration sweeps, the TNN test, and T_C."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from tnncells.cauchon import (
    build_TC,
    deleting_derivations,
    deleting_stages,
    ones_TC,
    restoration,
    restoration_stages,
    seed_matrix,
    step_indices,
    symbolic_TC,
    tnn_test,
    vanishing_family,
    white_variable,
    witness_scan,
)
from tnncells.diagrams import CauchonDiagram, enumerate_diagrams
from tnncells.errors import DomainError, ResourceGuardError
from tnncells.matrices import (
    Matrix,
    MinorIndex,
    iter_minor_indices,
    scan_minors,
)
from tnncells.scalars import MPoly, QQ


DEMO = CauchonDiagram.from_ascii(".#.\n##.\n...")


def rational_matrix(m, p, lo=-4, hi=4):
    entry = st.integers(lo, hi).map(Fraction)
    return st.lists(
        st.lists(entry, min_size=p, max_size=p), min_size=m, max_size=m
    ).map(Matrix)


any_matrices = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda mp: rational_matrix(*mp)
)


def test_sweeps_are_guarded_before_the_first_step():
    n = 40
    pascal = Matrix(
        [[comb(i + a, i) for a in range(n)] for i in range(n)]
    )
    for sweep in (restoration, deleting_derivations):
        with pytest.raises(ResourceGuardError):
            sweep(pascal)


def test_step_order_is_lexicographic():
    assert step_indices(2, 2) == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_single_step_touches_strict_northwest_only():
    M = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    step, out = next(deleting_stages(M))
    assert step == (3, 3)
    assert out.rows[2] == M.rows[2]
    assert all(out.entry(i, 3) == M.entry(i, 3) for i in (1, 2))
    assert out.entry(1, 1) == Fraction(1) - Fraction(3, 9) * 7


def test_zero_pivot_step_is_identity():
    # (2,2) is deletion's first step and restoration's last; the steps in row 1
    # and column 1 have nothing northwest of their pivot
    M = Matrix([[1, 2], [3, 0]])
    for staged in (deleting_stages, restoration_stages):
        stages = dict(staged(M))
        assert stages[(2, 2)].equals(M)
        assert all(stage.equals(M) for stage in stages.values())


def test_restoration_worked_example_stage_by_stage():
    seed = Matrix([[1, -1, 1], [0, 2, 1], [1, 1, 1]])
    after = {ix: stage for ix, stage in restoration_stages(seed)}
    expect = {
        (2, 3): [[1, 1, 1], [0, 2, 1], [1, 1, 1]],
        (3, 2): [[2, 1, 1], [2, 2, 1], [1, 1, 1]],
        (3, 3): [[3, 2, 1], [3, 3, 1], [1, 1, 1]],
    }
    for ix, rows in expect.items():
        assert after[ix].equals(Matrix(rows)), ix
    # steps before (2,3) leave this seed alone
    assert after[(2, 2)].equals(seed)


def test_deleting_worked_example():
    M = Matrix([[2, 1, 1], [1, 1, 1], [1, 1, 1]])
    out = deleting_derivations(M)
    assert out.equals(Matrix([[1, 0, 1], [0, 0, 1], [1, 1, 1]]))


def test_deletion_inverts_restoration_on_worked_example():
    M = Matrix([[3, 2, 1], [3, 3, 1], [1, 1, 1]])
    assert deleting_derivations(M).equals(
        Matrix([[1, -1, 1], [0, 2, 1], [1, 1, 1]])
    )


@given(any_matrices)
def test_sweeps_are_mutually_inverse(M):
    assert restoration(deleting_derivations(M)).equals(M)
    assert deleting_derivations(restoration(M)).equals(M)


@given(rational_matrix(3, 3, lo=0, hi=3))
@settings(max_examples=40)
def test_tnn_test_agrees_with_bruteforce(M):
    verdict = tnn_test(M)
    assert verdict.is_tnn == (scan_minors(M).negative is None)


def test_tnn_test_returns_the_zero_diagram():
    M = Matrix([[2, 1, 1], [1, 1, 1], [1, 1, 1]])
    verdict = tnn_test(M)
    assert verdict.is_tnn
    assert verdict.diagram == DEMO


def test_tnn_test_rejects_with_bad_zero_pattern():
    # entrywise nonnegative output whose zeros fail the diagram rule
    M = Matrix([[0, 1], [1, 1]])
    verdict = tnn_test(M)
    assert not verdict.is_tnn


def test_int_entries_keep_the_verdict_exact():
    # the determinant is -1; in floating point the sweep's last entry is 0.0
    n = 10**17
    M = Matrix([[n + 1, n], [n, n - 1]])
    assert not tnn_test(M).is_tnn
    assert scan_minors(M).negative == (MinorIndex((1, 2), (1, 2)), -1)


def test_sweep_outputs_of_int_entries_are_fractions():
    M = Matrix([[1, 2], [3, 4]])
    outputs = [
        deleting_derivations(M),
        restoration(M),
        tnn_test(M).final,
        *(stage for _, stage in restoration_stages(M)),
        *(stage for _, stage in deleting_stages(M)),
    ]
    for out in outputs:
        assert all(type(x) is Fraction for row in out.rows for x in row)


# zeros, small and negative integers, and fractions whose denominators (up
# to 10**9, and some large primes) make every row's lcm grow
sweep_entries = st.one_of(
    st.just(Fraction(0)),
    st.integers(-4, 4).map(Fraction),
    st.builds(
        Fraction,
        st.integers(-10**9, 10**9),
        st.one_of(
            st.integers(1, 10**9), st.sampled_from([999_999_937, 999_999_929, 3**18])
        ),
    ),
)
sweep_matrices = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda mp: st.lists(
        st.lists(sweep_entries, min_size=mp[1], max_size=mp[1]),
        min_size=mp[0],
        max_size=mp[0],
    )
)


def _entries(matrix):
    assert all(type(x) is Fraction for row in matrix.rows for x in row)
    return [list(row) for row in matrix.rows]


@given(sweep_matrices)
@settings(max_examples=120)
def test_sweeps_match_the_fraction_oracle(rows):
    M = Matrix(rows)
    for sign, sweep, staged in (
        (-1, deleting_derivations, deleting_stages),
        (+1, restoration, restoration_stages),
    ):
        want = oracles.sweep_stages(rows, sign)
        assert [(step, _entries(stage)) for step, stage in staged(M)] == want
        assert _entries(sweep(M)) == want[-1][1]
    assert restoration(deleting_derivations(M)).equals(M)
    final = oracles.sweep_stages(rows, -1)[-1][1]
    zeros = frozenset(
        (i, a) for i, row in enumerate(final, 1) for a, x in enumerate(row, 1) if x == 0
    )
    verdict = tnn_test(M)
    assert _entries(verdict.final) == final
    assert verdict.is_tnn == (
        all(x >= 0 for row in final for x in row)
        and not oracles.has_bad_black_cell(M.m, M.p, zeros)
    )
    assert verdict.diagram is None or verdict.diagram.black == zeros


def test_symbolic_TC_round_trips_through_the_generic_step():
    for m, p in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        for d in enumerate_diagrams(m, p):
            names = tuple(white_variable(c) for c in d.white_cells())
            variables = {c: MPoly.var(names, n) for c, n in zip(d.white_cells(), names)}
            seed = seed_matrix(d, MPoly.zero(names), variables)
            T = symbolic_TC(d)
            assert all(isinstance(x, MPoly) for row in T.rows for x in row)
            assert deleting_derivations(T).equals(seed), d.to_ascii()


class TestSeeding:
    def test_seed_requires_every_white(self):
        with pytest.raises(DomainError):
            seed_matrix(DEMO, QQ, {})

    def test_seed_rejects_zero_whites(self):
        assignment = {c: Fraction(1) for c in DEMO.white_cells()}
        assignment[(3, 3)] = Fraction(0)
        with pytest.raises(DomainError):
            seed_matrix(DEMO, QQ, assignment)

    def test_black_cells_pinned_to_zero(self):
        assignment = {c: Fraction(2) for c in DEMO.white_cells()}
        T = seed_matrix(DEMO, QQ, assignment)
        assert T.entry(1, 2) == 0
        assert T.entry(3, 3) == 2


def test_ones_TC_demo():
    assert ones_TC(DEMO).equals(
        Matrix([[2, 1, 1], [1, 1, 1], [1, 1, 1]])
    )


@pytest.mark.parametrize("build", [ones_TC, witness_scan], ids=["ones_TC", "witness_scan"])
def test_the_witness_is_charged_as_the_sweep_it_replaces(build):
    # (2 x 501)^2 = 1,004,004 entries, over the limit, though the minor table fits
    with pytest.raises(ResourceGuardError, match="entries one sweep rewrites: 1004004"):
        build(oracles.all_white(2, 501))
    assert build(oracles.all_white(2, 500))


def test_symbolic_TC_demo_matches_hand_computation():
    T = symbolic_TC(DEMO)
    names = [white_variable(c) for c in DEMO.white_cells()]

    def v(cell):
        return MPoly.var(names, white_variable(cell))

    t11, t13 = v((1, 1)), v((1, 3))
    t23 = v((2, 3))
    t31, t32, t33 = v((3, 1)), v((3, 2)), v((3, 3))
    expect = [
        [t11 + t13 / t33 * t31, t13 / t33 * t32, t13],
        [t23 / t33 * t31, t23 / t33 * t32, t23],
        [t31, t32, t33],
    ]
    for i in range(3):
        for a in range(3):
            assert T.rows[i][a] == expect[i][a], (i, a)


def test_symbolic_TC_entries_print_and_parse_back():
    for m in range(1, 4):
        for p in range(1, 4):
            for d in enumerate_diagrams(m, p):
                T = symbolic_TC(d)
                names = [white_variable(c) for c in d.white_cells()]
                for row in T.rows:
                    for x in row:
                        back = oracles.read_laurent(str(x), names)
                        assert back == x, (d.to_ascii(), str(x))


@given(st.data())
@settings(max_examples=30)
def test_TC_zero_pattern_round_trip(data):
    diagrams = list(enumerate_diagrams(2, 3))
    d = data.draw(st.sampled_from(diagrams))
    whites = sorted(d.white_cells())
    values = data.draw(
        st.lists(
            st.integers(1, 9),
            min_size=len(whites),
            max_size=len(whites),
        )
    )
    assignment = {c: Fraction(v) for c, v in zip(whites, values)}
    T = build_TC(d, QQ, assignment)
    assert oracles.zero_pattern(deleting_derivations(T)) == d.black


def test_TC_matrices_are_tnn():
    for d in enumerate_diagrams(2, 2):
        assert scan_minors(ones_TC(d)).negative is None, d.to_ascii()


def test_deletion_of_unit_weight_restoration_gives_back_the_seed():
    # the sweeps' round trip on every diagram through 4x4; criterion 9 checks
    # the witness's minor signs instead, which a round trip cannot
    for m in range(1, 5):
        for p in range(1, 5):
            for d in enumerate_diagrams(m, p):
                seed = seed_matrix(d, QQ, dict.fromkeys(d.white_cells(), Fraction(1)))
                verdict = tnn_test(ones_TC(d))
                assert verdict.final.equals(seed), d.to_ascii()
                assert verdict.is_tnn and verdict.diagram == d, d.to_ascii()


class TestVanishingFamily:
    def test_demo_family(self):
        fam = vanishing_family(DEMO)
        assert {str(ix) for ix in fam} == {
            "[1,2|2,3]", "[1,3|2,3]", "[2,3|2,3]",
            "[2,3|1,3]", "[2,3|1,2]", "[1,2,3|1,2,3]",
        }

    def test_all_white_has_no_vanishing_minors(self):
        fam = vanishing_family(oracles.all_white(2, 2))
        assert not set(fam)

    def test_all_black_vanishes_everywhere(self):
        fam = vanishing_family(oracles.all_black(2, 2))
        assert set(fam) == set(iter_minor_indices(2, 2))

    def test_family_matches_symbolic_minors(self):
        # the definition itself: Leibniz minors of the symbolic canonical
        # matrix that are identically zero, on every diagram through 3x3 and
        # of 3x4 and 4x3
        grids = [(m, p) for m in range(1, 4) for p in range(1, 4)] + [(3, 4), (4, 3)]
        for m, p in grids:
            for d in enumerate_diagrams(m, p):
                T = symbolic_TC(d)
                fam = set(vanishing_family(d))
                for ix in iter_minor_indices(m, p):
                    value = oracles.leibniz_minor(T.rows, ix.rows, ix.cols)
                    assert (ix in fam) == (not value), (d.to_ascii(), ix)
