"""Exact matrices, minors, and positivity checks."""

import pickle
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

import oracles
from tnncells import guards
from tnncells.cauchon import tnn_test
from tnncells.cells import cell_of
from tnncells.errors import DomainError, ResourceGuardError
from tnncells.matrices import (
    Matrix,
    MinorFamily,
    MinorIndex,
    _minor_keys,
    all_minors,
    determinant,
    initial_minor_index,
    initial_minors,
    is_tnn_bruteforce,
    is_tp,
    iter_minor_indices,
    load_matrix_text,
    matrix_from_csv,
    matrix_from_json,
    matrix_to_json,
    minor,
    minor_count,
    parse_rational,
    scan_int_minors,
    scan_minors,
)
from tnncells.scalars import MPoly


def rational_matrix(m, p, lo=-5, hi=5, max_denominator=1):
    entry = st.builds(Fraction, st.integers(lo, hi), st.integers(1, max_denominator))
    return st.lists(
        st.lists(entry, min_size=p, max_size=p), min_size=m, max_size=m
    ).map(Matrix)


square_matrices = st.integers(2, 4).flatmap(lambda n: rational_matrix(n, n))
any_matrices = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda mp: rational_matrix(*mp)
)
# signed rationals with denominators 1-6, so minors must clear denominators
fractional_square_matrices = st.integers(2, 4).flatmap(
    lambda n: rational_matrix(n, n, max_denominator=6)
)
fractional_matrices = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda mp: rational_matrix(*mp, max_denominator=6)
)


class TestMinorIndex:
    def test_roundtrip_through_str(self):
        ix = MinorIndex((1, 3), (2, 4))
        assert MinorIndex.parse(str(ix)) == ix
        assert str(ix) == "[1,3|2,4]"

    def test_roundtrip_through_json(self):
        ix = MinorIndex((2,), (5,))
        assert MinorIndex.from_json(ix.to_json()) == ix

    def test_rows_must_increase(self):
        with pytest.raises(DomainError):
            MinorIndex((3, 1), (1, 2))

    def test_sizes_must_match(self):
        with pytest.raises(DomainError):
            MinorIndex((1,), (1, 2))

    def test_canonical_order(self):
        seq = list(iter_minor_indices(2, 2))
        assert [str(ix) for ix in seq] == [
            "[1|1]", "[1|2]", "[2|1]", "[2|2]", "[1,2|1,2]",
        ]

    def test_is_its_rows_cols_pair(self):
        ix = MinorIndex((1, 2), (1, 3))
        assert ix == ((1, 2), (1, 3))
        assert hash(ix) == hash(((1, 2), (1, 3)))
        assert {((1, 2), (1, 3)): "found"}[ix] == "found"

    def test_orders_by_rows_then_columns(self):
        indices = list(iter_minor_indices(3, 3))
        random.Random(5).shuffle(indices)
        assert sorted(indices) == sorted(indices, key=lambda ix: (ix.rows, ix.cols))
        assert MinorIndex((1, 2), (1, 2)) < MinorIndex((2,), (1,))
        by_size = sorted(indices, key=lambda ix: (ix.size, ix.rows, ix.cols))
        assert by_size == list(iter_minor_indices(3, 3))

    @pytest.mark.parametrize(
        "rows, cols, message",
        [
            ((), (), "need equally many rows and columns, got [|]"),
            ((1, 2), (3,), "need equally many rows and columns, got [1,2|3]"),
            ((0, 2), (1, 3), "row indices must be positive in [0,2|1,3]"),
            ((1,), (-1,), "column indices must be positive in [1|-1]"),
            ((2, 2), (1, 3), "row indices must increase strictly in [2,2|1,3]"),
            ((1, 2), (3, 1), "column indices must increase strictly in [1,2|3,1]"),
        ],
    )
    def test_constructor_rejects(self, rows, cols, message):
        with pytest.raises(DomainError) as caught:
            MinorIndex(rows, cols)
        assert str(caught.value) == message

    def test_pickle_roundtrip(self):
        indices = list(iter_minor_indices(2, 3))
        back = pickle.loads(pickle.dumps(indices))
        assert back == indices
        assert all(type(ix) is MinorIndex for ix in back)


def test_minor_count_closed_form():
    assert minor_count(4, 4) == 69
    assert minor_count(3, 3) == 19
    assert minor_count(2, 3) == 9
    assert all(
        minor_count(m, p) == sum(1 for _ in iter_minor_indices(m, p))
        for m in range(1, 5)
        for p in range(1, 5)
    )


@given(fractional_square_matrices)
def test_determinant_matches_leibniz(M):
    assert determinant(M) == oracles.leibniz_det(M.rows)


@given(fractional_matrices)
def test_every_minor_matches_leibniz(M):
    for ix in iter_minor_indices(M.m, M.p):
        assert minor(M, ix) == oracles.leibniz_minor(M.rows, ix.rows, ix.cols)


@pytest.mark.parametrize("call", [
    determinant,
    lambda M: minor(M, MinorIndex((1, 2), (1, 2))),
    scan_minors,
    initial_minors,
    is_tp,
    is_tnn_bruteforce,
    all_minors,
    lambda M: scan_minors(M).zeros,
    tnn_test,
    matrix_to_json,
    cell_of,
], ids=[
    "determinant", "minor", "scan_minors", "initial_minors", "is_tp",
    "is_tnn_bruteforce", "all_minors", "scan_minors_zeros", "tnn_test",
    "matrix_to_json", "cell_of",
])
def test_rational_only_entry_points_refuse_symbolic_entries(call):
    x = MPoly.var(("x",), "x")
    M = Matrix([[x, x], [x, x]])
    with pytest.raises(DomainError):
        call(M)


@given(any_matrices)
def test_minors_respect_transposition(M):
    T = M.transpose()
    for ix in iter_minor_indices(M.m, M.p):
        assert minor(M, ix) == minor(T, ix.transposed())


def test_initial_minor_layout():
    ix = initial_minor_index(3, 2)
    assert ix == MinorIndex((2, 3), (1, 2))
    M = Matrix([[1, 2], [3, 4]])
    labels = [ix for ix, _ in initial_minors(M)]
    assert labels[0] == MinorIndex((1,), (1,))
    assert len(labels) == 4


@given(square_matrices)
def test_is_tp_agrees_with_all_minors_oracle(M):
    oracle = all(v > 0 for _, v in all_minors(M))
    assert is_tp(M) == oracle


def test_is_tp_examples():
    assert is_tp(Matrix([[1, 1], [1, 2]]))
    assert not is_tp(Matrix([[1, 1], [1, 1]]))


def test_is_tp_rejects_rectangles():
    with pytest.raises(DomainError):
        is_tp(Matrix([[1, 2, 3], [4, 5, 6]]))


@given(any_matrices)
def test_tnn_bruteforce_witness_is_negative(M):
    ok, witness = is_tnn_bruteforce(M)
    if ok:
        assert witness is None
        assert all(v >= 0 for _, v in all_minors(M))
    else:
        assert minor(M, witness) < 0


def test_tnn_zero_matrix():
    assert is_tnn_bruteforce(Matrix([[0, 0], [0, 0]])) == (True, None)


@st.composite
def table_matrices(draw):
    """Signed rationals with denominators 1-9 in rows, columns and squares up
    to 5x5, some rows and columns zeroed."""
    m, p = draw(
        st.sampled_from([(1, 6), (6, 1), (5, 5)])
        | st.tuples(st.integers(1, 6), st.just(1))
        | st.tuples(st.just(1), st.integers(1, 6))
        | st.tuples(st.integers(1, 4), st.integers(1, 4))
    )
    M = draw(rational_matrix(m, p, lo=-9, hi=9, max_denominator=9))
    zero_rows = draw(st.sets(st.integers(1, m), max_size=2))
    zero_cols = draw(st.sets(st.integers(1, p), max_size=2))
    return Matrix([
        [0 if i in zero_rows or a in zero_cols else x for a, x in enumerate(row, 1)]
        for i, row in enumerate(M.rows, 1)
    ])


def _table_keys(m, p, k):
    return [
        (rows, cols)
        for rows in combinations(range(1, m + 1), k)
        for cols in combinations(range(1, p + 1), k)
    ]


@given(table_matrices())
def test_minor_table_matches_leibniz(M):
    # the scan reads the sizes up to its first negative one, as ints
    scan = scan_minors(M)
    assert scan.scale > 0
    count = 0
    for k, values in enumerate(scan.sizes, 1):
        denominator = scan.scale**k
        keys = _table_keys(M.m, M.p, k)
        assert list(_minor_keys(M.m, M.p, k)) == keys
        assert len(values) == len(keys)
        for (rows, cols), value in zip(keys, values):
            assert type(value) is int
            assert Fraction(value, denominator) == oracles.leibniz_minor(M.rows, rows, cols)
        count += len(values)
    if scan.negative is None:
        assert count == minor_count(M.m, M.p)
    # the listing reads the whole table
    listing = all_minors(M)
    assert [ix for ix, _ in listing] == [
        key for k in range(1, min(M.m, M.p) + 1) for key in _table_keys(M.m, M.p, k)
    ]
    for ix, value in listing:
        assert value == oracles.leibniz_minor(M.rows, ix.rows, ix.cols)
    assert len(listing) == minor_count(M.m, M.p)


@given(table_matrices())
def test_scan_stops_after_the_first_negative_size(M):
    scan = scan_minors(M)
    minors = all_minors(M)
    if scan.negative is None:
        assert all(value >= 0 for _, value in minors)
        return
    ix, value = scan.negative
    assert len(scan.sizes) == ix.size
    assert all(v >= 0 for jx, v in minors if jx.size < ix.size)
    same_size = [(jx, v) for jx, v in minors if jx.size == ix.size]
    worst = min(v for _, v in same_size)
    assert (ix, value) == next((jx, v) for jx, v in same_size if v == worst)
    assert value == oracles.leibniz_minor(M.rows, ix.rows, ix.cols) < 0


def test_most_negative_names_the_first_minor_on_ties():
    # [1|2] and [2|1] are both -3; [1,2|1,2] = -9 is of the next size
    M = Matrix([[0, -3], [-3, 0]])
    scan = scan_minors(M)
    assert scan.sizes == ([0, -3, -3, 0],)
    assert scan.negative == (MinorIndex((1,), (2,)), Fraction(-3))
    assert is_tnn_bruteforce(M) == (False, MinorIndex((1,), (2,)))
    # with a scale, the named value is the matrix's own
    assert scan_int_minors([[0, -3], [-3, 0]], 2, 2, 6).negative == (
        MinorIndex((1,), (2,)), Fraction(-1, 2)
    )


def _tnn_product(rng, m, p, steps):
    """[I 0] or its transpose times random elementary bidiagonal factors on
    either side, with positive weights: a TNN m x p matrix, the more zero
    minors the fewer the steps."""
    rows = [[Fraction(int(i == a)) for a in range(p)] for i in range(m)]
    for _ in range(steps):
        weight = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        if rng.random() < 0.5 and p > 1:  # add weight * column r to column c
            i = rng.randrange(p - 1)
            r, c = (i, i + 1) if rng.random() < 0.5 else (i + 1, i)
            for row in rows:
                row[c] += weight * row[r]
        elif m > 1:  # add weight * row r to row c
            i = rng.randrange(m - 1)
            r, c = (i, i + 1) if rng.random() < 0.5 else (i + 1, i)
            rows[c] = [x + weight * y for x, y in zip(rows[c], rows[r])]
    return Matrix(rows)


def test_scan_zeros_match_leibniz_on_tnn_matrices():
    rng = random.Random(11)
    for m, p in [(1, 3), (3, 1), (2, 2), (3, 3), (3, 4), (4, 3), (4, 4), (5, 5)]:
        for steps in (0, 2, 4, 8, 16):
            M = _tnn_product(rng, m, p, steps)
            scan = scan_minors(M)
            assert scan.negative is None
            zeros = {
                ix for ix in iter_minor_indices(m, p)
                if oracles.leibniz_minor(M.rows, ix.rows, ix.cols) == 0
            }
            assert scan.zeros.members == zeros


def test_minor_table_guard():
    guards.ensure_minor_table(10, 10)
    with pytest.raises(ResourceGuardError):
        scan_minors(Matrix([[0] * 11] * 11))
    with pytest.raises(ResourceGuardError):
        all_minors(Matrix([[0] * 11] * 11))
    with pytest.raises(ResourceGuardError):
        MinorFamily(11, 11, [])
    with pytest.raises(DomainError):
        scan_minors(Matrix([[MPoly.one(("x",))]]))


def test_minor_table_guard_refuses_a_huge_grid_at_once():
    started = time.monotonic()
    with pytest.raises(ResourceGuardError, match=f"limit of {guards.MINOR_TABLE_LIMIT}"):
        guards.ensure_minor_table(10**6, 10**6)
    assert time.monotonic() - started < 1.0


def test_initial_minors_guard():
    assert len(initial_minors(Matrix([[1] * 31] * 31))) == 31 * 31
    with pytest.raises(ResourceGuardError):
        initial_minors(Matrix([[0] * 32] * 32))
    with pytest.raises(ResourceGuardError):
        is_tp(Matrix([[0] * 32] * 32))


def _perturbed_tnn(rng, n):
    """A TNN product of bidiagonal factors, with one positive entry lowered."""
    rows = [[Fraction(int(i == a)) for a in range(n)] for i in range(n)]
    for _ in range(n * n):
        i = rng.randrange(n - 1)
        r, c = (i, i + 1) if rng.random() < 0.5 else (i + 1, i)
        weight = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        # multiplying by I + weight*E[r][c] adds weight * column r to column c
        for row in rows:
            row[c] += weight * row[r]
    positive = [(i, a) for i in range(n) for a in range(n) if rows[i][a] > 0]
    i, a = rng.choice(positive)
    rows[i][a] *= Fraction(rng.randint(1, 9), 10)
    return Matrix(rows)


@pytest.mark.parametrize("n", [4, 6])
def test_bruteforce_witness_matches_leibniz_rule(n):
    rng = random.Random(n)
    seen = 0
    while seen < 20:
        M = _perturbed_tnn(rng, n)
        ok, witness = is_tnn_bruteforce(M)
        expected = oracles.leibniz_witness(M.rows)
        assert ok == (expected is None)
        if ok:
            continue
        seen += 1
        assert ((witness.rows, witness.cols), minor(M, witness)) == expected


class TestSerialization:
    def test_json_roundtrip(self):
        M = Matrix([[Fraction(1, 2), 3], [0, -2]])
        assert matrix_from_json(matrix_to_json(M)).equals(M)

    def test_csv(self):
        M = matrix_from_csv("1, 2\n3/2, 4\n")
        assert M.entry(2, 1) == Fraction(3, 2)

    def test_load_dispatches_on_shape(self):
        as_json = load_matrix_text('{"m": 1, "p": 2, "entries": [["1", "2"]]}')
        as_csv = load_matrix_text("1,2")
        assert as_json.equals(as_csv)

    def test_bare_array_gets_format_hint(self):
        with pytest.raises(DomainError, match="not a bare array"):
            load_matrix_text("[[1, 2], [3, 4]]")

    def test_family_bits_follow_the_minor_order(self):
        for m, p in [(1, 3), (2, 2), (3, 2), (3, 4), (4, 4)]:
            for i, ix in enumerate(iter_minor_indices(m, p)):
                assert MinorFamily(m, p, [ix]).mask == 1 << i, ix

    def test_family_keeps_its_members(self):
        for m, p in [(2, 3), (3, 3), (4, 2)]:
            every = list(iter_minor_indices(m, p))
            for step in (1, 2, 3, 5, 7):
                members = frozenset(every[::step])
                fam = MinorFamily(m, p, members)
                assert fam.members == members
                assert len(fam) == len(members)
                assert list(fam) == [ix for ix in every if ix in members]
                assert all((ix in fam) == (ix in members) for ix in every)
                assert pickle.loads(pickle.dumps(fam)) == fam

    def test_family_rejects_what_does_not_fit(self):
        with pytest.raises(DomainError):
            MinorFamily(2, 2, [MinorIndex((3,), (1,))])
        assert MinorIndex((3,), (1,)) not in MinorFamily(2, 2, [])

    def test_family_guards_its_grid(self):
        MinorFamily(10, 10, [])
        for m, p in [(11, 11), (10**9, 10**9), (10**9, 1)]:
            with pytest.raises(ResourceGuardError):
                MinorFamily(m, p, [])

    def test_family_json_roundtrip(self):
        fam = MinorFamily(
            2, 2, frozenset({MinorIndex((1,), (2,)), MinorIndex((1, 2), (1, 2))})
        )
        assert MinorFamily.from_json(fam.to_json()) == fam

    @pytest.mark.parametrize(
        "text, value",
        [("7", 7), (" -2 ", -2), ("3/4", Fraction(3, 4)), ("1.25", Fraction(5, 4)),
         (".5", Fraction(1, 2)), (-3, -3)],
    )
    def test_rational_literals(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", ["2.5E1", "1e-3", "x", "1/0"])
    def test_exponents_and_junk_are_refused(self, text):
        with pytest.raises(DomainError):
            parse_rational(text)

    def test_bad_json_rejected(self):
        with pytest.raises(DomainError):
            matrix_from_json({"m": 1})
