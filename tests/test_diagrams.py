"""Grid diagrams with the left-or-above blackness rule."""

import re
import time
from itertools import islice, pairwise, product
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

import oracles
from tnncells.cells import _row_patterns
from tnncells.diagrams import (
    CauchonDiagram,
    enumerate_diagrams,
    is_cauchon,
    poly_bernoulli,
    row_forces,
)
from tnncells.errors import DomainError, ResourceGuardError


DEMO = CauchonDiagram.from_ascii(".#.\n##.\n...")


def test_counts_small():
    assert oracles.count_diagrams(1, 1) == 2
    assert oracles.count_diagrams(2, 2) == 14
    assert oracles.count_diagrams(3, 3) == 230


def test_count_4x4():
    assert oracles.count_diagrams(4, 4) == 6902


def _stirling2(n, k):
    """Set partitions of n elements into k blocks, by inclusion-exclusion."""
    return sum((-1) ** i * comb(k, i) * (k - i) ** n for i in range(k + 1)) // factorial(k)


def test_counts_are_poly_bernoulli_numbers():
    # the m x p diagrams number sum_j (j!)^2 S(m+1, j+1) S(p+1, j+1), the
    # poly-Bernoulli number B_m^(-p) (Kaneko 1997); with the fillings the
    # quantifier scan rejects, they make up all 2^(mp) colorings
    for m in range(1, 17):
        for p in range(1, 16 // m + 1):
            count = oracles.count_diagrams(m, p)
            assert poly_bernoulli(m, p) == count, (m, p)
            assert count == sum(
                factorial(j) ** 2 * _stirling2(m + 1, j + 1) * _stirling2(p + 1, j + 1)
                for j in range(min(m, p) + 1)
            ), (m, p)
            if m * p <= 12:
                assert count + len(oracles.non_le_fillings(m, p)) == 2 ** (m * p), (m, p)


@given(st.integers(1, 3), st.integers(1, 3))
def test_enumeration_agrees_with_quantifier_scan(m, p):
    cells = [(i, a) for i in range(1, m + 1) for a in range(1, p + 1)]
    valid = set()
    for bits in product((0, 1), repeat=m * p):
        black = frozenset(c for c, b in zip(cells, bits) if b)
        if not oracles.has_bad_black_cell(m, p, black):
            valid.add(black)
    enumerated = {d.black for d in enumerate_diagrams(m, p)}
    assert enumerated == valid


def test_enumeration_equals_validated_construction():
    # enumerated diagrams skip re-validation, so each must pass it unchanged
    for m in range(1, 5):
        for p in range(1, 5):
            for d in enumerate_diagrams(m, p):
                assert CauchonDiagram(d.m, d.p, d.black) == d, d.to_ascii()


def test_enumeration_order_is_ascending_bitmask():
    def mask(d):
        cells = [(i, a) for i in range(1, d.m + 1) for a in range(1, d.p + 1)]
        return sum(1 << (len(cells) - 1 - k)
                   for k, c in enumerate(cells) if c in d.black)

    for m, p in [(m, p) for m in range(1, 5) for p in range(1, 5)] + [(2, 5), (5, 2)]:
        masks = [mask(d) for d in enumerate_diagrams(m, p)]
        assert all(a < b for a, b in pairwise(masks)), (m, p)
        assert masks[0] == 0 and masks[-1] == 2 ** (m * p) - 1, (m, p)
        assert len(masks) == poly_bernoulli(m, p), (m, p)


@pytest.mark.parametrize("m, p, second", [(1, 999, (1, 999)), (999, 1, (999, 1)),
                                          (40, 30, (40, 1))])
def test_enumeration_needs_no_recursion(monkeypatch, m, p, second):
    # one frame per cell would pass the interpreter's recursion limit; the
    # second diagram's one black cell is the last, row-major, allowed alone;
    # 1x999 and 999x1 are the largest such grids the letter guard admits
    monkeypatch.setenv("CAUCHON_GUARD", "2000")
    first, then = islice(enumerate_diagrams(m, p), 2)
    assert (first.m, first.p, first.black, then.black) == (m, p, frozenset(), {second})


def test_enumeration_refuses_a_grid_past_the_letter_guard_when_called(monkeypatch):
    # no diagram it would yield could be built: its pipe dream has 1,201 letters
    monkeypatch.setenv("CAUCHON_GUARD", "2000")
    with pytest.raises(ResourceGuardError, match="pipe dream letters: 1201 exceeds the limit of 1000"):
        enumerate_diagrams(1, 1200)


def test_row_rule_reads_alike_top_down_and_bottom_up():
    # bottom up, the walk's rows hold the columns the rows below force; top
    # down, a row's forced columns lie in the rows above: on two rows, both
    # say the upper row holds the lower row's forced columns
    for p in range(1, 7):
        rows = range(1 << p)
        for forced in rows:
            want = [(black, forced | row_forces(black)) for black in rows if black & forced == forced]
            assert sorted(_row_patterns(p, forced)) == want, (p, forced)
        for upper, lower in product(rows, repeat=2):
            black = frozenset((i, a) for i, row in ((1, upper), (2, lower))
                              for a in range(1, p + 1) if row >> a - 1 & 1)
            holds = upper & row_forces(lower) == row_forces(lower)
            assert holds != oracles.has_bad_black_cell(2, p, black), (p, upper, lower)


def test_is_cauchon_examples():
    assert is_cauchon(2, 2, {(1, 2), (2, 2)})
    assert is_cauchon(2, 2, {(2, 1), (2, 2)})
    assert not is_cauchon(2, 2, {(2, 2)})
    assert is_cauchon(1, 5, {(1, 3)})


@pytest.mark.parametrize("m, p", [(m, p) for m in range(1, 5) for p in range(1, 5) if m * p < 16])
def test_validity_rule_matches_the_quantifier_scan(m, p):
    # every filling of the grid: the one-pass rule and the error name the
    # same first offender as the direct scan
    cells = [(i, a) for i in range(1, m + 1) for a in range(1, p + 1)]
    for bits in product((0, 1), repeat=m * p):
        black = frozenset(c for c, b in zip(cells, bits) if b)
        offender = oracles.first_bad_black_cell(m, p, black)
        assert is_cauchon(m, p, black) == (offender is None), black
        if offender is not None:
            with pytest.raises(DomainError, match=re.escape(f"cell {offender} is black")):
                CauchonDiagram(m, p, black)


def test_grid_text_is_refused_on_its_size_before_its_cells():
    # 1600 + 1600 letters exceed a pipe dream's limit; the refusal reads the
    # text's row count and width, not its 2.56 million cells
    text = "\n".join(["#" * 1600] * 1600)
    started = time.monotonic()
    with pytest.raises(ResourceGuardError, match="pipe dream letters: 3200 exceeds"):
        CauchonDiagram.from_ascii(text)
    assert time.monotonic() - started < 1.0


def test_bounds_checked():
    with pytest.raises(DomainError):
        is_cauchon(2, 2, {(3, 1)})


def test_non_le_fillings_2x2():
    assert oracles.non_le_fillings(2, 2) == [[[1, 1], [1, 0]], [[0, 1], [1, 0]]]


def test_non_le_fillings_trivial_shapes():
    assert oracles.non_le_fillings(1, 4) == []
    assert oracles.non_le_fillings(2, 1) == []


def test_non_le_fillings_guard(monkeypatch):
    monkeypatch.setenv("CAUCHON_GUARD", "2")
    with pytest.raises(ResourceGuardError):
        oracles.non_le_fillings(2, 2)


class TestDiagramType:
    def test_ascii_roundtrip(self):
        assert CauchonDiagram.from_ascii(DEMO.to_ascii()) == DEMO

    def test_slash_separator(self):
        assert CauchonDiagram.from_ascii(".#./##./...") == DEMO

    def test_le_grid_roundtrip(self):
        grid = DEMO.to_ascii().translate(str.maketrans("#.", "01"))
        assert grid.splitlines()[0] == "101"
        assert CauchonDiagram.from_ascii(grid) == DEMO

    def test_json_roundtrip(self):
        assert CauchonDiagram.from_json(DEMO.to_json()) == DEMO

    def test_invalid_rejected(self):
        with pytest.raises(DomainError):
            CauchonDiagram(2, 2, frozenset({(2, 2)}))

    def test_transpose_is_valid_and_involutive(self):
        for d in enumerate_diagrams(2, 3):
            t = d.transpose()
            assert (t.m, t.p) == (3, 2)
            assert t.transpose() == d

    def test_white_cells_complement_black(self):
        whites = set(DEMO.white_cells())
        assert whites.isdisjoint(DEMO.black)
        assert len(whites) + len(DEMO.black) == 9

    def test_all_white_all_black(self):
        assert oracles.all_white(2, 2).black == frozenset()
        assert len(oracles.all_black(2, 2).black) == 4
