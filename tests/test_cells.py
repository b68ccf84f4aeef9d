"""Admissible families, cell classification, and the three-route cross-check."""

import random
import re

import pytest

import oracles

from tnncells import cauchon, cells
from tnncells.cauchon import ones_TC, vanishing_family
from tnncells.cells import (
    admissible_families,
    cell_of,
    is_admissible,
    unifying_check,
)
from tnncells.diagrams import CauchonDiagram, enumerate_diagrams
from tnncells.errors import ConsistencyError, DomainError
from tnncells.matrices import (
    Matrix,
    MinorFamily,
    MinorIndex,
    all_minors,
    scan_minors,
)
from tnncells.permutations import minor_family, pipe_dream


DEMO = CauchonDiagram.from_ascii(".#.\n##.\n...")


def test_admissible_family_count_2x2():
    descriptors = admissible_families(2, 2)
    assert len(descriptors) == 14
    fams = {frozenset(d.family.members) for d in descriptors}
    assert len(fams) == 14


def test_descriptors_tie_diagram_to_permutation():
    for d in admissible_families(2, 2):
        from tnncells.permutations import pipe_dream

        assert pipe_dream(d.diagram) == d.permutation


def test_is_admissible_accepts_demo_family():
    members = frozenset(
        MinorIndex.parse(s)
        for s in (
            "[1,2|2,3]", "[1,3|2,3]", "[2,3|2,3]",
            "[2,3|1,3]", "[2,3|1,2]", "[1,2,3|1,2,3]",
        )
    )
    verdict = is_admissible(MinorFamily(3, 3, members))
    assert verdict.admissible
    assert verdict.descriptor.diagram == DEMO


def test_is_admissible_rejects_single_corner_minor():
    fam = MinorFamily(2, 2, frozenset({MinorIndex((2,), (2,))}))
    verdict = is_admissible(fam)
    assert not verdict.admissible
    assert verdict.descriptor is None


def test_empty_family_is_the_big_cell():
    verdict = is_admissible(MinorFamily(2, 2, frozenset()))
    assert verdict.admissible
    assert verdict.descriptor.diagram == oracles.all_white(2, 2)


def test_ones_TC_vanishing_minors_close_the_loop():
    # every diagram of the grids that criterion 9's exhaustive sweep leaves out
    for m, p in [(2, 4), (4, 2), (3, 4), (4, 3), (2, 5), (5, 2)]:
        for d in enumerate_diagrams(m, p):
            W = ones_TC(d)
            assert set(scan_minors(W).zeros) == set(
                minor_family(pipe_dream(d), m, p)
            ), d.to_ascii()


def test_cell_of_round_trip():
    for d in enumerate_diagrams(2, 2):
        descriptor = cell_of(ones_TC(d))
        assert descriptor.diagram == d


def test_cell_of_demo_matrix():
    descriptor = cell_of(Matrix([[2, 1, 1], [1, 1, 1], [1, 1, 1]]))
    assert descriptor.diagram == DEMO
    assert descriptor.permutation.one_line() == "135246"
    assert len(descriptor.family) == 6


def test_cell_of_rejects_non_tnn_with_witness():
    bad = Matrix([[0, 1], [1, 0]])
    with pytest.raises(DomainError) as err:
        cell_of(bad)
    assert "[1,2|1,2]" in str(err.value)
    # seeded 3x3 and 4x4 matrices: the error names the brute-force witness
    rng = random.Random(7)
    for size in (3, 4):
        seen = 0
        while seen < 20:
            M = Matrix(
                [[rng.randint(-2, 5) for _ in range(size)] for _ in range(size)]
            )
            negative = scan_minors(M).negative
            if negative is None:
                continue
            seen += 1
            witness, value = negative
            assert ((witness.rows, witness.cols), value) == oracles.leibniz_witness(M.rows)
            with pytest.raises(DomainError) as err:
                cell_of(M)
            assert str(err.value) == (
                f"matrix is not totally nonnegative: minor {witness} = {value}"
            )


def test_unifying_check_2x2():
    report = unifying_check(2, 2)
    assert report.ok
    assert (report.total, report.agreements) == (14, 14)
    assert report.mismatches == ()


def test_unifying_check_parallel_matches_serial():
    serial = unifying_check(2, 2, jobs=1)
    parallel = unifying_check(2, 2, jobs=2)
    assert serial.ok and parallel.ok
    assert serial.total == parallel.total


def _drop_first(diagrams):
    next(diagrams)
    yield from diagrams


def _repeat_first(diagrams):
    first = next(diagrams)
    yield first
    yield first
    yield from diagrams


@pytest.mark.parametrize("m, p", [(3, 3), (3, 4)])
@pytest.mark.parametrize("wrap", [_drop_first, _repeat_first])
def test_unifying_check_counts_its_diagrams(monkeypatch, m, p, wrap):
    real = cells.enumerate_diagrams
    expected = {(3, 3): 230, (3, 4): 1066}[m, p]
    monkeypatch.setattr(cells, "enumerate_diagrams", lambda m, p: wrap(real(m, p)))
    report = unifying_check(m, p)
    assert report.mismatches == ()
    assert report.expected == expected
    assert report.total == report.agreements != expected
    assert not report.ok
    assert not report.to_json()["ok"]


def _flip_restoration_sign(monkeypatch):
    # restoring with the deletion's sign breaks Cauchon's theorem, which the
    # sweeps' round trip cannot see: they would still invert each other
    step = cauchon._apply_int_step
    monkeypatch.setattr(
        cauchon, "_apply_int_step", lambda rows, j, beta, sign: step(rows, j, beta, -sign)
    )


def test_unifying_check_catches_a_wrong_step_sign(monkeypatch):
    _flip_restoration_sign(monkeypatch)
    report = unifying_check(3, 3)
    assert (report.total, len(report.mismatches)) == (230, 126)
    for mismatch in report.mismatches:
        named = [p for p in mismatch["problems"] if p.startswith("witness minor")]
        assert len(named) == 1, mismatch
        assert mismatch["restoration"] is None
        ix, value = re.fullmatch(r"witness minor (\S+) = (-\d+) is negative", named[0]).groups()
        ix = MinorIndex.parse(ix)
        witness = ones_TC(CauchonDiagram.from_json(mismatch["diagram"]))
        minors = all_minors(witness)
        assert dict(minors)[ix] == int(value) < 0
        # the most negative minor of the smallest size with one, first on ties
        size = min(jx.size for jx, v in minors if v < 0)
        same_size = [(jx, v) for jx, v in minors if jx.size == size]
        worst = min(v for _, v in same_size)
        assert ix == next(jx for jx, v in same_size if v == worst)


def test_vanishing_family_checks_cauchons_theorem(monkeypatch):
    _flip_restoration_sign(monkeypatch)
    refused = 0
    for d in enumerate_diagrams(3, 3):
        try:
            vanishing_family(d)
        except ConsistencyError as err:
            assert re.match(r"witness minor \S+ = -\d+ is negative", str(err)), err
            refused += 1
    assert refused == 126


def test_unifying_check_rectangular():
    report = unifying_check(1, 3)
    assert report.ok
    assert report.total == 8
