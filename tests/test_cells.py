"""Admissible families, cell classification, and the three-route cross-check."""

import multiprocessing
import random
import re
import time

import pytest

import oracles
from test_mutants import restore_with_the_deletion_sign

from tnncells import cells, guards, permutations
from tnncells.cauchon import ones_TC, restoration, seed_matrix, vanishing_family
from tnncells.cells import (
    admissible_families,
    cell_of,
    is_admissible,
    unifying_check,
)
from tnncells.diagrams import CauchonDiagram, enumerate_diagrams
from tnncells.errors import ConsistencyError, DomainError, ResourceGuardError
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


def test_a_guard_trip_in_one_worker_ends_them_all(monkeypatch):
    """At 5x6 one task trips the path step budget at once; the other worker,
    mid-walk, is ended then rather than waited for."""
    monkeypatch.setenv("CAUCHON_GUARD", "30")
    started = time.monotonic()
    with pytest.raises(ResourceGuardError, match="steps of one path family count"):
        unifying_check(5, 6, jobs=2, lindstrom=True)
    assert time.monotonic() - started < 10
    assert multiprocessing.active_children() == []


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
    # the walk's row-pattern loop drops or repeats its first row at every node
    real = cells._row_patterns
    expected = {(3, 3): 230, (3, 4): 1066}[m, p]
    monkeypatch.setattr(cells, "_row_patterns", lambda p, forced: wrap(real(p, forced)))
    report = unifying_check(m, p)
    assert report.mismatches == ()
    assert report.expected == expected
    assert report.total == report.agreements != expected
    assert not report.ok
    assert not report.to_json()["ok"]


def test_unifying_check_catches_a_wrong_step_sign(monkeypatch):
    restore_with_the_deletion_sign(monkeypatch)
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
    restore_with_the_deletion_sign(monkeypatch)
    refused = 0
    for d in enumerate_diagrams(3, 3):
        try:
            vanishing_family(d)
        except ConsistencyError as err:
            assert re.match(r"witness minor \S+ = -\d+ is negative", str(err)), err
            refused += 1
    assert refused == 126


@pytest.mark.parametrize("m, p", [(m, p) for m in range(1, 5) for p in range(1, 5)]
                         + [(2, 5), (5, 2)])
def test_the_walk_agrees_with_the_sweep_and_the_pipe_dream(monkeypatch, m, p):
    """Each leaf's witness rows are the restoration sweep's unit-weight matrix,
    its zero mask that matrix's scan, its suffix the pipe dream, and the
    family it ORs from the necklace terms along its path that pipe dream's
    family."""
    leaves = []

    class Recorded(cells._Walk):
        def leaf(self):
            super().leaf()
            leaves.append((self.seeds[1:m + 1], self.rows[1:m + 1], self.inverse[1],
                           self.zeros[1], self.negative[1], self.crowded[1]))
            assert not self.mismatches

    for bottom in cells._row_patterns(p, 0):
        Recorded(m, p, False, {}).node(m, *bottom)
    seen = set()
    for seeds, rows, inverse, zeros, negative, mask in leaves:
        black = frozenset((i, a) for i, seed in enumerate(seeds, 1)
                          for a, white in enumerate(seed, 1) if not white)
        d = CauchonDiagram(m, p, black)
        witness = restoration(seed_matrix(d, 0, {cell: 1 for cell in d.white_cells()}))
        assert [list(row) for row in witness.rows] == rows, d
        scan = scan_minors(witness)
        assert scan.negative is None and not negative
        assert scan.zeros.mask == zeros, d
        assert pipe_dream(d).inverse().images == inverse, d
        assert minor_family(pipe_dream(d), m, p).mask == mask, d
        seen.add(black)
    assert len(seen) == len(leaves) == oracles.count_diagrams(m, p)


def _recorded_walk(walk_class, m, p):
    """Each leaf's (witness rows, zero mask, negative flag, path steps) by its
    seed rows, the minors the walk missed, its mismatches, and how many leaves
    ran the full node."""
    leaves, full = {}, []

    class Recorded(walk_class):
        def node(self, i, seed, forced):
            full.append(i == 1)
            return super().node(i, seed, forced)

        def leaf(self):
            leaves[tuple(self.seeds[1:m + 1])] = (
                [list(row) for row in self.rows[1:m + 1]], self.zeros[1], self.negative[1],
                self.spent[1])
            super().leaf()

    missed, mismatches = 0, []
    for bottom in cells._row_patterns(p, 0):
        walk = Recorded(m, p, True, {})
        walk.node(m, *bottom)
        missed += walk.missed
        mismatches += walk.mismatches
    return leaves, missed, sorted(mismatches, key=lambda found: found[0]), sum(full)


@pytest.mark.parametrize("m, p, mutant", [(3, 4, False), (4, 3, False), (4, 4, False),
                                          (3, 4, True)])
def test_row_one_by_linearity_agrees_with_the_full_route(monkeypatch, m, p, mutant):
    """A leaf with two or more white cells in row 1, read off two leaves before
    it, and the leaf with none, read by rule, have the witness rows, zero
    mask, negative flag and path steps the full route gives them, and the
    walk misses the same minors. With the deletion sign, singletons have
    negative minors, and a node's leaves after its first such singleton take
    the full route, so the mismatches are the full route's too; the empty
    row is still read by rule."""
    if mutant:
        restore_with_the_deletion_sign(monkeypatch)
    leaves, missed, mismatches, full = _recorded_walk(cells._Walk, m, p)
    want, want_missed, want_mismatches, _ = _recorded_walk(oracles.FullRowOneWalk, m, p)
    assert len(leaves) == len(want) == oracles.count_diagrams(m, p)
    for seeds, leaf in want.items():
        assert leaves[seeds] == leaf, seeds
    assert (missed, mismatches) == (want_missed, want_mismatches)
    assert bool(mismatches) == mutant
    spared, empty = len(leaves) - full, sum(seeds[0].count(1) == 0 for seeds in want)
    wide = sum(seeds[0].count(1) >= 2 for seeds in want)
    assert empty < spared < empty + wide if mutant else spared == empty + wide


def test_each_leaf_is_charged_its_path_steps(monkeypatch):
    """The all-white 3x4 leaf, read by linearity, is charged the 643 path steps
    the full route spends on it."""
    monkeypatch.setattr(guards, "PATH_STEP_LIMIT", 642)
    with pytest.raises(ResourceGuardError, match="643 exceeds the limit of 642"):
        unifying_check(3, 4, lindstrom=True)
    monkeypatch.setattr(guards, "PATH_STEP_LIMIT", 643)
    assert unifying_check(3, 4, lindstrom=True).lindstrom == (36244, 0)


def test_the_walk_keeps_its_necklace_terms_and_no_module_does():
    """A term is one (i, I_i), so a 4x4 walk holds at most 8 * C(8, 4) = 560 of
    them, and they die with its memo: the only cache the permutation route
    keeps is its interval masks."""
    walk = cells._Walk(4, 4, False, {})
    assert sum(walk.node(4, *bottom) for bottom in cells._row_patterns(4, 0)) == 6902
    assert 0 < len(walk.terms) <= 560
    assert all(1 <= i <= 8 and necklace.bit_count() == 4 for i, necklace in walk.terms)
    cached = {name for name, value in vars(permutations).items() if hasattr(value, "cache_info")}
    assert cached == {"_crowded"}
    before = {name: len(value) for name, value in vars(permutations).items()
              if isinstance(value, (dict, list, set))}
    minor_family(pipe_dream(DEMO), 3, 3)
    assert before == {name: len(value) for name, value in vars(permutations).items()
                      if isinstance(value, (dict, list, set))}


def test_one_check_computes_each_necklace_term_once(monkeypatch):
    """The walks of one check share one term memo, so each (i, I_i) that the
    1,066 3x4 leaves meet is built once: 90 terms, where a memo per bottom
    row built 450."""
    built = []
    real = cells._necklace_term

    def counted(m, p, i, necklace, terms):
        if (i, necklace) not in terms:
            built.append((i, necklace))
        return real(m, p, i, necklace, terms)

    monkeypatch.setattr(cells, "_necklace_term", counted)
    assert unifying_check(3, 4).ok
    assert len(built) == len(set(built)) == 90


def test_unifying_check_rectangular():
    report = unifying_check(1, 3)
    assert report.ok
    assert report.total == 8
