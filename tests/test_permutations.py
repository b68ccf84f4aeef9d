"""Permutations, the window-restricted family, pipe dreams, Bruhat order."""

from collections import Counter
from itertools import permutations as iter_perms, product

import pytest
from hypothesis import given, strategies as st

import oracles
from tnncells.cauchon import vanishing_family
from tnncells.diagrams import CauchonDiagram, enumerate_diagrams
from tnncells.errors import DomainError
from tnncells.matrices import MinorIndex, iter_minor_indices
from tnncells.matrices import subsets
from tnncells.permutations import (
    Permutation,
    _crowded,
    bruhat_leq,
    enumerate_restricted,
    inverse_pipe_dream,
    is_restricted,
    minor_family,
    parse_permutation,
    pipe_dream,
)


DEMO = CauchonDiagram.from_ascii(".#.\n##.\n...")

# every grid through 4x4, and 2x5 and 5x2
_PIPE_GRIDS = [(m, p) for m in range(1, 5) for p in range(1, 5)] + [(2, 5), (5, 2)]

perm_strategy = st.integers(2, 6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(lambda images: Permutation(tuple(images)))


class TestPermutationType:
    def test_not_a_bijection(self):
        with pytest.raises(DomainError):
            Permutation((1, 1, 3))

    def test_compose_and_invert(self):
        u = Permutation((2, 3, 1))
        assert (u @ u.inverse()) == Permutation.identity(3)
        assert u.inverse()(2) == 1

    def test_cycles_roundtrip(self):
        w = Permutation((1, 3, 5, 2, 4, 6))
        assert Permutation.from_cycles(6, w.cycles()) == w
        assert w.cycle_string() == "(2 3 5 4)"

    def test_one_line_compact_and_comma_forms(self):
        assert Permutation((1, 3, 2)).one_line() == "132"
        w = Permutation(tuple(range(1, 11)))
        assert "," in w.one_line()

    @given(perm_strategy)
    def test_length_is_inversion_count(self, w):
        assert w.length() == oracles.inversion_count(w.images)


class TestParsing:
    def test_one_line(self):
        assert parse_permutation("135246") == Permutation((1, 3, 5, 2, 4, 6))

    def test_cycle_form_needs_n(self):
        w = parse_permutation("(2 3 5 4)", 6)
        assert w == Permutation((1, 3, 5, 2, 4, 6))

    def test_comma_form(self):
        assert parse_permutation("3,1,2") == Permutation((3, 1, 2))

    def test_identity_cycles(self):
        assert parse_permutation("()", 3) == Permutation.identity(3)

    def test_garbage_rejected(self):
        with pytest.raises(DomainError):
            parse_permutation("not a permutation")


class TestRestrictedFamily:
    def test_counts_match_diagram_counts(self):
        for m, p in [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3)]:
            assert oracles.count_restricted(m, p) == oracles.count_diagrams(m, p), (m, p)

    def test_window_condition(self):
        assert is_restricted(parse_permutation("135246"), 3, 3)
        assert not is_restricted(parse_permutation("4123"), 2, 2)

    def test_enumeration_is_lex_sorted_and_filtered(self):
        assert len(list(enumerate_restricted(2, 2))) == 14
        for m, p in [(2, 2), (1, 4), (4, 1), (2, 3), (3, 2), (3, 3)]:
            ws = list(enumerate_restricted(m, p))
            assert ws == sorted(ws)
            assert all(is_restricted(w, m, p) for w in ws)
            n = m + p
            brute = [
                Permutation(images)
                for images in iter_perms(range(1, n + 1))
                if all(-p <= images[i] - (i + 1) <= m for i in range(n))
            ]
            assert ws == sorted(brute), (m, p)

    def test_length_profile_2x2(self):
        profile = Counter(w.length() for w in enumerate_restricted(2, 2))
        assert [profile[k] for k in sorted(profile)] == [1, 3, 5, 4, 1]


class TestPipeDreams:
    def test_demo_diagram(self):
        assert pipe_dream(DEMO).one_line() == "135246"

    def test_all_white_is_identity(self):
        assert pipe_dream(oracles.all_white(2, 3)) == Permutation.identity(5)

    def test_all_black_is_the_window_maximum(self):
        w = pipe_dream(oracles.all_black(3, 3))
        assert w.one_line() == "456123"
        ws = enumerate_restricted(3, 3)
        assert w.length() == max(u.length() for u in ws)

    def test_result_is_always_restricted(self):
        for d in enumerate_diagrams(2, 3):
            assert is_restricted(pipe_dream(d), 2, 3)

    def test_bijection_small_grids(self):
        for m, p in [(1, 2), (2, 2), (2, 3), (3, 3)]:
            images = {pipe_dream(d) for d in enumerate_diagrams(m, p)}
            assert len(images) == oracles.count_diagrams(m, p)

    def test_inverse_round_trip(self):
        for m, p in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            for d in enumerate_diagrams(m, p):
                assert inverse_pipe_dream(pipe_dream(d), m, p) == d

    def test_inverse_rejects_unrestricted(self):
        with pytest.raises(DomainError):
            inverse_pipe_dream(parse_permutation("4123"), 2, 2)

    @pytest.mark.parametrize("m, p", [(0, 3), (3, 0), (2, 2)])
    def test_inverse_rejects_a_grid_of_the_wrong_size(self, m, p):
        with pytest.raises(DomainError):
            inverse_pipe_dream(Permutation.identity(3), m, p)

    def test_product_matches_the_tile_trace(self):
        for m, p in _PIPE_GRIDS:
            for d in enumerate_diagrams(m, p):
                w = pipe_dream(d)
                assert w.images == oracles.trace_pipe_dream(m, p, d.black), d.to_ascii()
                assert len(d.black) == w.length(), d.to_ascii()

    def test_inverse_succeeds_exactly_on_restricted_permutations(self):
        for m, p in [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3)]:
            for images in iter_perms(range(1, m + p + 1)):
                w = Permutation(images)
                if is_restricted(w, m, p):
                    d = inverse_pipe_dream(w, m, p)
                    assert CauchonDiagram(m, p, d.black) == d
                    assert pipe_dream(d) == w
                else:
                    with pytest.raises(DomainError):
                        inverse_pipe_dream(w, m, p)

    @given(st.data())
    def test_random_diagrams_round_trip(self, data):
        m, p = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
        coins = data.draw(st.lists(st.booleans(), min_size=m * p, max_size=m * p))
        # a cell may be black when every cell to its left or every cell
        # above it is black; deciding in row-major order keeps that true
        black: set[tuple[int, int]] = set()
        for (i, a), coin in zip(product(range(1, m + 1), range(1, p + 1)), coins):
            if coin and (
                all((i, b) in black for b in range(1, a))
                or all((j, a) in black for j in range(1, i))
            ):
                black.add((i, a))
        d = CauchonDiagram(m, p, black)
        back = inverse_pipe_dream(pipe_dream(d), m, p)
        assert back == d
        assert CauchonDiagram(m, p, back.black) == back


def _bruhat_closure(n):
    """Reachability along length-increasing transposition edges."""
    elements = [Permutation(images) for images in iter_perms(range(1, n + 1))]
    above = {w: {w} for w in elements}
    changed = True
    while changed:
        changed = False
        for w in elements:
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    t = Permutation.from_cycles(n, [(i, j)])
                    v = w @ t
                    if v.length() == w.length() + 1:
                        new = above[v] - above[w]
                        if new:
                            above[w] |= new
                            changed = True
    return above


def test_bruhat_matches_transposition_chains():
    above = _bruhat_closure(4)
    for u in above:
        for w in above:
            assert bruhat_leq(u, w) == (w in above[u]), (u, w)


def test_bruhat_requires_equal_sizes():
    with pytest.raises(DomainError):
        bruhat_leq(Permutation.identity(2), Permutation.identity(3))


class TestMinorFamilies:
    def test_identity_family_is_empty(self):
        w = Permutation.identity(6)
        assert not set(minor_family(w, 3, 3))

    def test_window_maximum_takes_everything(self):
        w = parse_permutation("456123")
        fam = minor_family(w, 3, 3)
        assert set(fam) == set(iter_minor_indices(3, 3))

    def test_demo_family(self):
        w = parse_permutation("135246")
        assert {str(ix) for ix in minor_family(w, 3, 3)} == {
            "[1,2|2,3]", "[1,3|2,3]", "[2,3|2,3]",
            "[2,3|1,3]", "[2,3|1,2]", "[1,2,3|1,2,3]",
        }

    def test_membership_pins(self):
        w = parse_permutation("135246")
        family = minor_family(w, 3, 3)
        assert MinorIndex.parse("[1,2|2,3]") in family
        assert MinorIndex.parse("[1,2|1,2]") not in family
        assert MinorIndex.parse("[1|1]") not in family

    def test_transpose_mirrors_the_permutation_and_the_family(self):
        # transposition is a bijection from m x p diagrams onto p x m ones,
        # so the grids with m <= p cover every diagram through 3x4 and 4x3
        for m, p in [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4),
                     (3, 3), (3, 4)]:
            w0 = Permutation(tuple(range(m + p, 0, -1)))
            for d in enumerate_diagrams(m, p):
                t = d.transpose()
                assert pipe_dream(t) == w0 @ pipe_dream(d) @ w0, d.to_ascii()
                flipped = {ix.transposed() for ix in vanishing_family(d)}
                assert set(vanishing_family(t)) == flipped, d.to_ascii()

    def test_family_matches_the_window_scan(self):
        for m, p in [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (1, 4), (4, 1),
                     (2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (3, 4), (4, 3)]:
            for d in enumerate_diagrams(m, p):
                w = pipe_dream(d)
                assert set(minor_family(w, m, p)) == oracles.window_family(
                    w.images, m, p
                ), d.to_ascii()

    def test_subset_tables_match_their_definitions(self):
        for n in range(1, 6):
            for k in range(1, n + 1):
                assert list(subsets(n, k)) == sorted(
                    s for s in product(range(1, n + 1), repeat=k)
                    if all(x < y for x, y in zip(s, s[1:]))
                )
        # each interval table against a direct count of |S ∩ J|
        for n in range(2, 7):
            for m in range(1, n):
                p = n - m
                for start, stop in product(range(1, n + 1), repeat=2):
                    interval, j = {start}, start
                    while j != stop:
                        j = j % n + 1
                        interval.add(j)
                    minors = [(rows, cols) for k in range(1, min(m, p) + 1)
                              for rows in subsets(m, k) for cols in subsets(p, k)]
                    for bound in range(m + 1):
                        want = sum(1 << j for j, (rows, cols) in enumerate(minors)
                                   if len(interval & (set(range(1, m + 1))
                                                      - {m + 1 - r for r in rows}
                                                      | {m + a for a in cols})) > bound)
                        assert _crowded(m, p, start, stop, bound) == want, (
                            m, p, start, stop, bound)

    def test_families_are_distinct_across_the_window(self):
        fams = {
            frozenset(minor_family(w, 2, 2).members)
            for w in enumerate_restricted(2, 2)
        }
        assert len(fams) == 14

    def test_requires_restricted_input(self):
        with pytest.raises(DomainError):
            minor_family(parse_permutation("4123"), 2, 2)
