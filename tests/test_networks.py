"""Dot-and-hook networks, path matrices, disjoint path counts."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from tnncells import guards
from tnncells.cauchon import ones_TC, symbolic_TC, white_variable
from tnncells.diagrams import CauchonDiagram, enumerate_diagrams
from tnncells.errors import DomainError, ResourceGuardError
from tnncells.matrices import MinorIndex, all_minors, iter_minor_indices
from tnncells.networks import (
    PlanarNetwork,
    dot_id,
    nonintersecting_counts,
    path_matrix,
    postnikov_network,
    sink_id,
    source_id,
)
from tnncells.scalars import MPoly


DEMO = CauchonDiagram.from_ascii(".#.\n##.\n...")


def count_one(net, ix):
    """The count for one minor alone, as ``network lindstrom`` asks for it."""
    return nonintersecting_counts(net, [ix])[ix]


def test_demo_network_shape():
    net = postnikov_network(DEMO)
    assert set(net.sources) == {source_id(i) for i in (1, 2, 3)}
    assert set(net.sinks) == {sink_id(a) for a in (1, 2, 3)}
    dots = {v for v in net.vertices if v.startswith("dot:")}
    assert dots == {dot_id(i, a) for i, a in DEMO.white_cells()}


def test_black_cells_get_no_dot():
    net = postnikov_network(DEMO)
    assert dot_id(1, 2) not in net.vertices
    assert dot_id(2, 1) not in net.vertices


def test_demo_path_matrix():
    M = path_matrix(postnikov_network(DEMO))
    assert [[int(x) for x in row] for row in M.rows] == [
        [2, 1, 1], [1, 1, 1], [1, 1, 1],
    ]


def test_path_matrix_equals_unit_seeded_restoration():
    # the Lindstrom suite of `verify all` reads the witness, not the path matrix
    for m, p in [(2, 2), (2, 3), (3, 3), (3, 4), (4, 3), (4, 4)]:
        for d in enumerate_diagrams(m, p):
            net = postnikov_network(d)
            assert path_matrix(net).equals(ones_TC(d)), d.to_ascii()


def test_symbolic_TC_is_the_turn_weighted_path_matrix():
    # the bridge behind the vanishing-family scan: restoration computes
    # path sums whose terms are Laurent monomials with coefficient +1
    for m in range(1, 4):
        for p in range(1, 5):
            for d in enumerate_diagrams(m, p):
                T = symbolic_TC(d)
                names = [white_variable(c) for c in d.white_cells()]
                net = postnikov_network(d)
                for i in range(1, m + 1):
                    for a in range(1, p + 1):
                        expect = MPoly.zero(names)
                        for powers in oracles.turn_monomials(
                            net, source_id(i), sink_id(a)
                        ):
                            term = 1
                            for cell, k in powers.items():
                                term = term * MPoly.var(names, white_variable(cell)) ** k
                            expect = expect + term
                        assert T.entry(i, a) == expect, (d.to_ascii(), i, a)


def test_path_matrix_entries_match_exhaustive_walks():
    for d in enumerate_diagrams(2, 3):
        net = postnikov_network(d)
        M = path_matrix(net)
        for i in range(1, 3):
            for a in range(1, 4):
                assert M.entry(i, a) == oracles.path_sum(
                    net, source_id(i), sink_id(a)
                ), (d.to_ascii(), i, a)


def test_lindstrom_identity_on_demo():
    net = postnikov_network(DEMO)
    for ix, value in all_minors(path_matrix(net)):
        assert value == count_one(net, ix), ix


@given(st.data())
@settings(max_examples=25)
def test_lindstrom_identity_random_diagrams(data):
    pool = list(enumerate_diagrams(2, 3)) + list(enumerate_diagrams(3, 2))
    d = data.draw(st.sampled_from(pool))
    net = postnikov_network(d)
    minors = dict(all_minors(path_matrix(net)))
    ix = data.draw(st.sampled_from(list(minors)))
    assert minors[ix] == count_one(net, ix)


def test_nonintersecting_count_demo_values():
    net = postnikov_network(DEMO)
    assert count_one(net, MinorIndex.parse("[1,2|1,2]")) == 1
    assert count_one(net, MinorIndex.parse("[1,2|2,3]")) == 0
    assert count_one(net, MinorIndex.parse("[1,2,3|1,2,3]")) == 0


def test_batched_counts_match_the_family_oracle():
    for m in range(1, 4):
        for p in range(1, 4):
            indices = list(iter_minor_indices(m, p))
            for d in enumerate_diagrams(m, p):
                net = postnikov_network(d)
                counts = nonintersecting_counts(net, indices)
                assert set(counts) == set(indices)
                for ix in indices:
                    expect = oracles.disjoint_family_count(net, ix)
                    assert counts[ix] == expect, (d.to_ascii(), ix)
                    assert count_one(net, ix) == expect, (d.to_ascii(), ix)


def test_batched_counts_match_single_minor_counts():
    # the batch's states may leave rows out; one minor alone grows only its
    # own families, restricted to its own columns
    for m, p in [(3, 4), (4, 3)]:
        indices = list(iter_minor_indices(m, p))
        for d in enumerate_diagrams(m, p):
            net = postnikov_network(d)
            counts = nonintersecting_counts(net, indices)
            for ix in indices:
                assert count_one(net, ix) == counts[ix], (d.to_ascii(), ix)


WEIGHTS = [Fraction(w) for w in ("0", "1", "-1", "2", "1/2", "-3/2")]


@st.composite
def random_dags(draw):
    """A DAG with up to 3 sources and sinks, three inner vertices and any
    forward edges between them: in general not planar, and sinks may have
    edges out and sources edges in."""
    m, p = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    names = [source_id(i) for i in range(1, m + 1)]
    names += [sink_id(a) for a in range(1, p + 1)] + ["u", "v", "w"]
    order = draw(st.permutations(names))
    edges = tuple(
        (frm, to, draw(st.sampled_from(WEIGHTS)))
        for k, frm in enumerate(order)
        for to in order[k + 1:]
        if draw(st.booleans())
    )
    return PlanarNetwork(m, p, frozenset(names), edges)


@given(random_dags())
@settings(max_examples=60, deadline=None)
def test_counts_on_random_dags_match_the_oracle_and_the_minors(net):
    minors = dict(all_minors(path_matrix(net)))
    indices = list(iter_minor_indices(net.m, net.p))
    counts = nonintersecting_counts(net, indices)
    for ix in indices:
        expect = oracles.disjoint_family_count(net, ix)
        assert counts[ix] == expect == minors[ix], ix
        assert count_one(net, ix) == expect, ix


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_partial_batches_on_random_dags_match_the_oracle(data):
    # a batch that leaves some rows out of some minors but not of others
    net = data.draw(random_dags())
    pool = list(iter_minor_indices(net.m, net.p))
    indices = data.draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))
    counts = nonintersecting_counts(net, indices)
    assert set(counts) == set(indices)
    for ix in indices:
        assert counts[ix] == oracles.disjoint_family_count(net, ix), ix


def test_twisted_pairings_count_with_their_sign():
    # not planar: every source-to-own-sink family meets at the hub, so only
    # the twisted pairing s1 -> t2, s2 -> t1 has disjoint families
    s1, s2, t1, t2 = source_id(1), source_id(2), sink_id(1), sink_id(2)
    crossing = ((s1, t2, Fraction(1)), (s2, t1, Fraction(1)))
    hub = tuple((frm, to, Fraction(1)) for frm, to in [
        (s1, "hub"), (s2, "hub"), ("hub", t1), ("hub", t2),
    ])
    ix = MinorIndex((1, 2), (1, 2))
    for edges, expect in [(crossing, -1), (crossing + hub, -3)]:
        vertices = frozenset({s1, s2, t1, t2, "hub"})
        net = PlanarNetwork(2, 2, vertices, edges)
        assert nonintersecting_counts(net, [ix]) == {ix: expect}
        assert oracles.disjoint_family_count(net, ix) == expect
        assert dict(all_minors(path_matrix(net)))[ix] == expect


def test_batched_step_budget_is_shared_across_minors(monkeypatch):
    net = postnikov_network(CauchonDiagram.all_white(3, 3))
    indices = list(iter_minor_indices(3, 3))
    nonintersecting_counts(net, indices)
    monkeypatch.setattr(guards, "PATH_STEP_LIMIT", 100)
    with pytest.raises(ResourceGuardError):
        nonintersecting_counts(net, indices)


@pytest.mark.parametrize("n, batch, steps", [
    (3, "all", 201), (4, "all", 3_103), (5, "all", 90_578),
    (3, "full", 144), (4, "full", 1_599), (5, "full", 35_713),
])
def test_step_charges_on_all_white_networks(monkeypatch, n, batch, steps):
    # one step per vertex walked, then len(states) x len(paths) per row
    net = postnikov_network(CauchonDiagram.all_white(n, n))
    full = MinorIndex(tuple(range(1, n + 1)), tuple(range(1, n + 1)))
    indices = list(iter_minor_indices(n, n)) if batch == "all" else [full]
    monkeypatch.setattr(guards, "PATH_STEP_LIMIT", steps)
    nonintersecting_counts(net, indices)
    monkeypatch.setattr(guards, "PATH_STEP_LIMIT", steps - 1)
    with pytest.raises(ResourceGuardError, match=f"{steps} exceeds"):
        nonintersecting_counts(net, indices)


def test_step_budget_guard(monkeypatch):
    net = postnikov_network(CauchonDiagram.all_white(3, 3))
    monkeypatch.setattr(guards, "PATH_STEP_LIMIT", 2)
    with pytest.raises(ResourceGuardError):
        count_one(net, MinorIndex.parse("[1,2,3|1,2,3]"))


def test_index_must_fit_the_network():
    net = postnikov_network(CauchonDiagram.all_white(2, 2))
    with pytest.raises(DomainError):
        count_one(net, MinorIndex.parse("[1,3|1,2]"))


class TestNetworkType:
    def test_json_roundtrip(self):
        net = postnikov_network(DEMO)
        again = PlanarNetwork.from_json(net.to_json())
        assert again.vertices == net.vertices
        assert sorted(again.edges) == sorted(net.edges)

    def test_unknown_vertex_rejected(self):
        with pytest.raises(DomainError):
            PlanarNetwork(
                1,
                1,
                frozenset({source_id(1), sink_id(1)}),
                ((source_id(1), "nowhere", Fraction(1)),),
            )

    def test_cycle_rejected(self):
        vertices = frozenset({source_id(1), sink_id(1), "a", "b"})
        edges = (
            (source_id(1), "a", Fraction(1)),
            ("a", "b", Fraction(1)),
            ("b", "a", Fraction(1)),
            ("b", sink_id(1), Fraction(1)),
        )
        net = PlanarNetwork(1, 1, vertices, edges)
        with pytest.raises(DomainError):
            net.topological_order()

    def test_to_dot_mentions_every_vertex(self):
        net = postnikov_network(CauchonDiagram.all_white(1, 2))
        dot = net.to_dot()
        for v in net.vertices:
            assert v in dot

    def test_weighted_edges_flow_through(self):
        vertices = frozenset({source_id(1), sink_id(1)})
        net = PlanarNetwork(
            1, 1, vertices, ((source_id(1), sink_id(1), Fraction(3, 2)),)
        )
        assert path_matrix(net).entry(1, 1) == Fraction(3, 2)
