"""Planar networks, path matrices and counts of disjoint path families.

Networks here are finite weighted DAGs with named sources s1..sm and sinks
t1..tp. The path matrix entry (i, a) is the weighted sum over all directed
paths from source i to sink a, where a path weighs the product of its edge
weights; with unit weights that is a path count.

A diagram gives rise to such a network by placing one dot in each white
cell, feeding each row from a source on its right edge and draining each
column into a sink below its bottom edge. Edges run right-to-left along
rows and top-to-bottom along columns between consecutive dots. The diagram
rule forbids a black cell with a white cell somewhere above and another
somewhere to its left in just the pattern that would make a row edge cross
a column edge, so these networks are genuinely planar and disjoint path
families obey the determinant identity.

Every network holds one form: its vertex names in a topological order, its
edges on the names' numbers, each running to a higher number, and its drawing
points beside the names. :func:`postnikov_network` numbers a diagram's
vertices as it walks the grid; :meth:`PlanarNetwork.from_json` orders a named
network's vertices with one pass of ``graphlib``, and refuses a cycle, an
unknown vertex or a name that is not a string as it reads them.

:func:`nonintersecting_counts` is the one counter of disjoint path families:
``network lindstrom`` asks it for one minor and ``verify all`` for every
minor of each diagram. It shares no code with the restoration sweep, so
comparing it with the restored unit-weight witness, as ``verify all`` does,
checks the identity. The path matrix serves ``network path-matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
from functools import lru_cache
from itertools import accumulate, pairwise
from operator import add
from typing import Any, Iterable, Sequence

from . import guards
from .diagrams import CauchonDiagram
from .errors import DomainError, json_int
from .matrices import Matrix, MinorIndex, parse_rational


def source_id(i: int) -> str:
    return f"s{i}"


def sink_id(a: int) -> str:
    return f"t{a}"


def dot_id(i: int, a: int) -> str:
    return f"dot:{i},{a}"


Weight = Fraction | int  # integral weights are plain ints: exact, and far cheaper to multiply
Edge = tuple[int, int, Weight]  # (tail, head, weight) on vertex numbers


@dataclass(frozen=True)
class PlanarNetwork:
    """A weighted DAG with sources s1..sm and sinks t1..tp, its vertices
    numbered 0..n-1 in a topological order: ``names[k]`` names vertex k and
    ``points[k]`` is its drawing point or None, and every edge (tail, head,
    weight) has tail < head. Counting reads ``out_edges``, the edges of each
    vertex by tail, ``sources``, the vertex of each source s_i in turn, and
    ``sink_bit``, 1 << a for the sink t_a and 0 for any other vertex."""

    m: int
    p: int
    names: tuple[str, ...]
    edges: tuple[Edge, ...]
    points: tuple[tuple[float, float] | None, ...]
    out_edges: list[Sequence[Edge]] = field(repr=False, compare=False)
    sources: list[int] = field(repr=False, compare=False)
    sink_bit: list[int] = field(repr=False, compare=False)

    @property
    def coords(self) -> dict[str, tuple[float, float]]:
        """The drawing points by vertex name."""
        return {v: (float(xy[0]), float(xy[1])) for v, xy in zip(self.names, self.points) if xy}

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        names = self.names
        return {
            "m": self.m,
            "p": self.p,
            "vertices": sorted(names),
            "edges": [
                {"from": names[frm], "to": names[to], "weight": str(weight)}
                for frm, to, weight in self.edges
            ],
            "coords": {v: list(xy) for v, xy in sorted(self.coords.items())},
        }

    @classmethod
    def from_json(cls, obj: Any) -> "PlanarNetwork":
        """Read a network; without ``vertices`` its edges name them. The size
        is checked before any vertex is read."""
        if not isinstance(obj, dict) or not {"m", "p", "edges"} <= set(obj):
            raise DomainError("network JSON needs m, p and edges")
        m, p = json_int(obj["m"], "m"), json_int(obj["p"], "p")
        guards.ensure(m + p, guards.PERMUTATION_LETTER_LIMIT, "network sources and sinks")
        names = {*map(source_id, range(1, m + 1)), *map(sink_id, range(1, p + 1))}
        try:
            raw = [(e["from"], e["to"], e.get("weight", "1")) for e in obj["edges"]]
            ends = [v for e in raw for v in e[:2]]
            listed = obj.get("vertices", ends)
            coords = {
                v: (float(x), float(y))
                for v, (x, y) in obj.get("coords", {}).items()
            }
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"bad network JSON field: {exc!r}") from exc
        if type(listed) is not list:
            raise DomainError(f"network vertices must be a list, got {listed!r}")
        if bad := [v for v in (*listed, *ends) if type(v) is not str]:
            raise DomainError(f"vertex names must be strings, got {bad[0]!r}")
        names.update(listed)
        tails: dict[str, list[str]] = {v: [] for v in sorted(names)}
        for frm, to, _ in raw:
            if frm not in tails or to not in tails:
                raise DomainError(f"edge {frm}->{to} references unknown vertex")
            tails[to].append(frm)
        if unknown := coords.keys() - tails.keys():
            raise DomainError(f"coords of unknown vertex {min(unknown)}")
        try:
            order = tuple(TopologicalSorter(tails).static_order())
        except CycleError as exc:
            raise DomainError("network contains a directed cycle") from exc
        number = {v: k for k, v in enumerate(order)}
        edges: list[Edge] = []
        out_edges: list[list[Edge]] = [[] for _ in order]
        for frm, to, w in raw:
            weight = parse_rational(w)
            weight = weight.numerator if weight.denominator == 1 else weight
            edges.append(edge := (number[frm], number[to], weight))
            out_edges[edge[0]].append(edge)
        sink_bit = [0] * len(order)
        for a in range(1, p + 1):
            sink_bit[number[sink_id(a)]] = 1 << a
        return cls(
            m, p, order, tuple(edges), tuple(map(coords.get, order)), out_edges,
            [number[source_id(i)] for i in range(1, m + 1)], sink_bit,
        )

    def to_dot(self) -> str:
        lines = ["digraph network {", "  rankdir=RL;"]
        coords, names = self.coords, self.names
        for v in sorted(names):
            attrs = ['shape=point'] if v.startswith("dot:") else ['shape=circle']
            if v in coords:
                x, y = coords[v]
                attrs.append(f'pos="{x},{y}!"')
            attrs.append(f'label="{v}"')
            lines.append(f'  "{v}" [{", ".join(attrs)}];')
        for frm, to, weight in self.edges:
            label = "" if weight == 1 else f' [label="{weight}"]'
            lines.append(f'  "{names[frm]}" -> "{names[to]}"{label};')
        lines.append("}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Construction from a diagram
# ---------------------------------------------------------------------------


def postnikov_network(diagram: CauchonDiagram) -> PlanarNetwork:
    """Dots on white cells, row edges right-to-left, column edges downward.

    The vertices are numbered as the grid is walked: row by row the source,
    then the row's white dots right to left; the sinks last. Every edge runs
    to a higher number, so the walk's order is a topological order. A vertex
    at (i, a) is drawn at (a, -i): the source s_i at (i, p + 1), the sink t_a
    at (m + 1, a) and a dot in its cell. The edges are listed rows first.
    """
    m, p, black = diagram.m, diagram.p, diagram.black
    names: list[str] = []
    points: list[tuple[int, int]] = []
    edges: list[Edge] = []
    row_out: list[tuple[Edge, ...]] = []  # each vertex's edge along its row, if any
    sources: list[int] = []
    columns: list[list[int]] = [[] for _ in range(p)]  # each column's dots, top down
    for i in range(1, m + 1):
        sources.append(len(names))
        names.append(source_id(i))
        points.append((p + 1, -i))
        row_out.append(())
        for a in range(p, 0, -1):
            if (i, a) not in black:
                k = len(names)
                edges.append(edge := (k - 1, k, 1))  # from the vertex to the right
                row_out[k - 1] = (edge,)
                columns[a - 1].append(k)
                names.append(dot_id(i, a))
                points.append((a, -i))
                row_out.append(())
    sink_bit = [0] * len(names) + [1 << a for a in range(1, p + 1)]
    column_out: list[tuple[Edge, ...]] = [()] * (len(names) + p)
    for a, chain in enumerate(columns, 1):  # a fully black column never reaches its sink
        chain.append(len(names))
        for frm, to in pairwise(chain):
            edges.append(edge := (frm, to, 1))
            column_out[frm] = (edge,)
        names.append(sink_id(a))
        points.append((a, -m - 1))
        row_out.append(())
    # tuples, not lists: the collector soon stops tracking them, which halves
    # the build of a large grid's network
    out_edges = list(map(add, row_out, column_out))
    return PlanarNetwork(
        m, p, tuple(names), tuple(edges), tuple(points), out_edges, sources, sink_bit
    )


# ---------------------------------------------------------------------------
# Path matrix and disjoint families
# ---------------------------------------------------------------------------


def path_matrix(network: PlanarNetwork) -> Matrix:
    """Weighted source-to-sink path sums by forward propagation. Each source's
    propagation visits every later vertex and its edges; the steps of all of
    them are charged to ``guards.PATH_STEP_LIMIT`` before any runs."""
    out_edges, sink_bit = network.out_edges, network.sink_bit
    later = list(accumulate(1 + len(out) for out in reversed(out_edges)))[::-1]
    steps = sum(later[source] for source in network.sources)
    guards.ensure(steps, guards.PATH_STEP_LIMIT, "steps of one path matrix")
    vertex_of = {bit: v for v, bit in enumerate(sink_bit) if bit}
    rows = []
    for source in network.sources:
        acc: list[Weight] = [0] * len(out_edges)
        acc[source] = 1
        for v in range(source, len(out_edges)):  # nothing earlier is reachable
            if value := acc[v]:
                for _, to, weight in out_edges[v]:
                    acc[to] += value * weight
        rows.append([acc[vertex_of[1 << a]] for a in range(1, network.p + 1)])
    return Matrix(rows)


def nonintersecting_counts(network: PlanarNetwork, indices: Iterable[MinorIndex]) -> list[Weight]:
    """Signed weighted counts of vertex-disjoint path families, one per minor
    in the order of ``indices``: ``int`` when every edge weight is integral,
    else ``Fraction``.

    Each row of some minor is walked once from its source, recording every
    path to its minors' columns as (column bit, vertex bitmask, weight).
    States (row set, column set, vertex mask) -> signed weight are extended
    once per needed row, in increasing order, by each path that misses the
    state's vertices, times its weight, with the sign flipped once per taken
    column greater than its own. A state may leave the row out only when some
    requested minor does. [R|C] sums the states with row set R and column
    set C: every pairing with its sign, the determinant identity on any DAG
    and, on planar networks, the plain weighted count. One budget of
    ``guards.PATH_STEP_LIMIT`` steps covers the call: one per vertex walked,
    all walks first, then len(states) x len(paths) per row, charged before
    the extension runs.
    """
    out_edges, sources, sink_bit = network.out_edges, network.sources, network.sink_bit
    minors, columns, shared = _minor_plan(tuple(indices), network.m, network.p)
    limit, spent = guards.PATH_STEP_LIMIT, 0

    paths: dict[int, list[tuple[int, int, int, Weight]]] = {}
    for r, wanted in columns:
        found = paths[1 << r] = []
        stack: list[tuple[int, int, Weight]] = [(sources[r - 1], 1 << sources[r - 1], 1)]
        while stack:
            v, used, weight = stack.pop()
            spent += 1
            if spent > limit:
                guards.ensure(spent, limit, "steps of one path family count")
            if (sink := sink_bit[v]) & wanted:
                found.append((sink, -(sink << 1), used, weight))
            for _, to, w in out_edges[v]:
                stack.append((to, used | 1 << to, weight * w))

    states: dict[tuple[int, int, int], Weight] = {(0, 0, 0): 1}
    for row, found in paths.items():
        spent += len(states) * len(found)
        guards.ensure(spent, limit, "steps of one path family count")
        grown = {} if shared & row else dict(states)
        for (rows, cols, used), weight in states.items():
            for col, above, vertices, path_weight in found:
                if used & vertices:  # also when col is taken: its sink is in both
                    continue
                key = (rows | row, cols | col, used | vertices)
                value = weight * path_weight
                if (cols & above).bit_count() & 1:
                    value = -value
                grown[key] = grown.get(key, 0) + value
        states = grown

    totals: dict[tuple[int, int], Weight] = {}
    for (rows, cols, _), weight in states.items():
        totals[rows, cols] = totals.get((rows, cols), 0) + weight
    return [totals.get(minor, 0) for minor in minors]


@lru_cache(maxsize=16)
def _minor_plan(
    indices: tuple[MinorIndex, ...], m: int, p: int
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...], int]:
    """The masks :func:`nonintersecting_counts` needs of its indices on an m x p
    network: each minor's (row set, column set), each needed row, in
    increasing order, with its minors' columns, and the rows every minor uses,
    which no state may leave out. A misfit raises DomainError, never cached."""
    minors = []
    columns: dict[int, int] = {}
    shared = -1
    for ix in indices:
        if not ix.fits(m, p):
            raise DomainError(f"{ix} does not fit a {m}x{p} network")
        rows, cols = sum(1 << r for r in ix.rows), sum(1 << a for a in ix.cols)
        minors.append((rows, cols))
        for r in ix.rows:
            columns[r] = columns.get(r, 0) | cols
        shared &= rows
    return tuple(minors), tuple(sorted(columns.items())), shared
