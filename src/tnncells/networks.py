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

Counting reads only an integer core, its vertices numbered in a topological
order: by :func:`postnikov_network` as it walks a diagram's grid, or by one
Kahn pass over a named network's vertices. Names are built for JSON and DOT.

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
from functools import cached_property, lru_cache
from itertools import pairwise
from typing import Any, Iterable

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


@dataclass(frozen=True)
class PlanarNetwork:
    """A weighted DAG with ordered sources and sinks, given by vertex names and
    (tail, head, weight) edges; its core is built on first use."""

    m: int
    p: int
    vertices: frozenset[str]
    edges: tuple[tuple[str, str, Fraction], ...]
    coords: dict[str, tuple[float, float]] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        names = set(self.vertices)
        for i in range(1, self.m + 1):
            if source_id(i) not in names:
                raise DomainError(f"missing source {source_id(i)}")
        for a in range(1, self.p + 1):
            if sink_id(a) not in names:
                raise DomainError(f"missing sink {sink_id(a)}")
        for frm, to, weight in self.edges:
            if frm not in names or to not in names:
                raise DomainError(f"edge {frm}->{to} references unknown vertex")
            if not isinstance(weight, Fraction):
                raise DomainError(f"edge {frm}->{to} weight must be rational")

    @property
    def sources(self) -> tuple[str, ...]:
        return tuple(source_id(i) for i in range(1, self.m + 1))

    @property
    def sinks(self) -> tuple[str, ...]:
        return tuple(sink_id(a) for a in range(1, self.p + 1))

    @cached_property
    def _labels(self) -> tuple[str, ...]:
        """The vertex names in the order of one Kahn pass over their numbers."""
        names = sorted(self.vertices)
        number = {v: k for k, v in enumerate(names)}
        tails: dict[int, list[int]] = {k: [] for k in range(len(names))}
        for frm, to, _ in self.edges:
            tails[number[to]].append(number[frm])
        try:
            return tuple(names[k] for k in TopologicalSorter(tails).static_order())
        except CycleError as exc:
            raise DomainError("network contains a directed cycle") from exc

    @cached_property
    def _core(self) -> tuple[list[list[tuple[int, Fraction | int]]], list[int], list[int]]:
        """What counting reads: the vertices as 0..n-1 in a topological order,
        each one's (head, weight) edges, integral weights as plain ints (exact,
        and far cheaper to multiply), the vertex of each source s_i in turn, and
        each vertex's sink bit, 1 << a for the sink t_a, else 0."""
        number = {v: k for k, v in enumerate(self._labels)}
        succ: list[list[tuple[int, Fraction | int]]] = [[] for _ in number]
        for frm, to, w in self.edges:
            succ[number[frm]].append((number[to], w.numerator if w.denominator == 1 else w))
        sink_of = {sink_id(a): 1 << a for a in range(1, self.p + 1)}
        return succ, [number[v] for v in self.sources], [sink_of.get(v, 0) for v in number]

    def topological_order(self) -> tuple[str, ...]:
        """The vertex names in the core's order; DomainError when a directed cycle exists."""
        return self._labels

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        return {
            "m": self.m,
            "p": self.p,
            "vertices": sorted(self.vertices),
            "edges": [
                {"from": frm, "to": to, "weight": str(weight)}
                for frm, to, weight in self.edges
            ],
            "coords": {v: list(xy) for v, xy in sorted(self.coords.items())},
        }

    @classmethod
    def from_json(cls, obj: Any) -> "PlanarNetwork":
        if not isinstance(obj, dict) or not {"m", "p", "edges"} <= set(obj):
            raise DomainError("network JSON needs m, p and edges")
        m, p = json_int(obj["m"], "m"), json_int(obj["p"], "p")
        try:
            raw = [(e["from"], e["to"], e.get("weight", "1")) for e in obj["edges"]]
            vertices = set(obj.get("vertices", []))
            for frm, to, _ in raw:
                vertices.update((frm, to))
            coords = {
                v: (float(x), float(y))
                for v, (x, y) in obj.get("coords", {}).items()
            }
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"bad network JSON field: {exc!r}") from exc
        edges = tuple((frm, to, parse_rational(w)) for frm, to, w in raw)
        vertices.update(source_id(i) for i in range(1, m + 1))
        vertices.update(sink_id(a) for a in range(1, p + 1))
        return cls(m, p, frozenset(vertices), edges, coords)

    def to_dot(self) -> str:
        lines = ["digraph network {", "  rankdir=RL;"]
        for v in sorted(self.vertices):
            attrs = ['shape=point'] if v.startswith("dot:") else ['shape=circle']
            if v in self.coords:
                x, y = self.coords[v]
                attrs.append(f'pos="{x},{y}!"')
            attrs.append(f'label="{v}"')
            lines.append(f'  "{v}" [{", ".join(attrs)}];')
        for frm, to, weight in self.edges:
            label = "" if weight == 1 else f' [label="{weight}"]'
            lines.append(f'  "{frm}" -> "{to}"{label};')
        lines.append("}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Construction from a diagram
# ---------------------------------------------------------------------------


class _DiagramNetwork(PlanarNetwork):
    """A diagram's network, core first: its names, edges and coordinates are
    drawn on first read from the vertex points and pairs of the grid walk."""

    def __init__(self, m: int, p: int, core: tuple, points: list, pairs: list) -> None:
        self.__dict__.update(m=m, p=p, _core=core, _points=points, _pairs=pairs)

    @cached_property
    def _labels(self) -> tuple[str, ...]:
        m, p = self.m, self.p
        return tuple(
            source_id(i) if a > p else sink_id(a) if i > m else dot_id(i, a)
            for i, a in self._points
        )

    @cached_property
    def vertices(self) -> frozenset[str]:  # type: ignore[override]
        return frozenset(self._labels)

    @cached_property
    def edges(self) -> tuple[tuple[str, str, Fraction], ...]:  # type: ignore[override]
        one, labels = Fraction(1), self._labels
        return tuple((labels[frm], labels[to], one) for frm, to in self._pairs)

    @cached_property
    def coords(self) -> dict[str, tuple[float, float]]:  # type: ignore[override]
        return {v: (float(a), -float(i)) for v, (i, a) in zip(self._labels, self._points)}


def postnikov_network(diagram: CauchonDiagram) -> PlanarNetwork:
    """Dots on white cells, row edges right-to-left, column edges downward.

    The vertices are numbered as the grid is walked: row by row the source,
    then the row's white dots right to left; the sinks last. Every edge runs
    to a higher number, so the walk's order is the core's topological order.
    Each vertex's point (i, a) places the source s_i at (i, p + 1), the sink
    t_a at (m + 1, a) and a dot in its cell; the edges are listed as vertex
    pairs, rows first.
    """
    m, p, black = diagram.m, diagram.p, diagram.black
    points: list[tuple[int, int]] = []
    pairs: list[tuple[int, int]] = []
    sources: list[int] = []
    columns: list[list[int]] = [[] for _ in range(p)]  # each column's dots, top down
    for i in range(1, m + 1):
        sources.append(len(points))
        points.append((i, p + 1))
        for a in range(p, 0, -1):
            if (cell := (i, a)) not in black:
                pairs.append((len(points) - 1, len(points)))  # from the vertex to the right
                columns[a - 1].append(len(points))
                points.append(cell)
    sink_bit = [0] * len(points) + [1 << a for a in range(1, p + 1)]
    for a, chain in enumerate(columns, 1):  # a fully black column never reaches its sink
        pairs += pairwise(chain + [len(points)])
        points.append((m + 1, a))
    succ: list[list[tuple[int, Fraction | int]]] = [[] for _ in points]
    for frm, to in pairs:
        succ[frm].append((to, 1))
    return _DiagramNetwork(m, p, (succ, sources, sink_bit), points, pairs)


# ---------------------------------------------------------------------------
# Path matrix and disjoint families
# ---------------------------------------------------------------------------


def path_matrix(network: PlanarNetwork) -> Matrix:
    """Weighted source-to-sink path sums by forward propagation over the core."""
    succ, sources, sink_bit = network._core
    vertex_of = {bit: v for v, bit in enumerate(sink_bit) if bit}
    rows = []
    for source in sources:
        acc: list[Fraction | int] = [0] * len(succ)
        acc[source] = 1
        for v in range(source, len(succ)):  # nothing earlier is reachable
            if value := acc[v]:
                for to, weight in succ[v]:
                    acc[to] += value * weight
        rows.append([acc[vertex_of[1 << a]] for a in range(1, network.p + 1)])
    return Matrix(rows)


def nonintersecting_counts(
    network: PlanarNetwork,
    indices: Iterable[MinorIndex],
) -> dict[MinorIndex, Fraction | int]:
    """Signed weighted counts of vertex-disjoint path families, one per minor:
    ``int`` when every edge weight is integral, else ``Fraction``.

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
    succ, sources, sink_bit = network._core  # rejects cycles up front
    minors, columns, shared = _minor_plan(tuple(indices), network.m, network.p)
    limit, spent = guards.PATH_STEP_LIMIT, 0

    paths: dict[int, list[tuple[int, int, int, Fraction | int]]] = {}
    for r, wanted in columns:
        found = paths[1 << r] = []
        stack: list[tuple[int, int, Fraction | int]] = [(sources[r - 1], 1 << sources[r - 1], 1)]
        while stack:
            v, used, weight = stack.pop()
            spent += 1
            if spent > limit:
                guards.ensure(spent, limit, "steps of one path family count")
            if (sink := sink_bit[v]) & wanted:
                found.append((sink, -(sink << 1), used, weight))
            for to, w in succ[v]:
                stack.append((to, used | 1 << to, weight * w))

    states: dict[tuple[int, int, int], Fraction | int] = {(0, 0, 0): 1}
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

    totals: dict[tuple[int, int], Fraction | int] = {}
    for (rows, cols, _), weight in states.items():
        totals[rows, cols] = totals.get((rows, cols), 0) + weight
    return {ix: totals.get((rows, cols), 0) for ix, rows, cols in minors}


@lru_cache(maxsize=16)
def _minor_plan(
    indices: tuple[MinorIndex, ...], m: int, p: int
) -> tuple[tuple[tuple[MinorIndex, int, int], ...], tuple[tuple[int, int], ...], int]:
    """The masks :func:`nonintersecting_counts` needs of its indices on an m x p
    network: each minor with its row and column sets, each needed row, in
    increasing order, with its minors' columns, and the rows every minor uses,
    which no state may leave out. A misfit raises DomainError, never cached."""
    minors = []
    columns: dict[int, int] = {}
    shared = -1
    for ix in indices:
        if not ix.fits(m, p):
            raise DomainError(f"{ix} does not fit a {m}x{p} network")
        rows, cols = sum(1 << r for r in ix.rows), sum(1 << a for a in ix.cols)
        minors.append((ix, rows, cols))
        for r in ix.rows:
            columns[r] = columns.get(r, 0) | cols
        shared &= rows
    return tuple(minors), tuple(sorted(columns.items())), shared
