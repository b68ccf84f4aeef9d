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

Disjoint path families are counted by :func:`nonintersecting_counts`, one
signed dynamic program over (row set, column set, vertex mask) states, grown
row by row; a row is left out only where some requested minor leaves it out.
It is the one counter: ``network lindstrom`` asks it for one minor and
``verify all`` for every minor of each diagram. It shares no code with the
restoration sweep, so comparing it with the restored unit-weight witness, as
``verify all`` does, checks the identity. Its step budget is per call: one
step per vertex walked, then one per (state, path) pair tried. The masks a
call needs of its indices depend on them and the network's size alone, so
they are built once per distinct (indices, m, p) in a small cache that a grid
walk's networks share; a minor that does not fit is refused on every call.
The path matrix, by forward propagation, serves ``network path-matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import pairwise
from typing import Any, Iterable

from . import guards
from .diagrams import CauchonDiagram
from .errors import DomainError, json_int, parse_json
from .matrices import Matrix, MinorIndex, parse_rational


def source_id(i: int) -> str:
    return f"s{i}"


def sink_id(a: int) -> str:
    return f"t{a}"


def dot_id(i: int, a: int) -> str:
    return f"dot:{i},{a}"


@dataclass(frozen=True)
class PlanarNetwork:
    """A weighted DAG with ordered sources and sinks."""

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
    def outgoing(self) -> dict[str, list[tuple[str, Fraction | int]]]:
        """Each vertex's edges as (head, weight), built once.

        Integral weights are plain ints: exact, and far cheaper to multiply.
        """
        table: dict[str, list[tuple[str, Fraction | int]]] = {v: [] for v in self.vertices}
        for frm, to, weight in self.edges:
            table[frm].append(
                (to, weight.numerator if weight.denominator == 1 else weight)
            )
        return table

    @cached_property
    def _order(self) -> tuple[str, ...]:
        indegree = {v: 0 for v in self.vertices}
        for _, to, _ in self.edges:
            indegree[to] += 1
        ready = sorted(v for v, d in indegree.items() if d == 0)
        order = []
        while ready:
            v = ready.pop()
            order.append(v)
            for to, _ in self.outgoing[v]:
                indegree[to] -= 1
                if indegree[to] == 0:
                    ready.append(to)
        if len(order) != len(self.vertices):
            raise DomainError("network contains a directed cycle")
        return tuple(order)

    def topological_order(self) -> tuple[str, ...]:
        """Kahn's algorithm, run once; DomainError when a directed cycle exists."""
        return self._order

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

    @classmethod
    def load_text(cls, text: str) -> "PlanarNetwork":
        return cls.from_json(parse_json(text, "network"))

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


def postnikov_network(diagram: CauchonDiagram) -> PlanarNetwork:
    """Dots on white cells, row edges right-to-left, column edges downward."""
    m, p, black = diagram.m, diagram.p, diagram.black
    coords = {source_id(i): (p + 1.0, -float(i)) for i in range(1, m + 1)}
    coords.update((sink_id(a), (float(a), -(m + 1.0))) for a in range(1, p + 1))
    one = Fraction(1)
    edges: list[tuple[str, str, Fraction]] = []
    for i in range(1, m + 1):
        last = source_id(i)
        for a in range(p, 0, -1):
            if (i, a) not in black:
                dot = dot_id(i, a)
                coords[dot] = (float(a), -float(i))
                edges.append((last, dot, one))
                last = dot
    for a in range(1, p + 1):
        chain = [dot_id(i, a) for i in range(1, m + 1) if (i, a) not in black]
        if chain:  # a fully black column never reaches its sink
            chain.append(sink_id(a))
            edges.extend((frm, to, one) for frm, to in pairwise(chain))
    return PlanarNetwork(m, p, frozenset(coords), tuple(edges), coords)


# ---------------------------------------------------------------------------
# Path matrix and disjoint families
# ---------------------------------------------------------------------------


def path_matrix(network: PlanarNetwork) -> Matrix:
    """Weighted source-to-sink path sums by forward propagation."""
    order = network.topological_order()
    out = network.outgoing
    rows = []
    for i in range(1, network.m + 1):
        acc: dict[str, Fraction | int] = {source_id(i): 1}
        for v in order:
            value = acc.get(v)
            if not value:
                continue
            for to, weight in out[v]:
                acc[to] = acc.get(to, 0) + value * weight
        rows.append([acc.get(sink_id(a), 0) for a in range(1, network.p + 1)])
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
    order = network.topological_order()  # rejects cycles up front
    out = network.outgoing
    bit = {v: 1 << k for k, v in enumerate(order)}
    sink_of = {sink_id(a): 1 << a for a in range(1, network.p + 1)}
    minors, columns, shared = _minor_plan(tuple(indices), network.m, network.p)
    spent = 0

    def spend(steps: int) -> None:
        nonlocal spent
        spent += steps
        guards.ensure(spent, guards.PATH_STEP_LIMIT, "steps of one path family count")

    paths: dict[int, list[tuple[int, int, int, Fraction | int]]] = {}
    for r, wanted in columns:
        found = paths[1 << r] = []
        stack = [(source_id(r), bit[source_id(r)], 1)]
        while stack:
            v, used, weight = stack.pop()
            spend(1)
            if v in sink_of and sink_of[v] & wanted:
                found.append((sink_of[v], -(sink_of[v] << 1), used, weight))
            for to, w in out[v]:
                stack.append((to, used | bit[to], weight * w))

    states: dict[tuple[int, int, int], Fraction | int] = {(0, 0, 0): 1}
    for row, found in paths.items():
        spend(len(states) * len(found))
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
