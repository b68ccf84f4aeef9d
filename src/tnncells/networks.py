"""Planar networks, path matrices and the disjoint-path-family oracle.

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
signed dynamic program over vertex bitmasks: each needed source is walked
once, and the families of a minor grow one row at a time, keyed by the
columns they use and the vertices they cover. A path to column c flips the
sign once for each column already taken that is greater than c, so each
family carries its pairing's sign. Prefixes of rows are shared by every
minor that starts with them. It shares no code with the restoration sweep, so
comparing it with the restored unit-weight witness, as ``verify all`` does,
checks the identity. Its step budget is per call: one step per vertex walked,
and one per (partial family, path) pair tried.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
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
    m, p = diagram.m, diagram.p
    vertices = {source_id(i) for i in range(1, m + 1)}
    vertices.update(sink_id(a) for a in range(1, p + 1))
    coords: dict[str, tuple[float, float]] = {}
    for i in range(1, m + 1):
        coords[source_id(i)] = (p + 1.0, -float(i))
    for a in range(1, p + 1):
        coords[sink_id(a)] = (float(a), -(m + 1.0))
    whites = diagram.white_cells()
    for (i, a) in whites:
        vertices.add(dot_id(i, a))
        coords[dot_id(i, a)] = (float(a), -float(i))

    one = Fraction(1)
    edges: list[tuple[str, str, Fraction]] = []
    for i in range(1, m + 1):
        row = sorted((a for (r, a) in whites if r == i), reverse=True)
        chain = [source_id(i)] + [dot_id(i, a) for a in row]
        edges.extend((frm, to, one) for frm, to in zip(chain, chain[1:]))
    for a in range(1, p + 1):
        col = sorted(r for (r, c) in whites if c == a)
        if not col:
            continue  # a fully black column never reaches its sink
        chain = [dot_id(r, a) for r in col] + [sink_id(a)]
        edges.extend((frm, to, one) for frm, to in zip(chain, chain[1:]))
    return PlanarNetwork(m, p, frozenset(vertices), tuple(edges), coords)


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

    Every vertex gets one bit, and each needed source is walked once,
    recording every path it has to every sink as (vertex mask, weight). The
    families of a minor [R|C] grow over the rows of R in increasing order: a
    state maps (column set, vertex mask) to a signed weight, and appending
    row r with a path to column c multiplies by the path's weight and flips
    the sign once for each column already in the set that is greater than c,
    which counts the inversions of the pairing. Equal keys merge, and the
    states of a row prefix are built once for every minor that shares it;
    [R|C] is the total weight of R's states whose column set is C. That sums
    every pairing of sources to sinks with its permutation sign, the
    determinant identity for arbitrary DAGs; on planar networks the twisted
    pairings admit no disjoint family, so each value is the plain (weighted)
    number of nonintersecting families. One budget of
    ``guards.PATH_STEP_LIMIT`` steps covers the whole call: one step per
    vertex the walks visit, and len(states) x len(paths) per extension of a
    prefix by a row, charged before the extension runs.
    """
    order = network.topological_order()  # rejects cycles up front
    indices = list(indices)
    for ix in indices:
        if not ix.fits(network.m, network.p):
            raise DomainError(f"{ix} does not fit a {network.m}x{network.p} network")
    out = network.outgoing
    bit = {v: 1 << k for k, v in enumerate(order)}
    sink_of = {sink_id(a): a for a in range(1, network.p + 1)}
    limit = guards.PATH_STEP_LIMIT
    spent = 0

    def spend(steps: int) -> None:
        nonlocal spent
        spent += steps
        guards.ensure(spent, limit, "steps of one path family count")

    # column sets as bitmasks; wanted[prefix]: the columns some requested
    # minor with that row prefix uses
    col_masks = [sum(1 << a for a in ix.cols) for ix in indices]
    wanted: dict[tuple[int, ...], int] = {}
    for ix, cols in zip(indices, col_masks):
        for k in range(1, ix.size + 1):
            wanted[ix.rows[:k]] = wanted.get(ix.rows[:k], 0) | cols

    # paths[i]: every path source i -> some sink as (column bit, vertex mask, weight)
    paths: dict[int, list[tuple[int, int, Fraction | int]]] = {}
    for i in sorted({prefix[-1] for prefix in wanted}):
        found = paths[i] = []
        start = source_id(i)
        stack = [(start, bit[start], 1)]
        while stack:
            v, mask, weight = stack.pop()
            spend(1)
            if v in sink_of:
                found.append((1 << sink_of[v], mask, weight))
            for to, w in out[v]:
                stack.append((to, mask | bit[to], weight * w))

    states: dict[tuple[int, ...], dict[tuple[int, int], Fraction | int]] = {
        (): {(0, 0): 1}
    }
    for prefix in sorted(wanted):  # a prefix sorts before its extensions
        keep = wanted[prefix]
        before = [
            (cols, mask, weight)
            for (cols, mask), weight in states[prefix[:-1]].items()
            if not cols & ~keep
        ]
        options = [
            (col, -(col << 1), mask, weight)  # the bits above col
            for col, mask, weight in paths[prefix[-1]]
            if col & keep
        ]
        spend(len(before) * len(options))
        grown: dict[tuple[int, int], Fraction | int] = {}
        for cols, used, weight in before:
            for col, above, mask, path_weight in options:
                if used & mask:  # also when col is taken: its sink is in both
                    continue
                key = (cols | col, used | mask)
                value = weight * path_weight
                if (cols & above).bit_count() & 1:
                    value = -value
                grown[key] = grown.get(key, 0) + value
        states[prefix] = grown

    counts: dict[MinorIndex, Fraction | int] = {}
    totals: dict[tuple[int, ...], dict[int, Fraction | int]] = {}
    for ix, cols in zip(indices, col_masks):
        by_cols = totals.get(ix.rows)
        if by_cols is None:
            by_cols = totals[ix.rows] = {}
            for (final, _), weight in states[ix.rows].items():
                by_cols[final] = by_cols.get(final, 0) + weight
        counts[ix] = by_cols.get(cols, 0)
    return counts


def nonintersecting_count(network: PlanarNetwork, ix: MinorIndex) -> Fraction | int:
    """The signed weighted count of disjoint path families for one minor.

    See :func:`nonintersecting_counts`; the step budget covers this one call.
    """
    return nonintersecting_counts(network, [ix])[ix]
