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

Disjoint path families are counted by :func:`nonintersecting_counts`, which
enumerates the paths of each needed source once and assembles the families
of many minors from that one table; it shares no code with
:func:`path_matrix`, so comparing the two checks the identity. Its step
budget is per call, shared across all the minors and pairings it counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations as iter_perms
from typing import Any, Iterable

from . import guards
from .diagrams import CauchonDiagram
from .errors import DomainError, json_int, parse_json
from .matrices import Matrix, MinorIndex, parse_rational
from .permutations import inversion_count
from .scalars import QQ


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

    def outgoing(self) -> dict[str, list[tuple[str, Fraction]]]:
        table: dict[str, list[tuple[str, Fraction]]] = {v: [] for v in self.vertices}
        for frm, to, weight in self.edges:
            table[frm].append((to, weight))
        return table

    def topological_order(self) -> list[str]:
        """Kahn's algorithm; DomainError when a directed cycle exists."""
        indegree = {v: 0 for v in self.vertices}
        for _, to, _ in self.edges:
            indegree[to] += 1
        ready = sorted(v for v, d in indegree.items() if d == 0)
        out = self.outgoing()
        order = []
        while ready:
            v = ready.pop()
            order.append(v)
            for to, _ in out[v]:
                indegree[to] -= 1
                if indegree[to] == 0:
                    ready.append(to)
        if len(order) != len(self.vertices):
            raise DomainError("network contains a directed cycle")
        return order

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
    out = network.outgoing()
    rows = []
    for i in range(1, network.m + 1):
        acc: dict[str, Fraction] = {source_id(i): Fraction(1)}
        for v in order:
            value = acc.get(v)
            if not value:
                continue
            for to, weight in out[v]:
                acc[to] = acc.get(to, 0) + value * weight
        rows.append([
            acc.get(sink_id(a), Fraction(0)) for a in range(1, network.p + 1)
        ])
    return Matrix(QQ, rows)


def nonintersecting_counts(
    network: PlanarNetwork,
    indices: Iterable[MinorIndex],
) -> dict[MinorIndex, Fraction]:
    """Signed weighted counts of vertex-disjoint path families, one per minor.

    Each needed source is walked once, recording every path it has to every
    sink as (vertex set, weight); the families of all the minors are then
    assembled from that table. Every pairing of sources to sinks is summed
    with its permutation sign, which is the determinant identity for
    arbitrary DAGs; on planar networks the twisted pairings admit no disjoint
    family, so each value is the plain (weighted) number of nonintersecting
    families. One budget of ``guards.PATH_STEP_LIMIT`` steps covers the whole
    call: every vertex the walks visit and every path tried against a partial
    family, across all minors and pairings.
    """
    network.topological_order()  # rejects cycles up front
    indices = list(indices)
    for ix in indices:
        if not ix.fits(network.m, network.p):
            raise DomainError(f"{ix} does not fit a {network.m}x{network.p} network")
    # integral weights as plain ints: exact, and far cheaper to multiply
    out = {
        v: [(to, w.numerator if w.denominator == 1 else w) for to, w in edges]
        for v, edges in network.outgoing().items()
    }
    sink_of = {sink_id(a): a for a in range(1, network.p + 1)}
    limit = guards.PATH_STEP_LIMIT
    budget = limit

    def spend(steps: int) -> None:
        nonlocal budget
        budget -= steps
        if budget < 0:
            guards.ensure(limit - budget, limit, "steps of one path family count")

    # paths[i][a]: every path source i -> sink a as (vertex set, weight)
    paths: dict[int, dict[int, list[tuple[frozenset[str], Fraction | int]]]] = {}

    def walk(v: str, used: list[str], weight: Fraction | int, found: dict) -> None:
        spend(1)
        if v in sink_of:
            found[sink_of[v]].append((frozenset(used), weight))
        for to, w in out[v]:
            used.append(to)
            walk(to, used, weight * w, found)
            used.pop()

    for i in sorted({i for ix in indices for i in ix.rows}):
        paths[i] = {a: [] for a in range(1, network.p + 1)}
        walk(source_id(i), [source_id(i)], 1, paths[i])

    signed_pairings: dict[int, list[tuple[tuple[int, ...], int]]] = {}
    counts: dict[MinorIndex, Fraction] = {}
    for ix in indices:
        k = ix.size
        if k not in signed_pairings:
            signed_pairings[k] = [
                (pairing, -1 if inversion_count(pairing) % 2 else 1)
                for pairing in iter_perms(range(k))
            ]
        total: Fraction | int = 0
        for pairing, sign in signed_pairings[k]:
            # extend the disjoint partial families one source at a time
            families: list[tuple[frozenset[str], Fraction | int]] = [(frozenset(), 1)]
            for i, c in zip(ix.rows, pairing):
                options = paths[i][ix.cols[c]]
                spend(len(families) * len(options))
                families = [
                    (used | vertices, weight * path_weight)
                    for used, weight in families
                    for vertices, path_weight in options
                    if used.isdisjoint(vertices)
                ]
            total += sign * sum(weight for _, weight in families)
        counts[ix] = Fraction(total)
    return counts


def nonintersecting_count(network: PlanarNetwork, ix: MinorIndex) -> Fraction:
    """The signed weighted count of disjoint path families for one minor.

    See :func:`nonintersecting_counts`; the step budget covers this one call.
    """
    return nonintersecting_counts(network, [ix])[ix]
