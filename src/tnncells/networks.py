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
points beside the names. :meth:`GridNetwork.add_row` draws a diagram's rows
on the numbering of an all-white grid (row by row the source, then the dots
right to left; the sinks last), and :func:`postnikov_network` builds a
diagram's network from them. :meth:`PlanarNetwork.from_json` orders a named
network's vertices with one pass of ``graphlib``, and refuses a cycle, an
unknown vertex or a name that is not a string as it reads them.

:func:`nonintersecting_count` counts the disjoint path families of one minor
for ``network lindstrom``, and ``verify all`` counts every minor's on a
:class:`GridNetwork` as its diagram walk fixes each row. Both add rows from
the bottom up through one step (:func:`_row_step`): it walks the paths from
the row's source (:func:`_paths`) and grows the path-family states by them
(:func:`_extend`). A diagram's network is planar, so the walk counts only
the order-preserving families and a family that is not disjoint shows in its
counts instead of cancelling; a JSON network may be any DAG, so ``network
lindstrom`` keeps the signed sum.
Neither shares code with the restoration, so comparing the counts with the
restored unit-weight witness, as ``verify all`` does, checks the identity. The path
matrix serves ``network path-matrix``; a diagram's is charged to its guard
before its network is built (:func:`diagram_path_matrix`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
from itertools import accumulate, chain, count
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

    The rows of a :class:`GridNetwork`, added from the bottom up, with the
    black cells' vertices dropped and the others kept in the grid's order. A
    vertex at (i, a) is drawn at (a, -i): the source s_i at (i, p + 1), the
    sink t_a at (m + 1, a) and a dot in its cell. The edges are listed rows
    first, then columns left to right, each top down.
    """
    m, p, black, w = diagram.m, diagram.p, diagram.black, diagram.p + 1
    grid = GridNetwork(m, p)
    heads = grid.sinks  # the columns' top vertices so far
    for i in range(m, 0, -1):
        heads = grid.add_row(i, [(i, a) not in black for a in range(1, w)], heads)[1]
    kept = {}  # grid vertex -> (name, drawing point), in the grid's order
    for i in range(1, m + 1):
        kept[(i - 1) * w] = source_id(i), (w, -i)
        for a in range(p, 0, -1):
            if (i, a) not in black:
                kept[i * w - a] = dot_id(i, a), (a, -i)
    for a in range(1, w):
        kept[m * w + a - 1] = sink_id(a), (a, -m - 1)
    number = dict(zip(kept, count()))
    renumbered = {e: (number[e[0]], number[e[1]], 1) for v in kept for e in grid.out_edges[v]}
    # by (0 for a row edge, else its column; its tail)
    listed = sorted(renumbered, key=lambda e: (e[0] // w != e[1] // w and w - e[0] % w, e[0]))
    names, points = zip(*kept.values())
    # tuples, which the collector soon stops tracking: a large grid builds faster
    out_edges = [tuple(map(renumbered.get, grid.out_edges[v])) for v in kept]
    return PlanarNetwork(
        m, p, names, tuple(map(renumbered.get, listed)), points, out_edges,
        [number[source] for source in range(0, m * w, w)], [grid.sink_bit[v] for v in kept],
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
    _ensure_path_steps(sum(later[source] for source in network.sources))
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


def diagram_path_matrix(diagram: CauchonDiagram) -> Matrix:
    """:func:`path_matrix` of :func:`postnikov_network`, its steps charged before
    the network is built: row r holds its source and its w white dots, with
    2w edges out of them (one along the row into each dot, one down from
    each), so the vertices from s_i on, with their edges, number the p sinks
    plus 1 + 3w for each row r >= i."""
    m, p = diagram.m, diagram.p
    white = [p] * (m + 1)
    for i, _ in diagram.black:
        white[i] -= 1
    _ensure_path_steps(sum(r * (1 + 3 * white[r]) for r in range(1, m + 1)) + m * p)
    return path_matrix(postnikov_network(diagram))


def _ensure_path_steps(steps: int) -> None:
    guards.ensure(steps, guards.PATH_STEP_LIMIT, "steps of one path matrix")


def nonintersecting_count(network: PlanarNetwork, index: MinorIndex) -> Weight:
    """The signed weighted count of vertex-disjoint path families of the minor
    ``index``: ``int`` when every edge weight is integral, else ``Fraction``.

    The minor's rows are added in decreasing order by :func:`_row_step`, each
    above the rows before it, and the states' sum is every pairing with its
    sign: the determinant identity on any DAG and, on planar networks, the
    plain weighted count. One budget of ``guards.PATH_STEP_LIMIT`` steps
    covers the call.
    """
    if not index.fits(network.m, network.p):
        raise DomainError(f"{index} does not fit a {network.m}x{network.p} network")
    cols, spent = sum(1 << a for a in index.cols), 0
    states: State = {(0, 0, 0): 1}
    for r in reversed(index.rows):
        states, spent = _row_step(network, network.sources[r - 1], 1 << r, cols, [states], spent)
    return sum(states.values())


Path = tuple[int, int, int, Weight]  # (sink bit, sign mask, vertex mask, weight)
State = dict[tuple[int, int, int], Weight]  # (row set, column set, vertex mask) -> signed weight


def _row_step(network: Any, source: int, row: int, wanted: int, states: Sequence[State],
              spent: int, planar: bool = False) -> tuple[State, int]:
    """Add the row with bit ``row`` above every row the ``states`` hold: walk the
    paths from its vertex ``source`` to the sinks in ``wanted`` (:func:`_paths`),
    charge len(states) x len(paths) steps to ``guards.PATH_STEP_LIMIT``, grow the
    states by them (:func:`_extend`); return those and ``spent`` plus the steps."""
    found, spent = _paths(network, source, wanted, spent)
    spent += sum(map(len, states)) * len(found)
    guards.ensure(spent, guards.PATH_STEP_LIMIT, "steps of one path family count")
    return _extend(chain.from_iterable(map(dict.items, states)), row, found, planar), spent


def _paths(network: Any, source: int, wanted: int, spent: int) -> tuple[list[Path], int]:
    """Every path from vertex ``source`` to a sink in the mask ``wanted`` of a
    network's ``out_edges`` and ``sink_bit``, depth first, and ``spent`` plus
    the vertices visited, refused once over ``guards.PATH_STEP_LIMIT``. A
    path's sign mask holds the sink bits below its own: its row is added above
    the rows of the states, so each taken column below its sink is one
    inversion of the pairing."""
    out_edges, sink_bit, limit = network.out_edges, network.sink_bit, guards.PATH_STEP_LIMIT
    found = []
    stack: list[tuple[int, int, Weight]] = [(source, 1 << source, 1)]
    while stack:
        v, used, weight = stack.pop()
        spent += 1
        if spent > limit:
            guards.ensure(spent, limit, "steps of one path family count")
        if (sink := sink_bit[v]) & wanted:
            found.append((sink, sink - 1, used, weight))
        for _, to, w in out_edges[v]:
            stack.append((to, used | 1 << to, weight * w))
    return found, spent


def _extend(states: Iterable[tuple[tuple[int, int, int], Weight]], row: int,
            found: Sequence[Path], planar: bool = False) -> State:
    """The states grown by one path of ``found`` from the row with bit ``row``,
    a row above every row they hold: each path that misses a state's
    vertices, times its weight, the sign flipped once per taken column in the
    path's sign mask (see :func:`_paths`). ``planar`` is for a planar network
    with its sources and sinks in boundary order, where only the
    order-preserving pairing has disjoint families (Lindström–Gessel–Viennot):
    a path with a taken column in its sign mask is skipped instead, so every
    count is a plain sum, and a family that is not disjoint would show in it
    rather than cancel against a crossed pairing."""
    grown: State = {}
    for (rows, cols, used), weight in states:
        for col, sign_mask, vertices, path_weight in found:
            if used & vertices:  # also when col is taken: its sink is in both
                continue
            value = weight * path_weight
            if crossed := cols & sign_mask:
                if planar:
                    continue
                if crossed.bit_count() & 1:
                    value = -value
            key = (rows | row, cols | col, used | vertices)
            grown[key] = grown.get(key, 0) + value
    return grown


class GridNetwork:
    """The network of a diagram's rows from some row i down, added from the bottom
    up, numbered as :func:`postnikov_network` numbers an all-white grid: source
    s_r is (r - 1)(p + 1), dot (r, a) is (r - 1)(p + 1) + p + 1 - a and sink t_a
    is m(p + 1) + a - 1, so every edge runs to a higher number. :func:`_paths`
    reads its ``out_edges`` and ``sink_bit``. A column's head is its top vertex
    so far; ``sinks`` are the heads before any row is added."""

    def __init__(self, m: int, p: int) -> None:
        grid = m * (p + 1)
        self.m, self.p = m, p
        self.sink_bit = [0] * grid + [1 << a for a in range(1, p + 1)]
        self.out_edges: list[Sequence[Edge]] = [()] * len(self.sink_bit)
        self.sinks = tuple(range(grid, grid + p))

    def add_row(self, i: int, seed: Sequence[int], heads: Sequence[int]) -> tuple[int, tuple[int, ...]]:
        """Give source s_i and row i's white dots (1 in ``seed``) their edges:
        along the row to the next white dot on the left, then down the column
        to its head. The edges of rows below stay; rows above are rewritten
        when the walk reaches them. Returns the source's vertex and the heads
        with row i's dots on top."""
        source = (i - 1) * (self.p + 1)
        out_edges, heads = self.out_edges, list(heads)
        tail, down = source, ()
        for a in range(self.p, 0, -1):
            if seed[a - 1]:
                v = source + self.p + 1 - a
                out_edges[tail] = ((tail, v, 1),) + down
                down = ((v, heads[a - 1], 1),)
                heads[a - 1] = tail = v
        out_edges[tail] = down
        return source, tuple(heads)
