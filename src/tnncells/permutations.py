"""Restricted permutations, pipe dreams, Bruhat order and minor families.

Permutations act on the left: ``(w @ u)(i) = w(u(i))``. The restricted set
S(m, p) consists of the w in the symmetric group on m + p letters with
-p <= w(i) - i <= m for every i.

A diagram turns into a permutation by reading it as a pipe dream. Its black
cells, read in row-major order, form a reduced word for the permutation
(Postnikov 2006, sections 19-20): cell (i, a) is the adjacent transposition
s_k with k = m - i + a, and the permutation is the product of these, each
swapping two neighbouring positions of the one-line word. So the number of
black cells is the length. The all-black grid maps to the permutation with
maximal displacement and the all-white grid to the identity.

The inverse is a greedy reading of the same cells, Marsh and Rietsch's
positive distinguished subexpression (Represent. Theory 8, 2004). Start from
v = w. At each cell (i, a) in row-major order, with k = m - i + a, if k + 1
stands before k in v, swap the two values (v becomes s_k v) and make the cell
black. w has a diagram exactly when v ends at the identity, which happens
exactly when w is restricted.

Drawn as tiles, black cells are crossings and white cells are elbows, and
each pipe runs up and to the left from its label on the bottom or right edge
to its sink on the left or top edge, which is w of the label. The tests trace
the tiles this way (``oracles.trace_pipe_dream``) as an independent route to
the same permutation.

The minor family of w collects the minors that vanish on its cell. Two
window conditions decide membership: one on the column pool of w, one on
its column windows. Transposing a diagram conjugates its permutation by the
order-reversing w0, so the same two conditions read on the mirror w0 w w0,
at the transposed size and on the transposed minor, give the other two of
the four conditions the survey lists. The family is built as a bitmask over
the grid's minor order, from tables of k-subsets cached per (n, k) and built
on first use: the subsets entrywise below and above each subset, and the
subsets crowding each window. A parsed permutation's letters and a minor
family's work are guarded before anything is built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import comb
from typing import Any, Iterator, Sequence

from . import guards
from .diagrams import CauchonDiagram
from .errors import DomainError
from .matrices import MinorFamily, subset_index, subsets


def inversion_count(images: Sequence[int]) -> int:
    """The number of pairs i < j with images[i] > images[j]."""
    return sum(
        1
        for i in range(len(images))
        for j in range(i + 1, len(images))
        if images[i] > images[j]
    )


@dataclass(frozen=True, order=True)
class Permutation:
    """A permutation of [1..n] in one-line notation."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(int(x) for x in self.images)
        object.__setattr__(self, "images", images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise DomainError(f"{images} is not a permutation of 1..{n}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise DomainError(f"{i} outside 1..{self.n}")
        return self.images[i - 1]

    def __matmul__(self, other: "Permutation") -> "Permutation":
        if self.n != other.n:
            raise DomainError("cannot compose permutations of different sizes")
        return Permutation(tuple(self(other(i)) for i in range(1, self.n + 1)))

    def inverse(self) -> "Permutation":
        images = [0] * self.n
        for i, w in enumerate(self.images, start=1):
            images[w - 1] = i
        return Permutation(tuple(images))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_cycles(cls, n: int, cycles: Any) -> "Permutation":
        images = list(range(1, n + 1))
        for cycle in cycles:
            cycle = [int(x) for x in cycle]
            if len(set(cycle)) != len(cycle):
                raise DomainError(f"repeated element in cycle {cycle}")
            for x in cycle:
                if not 1 <= x <= n:
                    raise DomainError(f"cycle element {x} outside 1..{n}")
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a - 1] = b
        return cls(tuple(images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least element."""
        seen: set[int] = set()
        out = []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            x = self(start)
            while x != start:
                cycle.append(x)
                seen.add(x)
                x = self(x)
            if len(cycle) > 1:
                out.append(tuple(cycle))
        return out

    def one_line(self) -> str:
        if self.n <= 9:
            return "".join(map(str, self.images))
        return ",".join(map(str, self.images))

    def cycle_string(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)

    def __str__(self) -> str:
        return self.one_line()

    def length(self) -> int:
        """Coxeter length: the number of inversions."""
        return inversion_count(self.images)


def _entries(chunk: str, text: str) -> list[int]:
    """The integers of a comma- or space-separated part of permutation ``text``."""
    parts = [x for x in re.split(r"[,\s]+", chunk.strip()) if x]
    if all(x.isascii() and x.isdigit() for x in parts):
        try:
            return [int(x) for x in parts]
        except ValueError:  # more digits than int() converts
            pass
    raise DomainError(f"cannot parse permutation {text!r}")


def parse_permutation(text: str, n: int | None = None) -> Permutation:
    """Read one-line (``135246`` or ``1,3,5,2,4,6``) or cycle (``(2 3 5 4)``) form.

    The letter count (``n`` when given) is guarded before anything is built.
    """
    text = text.strip()
    if not text:
        raise DomainError("empty permutation text")
    if text.startswith("("):
        chunks = re.findall(r"\(([^()]*)\)", text)
        if not re.fullmatch(r"(\([^()]*\)\s*)+", text) or (
            "".join(chunks).strip() == "" and text != "()"
        ):
            raise DomainError(f"cannot parse cycles from {text!r}")
        cycles = [_entries(chunk, text) for chunk in chunks if chunk.strip()]
        size = n if n is not None else max((x for c in cycles for x in c), default=1)
        guards.ensure(size, guards.PERMUTATION_LETTER_LIMIT, "permutation letters")
        return Permutation.from_cycles(size, cycles)
    # without separators, each digit is one entry
    spaced = text if "," in text or " " in text else " ".join(text)
    entries = _entries(spaced, text)
    size = n if n is not None else len(entries)
    guards.ensure(size, guards.PERMUTATION_LETTER_LIMIT, "permutation letters")
    w = Permutation(tuple(entries))
    if n is not None and w.n != n:
        raise DomainError(f"expected a permutation of 1..{n}, got {w.n} entries")
    return w


def is_restricted(w: Permutation, m: int, p: int) -> bool:
    """Does w satisfy the window condition -p <= w(i) - i <= m?"""
    if w.n != m + p:
        return False
    return all(-p <= x - i <= m for i, x in enumerate(w.images, 1))


def enumerate_restricted(m: int, p: int) -> Iterator[Permutation]:
    """All of S(m, p) in lexicographic one-line order.

    Positions are filled left to right from their windows [i - p, i + m].
    Value i - p leaves every later window at position i, so it is forced
    there when still unused; then every branch completes. The enumeration
    guard is checked when the call is made.
    """
    if m < 1 or p < 1:
        raise DomainError("sizes must be at least 1")
    guards.ensure_enumerable(m, p, what="restricted permutation enumeration")
    n = m + p
    images: list[int] = []
    used = [False] * (n + 1)

    def walk(i: int) -> Iterator[Permutation]:
        if i > n:
            yield Permutation(tuple(images))
            return
        expiring = i - p
        if expiring >= 1 and not used[expiring]:
            candidates: Sequence[int] = (expiring,)
        else:
            candidates = range(max(1, i - p), min(n, i + m) + 1)
        for w in candidates:
            if used[w]:
                continue
            used[w] = True
            images.append(w)
            yield from walk(i + 1)
            images.pop()
            used[w] = False

    return walk(1)


def count_restricted(m: int, p: int) -> int:
    return sum(1 for _ in enumerate_restricted(m, p))


# ---------------------------------------------------------------------------
# Pipe dreams
# ---------------------------------------------------------------------------


def pipe_dream(diagram: CauchonDiagram) -> Permutation:
    """The product s_k1 s_k2 ... of the diagram's reduced word: one s_k with
    k = m - i + a for each black cell (i, a), in row-major order."""
    images = list(range(1, diagram.m + diagram.p + 1))
    for i, a in diagram.black_sorted():
        k = diagram.m - i + a
        images[k - 1], images[k] = images[k], images[k - 1]
    return Permutation(tuple(images))


def inverse_pipe_dream(w: Permutation, m: int, p: int) -> CauchonDiagram:
    """The unique diagram whose pipe dream is w; DomainError if w is not restricted.

    The greedy reading (see the module docstring) in m * p steps, on w's
    inverse: at cell (i, a) with k = m - i + a, swapping values k and k + 1
    of w is swapping entries k and k + 1 of its inverse.
    """
    guards.ensure(w.n, guards.PERMUTATION_LETTER_LIMIT, "permutation letters")
    if m < 1 or p < 1:
        raise DomainError("sizes must be at least 1")
    if w.n != m + p:
        raise DomainError(f"{w} is not a permutation of 1..{m + p}")
    position = list(w.inverse().images)
    black = []
    for i in range(1, m + 1):
        for a in range(1, p + 1):
            k = m - i + a
            if position[k] < position[k - 1]:
                position[k - 1], position[k] = position[k], position[k - 1]
                black.append((i, a))
    if position != sorted(position):
        raise DomainError(f"{w} violates the window condition for ({m},{p})")
    return CauchonDiagram._make(m, p, frozenset(black))


# ---------------------------------------------------------------------------
# Bruhat order
# ---------------------------------------------------------------------------


def _rank_matrix(w: Permutation) -> list[list[int]]:
    n = w.n
    ranks = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            ranks[i][j] = (
                ranks[i - 1][j]
                + ranks[i][j - 1]
                - ranks[i - 1][j - 1]
                + (1 if w(i) == j else 0)
            )
    return ranks


def bruhat_leq(u: Permutation, w: Permutation) -> bool:
    """u <= w in Bruhat order, by comparing dot-count rank matrices."""
    if u.n != w.n:
        raise DomainError("Bruhat comparison needs equal sizes")
    ru, rw = _rank_matrix(u), _rank_matrix(w)
    n = u.n
    return all(
        ru[i][j] >= rw[i][j] for i in range(1, n + 1) for j in range(1, n + 1)
    )


# ---------------------------------------------------------------------------
# The minor family of a restricted permutation
# ---------------------------------------------------------------------------


@cache
def _lower(n: int, k: int) -> list[list[int]]:
    """For each k-subset of 1..n (by position in ``subsets(n, k)``), the
    positions of the subsets with one entry lowered by one.

    These are the covers of the entrywise order, so the subsets below t are
    those reached from t by lowering steps. A lowered subset comes earlier
    in lexicographic order.
    """
    index = subset_index(n, k)
    lower: list[list[int]] = [[] for _ in index]
    for t, i in index.items():
        for j in range(k):
            s = index.get(t[:j] + (t[j] - 1,) + t[j + 1:])
            if s is not None:
                lower[i].append(s)
    return lower


def _or_below(seed: list[int], lower: list[list[int]]) -> list[int]:
    """out[t]: the OR of seed[s] over every subset s entrywise below t."""
    out = list(seed)
    for i, steps in enumerate(lower):
        for j in steps:
            out[i] |= out[j]
    return out


def _or_above(seed: list[int], lower: list[list[int]]) -> list[int]:
    """out[t]: the OR of seed[s] over every subset s entrywise above t."""
    out = list(seed)
    for i in reversed(range(len(out))):
        for j in lower[i]:
            out[j] |= out[i]
    return out


@cache
def _down(n: int, k: int) -> list[int]:
    """down(n, k)[t]: the mask of the k-subsets of 1..n entrywise below t."""
    return _or_below([1 << i for i in range(comb(n, k))], _lower(n, k))


@cache
def _up(n: int, k: int) -> list[int]:
    """up(n, k)[t]: the mask of the k-subsets of 1..n entrywise above t."""
    return _or_above([1 << i for i in range(comb(n, k))], _lower(n, k))


@cache
def _crowd(n: int, k: int) -> dict[tuple[int, int, int], int]:
    """crowd(n, k)[(r, s, free)]: the mask of the k-subsets of 1..n with more
    than ``free`` members in [r..s]. Keys whose mask is empty are left out."""
    table: dict[tuple[int, int, int], int] = {}
    for i, t in enumerate(subsets(n, k)):
        for r in range(1, n + 1):
            for s in range(r, n + 1):
                inside = sum(1 for a in t if r <= a <= s)
                for free in range(inside):
                    table[r, s, free] = table.get((r, s, free), 0) | 1 << i
    return table


def _rooms(images: Sequence[int], m: int, p: int) -> list[tuple[int, int, int]]:
    """Condition 3's column windows [r..s] at (m, p), each with its room: the
    number of columns c in [r..s] with w(c) outside [m + r..m + s]. A
    restricted w has w(c) <= m + c <= m + s there, so those are the columns
    with w(c) < m + r. Windows with room for all their columns can never be
    crowded and are left out."""
    out = []
    for r in range(1, p + 1):
        free = 0
        for s in range(r, p + 1):
            free += images[s - 1] < m + r
            if free <= s - r:
                out.append((r, s, free))
    return out


def _pool_pairs(images: Sequence[int], m: int, p: int, k: int) -> list[tuple[int, int]]:
    """Condition 1's k-subsets raw of the column pool {a <= p : w(a) <= m},
    each with its flipped target {m + 1 - w(a) : a in raw}, as positions in
    ``subsets(p, k)`` and ``subsets(m, k)``."""
    pool = [a for a in range(1, p + 1) if images[a - 1] <= m]
    cols, rows = subset_index(p, k), subset_index(m, k)
    return [
        (cols[raw], rows[tuple(sorted(m + 1 - images[a - 1] for a in raw))])
        for raw in combinations(pool, k)
    ]


def minor_family(w: Permutation, m: int, p: int) -> MinorFamily:
    """All minors forced to vanish on the cell labeled by w.

    Two window conditions, read at (m, p), put a minor [rows|cols] of size k
    in the family. Condition 1: no k-subset raw of the column pool
    {a <= p : w(a) <= m} has raw <= cols and rows <= target entrywise, where
    target is raw's flipped image {m + 1 - w(a)}. Condition 3: some column
    window [r..s] holds more of cols than its room (see :func:`_rooms`).
    The mirror w'(i) = n + 1 - w(n + 1 - i) (that is w0 w w0, with n = m + p)
    labels the transposed cell, so the same two conditions read for w' at
    (p, m) on the transposed minor [cols|rows] are the survey's conditions 2
    and 4. A minor is in the family when any of the four holds.

    The family is built as a mask (see :class:`~tnncells.matrices.MinorFamily`)
    one size at a time. For each row set R it collects the column sets C for
    which [R|C] escapes all four conditions: C lies in ``up[raw]`` for a
    pool subset whose target lies above R; C lies in ``down[target]`` for a
    pool subset of the mirror whose raw, a row set here, lies below R; and
    neither C nor R crowds a window. Two sweeps over the row sets gather the
    first two for every R at once, and each R then costs one shift-OR. The
    work of the mask and of both crowding tables is checked against the
    guard first.
    """
    if m < 1 or p < 1:
        raise DomainError("sizes must be at least 1")
    # the mask's bits, plus each subset of either crowding table times the
    # windows it is counted in; counting stops once over the limit
    work = 0
    for k in range(1, min(m, p) + 1):
        rs, cs = comb(m, k), comb(p, k)
        work += rs * cs + cs * p * (p + 1) // 2 + rs * m * (m + 1) // 2
        if work > guards.MINOR_FAMILY_WORK_LIMIT:
            break
    guards.ensure(work, guards.MINOR_FAMILY_WORK_LIMIT, "minor family work")
    if w.n != m + p:
        raise DomainError(f"{w} is not a permutation of 1..{m + p}")
    if not is_restricted(w, m, p):
        raise DomainError(f"{w} violates the window condition for ({m},{p})")
    n = w.n
    mirror = [n + 1 - w.images[n - i] for i in range(1, n + 1)]
    rooms, mirror_rooms = _rooms(w.images, m, p), _rooms(mirror, p, m)
    mask = offset = 0
    for k in range(1, min(m, p) + 1):
        nr, nc = comb(m, k), comb(p, k)
        lower = _lower(m, k)
        up, down = _up(p, k), _down(p, k)
        covered = [0] * nr
        for raw, target in _pool_pairs(w.images, m, p, k):
            covered[target] |= up[raw]
        covered = _or_above(covered, lower)
        mirror_covered = [0] * nr
        for raw, target in _pool_pairs(mirror, p, m, k):
            mirror_covered[raw] |= down[target]
        mirror_covered = _or_below(mirror_covered, lower)
        crowd_p, crowd_m = _crowd(p, k), _crowd(m, k)
        crowded_cols = crowded_rows = 0
        for window in rooms:
            crowded_cols |= crowd_p.get(window, 0)
        for window in mirror_rooms:
            crowded_rows |= crowd_m.get(window, 0)
        escaping = 0
        for r in range(nr):
            if not crowded_rows >> r & 1:
                escaping |= (covered[r] & mirror_covered[r] & ~crowded_cols) << (r * nc)
        mask |= (((1 << (nr * nc)) - 1) ^ escaping) << offset
        offset += nr * nc
    return MinorFamily._from_mask(m, p, mask)
