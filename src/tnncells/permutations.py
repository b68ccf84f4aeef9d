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

The minor family of w collects the minors that vanish on its cell, read off
the cell's Grassmann necklace (Postnikov 2006). With n = m + p, the
decorated permutation π(w(k)) = k + m (mod n) has fixed points in [m]
(coloops) and above m (loops). The necklace starts at I_1, the
anti-excedances {j : π⁻¹(j) > j} plus the coloops, which for a restricted w
is [m]: the window condition gives π⁻¹(j) = w(j + p) >= j for j <= m and
π⁻¹(j) = w(j - m) <= j above m. Then I_{i+1} = I_i - {i} ∪ {π(i)}, except
that I_{i+1} = I_i when i is a loop. Letting the loop i join I_{i+1}, ...,
I_n instead would change no verdict. A loop below i' lies in an interval
[i'..x] only when the interval wraps past n and reaches the loop, which is
above m, so the interval holds all of [m]. Since [m] is the set of the empty
minor, I_{i'} already has m members there, and no m-set exceeds that. The
loop step is kept because it holds every I_i to m members, which bounds the
necklace terms an exhaustive walk meets (see :func:`_necklace_term`). Oh's
theorem turns the necklace into a rank test on cyclic intervals (see
:func:`minor_family`). A parsed permutation's letters and a minor family's
grid are guarded before anything is built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Any, Iterator, Sequence

from . import guards
from .diagrams import CauchonDiagram, enumerate_diagrams
from .errors import DomainError, require_grid
from .matrices import MinorFamily


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
    """All of S(m, p) in lexicographic one-line order: the sorted pipe dreams
    of the m x p diagrams, which :func:`pipe_dream` maps one to one onto S(m, p)
    (see the module docstring). The sizes and the enumeration guard are checked
    when the call is made; the diagrams are enumerated at the first item."""
    require_grid(m, p)
    guards.ensure_enumerable(m, p, what="restricted permutation enumeration")

    def stream() -> Iterator[Permutation]:
        yield from sorted(map(pipe_dream, enumerate_diagrams(m, p)))

    return stream()


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


def pipe_dream_suffix(
    inverse: tuple[int, ...], m: int, i: int, seed: Sequence[int]
) -> tuple[int, ...]:
    """The inverse of s_k1 ... s_kr u, from the inverse of u, for row i's black
    cells (i, a1), ..., (i, ar) in order, 0 in the 0/1 ``seed``, k = m - i + a.
    Multiplying by s_k on the left swaps the values k and k + 1, so entries k
    and k + 1 of the inverse. From the identity, row m first, this builds the
    inverse of :func:`pipe_dream` from the bottom row up."""
    word = list(inverse)
    for a in range(len(seed), 0, -1):
        if not seed[a - 1]:
            k = m - i + a
            word[k - 1], word[k] = word[k], word[k - 1]
    return tuple(word)


def inverse_pipe_dream(w: Permutation, m: int, p: int) -> CauchonDiagram:
    """The unique diagram whose pipe dream is w; DomainError if w is not restricted.

    The greedy reading (see the module docstring) in m * p steps, on w's
    inverse: at cell (i, a) with k = m - i + a, swapping values k and k + 1
    of w is swapping entries k and k + 1 of its inverse.
    """
    require_grid(m, p)
    guards.ensure(w.n, guards.PERMUTATION_LETTER_LIMIT, "permutation letters")
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


# An exhaustive walk uses about n^3 / 8 tables (42 at 3x4, 64 at 4x4, 125 at
# 5x5, 216 at 6x6) and one 11x11 call up to 242; each is one int of a bit per
# minor, 88 KB at 11x11, so 256 of them hold at most about 23 MB.
@lru_cache(maxsize=256)
def _crowded(m: int, p: int, start: int, stop: int, bound: int) -> int:
    """For the cyclic interval J = [start..stop] of 1..m + p, the mask over the
    m x p grid's minors (bit j for the j-th in size-by-size lexicographic
    order, as :class:`~tnncells.matrices.MinorFamily` numbers them) of those
    [R|C] whose set S has more than ``bound`` members in J.

    |S ∩ J| = |J ∩ [m]| - |R ∩ flip(J ∩ [m])| + |C ∩ (J - m)|, so the row set
    fixes how many of C's members J may hold: per size, the column masks are
    built once for each such number, each row set takes one as its run of
    bits, and neighbouring runs are joined pairwise, in linear work a level.
    """
    n = m + p
    inside = [int((j - start) % n <= (stop - start) % n) for j in range(1, n + 1)]
    rows, cols = inside[m - 1::-1], inside[m:]  # row r is m + 1 - r, column c is m + c
    mask = offset = 0  # offset: the bit of the size's first minor
    for k in range(1, min(m, p) + 1):
        at_least = [0] * (k + 2)  # by |C ∩ (J - m)|, then summed from above
        for i, count in enumerate(map(sum, combinations(cols, k))):
            at_least[count] |= 1 << i
        for count in reversed(range(k + 1)):
            at_least[count] |= at_least[count + 1]
        first = bound - sum(rows) + 1  # the least |C ∩ (J - m)| that crowds J
        by_shared = [at_least[min(max(first + shared, 0), k + 1)] for shared in range(k + 1)]
        runs, width = list(map(by_shared.__getitem__, map(sum, combinations(rows, k)))), comb(p, k)
        size = len(runs) * width
        while len(runs) > 1:
            runs.append(0)  # a partner for an odd last run; a spare 0 otherwise
            runs = [low | high << width for low, high in zip(runs[::2], runs[1::2])]
            width *= 2
        mask |= runs[0] << offset
        offset += size
    return mask


def minor_family(w: Permutation, m: int, p: int) -> MinorFamily:
    """All minors forced to vanish on the cell labeled by w.

    With n = m + p, the minor [R|C] is read as the m-subset
    S = ([m] - {m + 1 - r : r in R}) ∪ {m + c : c in C} of 1..n; the empty
    minor is S = [m]. The cell's Grassmann necklace (see the module
    docstring) is I_1 = [m] and I_{i+1} = I_i - {i} ∪ {π(i)}, with
    π(j) = w⁻¹(j) + m (mod n). By Oh's theorem (Oh, "Positroids and
    Schubert matroids", JCTA 2011; Postnikov, "Total positivity,
    Grassmannians, and networks", arXiv:math/0609764) [R|C] is nonzero on
    the cell exactly when S lies above every I_i in the Gale order from i:
    when no cyclic interval J = [i..x] holds more of S than of I_i. The mask
    is built by :func:`_necklace_mask` with a term memo of its own.

    The grid's size is checked against the guard first.
    """
    require_grid(m, p)
    guards.ensure_minor_family(m, p)
    if w.n != m + p:
        raise DomainError(f"{w} is not a permutation of 1..{m + p}")
    if not is_restricted(w, m, p):
        raise DomainError(f"{w} violates the window condition for ({m},{p})")
    inverse = [0] * w.n
    for k, x in enumerate(w.images, 1):
        inverse[x - 1] = k
    return MinorFamily._from_mask(m, p, _necklace_mask(inverse, m, p, {}))


def _necklace_mask(
    inverse: Sequence[int], m: int, p: int, terms: dict[tuple[int, int], int]
) -> int:
    """The family mask of the restricted permutation whose one-line inverse is
    ``inverse`` (see :func:`minor_family`), which is not checked: the OR over
    i of :func:`_necklace_term`, each I_i one :func:`_necklace_step` from the
    last, from I_1 = [m]. ``terms`` is the caller's term memo."""
    n, necklace = m + p, (1 << m) - 1
    mask = _necklace_term(m, p, 1, necklace, terms)
    for i in range(1, n):
        necklace = _necklace_step(m, n, i, necklace, inverse[i - 1])
        mask |= _necklace_term(m, p, i + 1, necklace, terms)
    return mask


def _necklace_step(m: int, n: int, i: int, necklace: int, image: int) -> int:
    """I_{i+1} from I_i, the bitmask ``necklace`` (bit j - 1 for j), and
    ``image``, the inverse's entry i: I_i - {i} ∪ {π(i)}, with
    π(i) = image + m (mod n), or I_i when i is a loop, outside I_i (see the
    module docstring)."""
    if necklace >> i - 1 & 1:
        return necklace & ~(1 << i - 1) | 1 << (image + m - 1) % n
    return necklace


def _necklace_term(
    m: int, p: int, i: int, necklace: int, terms: dict[tuple[int, int], int]
) -> int:
    """The mask of the minors that crowd some interval J = [i..x] tested
    against I_i, the m-set ``necklace`` as a bitmask (bit j - 1 for j).

    Only x outside I_i and before I_i's m-th member in the cyclic order from
    i need testing, since a member of I_i adds one to its count and at most
    one to S's, and from the m-th member on I_i's count is m; each test is
    one cached mask of :func:`_crowded`. A term depends only on i and I_i,
    so it is kept in ``terms``, keyed by (i, necklace), which the caller
    owns, passes again for the same grid and drops when done; no term is
    cached beyond it. An exhaustive check meets at most n * C(n, m) terms:
    90 of 245 at 3x4, against 1,066 diagrams, and 181 of 560 at 4x4,
    against 6,902.
    """
    term = terms.get((i, necklace))
    if term is None:
        n, term, seen = m + p, 0, 0
        ring = necklace | necklace << n  # bits x - 1 and x + n - 1 both hold x
        for x in range(i, i + n):
            if ring >> x - 1 & 1:
                seen += 1
                if seen == m:
                    break
            else:
                term |= _crowded(m, p, i, (x - 1) % n + 1, seen)
        terms[i, necklace] = term
    return term
