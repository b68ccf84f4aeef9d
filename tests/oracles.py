"""Slow reference implementations the fast code is tested against.

Everything here takes the most literal route available: permutation-sum
determinants, quantifier scans over fillings, exhaustive path walks.
None of it shares algorithms with the package, except :class:`FullRowOneWalk`,
the diagram walk with its one shortcut taken out.
"""

from fractions import Fraction
from itertools import combinations, product
from itertools import permutations as iter_perms

from tnncells import cells, guards
from tnncells.diagrams import CauchonDiagram, enumerate_diagrams
from tnncells.quantum import QPoly
from tnncells.scalars import LaurentQ, MPoly, add_terms, evaluate_expression, int_const


def leibniz_det(rows):
    """Determinant as the signed sum over all permutations, in any ring.

    The entries need only ``+ - *``. It costs n! products, so symbolic use
    stays at 3x3 and below.
    """
    n = len(rows)
    assert n and all(len(r) == n for r in rows)
    total = 0
    for sigma in iter_perms(range(n)):
        term = 1
        for i in range(n):
            term = term * rows[i][sigma[i]]
        if inversion_count(sigma) % 2:
            total = total - term
        else:
            total = total + term
    return total


def leibniz_minor(rows, rowset, colset):
    sub = [[rows[i - 1][a - 1] for a in colset] for i in rowset]
    return leibniz_det(sub)


def leibniz_witness(rows):
    """The brute-force TNN witness rule from Leibniz minors: the most
    negative minor of the smallest failing size, first in (rows, cols) order
    on ties, as ((rows, cols), value); None for a TNN matrix."""
    m, p = len(rows), len(rows[0])
    for k in range(1, min(m, p) + 1):
        negative = [
            (leibniz_minor(rows, r, c), r, c)
            for r in combinations(range(1, m + 1), k)
            for c in combinations(range(1, p + 1), k)
        ]
        negative = [t for t in negative if t[0] < 0]
        if negative:
            value, r, c = min(negative)
            return (r, c), value
    return None


def sweep_step(rows, j, beta, sign):
    """Cauchon's step at (j, beta) in plain ``Fraction`` arithmetic, as new rows.

    x[i,a] -> x[i,a] + sign * x[i,beta] * x[j,a] / x[j,beta] for i < j and
    a < beta; a zero pivot leaves the matrix as it is.
    """
    out = [[Fraction(x) for x in row] for row in rows]
    pivot = out[j - 1][beta - 1]
    if pivot != 0:
        for i in range(j - 1):
            for a in range(beta - 1):
                out[i][a] += sign * out[i][beta - 1] * out[j - 1][a] / pivot
    return out


def sweep_stages(rows, sign):
    """(step, rows after it) for the whole sweep: restoration (sign +1) from
    (1,1) up to (m,p), deleting derivations (sign -1) from (m,p) down."""
    steps = list(product(range(1, len(rows) + 1), range(1, len(rows[0]) + 1)))
    stages = []
    for j, beta in steps if sign > 0 else reversed(steps):
        rows = sweep_step(rows, j, beta, sign)
        stages.append(((j, beta), rows))
    return stages


def read_laurent(text, names):
    """Printed polynomial text read back into an MPoly over ``names``, term by term."""
    return evaluate_expression(
        text,
        const=lambda c: MPoly.const(names, int_const(c)),
        symbol=lambda name: MPoly.var(names, name),
    )


def all_white(m, p):
    """The m x p diagram with every cell white."""
    return CauchonDiagram(m, p, frozenset())


def all_black(m, p):
    """The m x p diagram with every cell black."""
    return CauchonDiagram(
        m, p, frozenset((i, a) for i in range(1, m + 1) for a in range(1, p + 1))
    )


def count_diagrams(m, p):
    """The number of m x p diagrams, by enumerating them."""
    return sum(1 for _ in enumerate_diagrams(m, p))


def count_restricted(m, p):
    """The number of restricted permutations of S(m, p): the permutations w of
    1..m+p with -p <= w(i) - i <= m for every i, by trying them all."""
    return sum(
        all(-p <= x - i <= m for i, x in enumerate(images, 1))
        for images in iter_perms(range(1, m + p + 1))
    )


def first_bad_black_cell(m, p, black):
    """Direct quantifier scan: the first black cell, row-major, that sees white
    both left and up, or None."""
    for j in range(1, m + 1):
        for b in range(1, p + 1):
            if (j, b) not in black:
                continue
            white_left = any((j, a) not in black for a in range(1, b))
            white_up = any((i, b) not in black for i in range(1, j))
            if white_left and white_up:
                return (j, b)
    return None


def has_bad_black_cell(m, p, black):
    return first_bad_black_cell(m, p, black) is not None


def non_le_fillings(m, p):
    """All 0/1 grids that are not Le-diagrams, in ascending bitmask order.

    Output uses Le notation (0 = black). The full 2^(m*p) search space is
    scanned with the quantifier scan, so sizes are capped by the enumeration
    guard.
    """
    guards.ensure_enumerable(m, p, what="filling enumeration")
    cells = [(i, a) for i in range(1, m + 1) for a in range(1, p + 1)]
    bad = []
    for bits in product((0, 1), repeat=m * p):
        black = frozenset(c for c, bit in zip(cells, bits) if bit)
        if has_bad_black_cell(m, p, black):
            bad.append([
                [0 if (i, a) in black else 1 for a in range(1, p + 1)]
                for i in range(1, m + 1)
            ])
    return bad


def zero_pattern(matrix):
    """The cells (i, a), 1-based, where the matrix has a zero entry."""
    return frozenset(
        (i, a)
        for i, row in enumerate(matrix.rows, 1)
        for a, x in enumerate(row, 1)
        if not x
    )


def trace_pipe_dream(m, p, black):
    """The one-line images of the m x p diagram's pipe dream, tile by tile.

    Black cells are crossings (the pipe keeps its heading), white cells are
    elbows joining the cell's top side to its right side and its left side
    to its bottom side, so every pipe travels up and to the left. Pipes
    enter at the bottom edge (column a carries label a) and the right edge
    (row i carries label m + p + 1 - i); they leave at the left edge (row i
    is sink m + 1 - i) or the top edge (column a is sink m + a). Label s
    leaving at sink t means w(s) = t.
    """
    n = m + p
    images = [0] * n
    for label in range(1, n + 1):
        if label <= p:
            i, a, heading = m, label, "up"
        else:
            i, a, heading = n + 1 - label, p, "left"
        while True:
            if (i, a) not in black:
                heading = "left" if heading == "up" else "up"
            if heading == "up":
                i -= 1
                if i < 1:
                    images[label - 1] = m + a
                    break
            else:
                a -= 1
                if a < 1:
                    images[label - 1] = m + 1 - i
                    break
        # each pipe moves only up or left, so it leaves the grid
    return tuple(images)


def inversion_count(images):
    n = len(images)
    return sum(
        1
        for i in range(n)
        for j in range(i + 1, n)
        if images[i] > images[j]
    )


def all_paths(adjacency, start, goal, banned=frozenset()):
    """Every simple path start -> goal as a vertex tuple, by plain DFS."""
    out = []
    stack = [(start, (start,))]
    while stack:
        node, path = stack.pop()
        if node == goal:
            out.append(path)
            continue
        for nxt, _ in adjacency.get(node, ()):
            if nxt not in path and nxt not in banned:
                stack.append((nxt, path + (nxt,)))
    return out


def adjacency_of(network):
    """The network's edges as {tail: [(head, weight), ...]}, by vertex name."""
    adjacency, names = {}, network.names
    for tail, head, weight in network.edges:
        adjacency.setdefault(names[tail], []).append((names[head], weight))
    return adjacency


def path_weight(adjacency, path):
    w = Fraction(1)
    for a, b in zip(path, path[1:]):
        w *= dict((v, wt) for v, wt in adjacency[a])[b]
    return w


def turn_monomials(network, source, sink):
    """Each path source -> sink as its turn exponents {cell: power}.

    Everything is read off the network's drawing: a dot at (x, y) sits in
    cell (-y, x), and an edge that keeps x runs down a column. A path gains
    +1 at the cell where it turns from a row into a column and -1 where it
    turns from a column into a row.
    """
    adjacency = adjacency_of(network)
    xy = network.coords
    out = []
    for path in all_paths(adjacency, source, sink):
        powers = {}
        for before, here, after in zip(path, path[1:], path[2:]):
            came_down = xy[before][0] == xy[here][0]
            goes_down = xy[here][0] == xy[after][0]
            if came_down != goes_down:
                cell = (round(-xy[here][1]), round(xy[here][0]))
                powers[cell] = powers.get(cell, 0) + (1 if goes_down else -1)
        out.append(powers)
    return out


def path_sum(network, source, sink):
    """Weighted path count by exhaustive walk, for cross-checking the DP."""
    adjacency = adjacency_of(network)
    return sum(
        (path_weight(adjacency, p) for p in all_paths(adjacency, source, sink)),
        Fraction(0),
    )


def disjoint_family_count(network, ix):
    """Signed weighted count of vertex-disjoint path families rows -> cols.

    For every pairing of the sources s<i> (i in ix.rows) to the sinks t<a>
    (a in ix.cols), every tuple of paths from ``all_paths`` whose vertex
    sets are pairwise disjoint adds the product of its path weights, with
    the pairing's sign.
    """
    adjacency = adjacency_of(network)
    sources = [f"s{i}" for i in ix.rows]
    sinks = [f"t{a}" for a in ix.cols]
    total = Fraction(0)
    for pairing in iter_perms(range(len(sources))):
        sign = -1 if inversion_count(pairing) % 2 else 1
        options = [
            all_paths(adjacency, source, sinks[c])
            for source, c in zip(sources, pairing)
        ]
        for family in product(*options):
            if all(set(a).isdisjoint(b) for a, b in combinations(family, 2)):
                weight = Fraction(1)
                for path in family:
                    weight *= path_weight(adjacency, path)
                total += sign * weight
    return total


def _window_condition(images, m, p, rows, cols):
    """Condition 1 or 3 of the permutation with these one-line images, read
    at (m, p) on the minor (rows, cols), by direct scans."""
    pool = [a for a in range(1, p + 1) if images[a - 1] <= m]
    escapes = any(
        all(x <= y for x, y in zip(raw, cols))
        and all(x <= y for x, y in zip(rows, sorted(m + 1 - images[a - 1] for a in raw)))
        for raw in combinations(pool, len(rows))
    )
    if not escapes:
        return True
    for r in range(1, p + 1):
        for s in range(r, p + 1):
            room = sum(1 for c in range(r, s + 1) if not m + r <= images[c - 1] <= m + s)
            if sum(1 for a in cols if r <= a <= s) > room:
                return True
    return False


def window_family(images, m, p):
    """The minor family of a restricted permutation, minor by minor: every
    (rows, cols) meeting condition 1 or 3, or whose transpose meets one of
    them for the mirror w0 w w0 at (p, m)."""
    n = m + p
    mirror = [n + 1 - images[n - i] for i in range(1, n + 1)]
    return {
        (rows, cols)
        for k in range(1, min(m, p) + 1)
        for rows in combinations(range(1, m + 1), k)
        for cols in combinations(range(1, p + 1), k)
        if _window_condition(images, m, p, rows, cols)
        or _window_condition(mirror, p, m, cols, rows)
    }


def _pair_product(v, u):
    """Normal form of X_v X_u for an out-of-order pair of generators v > u."""
    (k, g), (i, a) = v, u
    if i == k or a == g:
        return [((u, v), LaurentQ.q_power(-1))]
    if i < k and a > g:
        return [((u, v), LaurentQ.ONE)]
    # i < k and a < g: the straightening relation
    return [((u, v), LaurentQ.ONE), (((i, g), (k, a)), -LaurentQ.Q_MINUS_QINV)]


def _leftmost_normal_forms(words):
    """Normal forms of ``words``, memoised for every word met on the way.

    Each rewrite replaces a word by the words of one pair product at its
    leftmost out-of-order spot. An explicit stack reduces those words before
    the word itself, so long rewrite chains need no recursion.
    """
    memo = {}
    stack = [(word, None) for word in words]
    while stack:
        word, children = stack.pop()
        if children is None:
            if word in memo:
                continue
            t = next((t for t in range(len(word) - 1) if word[t] > word[t + 1]), None)
            if t is None:
                memo[word] = {word: LaurentQ.ONE}
                continue
            children = [
                (word[:t] + pair + word[t + 2:], coeff)
                for pair, coeff in _pair_product(word[t], word[t + 1])
            ]
            pending = [(child, None) for child, _ in children if child not in memo]
            if pending:
                stack.append((word, children))
                stack.extend(pending)
                continue
        out = {}
        for child, coeff in children:
            add_terms(out, ((w, coeff * c) for w, c in memo[child].items()))
        memo[word] = out
    return memo


def rewriting_product(f, g):
    """f * g by leftmost rewriting of every concatenated pair of words."""
    products = [
        (w1 + w2, c1 * c2) for w1, c1 in f.terms.items() for w2, c2 in g.terms.items()
    ]
    memo = _leftmost_normal_forms([w for w, _ in products])
    return QPoly(f.m, f.p, add_terms({}, (
        (reduced, coeff * inner)
        for word, coeff in products
        for reduced, inner in memo[word].items()
    )))


def rewriting_normal_form(word, m, p):
    """The normal form of one word of generators, by leftmost rewriting."""
    return QPoly(m, p, _leftmost_normal_forms([tuple(word)])[tuple(word)])


def partial(f, name):
    """The formal partial derivative of the polynomial ``f`` with respect to
    the variable ``name``, term by term."""
    k = f.names.index(name)
    return MPoly(f.names, {
        exps[:k] + (exps[k] - 1,) + exps[k + 1:]: coeff * exps[k]
        for exps, coeff in f.terms.items()
    })


def partial_bracket(m, p, f, g):
    """The Poisson bracket as the sum over generator pairs u < v of
    {Y_u, Y_v} (df/du dg/dv - df/dv dg/du), with the generator table written
    out here again."""
    names = f.names
    cells = [(i, a) for i in range(1, m + 1) for a in range(1, p + 1)]

    def name(cell):
        return f"Y[{cell[0]},{cell[1]}]"

    def y(cell):
        return MPoly.var(names, name(cell))

    total = MPoly.zero(names)
    for s, u in enumerate(cells):
        for v in cells[s + 1:]:
            (i, a), (k, b) = u, v
            if i == k or a == b:
                rule = y(u) * y(v)
            elif a > b:
                continue
            else:
                rule = 2 * y((i, b)) * y((k, a))
            pairing = (partial(f, name(u)) * partial(g, name(v))
                       - partial(f, name(v)) * partial(g, name(u)))
            total = total + rule * pairing
    return total


class FullRowOneWalk(cells._Walk):
    """The diagram walk with every row-1 leaf restored, scanned and counted in
    full: none is read off the singleton leaves by linearity."""

    def row_one(self, rows):
        return sum(self.node(1, *row) for row in rows)
