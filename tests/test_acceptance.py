"""Acceptance gate: fourteen numbered criteria, one verdict line each.

Run with ``pytest -v tests/test_acceptance.py`` to see one line per
criterion, or with ``-s`` for the explicit PASS/FAIL prints. Every check
is exact, the flow checks included.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from tnncells.cauchon import (
    ones_TC,
    restoration_stages,
    symbolic_TC,
    tnn_test,
    vanishing_family,
    white_variable,
)
from tnncells.cells import (
    admissible_families,
    is_admissible,
    unifying_check,
)
from tnncells.diagrams import CauchonDiagram, enumerate_diagrams
from tnncells.fixtures import load_diagram, load_flow, load_matrix
from tnncells.matrices import (
    Matrix,
    MinorFamily,
    MinorIndex,
    all_minors,
    initial_minors,
    scan_minors,
)
from tnncells.networks import nonintersecting_count, path_matrix, postnikov_network
from tnncells.permutations import (
    enumerate_restricted,
    inverse_pipe_dream,
    minor_family,
    parse_permutation,
    pipe_dream,
)
from tnncells.poisson import (
    bracket,
    coordinate,
    coordinate_names,
    jacobi_check,
    parse_poisson,
    semiclassical_check,
    verify_flow,
)
from tnncells.quantum import (
    QPoly,
    commutator,
    defining_relations_hold,
    is_central_2x2_determinant,
    quantum_minor,
)
from tnncells.scalars import LaurentQ, MPoly


DEMO = CauchonDiagram.from_ascii(".#.\n##.\n...")

DEMO_FAMILY = frozenset(
    MinorIndex.parse(s)
    for s in (
        "[1,2|2,3]", "[1,3|2,3]", "[2,3|2,3]",
        "[2,3|1,3]", "[2,3|1,2]", "[1,2,3|1,2,3]",
    )
)


def report(number, name, ok):
    print(f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_01_matching_counts():
    t0 = time.perf_counter()
    small = (
        sum(1 for _ in enumerate_diagrams(2, 2)),
        sum(1 for _ in enumerate_restricted(2, 2)),
        len(admissible_families(2, 2)),
    )
    small_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    large = (
        sum(1 for _ in enumerate_diagrams(3, 3)),
        sum(1 for _ in enumerate_restricted(3, 3)),
        len(admissible_families(3, 3)),
    )
    large_time = time.perf_counter() - t0

    ok = (
        small == (14, 14, 14)
        and small_time < 1.0
        and large == (230, 230, 230)
        and large_time < 10.0
    )
    report(1, "diagrams = permutations = families (14 and 230)", ok)


def test_criterion_02_restoration_fixture():
    seed = Matrix([[1, -1, 1], [0, 2, 1], [1, 1, 1]])
    after = {ix: stage for ix, stage in restoration_stages(seed)}
    ok = (
        after[(2, 3)].equals(Matrix([[1, 1, 1], [0, 2, 1], [1, 1, 1]]))
        and after[(3, 2)].equals(Matrix([[2, 1, 1], [2, 2, 1], [1, 1, 1]]))
        and after[(3, 3)].equals(Matrix([[3, 2, 1], [3, 3, 1], [1, 1, 1]]))
    )
    report(2, "restoration intermediates and final", ok)


def test_criterion_03_tc_fixture():
    T = symbolic_TC(DEMO)
    names = [white_variable(c) for c in DEMO.white_cells()]

    def v(cell):
        return MPoly.var(names, white_variable(cell))

    t11, t13, t23 = v((1, 1)), v((1, 3)), v((2, 3))
    t31, t32, t33 = v((3, 1)), v((3, 2)), v((3, 3))
    expect = [
        [t11 + t13 / t33 * t31, t13 / t33 * t32, t13],
        [t23 / t33 * t31, t23 / t33 * t32, t23],
        [t31, t32, t33],
    ]
    symbolic_ok = all(
        T.rows[i][a] == expect[i][a] for i in range(3) for a in range(3)
    )
    ones_ok = ones_TC(DEMO).equals(
        Matrix([[2, 1, 1], [1, 1, 1], [1, 1, 1]])
    )
    report(3, "symbolic T_C and unit-seeded T_C", symbolic_ok and ones_ok)


def test_criterion_04_vanishing_family_fixture():
    from_tc = frozenset(vanishing_family(DEMO).members)
    from_perm = frozenset(minor_family(parse_permutation("(2 3 5 4)", 6), 3, 3).members)
    ok = from_tc == DEMO_FAMILY == from_perm
    report(4, "six-minor family from both routes", ok)


def test_criterion_05_pipe_dream_fixture():
    ok = pipe_dream(DEMO).one_line() == "135246"
    for m in range(1, 5):
        for p in range(1, 5):
            for d in enumerate_diagrams(m, p):
                if inverse_pipe_dream(pipe_dream(d), m, p) != d:
                    ok = False
                    break
    report(5, "pipe dream value and inverse round-trips to 4x4", ok)


def test_criterion_06_tnn_fixtures():
    A = load_matrix("tnn_4x4")
    t0 = time.perf_counter()
    a_brute = scan_minors(A).negative is None
    a_minor_count = len(all_minors(A))
    a_algo = tnn_test(A).is_tnn
    a_time = time.perf_counter() - t0

    M2 = load_matrix("near_tnn_4x4")
    t0 = time.perf_counter()
    m2_witness = scan_minors(M2).negative
    m2_time = time.perf_counter() - t0

    M1 = load_matrix("symmetric_4x4")
    t0 = time.perf_counter()
    m1_brute = scan_minors(M1).negative is None
    m1_algo = tnn_test(M1).is_tnn
    m1_time = time.perf_counter() - t0

    ok = (
        a_brute and a_algo and a_minor_count == 69
        and m2_witness == (MinorIndex((1, 2), (2, 3)), -5)
        and m1_brute == m1_algo
        and max(a_time, m2_time, m1_time) < 1.0
    )
    report(6, "A tnn both ways, M2 witness -5, M1 verdicts agree", ok)


def test_criterion_07_tp_against_minor_oracle():
    rng = random.Random(20240817)
    mismatches = 0
    for _ in range(1000):
        n = rng.randint(2, 4)
        M = Matrix(
            [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        )
        oracle = all(v > 0 for _, v in all_minors(M))
        if all(v > 0 for _, v in initial_minors(M)) != oracle:
            mismatches += 1
    report(7, "initial-minor TP test vs all-minors oracle on 1000 random matrices",
           mismatches == 0)


def test_criterion_08_lindstrom_sweep():
    t0 = time.perf_counter()
    mismatches = 0
    grids = [(m, p) for m in range(1, 4) for p in range(1, 4)] + [(3, 4), (4, 3)]
    for m, p in grids:
        for d in enumerate_diagrams(m, p):
            net = postnikov_network(d)
            mismatches += sum(value != nonintersecting_count(net, ix)
                              for ix, value in all_minors(path_matrix(net)))
    elapsed = time.perf_counter() - t0
    report(8, "path-matrix minors = disjoint path counts to 3x3, 3x4, 4x3",
           mismatches == 0 and elapsed < 60.0)


def test_criterion_09_unifying_theorem():
    # every diagram of every grid up to 4x4: 6,902 at 4x4 alone
    reports = [unifying_check(m, p) for m in range(1, 5) for p in range(1, 5)]
    ok = all(r.ok and r.agreements == r.total for r in reports)
    ok = ok and reports[-1].total == 6902
    report(9, "diagram and permutation routes agree on every diagram to 4x4", ok)


def test_criterion_10_quantum_identities():
    relations_ok = all(
        defining_relations_hold(m, p) == []
        for m in range(1, 4)
        for p in range(1, 4)
    )
    a = QPoly.generator(2, 2, 1, 1)
    b = QPoly.generator(2, 2, 1, 2)
    c = QPoly.generator(2, 2, 2, 1)
    d = QPoly.generator(2, 2, 2, 2)
    diag_ok = commutator(a, d) == (b * c).scaled(LaurentQ.Q_MINUS_QINV)
    det_ok = quantum_minor(2, 2, (1, 2), (1, 2)) == a * d - (b * c).scaled(
        LaurentQ.q_power(1)
    )
    report(
        10,
        "defining relations, [a,d] = (q - q^-1)bc, central D_q",
        relations_ok and diag_ok and det_ok and is_central_2x2_determinant(),
    )


def test_criterion_11_semiclassical_bridge():
    ok = True
    for m in range(1, 4):
        for p in range(1, 4):
            cells = [(i, a) for i in range(1, m + 1) for a in range(1, p + 1)]
            for u, v in combinations(cells, 2):
                if not semiclassical_check(m, p, *u, *v):
                    ok = False
    report(11, "commutators at q -> 1 match the bracket table", ok)


def test_criterion_12_poisson_structure():
    jacobi_ok = True
    for m in range(1, 4):
        for p in range(1, 4):
            gens = [
                coordinate(m, p, i, a)
                for i in range(1, m + 1)
                for a in range(1, p + 1)
            ]
            for f, g, h in combinations(gens, 3):
                if not jacobi_check(m, p, f, g, h).is_zero:
                    jacobi_ok = False

    rng = random.Random(7)
    names = coordinate_names(2, 2)

    def random_cubic():
        out = MPoly.zero(names)
        for _ in range(rng.randint(1, 3)):
            exps = [0, 0, 0, 0]
            for _ in range(rng.randint(0, 3)):
                exps[rng.randrange(4)] += 1
            out += MPoly(names, {tuple(exps): rng.randint(-4, 4)})
        return out

    for _ in range(100):
        f, g, h = random_cubic(), random_cubic(), random_cubic()
        if not jacobi_check(2, 2, f, g, h).is_zero:
            jacobi_ok = False

    flows_ok = True
    for name in ("flow_linear_2x2", "flow_exponential_2x2"):
        path = load_flow(name)
        H = parse_poisson("a", 2, 2)
        if not verify_flow(path, H).symbolic_zero:
            flows_ok = False
    report(12, "Jacobi identity and both flow fixtures", jacobi_ok and flows_ok)


def test_criterion_13_non_admissible_family():
    fam = MinorFamily(2, 2, frozenset({MinorIndex((2,), (2,))}))
    verdict = is_admissible(fam)
    report(13, "corner-minor family rejected", not verdict.admissible)


def test_criterion_14_rank_profile():
    profile = {}
    for w in enumerate_restricted(2, 2):
        profile[w.length()] = profile.get(w.length(), 0) + 1
    ok = [profile.get(k, 0) for k in range(5)] == [1, 3, 5, 4, 1]
    report(14, "length profile of the 2x2 window is 1,3,5,4,1", ok)
