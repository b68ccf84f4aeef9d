"""Mutants of the product code that the verifiers a user runs must catch.

Each mutant is a patched copy of one function's source: one text edit,
which must occur exactly once, so that a mutant whose target text has
changed fails here instead of silently testing the original. A few wrap a
function of the diagram walk instead, where the fault is one input.
"""

import inspect
import json
import textwrap
from itertools import islice
from operator import attrgetter

import pytest
from click.testing import CliRunner

from tnncells import cauchon, cells, diagrams, matrices, networks, permutations, poisson, quantum
from tnncells.cli import main
from tnncells.diagrams import CauchonDiagram, enumerate_diagrams


def _mutated(module, name, old, new):
    """The function, or with a dotted name the method, ``name`` of ``module``
    compiled from its source with ``old`` replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(attrgetter(name)(module)))
    assert source.count(old) == 1, (name, old)
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[name.rpartition(".")[2]]


def restore_with_the_deletion_sign(monkeypatch):
    """Restore each witness row with x[a] -= x[beta]. This breaks Cauchon's
    theorem, which the sweeps' round trip cannot see: they would still invert
    each other."""
    mutant = _mutated(cauchon, "witness_row", "x[a] += xb", "x[a] -= xb")
    for module in (cauchon, cells):  # the one-path walk and the whole walk
        monkeypatch.setattr(module, "witness_row", mutant)


def _verify(*args):
    return CliRunner().invoke(main, [*args, "--format", "json"])


COLOOPS_DROPPED_AT_THEIR_STEP = (
    "_necklace_step",
    "necklace & ~(1 << i - 1) | 1 << (image + m - 1) % n",
    "(necklace | 1 << (image + m - 1) % n) & ~(1 << i - 1)",
)
PI_SHIFTED_BY_ONE = ("_necklace_step", "1 << (image + m - 1) % n", "1 << (image + m) % n")


def necklace_mutant(monkeypatch, name, old, new):
    """Patch the necklace helper ``name``, which the walk and the family of
    :func:`~tnncells.permutations.minor_family` both read."""
    mutant = _mutated(permutations, name, old, new)
    for module in (permutations, cells):
        monkeypatch.setattr(module, name, mutant)


@pytest.mark.parametrize(
    "name, old, new, mismatches",
    [
        (*COLOOPS_DROPPED_AT_THEIR_STEP, 390),
        (*PI_SHIFTED_BY_ONE, 1065),
        ("_necklace_term", "_crowded(m, p, i, (x - 1) % n + 1, seen)",
         "_crowded(m, p, i, (x - 1) % n + 1, seen + 1)", 1065),
    ],
    ids=["coloops-dropped-at-their-step", "pi-shifted-by-one", "rank-bound-raised-by-one"],
)
def test_necklace_mutants_fail_both_verifiers(monkeypatch, name, old, new, mismatches):
    """Each necklace mutant changes the families of hundreds of 3x4 cells.
    The first removes i after adding π(i) in a step, so a coloop leaves the
    necklace at its own step: on every diagram through 4x4 it gives the
    families that leaving the coloops out of I_1 gives, which the walk cannot
    write, since it builds I_1 before any row fixes a coloop.

    Blind spot: dropping the loop branch, so that a loop i joins I_{i+1},
    changes no family (the ``permutations`` module docstring shows why), and
    no verifier can see it. What the branch buys is the bound on the walk's
    necklace terms, which ``test_cells`` pins.
    """
    necklace_mutant(monkeypatch, name, old, new)
    report = cells.unifying_check(3, 4)
    assert (report.total, len(report.mismatches)) == (1066, mismatches)
    result = CliRunner().invoke(main, ["cells", "verify", "3", "4", "--format", "json"])
    assert result.exit_code == 1, result.output
    assert len(json.loads(result.output)["mismatches"]) == mismatches


def test_cells_verify_reports_a_mutant_alike_in_one_and_two_workers(monkeypatch):
    """Forked workers inherit the mutant; the parent merges their mismatches
    into enumeration order."""
    necklace_mutant(monkeypatch, *PI_SHIFTED_BY_ONE)
    one, two = (_verify("cells", "verify", "3", "4", "--jobs", jobs) for jobs in ("1", "2"))
    assert (one.exit_code, two.exit_code) == (1, 1)
    one, two = json.loads(one.output), json.loads(two.output)
    del one["elapsed_seconds"], two["elapsed_seconds"]
    assert one == two and len(one["mismatches"]) == 1065


def test_a_mirrored_pipe_dream_index_is_a_mismatch(monkeypatch):
    """Mirroring the column index of each row's pipe dream suffix, a to
    p + 1 - a, gives 1,062 of the 3x4 leaves a wrong permutation, 321 of
    them outside the window. The leaf reads its family off that permutation
    without validating it, which loses no check: every unrestricted one is
    a mismatch that names the window condition, and the verifier exits 1
    rather than refusing an input the user never gave."""
    old, new = "k = m - i + a\n", "k = m - i + len(seed) + 1 - a\n"
    mutant = _mutated(permutations, "pipe_dream_suffix", old, new)
    monkeypatch.setattr(cells, "pipe_dream_suffix", mutant)
    result = _verify("cells", "verify", "3", "4")
    assert result.exit_code == 1, result.output
    mismatches = json.loads(result.output)["mismatches"]
    assert len(mismatches) == 1062
    unrestricted = set()
    for d in enumerate_diagrams(3, 4):
        inverse = tuple(range(1, 8))
        for i in range(3, 0, -1):
            inverse = mutant(inverse, 3, i, [int((i, a) not in d.black) for a in range(1, 5)])
        w = permutations.Permutation(inverse).inverse()
        if not permutations.is_restricted(w, 3, 4):
            unrestricted.add((d.black, w.one_line()))
    named = {(CauchonDiagram.from_json(x["diagram"]).black, x["permutation"]) for x in mismatches
             if f"permutation {x['permutation']} violates the window condition for (3,4)"
             in x["problems"]}
    assert len(unrestricted) == 321 and named == unrestricted


def test_a_wrong_laplace_sign_fails_cells_verify(monkeypatch):
    """Generating the Laplace expansion's minus terms as plus terms turns every
    witness minor into a permanent: the zero minors of 560 of the 1,066 3x4
    cells change. The walk's row plans keep the kernels they were built with,
    so the kernel caches are emptied around the patch: a cached kernel would
    hide the mutant, and a mutant kernel left cached would leak into later
    tests."""
    caches = (matrices._expansions, matrices._top_row_plan)
    mutant = _mutated(matrices, "_expansions", "'+-'[j % 2]", "'++'[j % 2]")
    for cached in caches:
        cached.cache_clear()
    try:
        monkeypatch.setattr(matrices, "_expansions", mutant)
        result = _verify("cells", "verify", "3", "4")
    finally:
        monkeypatch.undo()
        for cached in caches:
            cached.cache_clear()
    assert result.exit_code == 1, result.output
    assert len(json.loads(result.output)["mismatches"]) == 560


def test_a_shifted_stirling_row_fails_both_verifiers(monkeypatch):
    """Reading S(m + 1, j) for S(m + 1, j + 1) in the poly-Bernoulli formula
    expects the wrong number of diagrams; every diagram still agrees."""
    mutant = _mutated(diagrams, "poly_bernoulli", "rows[j + 1] * cols[j + 1]",
                      "rows[j] * cols[j + 1]")
    monkeypatch.setattr(cells, "poly_bernoulli", mutant)
    verify = CliRunner().invoke(main, ["cells", "verify", "3", "4"])
    assert verify.exit_code == 1
    assert verify.output.startswith(f"1066/1066 agree, {mutant(3, 4)} diagrams expected")
    every = _verify("verify", "all", "--m", "3", "--p", "4")
    assert every.exit_code == 1
    assert not json.loads(every.output)["checks"][0]["ok"]


def test_lindstrom_check_catches_a_wrong_step_sign(monkeypatch):
    """The networks stay as they are, so 680 of the 3x3 grid's 4,370 minors no
    longer match their path-family counts. (The per-diagram scan stopped at
    the first negative size and counted every unscanned minor as missed,
    1,274; the walk compares every minor.)"""
    restore_with_the_deletion_sign(monkeypatch)
    assert cells.unifying_check(3, 3, lindstrom=True).lindstrom == (4370, 680)
    result = _verify("verify", "all", "--m", "3", "--p", "3")
    assert result.exit_code == 1
    assert json.loads(result.output)["checks"][1] == {
        "name": "lindstrom", "ok": False, "detail": "3690/4370 minors match path counts"}


def test_lindstrom_check_catches_a_missing_disjointness_test(monkeypatch):
    """Testing only that a path's column is free, not that it misses the
    family's vertices, counts crossing families. The walk's networks are
    planar with sources and sinks in boundary order, so it skips a path that
    would cross a taken column rather than counting it with a sign; a signed
    sum would cancel the crossing families and hide this mutant."""
    mutant = _mutated(networks, "_extend", "used & vertices", "cols & col")
    monkeypatch.setattr(networks, "_extend", mutant)
    assert cells.unifying_check(3, 4, lindstrom=True).lindstrom == (36244, 4868)
    result = _verify("verify", "all", "--m", "3", "--p", "4")
    assert result.exit_code == 1
    assert json.loads(result.output)["checks"][1] == {
        "name": "lindstrom", "ok": False, "detail": "31376/36244 minors match path counts"}


def test_a_flipped_path_sign_rule_fails_both_path_counts(monkeypatch):
    """The sign mask of a path holding the sinks above its own, where its row is
    added above the rows of the states: the walk then skips the
    order-preserving paths and keeps crossing ones, and ``network lindstrom``
    counts the crossing pairing of two sources with the sign of the straight
    one."""
    mutant = _mutated(networks, "_paths", "sink - 1", "-(sink << 1)")
    monkeypatch.setattr(networks, "_paths", mutant)
    result = _verify("verify", "all", "--m", "3", "--p", "3")
    assert result.exit_code == 1
    assert json.loads(result.output)["checks"][1] == {
        "name": "lindstrom", "ok": False, "detail": "3706/4370 minors match path counts"}
    crossing = json.dumps({"m": 2, "p": 2, "edges": [{"from": "s1", "to": "t2"},
                                                     {"from": "s2", "to": "t1"}]})
    count = ["network", "lindstrom", "-n", crossing, "--rows", "1,2", "--cols", "1,2"]
    result = CliRunner().invoke(main, count)
    assert (result.exit_code, result.output) == (0, "1\n")
    monkeypatch.undo()
    result = CliRunner().invoke(main, count)
    assert (result.exit_code, result.output) == (0, "-1\n")


def test_a_witness_row_with_one_pivot_per_row_fails_both_suites(monkeypatch):
    """Restoring each witness row with only the first pivot of each seed row
    below it changes rows over a seed row with three or more white cells. The
    restoration stays a sum of entries, linear in the seed, so the leaves read
    by linearity see the rows the full route would restore, and the counts
    are those of the full route."""
    mutant = _mutated(cauchon, "witness_row", "_pivots(pattern):", "_pivots(pattern)[:1]:")
    for module in (cauchon, cells):
        monkeypatch.setattr(module, "witness_row", mutant)
    for (m, p), found in {(3, 3): (44, 299), (3, 4): (440, 4668)}.items():
        report = cells.unifying_check(m, p, lindstrom=True)
        assert (len(report.mismatches), report.lindstrom[1]) == found
    assert _verify("verify", "all", "--m", "3", "--p", "3").exit_code == 1


def test_lindstrom_check_catches_a_row_edge_dropped_between_dots(monkeypatch):
    """``GridNetwork.add_row`` keeps the source's edge into its row's rightmost
    white dot but drops every row edge from one white dot to the next, so a
    path can only turn down at its row's first dot. Restoration never reads
    the network: the witnesses, and the unifying suite, stay right.

    Blind spot: a leaf with two or more white cells in row 1 is read off the
    singleton leaves by linearity, with no ``add_row`` on its row 1, and a
    singleton has one dot, which the mutant leaves as it is. So the mutant's
    row-1 share goes unseen: of the 1,020 minors the full route misses at
    3x3, the walk misses 969, and of 9,854 at 3x4, 9,648. Rows 2..m still
    run ``add_row`` and fail the suite."""
    mutant = _mutated(networks, "GridNetwork.add_row", "out_edges[tail] = ((tail, v, 1),) + down",
                      "out_edges[tail] = ((tail, v, 1),) * (tail == source) + down")
    monkeypatch.setattr(networks.GridNetwork, "add_row", mutant)
    report = cells.unifying_check(3, 4, lindstrom=True)
    assert (len(report.mismatches), report.lindstrom) == (0, (36244, 9648))
    result = _verify("verify", "all", "--m", "3", "--p", "3")
    assert result.exit_code == 1
    assert json.loads(result.output)["checks"][1] == {
        "name": "lindstrom", "ok": False, "detail": "3401/4370 minors match path counts"}


def test_a_black_row_keeping_stale_edges_fails_verify_all(monkeypatch):
    """``GridNetwork.add_row`` leaving an all-black row's source with the edges
    the last row added at its height gave it, where it should have none:
    paths from that source reach sinks, while every witness minor with that
    top row is 0.

    Blind spot: only an all-black row shows the mutant, and in row 1 that is
    the empty leaf, which is read by rule with no ``add_row``. So its row-1
    share goes unseen: of the 184 minors the full route misses at 3x3, the
    walk misses 98, and of 859 at 3x4, 394. All-black rows 2..m still run
    ``add_row`` and fail the suite. At 2x2 neither route sees it."""
    mutant = _mutated(networks, "GridNetwork.add_row", "out_edges[tail] = down\n",
                      "out_edges[tail] = down or out_edges[tail]\n")
    monkeypatch.setattr(networks.GridNetwork, "add_row", mutant)
    report = cells.unifying_check(3, 4, lindstrom=True)
    assert (len(report.mismatches), report.lindstrom) == (0, (36244, 394))
    result = _verify("verify", "all", "--m", "3", "--p", "3")
    assert result.exit_code == 1
    assert json.loads(result.output)["checks"][1] == {
        "name": "lindstrom", "ok": False, "detail": "4272/4370 minors match path counts"}


def test_row_edges_run_the_wrong_way_fail_verify_all(monkeypatch):
    """``GridNetwork.add_row`` running each row's edges left to right, from the
    source into the leftmost white dot, draws a network whose paths no longer
    turn down in the order the witness minors count them: 8,184 of the 36,244
    3x4 minors differ from their path-family counts."""
    mutant = _mutated(networks, "GridNetwork.add_row", "for a in range(self.p, 0, -1):",
                      "for a in range(1, self.p + 1):")
    monkeypatch.setattr(networks.GridNetwork, "add_row", mutant)
    result = _verify("verify", "all", "--m", "3", "--p", "4")
    assert result.exit_code == 1
    assert json.loads(result.output)["checks"][:2] == [
        {"name": "unifying", "ok": True, "detail": "1066/1066 diagrams agree"},
        {"name": "lindstrom", "ok": False, "detail": "28060/36244 minors match path counts"}]


def test_a_wrong_row_rule_fails_cells_verify_and_diagram_check(monkeypatch):
    """The row rule off by one, ``black & (black - 1)``, forces a row's black
    cells past its lowest one instead of those past its leading black run.
    Validation, enumeration and the walk share the rule, so the walk visits
    1,044 colorings where 1,066 are expected, 532 of them with a negative
    witness minor or a family that differs, and ``diagram check`` accepts
    ``../.#``, whose black cell has a white cell to its left and one above."""
    mutant = _mutated(diagrams, "row_forces", "black + 1", "black - 1")
    for module in (diagrams, cells):
        monkeypatch.setattr(module, "row_forces", mutant)
    verify = CliRunner().invoke(main, ["cells", "verify", "3", "4"])
    assert verify.exit_code == 1
    assert verify.output.startswith("512/1044 agree, 1066 diagrams expected")
    check = CliRunner().invoke(main, ["diagram", "check", "../.#"])
    assert (check.exit_code, check.output) == (0, "valid\n")
    monkeypatch.undo()
    check = CliRunner().invoke(main, ["diagram", "check", "../.#"])
    assert (check.exit_code, check.output) == (1, "not a diagram\n")


def test_lindstrom_check_counts_only_minors_that_differ(monkeypatch):
    """A negated witness entry (1,1) makes [1|1] differ on the 8 diagrams of 2x2
    where it is nonzero, and [1,2|1,2] on the 5 of them where (2,2) is white."""
    real = cells.witness_row

    def negated(seed, below):
        row = real(seed, below)
        if len(below) == 1:  # row 1 of a 2x2 grid
            row[0] = -row[0]
        return row

    assert cells.unifying_check(2, 2, lindstrom=True).lindstrom == (70, 0)
    monkeypatch.setattr(cells, "witness_row", negated)
    report = cells.unifying_check(2, 2, lindstrom=True)
    assert report.lindstrom == (70, 13)
    assert len(report.mismatches) == 8
    assert _verify("verify", "all", "--m", "2", "--p", "2").exit_code == 1


def test_verify_all_restores_each_witness_row_once_per_node(monkeypatch):
    """The 3x3 walk has 8 + 46 + 230 nodes, where one witness per diagram would
    restore 230 x 3 = 690 rows. It restores 8 + 46 + 99: of the other 131
    leaves, 85 have two or more white cells in row 1 and are read by
    linearity, and 46, one per row-2 node, have none and are read by rule."""
    calls = []
    real = cells.witness_row
    monkeypatch.setattr(cells, "witness_row", lambda seed, below: calls.append(seed) or real(seed, below))
    result = _verify("verify", "all", "--m", "3", "--p", "3")
    assert result.exit_code == 0, result.output
    assert len(calls) == 153


def test_a_wrong_diagram_count_fails_both_verifiers(monkeypatch):
    """The walk's row-pattern loop skips its first row at every node: half the
    2x2 diagrams go unseen, and nothing but the count can tell."""
    real = cells._row_patterns
    monkeypatch.setattr(cells, "_row_patterns", lambda p, forced: islice(real(p, forced), 1, None))
    every = _verify("verify", "all", "--m", "2", "--p", "2")
    assert every.exit_code == 1
    unifying = json.loads(every.output)["checks"][0]
    assert unifying == {"name": "unifying", "ok": False, "detail": "7/7 diagrams agree, 14 expected"}
    verify = CliRunner().invoke(main, ["cells", "verify", "2", "2"])
    assert verify.exit_code == 1
    assert verify.output.startswith("7/7 agree, 14 diagrams expected")


@pytest.mark.parametrize(
    "name, old, new, failing, raised",
    [
        ("QPoly._product", "pre + u", "u", ["quantum-determinant-central"], None),
        ("_insert", "lead + w", "w",
         ["quantum-relations", "quantum-determinant-central", "semiclassical"], None),
        ("_insert", "((1, -1), (-1, 1))", "((1, 1), (-1, -1))",
         ["quantum-relations", "quantum-determinant-central", "semiclassical"], None),
        ("commutator", "g._product(f, memo, table, -1)", "g._product(f, memo, table, 1)",
         ["quantum-determinant-central", "semiclassical"],
         "coefficient 1 + q^-1 of ((1, 1), (1, 2)) is not divisible by q - 1"),
    ],
    ids=["prefix-dropped-in-the-product", "lead-dropped-in-straightening",
         "straightening-sign-flipped", "second-product-added-in-the-commutator"],
)
def test_quantum_product_mutants_fail_verify_all(monkeypatch, name, old, new, failing, raised):
    """The insertion memo is keyed on a word's letters above the inserted one,
    so the product puts the word's prefix back in front of each entry it
    reads, and a straightening term puts its own lead back in front of the
    entry of the rest. Dropping either, or flipping the sign of the
    straightening term, fails a ``verify all --m 2 --p 2`` suite, and the 3x3
    quantum determinant no longer commutes with X[1,1] under ``quantum comm``,
    as CI runs it. Adding gf into the commutator's term table with +1, not
    -1, makes [X, X'] of two generators in a row fg + gf, which (q - 1) does
    not divide: the semiclassical suite raises a consistency failure, which
    fails that suite with the message as its detail, and the determinant is
    no longer central. The prefix is empty in every product of generators,
    so the defining relations cannot see the first mutant, and they take no
    commutator, so they cannot see the last."""
    owner, _, attr = name.rpartition(".")
    target = getattr(quantum, owner) if owner else quantum
    mutant = _mutated(quantum, name, old, new)
    monkeypatch.setattr(target, attr, mutant)
    if target is quantum and hasattr(poisson, attr):  # poisson imports commutator by name
        monkeypatch.setattr(poisson, attr, mutant)
    every = _verify("verify", "all", "--m", "2", "--p", "2")
    assert every.exit_code == 1
    checks = {c["name"]: c for c in json.loads(every.output)["checks"]}
    assert [n for n, c in checks.items() if not c["ok"]] == failing
    if raised is not None:
        assert checks["semiclassical"]["detail"] == f"ConsistencyError: {raised}"
    det = str(quantum.quantum_minor(3, 3, (1, 2, 3), (1, 2, 3)))
    comm = _verify("quantum", "comm", det, "X[1,1]", "--m", "3", "--p", "3")
    assert (comm.exit_code, json.loads(comm.output)["zero"]) == (0, False)


NONNEGATIVE_POWERS_ONLY = "DomainError: ExpPoly admits nonnegative powers only"
BRACKET_ON_WIDE_SLOTS = "99*Y[1,1]^200*Y[1,2]*Y[2,2] - 200*Y[1,1]^199*Y[1,2]^2*Y[2,1]"


@pytest.mark.parametrize(
    "name, old, new, failing, wide",
    [
        ("bracket", "(B + entry[1], ", "(B - entry[1], ",
         {"semiclassical": "5/6 pairs agree", "flow:flow_linear_2x2": NONNEGATIVE_POWERS_ONLY,
          "flow:flow_exponential_2x2": NONNEGATIVE_POWERS_ONLY},
         "-200*Y[1,1]^201*Y[2,1]^-1*Y[2,2]^2 + 99*Y[1,1]^200*Y[1,2]*Y[2,2]"),
        ("_packed_table", "size = (bits + 8) // 8", "size = (bits + 7) // 8", {},
         "99*Y[1,1]^-56*Y[1,2]^2*Y[2,2] - 200*Y[1,1]^-57*Y[1,2]^3*Y[2,1]"),
        ("_packed_table", '{1: "b", 2: "h", 4: "i", 8: "q"}', '{1: "B", 2: "H", 4: "I", 8: "Q"}',
         {}, BRACKET_ON_WIDE_SLOTS),
    ],
    ids=["packed-shift-with-the-wrong-sign", "slot-one-bit-short", "slots-read-unsigned"],
)
def test_packed_bracket_mutants(monkeypatch, name, old, new, failing, wide):
    """The bracket keys its sums on packed exponent vectors, one signed slot
    per coordinate. Subtracting the packed straightening shift, where it is
    added, turns {a, d} = 2bc into 2a^2d^2/(bc): the semiclassical suite of
    ``verify all --m 2 --p 2`` fails, and each flow suite raises as it
    evaluates the bracket's negative powers along its path, so it fails with
    that message and the other suites still run.

    Blind spots: ``verify all`` brackets only small nonnegative exponents,
    so two mutants pass all seven suites. A slot one bit short of 2 top + 1
    spills the 200 of a^100 * a^100 into its neighbour, which CI's pinned
    ``poisson bracket 'a^100*d' 'a^100*b'`` shows; slots read back unsigned
    change only negative exponents, which no suite and no CI line has. The
    slot-boundary tests of ``test_poisson`` fail on both, and its Laurent
    oracle tests on the second."""
    mutant = _mutated(poisson, name, old, new)
    monkeypatch.setattr(poisson, name, mutant)
    every = _verify("verify", "all", "--m", "2", "--p", "2")
    assert every.exit_code == (1 if failing else 0)
    checks = json.loads(every.output)["checks"]
    assert {c["name"]: c["detail"] for c in checks if not c["ok"]} == failing
    result = CliRunner().invoke(main, ["poisson", "bracket", "a^100*d", "a^100*b"])
    assert (result.exit_code, result.output) == (0, wide + "\n")


def test_mismatches_come_in_enumeration_order(monkeypatch):
    necklace_mutant(monkeypatch, *COLOOPS_DROPPED_AT_THEIR_STEP)
    report = cells.unifying_check(3, 4)
    order = {black: k for k, black in enumerate(d.black for d in enumerate_diagrams(3, 4))}
    keys = [order[CauchonDiagram.from_json(x["diagram"]).black] for x in report.mismatches]
    assert len(keys) == 390 and keys == sorted(keys)
