"""The four workloads: seeded inputs, the timed op, and the verdict oracle.

Each workload is a closed loop with one client: the next op starts only
after the previous one has finished and been checked. Inputs are generated
from the seed before anything is timed. Every op's result is checked against
``oracle``; a wrong verdict raises WrongVerdict and the run ends without
numbers. Timeouts and resource-guard refusals are failures, not wrong
verdicts.

Why these four:

* verify-3x4 is the theorem verifier users run (``verify all --m 3 --p 4``).
  It is the only workload that reaches ``networks`` (the Lindstrom sweep),
  and the symbolic zero test inside ``vanishing_family`` takes over half of
  its unifying check.
* classify-4x4 streams ``cells of`` over uniformly drawn 4x4 cells with at
  most nine white cells, perturbed matrices and the bundled fixtures in such
  cells. About half of each op is the symbolic zero test, so zero-test and
  permutation-family changes show here first. Cells with more white cells
  cost from milliseconds to a hang (``symmetric_4x4`` never finishes); as a
  timed stream they would make the failure count a matter of the machine's
  speed, so the fixtures among them go to a hang probe that runs each once
  after the timed stream and reports its timeouts.
* screen-6x6 streams ``tnn-check`` over 6x6 matrices. The deletion sweep and
  the QQ Bareiss minors of the brute-force scan do all the work and the
  symbolic route is never called, so a zero-test change must leave it alone.
* algebra-4x4 checks identities in the 4x4 quantum matrix algebra and its
  Poisson bracket, the only real load on ``quantum`` and ``poisson``.
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import comb
from typing import Any, Sequence

import oracle

OK = "ok"
REFUSED = "refused"  # resource guard: exit code 3
PERTURBED_EVERY = 4  # a fixed share of the seeded stream is perturbed off its cell


class WrongVerdict(Exception):
    """The program answered an op wrongly; the run must not report numbers."""


@dataclass(frozen=True)
class Op:
    label: str
    payload: Any
    expect: Any
    units: int = 1


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    err: str


def invoke_cli(args: Sequence[str], stdin: str = "") -> CliResult:
    """Run one tnncells command in this process through its click entry point."""
    from tnncells import cli

    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                cli.main.main(args=list(args), prog_name="tnncells", standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdin = saved_stdin
    return CliResult(code, out.getvalue(), err.getvalue())


def _cli_op(tracer: Any, args: Sequence[str], stdin: str = "") -> CliResult:
    if tracer is None:
        return invoke_cli(args, stdin)
    from spans import CLI_SPAN

    return tracer.call(CLI_SPAN, invoke_cli, args, stdin)


def _fail(op: Op, why: str) -> WrongVerdict:
    return WrongVerdict(f"{op.label}: {why}")


def _matrix_json(rows: Sequence[Sequence[Fraction]]) -> str:
    return json.dumps(
        {"m": len(rows), "p": len(rows[0]), "entries": [[str(x) for x in r] for r in rows]}
    )


def _positive_weight(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def _seeded_matrix(rng: random.Random, m: int, p: int, black: frozenset) -> list[list[Fraction]]:
    """build_TC of the diagram with random positive rational weights."""
    from tnncells import cauchon, diagrams, scalars

    diagram = diagrams.CauchonDiagram(m, p, black)
    weights = {c: _positive_weight(rng) for c in diagram.white_cells()}
    rows = [list(r) for r in cauchon.build_TC(diagram, scalars.QQ, weights).rows]
    if oracle.tnn_cell(rows) != black:
        raise WrongVerdict(f"build_TC left the cell of {sorted(black)}")
    return rows


def _perturbed(rng: random.Random, rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Lower one positive entry by 10 to 90 percent (a zero matrix goes negative)."""
    out = [list(r) for r in rows]
    cells = [(i, a) for i, r in enumerate(out) for a, v in enumerate(r) if v > 0]
    if not cells:
        i, a = rng.randrange(len(out)), rng.randrange(len(out[0]))
        out[i][a] = -_positive_weight(rng)
        return out
    i, a = rng.choice(cells)
    out[i][a] *= Fraction(rng.randint(1, 9), 10)
    return out


def _seeded_input(rng: random.Random, k: int, m: int, p: int, black: frozenset) -> tuple[str, list]:
    """The k-th stream input: a seeded matrix of the cell, every fourth one perturbed."""
    rows = _seeded_matrix(rng, m, p, black)
    if k % PERTURBED_EVERY == PERTURBED_EVERY - 1:
        return f"perturbed cell {sorted(black)}", _perturbed(rng, rows)
    return f"cell {sorted(black)}", rows


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# verify-3x4
# ---------------------------------------------------------------------------


class VerifyAll:
    """One op is a full ``verify all --m 3 --p 4 --jobs 1``; its units are diagrams."""

    name = "verify-3x4"
    limit_s = 60.0
    rate_hint = 0  # one op, repeated
    m, p = 3, 4
    probe = "run(['verify', 'all', '--m', '2', '--p', '2', '--format', 'json'])"

    def generate(self, seed: int, count: int) -> list[Op]:
        diagrams = oracle.diagram_count(self.m, self.p)
        args = ("verify", "all", "--m", str(self.m), "--p", str(self.p), "--jobs", "1", "--format", "json")
        return [Op("verify all 3x4", args, diagrams, units=diagrams)]

    def execute(self, op: Op, tracer: Any) -> CliResult:
        return _cli_op(tracer, op.payload)

    def check(self, op: Op, res: CliResult) -> str:
        if res.code == 3:
            return REFUSED
        if res.code != 0:
            raise _fail(op, f"exit {res.code}: {res.err.strip()}")
        report = json.loads(res.out)
        details = {c["name"]: c["detail"] for c in report["checks"]}
        n = op.expect
        minors = n * (comb(self.m + self.p, self.m) - 1)
        if report["passed"] != report["total"] or not all(c["ok"] for c in report["checks"]):
            raise _fail(op, "a suite failed")
        if details.get("unifying") != f"{n}/{n} diagrams agree":
            raise _fail(op, f"unifying check saw {details.get('unifying')!r}, expected {n} diagrams")
        if details.get("lindstrom") != f"{minors}/{minors} minors match path counts":
            raise _fail(op, f"lindstrom sweep saw {details.get('lindstrom')!r}")
        return OK


# ---------------------------------------------------------------------------
# classify-4x4
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellExpectation:
    black: frozenset
    family: frozenset


def _cell_expectation(rows: list[list[Fraction]]) -> CellExpectation | None:
    black = oracle.tnn_cell(rows)
    if black is None:
        return None
    return CellExpectation(black, oracle.vanishing_minors(rows))


class ClassifyCells:
    """``cells of`` on seeded 4x4 TNN matrices, perturbed ones and the fixtures.

    Cells are drawn from the 6280 with at most MAX_WHITE white cells: on a
    2-vCPU host ``vanishing_family`` took at most 0.043 s on each of them,
    and from milliseconds to over 3 s (a hang, for 27 of them) on the 622
    others. The fixtures in those other cells make up the hang probe.
    """

    name = "classify-4x4"
    limit_s = 1.0
    hang_limit_s = 1.0
    rate_hint = 90  # inputs generated per second of run time
    MAX_WHITE = 9
    probe = (
        "from tnncells import fixtures, matrices\n"
        "run(['cells', 'of', '-', '--format', 'json'],"
        " json.dumps(matrices.matrix_to_json(fixtures.load_matrix('tnn_4x4'))))"
    )

    def _light(self, black: frozenset, m: int = 4, p: int = 4) -> bool:
        return m * p - len(black) <= self.MAX_WHITE

    def _fixture_ops(self) -> list[Op]:
        from tnncells import fixtures, matrices

        ops = []
        for name in fixtures.MATRIX_NAMES:
            text = json.dumps(matrices.matrix_to_json(fixtures.load_matrix(name)))
            rows = [[Fraction(x) for x in r] for r in json.loads(text)["entries"]]
            ops.append(Op(f"fixture {name}", text, _cell_expectation(rows)))
        return ops

    def _in_stream(self, op: Op) -> bool:
        rows = json.loads(op.payload)
        return op.expect is None or self._light(op.expect.black, rows["m"], rows["p"])

    def hang_probe_ops(self) -> list[Op]:
        """The fixtures outside the stream's cells, run once each after it."""
        return [op for op in self._fixture_ops() if not self._in_stream(op)]

    def generate(self, seed: int, count: int) -> list[Op]:
        from tnncells import diagrams

        rng = _rng(self.name, seed)
        every = [d.black for d in diagrams.enumerate_diagrams(4, 4)]
        if len(every) != oracle.diagram_count(4, 4):
            raise WrongVerdict(f"enumerate_diagrams(4, 4) gave {len(every)} diagrams")
        cells = [black for black in every if self._light(black)]
        ops = [op for op in self._fixture_ops() if self._in_stream(op)]
        for k in range(count):
            label, rows = _seeded_input(rng, k, 4, 4, rng.choice(cells))
            ops.append(Op(label, _matrix_json(rows), _cell_expectation(rows)))
        return ops

    def execute(self, op: Op, tracer: Any) -> CliResult:
        return _cli_op(tracer, ("cells", "of", "-", "--format", "json"), op.payload)

    def check(self, op: Op, res: CliResult) -> str:
        if res.code == 3:
            return REFUSED
        want: CellExpectation | None = op.expect
        if want is None:
            if res.code == 2 and "not totally nonnegative" in res.err:
                return OK
            raise _fail(op, f"non-TNN input gave exit {res.code}: {res.err.strip()}")
        if res.code != 0:
            raise _fail(op, f"TNN input gave exit {res.code}: {res.err.strip()}")
        got = json.loads(res.out)
        black = frozenset(tuple(c) for c in got["diagram"]["black"])
        family = frozenset(
            (tuple(x["rows"]), tuple(x["cols"])) for x in got["family"]["members"]
        )
        if black != want.black:
            raise _fail(op, f"reported diagram {sorted(black)}")
        if family != want.family:
            raise _fail(op, "reported family differs from the matrix's vanishing minors")
        return OK


# ---------------------------------------------------------------------------
# screen-6x6
# ---------------------------------------------------------------------------


def sample_le_diagram(rng: random.Random, m: int, p: int, density: float) -> frozenset:
    """Left-or-above sampler: row-major, each allowed cell black with probability density."""
    black: set = set()
    for i in range(1, m + 1):
        for a in range(1, p + 1):
            allowed = all((i, c) in black for c in range(1, a)) or all(
                (r, a) in black for r in range(1, i)
            )
            if allowed and rng.random() < density:
                black.add((i, a))
    return frozenset(black)


class ScreenTnn:
    """``tnn-check`` (deletion sweep plus brute force) on seeded 6x6 matrices.

    The sampler's black-cell density sets how much work a matrix costs, so
    densities are stratified: each run of sixteen inputs draws one density
    from each sixteenth of [0, 1), in seeded order.
    """

    name = "screen-6x6"
    limit_s = 5.0
    size = 6
    strata = 16
    rate_hint = 40
    probe = (
        "run(['tnn-check', '1,1,1,1,1,1\\n1,2,3,4,5,6\\n1,3,6,10,15,21\\n"
        "1,4,10,20,35,56\\n1,5,15,35,70,126\\n1,6,21,56,126,252', '--format', 'json'])"
    )

    def generate(self, seed: int, count: int) -> list[Op]:
        rng = _rng(self.name, seed)
        ops = []
        densities: list[float] = []
        for k in range(count):
            if not densities:
                densities = [(j + rng.random()) / self.strata for j in range(self.strata)]
                rng.shuffle(densities)
            black = sample_le_diagram(rng, self.size, self.size, densities.pop())
            label, rows = _seeded_input(rng, k, self.size, self.size, black)
            ops.append(Op(label, (_matrix_json(rows), rows), oracle.tnn_cell(rows)))
        return ops

    def execute(self, op: Op, tracer: Any) -> CliResult:
        return _cli_op(tracer, ("tnn-check", "-", "--format", "json"), op.payload[0])

    def check(self, op: Op, res: CliResult) -> str:
        if res.code == 3:
            return REFUSED
        want = op.expect
        if res.code not in (0, 1):
            raise _fail(op, f"exit {res.code}: {res.err.strip()}")
        got = json.loads(res.out)
        if got["tnn"] != (want is not None) or got["bruteforce"]["tnn"] != got["tnn"]:
            raise _fail(op, f"verdict tnn={got['tnn']}")
        if res.code != (0 if want is not None else 1):
            raise _fail(op, f"exit {res.code} for tnn={got['tnn']}")
        if want is not None:
            black = frozenset(tuple(c) for c in got["deletion"]["diagram"]["black"])
            if black != want:
                raise _fail(op, f"reported diagram {sorted(black)}")
            return OK
        witness = got["bruteforce"]["witness"]
        rows_s, cols_s = witness.strip("[]").split("|")
        key = (tuple(map(int, rows_s.split(","))), tuple(map(int, cols_s.split(","))))
        value = oracle.minor_value(op.payload[1], key)
        if value >= 0 or Fraction(got["bruteforce"]["witness_value"]) != value:
            raise _fail(op, f"witness {witness} = {got['bruteforce']['witness_value']}")
        return OK


# ---------------------------------------------------------------------------
# algebra-4x4
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Minor:
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    classical: Any  # the commutative minor as an MPoly in Y[i,a]


class AlgebraIdentities:
    """Commutators of quantum minors against the bracket, and Jacobi identities.

    Inputs come in blocks of 25 ops in seeded order: 16 commutator checks, one
    per pair of minor sizes (1-4, 1-4), and 9 Jacobi checks whose size
    triples (1-3) form a Latin square, so every block has the same size mix.
    Rows and columns are drawn at random. Jacobi triples stop at size 3
    because their cost with 4x4 minors swings tenfold with the rows drawn.
    """

    name = "algebra-4x4"
    limit_s = 10.0
    n = 4
    rate_hint = 40
    probe = (
        "from tnncells import poisson\n"
        "assert poisson.semiclassical_check(4, 4, 1, 1, 2, 2)"
    )

    def _minor(self, rng: random.Random, size: int, cache: dict) -> Minor:
        rows = tuple(sorted(rng.sample(range(1, self.n + 1), size)))
        cols = tuple(sorted(rng.sample(range(1, self.n + 1), size)))
        if (rows, cols) not in cache:
            cache[(rows, cols)] = Minor(rows, cols, self._classical(rows, cols))
        return cache[(rows, cols)]

    def _classical(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> Any:
        from tnncells import poisson

        n = self.n
        total = None
        for sigma in permutations(range(len(rows))):
            inversions = sum(
                1 for x in range(len(sigma)) for y in range(x + 1, len(sigma)) if sigma[x] > sigma[y]
            )
            term = poisson.coordinate(n, n, rows[0], cols[sigma[0]])
            for t in range(1, len(rows)):
                term = term * poisson.coordinate(n, n, rows[t], cols[sigma[t]])
            term = -term if inversions % 2 else term
            total = term if total is None else total + term
        return total

    def generate(self, seed: int, count: int) -> list[Op]:
        rng = _rng(self.name, seed)
        cache: dict = {}
        ops = []
        while len(ops) < count:
            block = []
            for k1 in range(1, 5):
                for k2 in range(1, 5):
                    a, b = self._minor(rng, k1, cache), self._minor(rng, k2, cache)
                    block.append(Op(f"commutator {a.rows}{a.cols} {b.rows}{b.cols}", ("comm", a, b), True))
            for k1 in range(1, 4):
                for k2 in range(1, 4):
                    k3 = (k1 + k2) % 3 + 1
                    f, g, h = (self._minor(rng, k, cache) for k in (k1, k2, k3))
                    block.append(Op(f"jacobi sizes {k1},{k2},{k3}", ("jacobi", f, g, h), True))
            rng.shuffle(block)
            ops.extend(block)
        return ops

    def execute(self, op: Op, tracer: Any) -> bool:
        from tnncells import poisson, quantum

        n = self.n
        kind, *minors = op.payload
        if kind == "comm":
            a, b = minors
            qa = quantum.quantum_minor(n, n, a.rows, a.cols)
            qb = quantum.quantum_minor(n, n, b.rows, b.cols)
            limit = poisson.semiclassical_poly(quantum.commutator(qa, qb))
            return limit == poisson.bracket(n, n, a.classical, b.classical)
        f, g, h = minors
        return poisson.jacobi_check(n, n, f.classical, g.classical, h.classical).is_zero

    def check(self, op: Op, holds: bool) -> str:
        if holds is not True:
            raise _fail(op, "identity does not hold")
        return OK


WORKLOADS: dict[str, Any] = {
    w.name: w for w in (VerifyAll(), ClassifyCells(), ScreenTnn(), AlgebraIdentities())
}
