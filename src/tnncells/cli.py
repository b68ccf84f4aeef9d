"""Command-line front end.

Exit codes follow one contract everywhere: 0 for an affirmative verdict or
successfully reported data, 1 for a negative verdict (including any failed
verification), 2 for usage or domain errors, 3 when a resource guard trips.
Every subcommand takes --format text|json; JSON payloads follow the same
schemas the library reads and are written on one line.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import click

from . import cells as cells_mod
from . import diagrams as diagrams_mod
from . import fixtures as fixtures_mod
from . import guards
from . import networks as networks_mod
from . import permutations as perm_mod
from . import poisson as poisson_mod
from . import quantum as quantum_mod
from . import cauchon as cauchon_mod
from .errors import ConsistencyError, DomainError, ResourceGuardError, parse_json, require_grid
from .matrices import (
    Matrix,
    MinorFamily,
    MinorIndex,
    all_minors,
    initial_minors,
    load_matrix_text,
    matrix_to_json,
    scan_minors,
)


class App(click.Group):
    def invoke(self, ctx: click.Context) -> Any:
        try:
            return super().invoke(ctx)
        except DomainError as exc:
            click.echo(f"error: {exc}", file=sys.stderr)
            sys.exit(2)
        except ResourceGuardError as exc:
            click.echo(f"resource guard: {exc}", file=sys.stderr)
            sys.exit(3)
        except ConsistencyError as exc:
            click.echo(f"consistency failure: {exc}", file=sys.stderr)
            sys.exit(1)
        except ValueError as exc:  # Python's cap on the digits of a printed int
            if "integer string conversion" not in str(exc):
                raise
            click.echo("resource guard: a number is too long to print", file=sys.stderr)
            sys.exit(3)


@click.group(cls=App)
@click.version_option(package_name="tnncells")
def main() -> None:
    """Exact tools for totally nonnegative cells."""


def format_option(fn):
    return click.option(
        "--format",
        "fmt",
        type=click.Choice(["text", "json"]),
        default="text",
        help="Output rendering.",
    )(fn)


def _read_source(value: str) -> str:
    """Resolve an argument that may be '-', a file path, or inline text."""
    try:
        if value == "-":
            return sys.stdin.read()
        if os.path.isfile(value):  # False, not OSError, for text too long to be a path
            return Path(value).read_text(encoding="utf-8")
    except (UnicodeDecodeError, OSError) as exc:
        raise DomainError(f"cannot read {value!r}: {exc}") from exc
    return value


def _matrix_arg(value: str) -> Matrix:
    return load_matrix_text(_read_source(value))


def _diagram_arg(value: str) -> diagrams_mod.CauchonDiagram:
    return diagrams_mod.CauchonDiagram.load_text(_read_source(value))


def _index_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x)
    except ValueError as exc:
        raise DomainError(f"bad index list {text!r}") from exc


def _emit(
    fmt: str,
    payload: dict[str, Any] | Callable[[], dict[str, Any]],
    text: str | Callable[[], str],
    code: int = 0,
) -> None:
    # A costly payload or listing is passed as a callable, built only in the
    # format that prints it.
    # Streams are passed explicitly: click caches a wrapper per default
    # stream and the cached wrapper of a text stream is the stream itself, so
    # a caller that swaps sys.stdout per call (in-process use, CliRunner)
    # would keep every call's output alive. JSON goes on one line: with an
    # indent the json module falls back from its C encoder to pure Python.
    if fmt == "json":
        click.echo(
            json.dumps(payload() if callable(payload) else payload), file=sys.stdout
        )
    else:
        click.echo(text() if callable(text) else text, file=sys.stdout)
    sys.exit(code)


def _listing(family: MinorFamily) -> str:
    return "\n".join(family.labels()) or "(none)"


def _verdict_code(ok: bool) -> int:
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Matrix commands
# ---------------------------------------------------------------------------


@main.command()
@click.argument("matrix")
@format_option
def minors(matrix: str, fmt: str) -> None:
    """List every minor of a matrix with its exact value."""
    M = _matrix_arg(matrix)
    values = all_minors(M)
    payload = {
        "m": M.m,
        "p": M.p,
        "count": len(values),
        "minors": [
            {"index": str(ix), **ix.to_json(), "value": str(v)} for ix, v in values
        ],
    }
    lines = [f"{ix} = {v}" for ix, v in values]
    lines.append(f"total {len(values)}")
    _emit(fmt, payload, "\n".join(lines))


@main.command(name="tp-check")
@click.argument("matrix")
@format_option
def tp_check(matrix: str, fmt: str) -> None:
    """Total positivity via initial minors (square matrices)."""
    M = _matrix_arg(matrix)
    values = initial_minors(M)
    verdict = all(v > 0 for _, v in values)
    payload = {
        "tp": verdict,
        "initial_minors": [
            {"index": str(ix), "value": str(v)} for ix, v in values
        ],
    }
    text = "totally positive" if verdict else "not totally positive"
    offenders = [f"  {ix} = {v}" for ix, v in values if v <= 0]
    if offenders:
        text += "\n" + "\n".join(offenders)
    _emit(fmt, payload, text, _verdict_code(verdict))


@main.command(name="tnn-check")
@click.argument("matrix")
@format_option
def tnn_check(matrix: str, fmt: str) -> None:
    """Total nonnegativity, by deleting derivations and by the all-minors scan.

    A route runs when its guard admits the matrix; two that run must agree. A
    matrix neither guard admits exits 3 on the sweep guard's refusal."""
    M = _matrix_arg(matrix)
    refused: dict[str, ResourceGuardError] = {}
    for route, guard in (("deletion", guards.ensure_sweep),
                         ("bruteforce", guards.ensure_minor_table)):
        try:
            guard(M.m, M.p)
        except ResourceGuardError as exc:
            refused[route] = exc
    if len(refused) == 2:
        raise refused["deletion"]
    method = "bruteforce" if "deletion" in refused else "deletion" if refused else "both"
    payload: dict[str, Any] = {"m": M.m, "p": M.p, "method": method}
    verdicts = []
    if method != "bruteforce":
        result = cauchon_mod.tnn_test(M)
        verdicts.append(result.is_tnn)
        payload["deletion"] = {
            "tnn": result.is_tnn,
            "final": matrix_to_json(result.final),
            "diagram": result.diagram.to_json() if result.diagram else None,
        }
    if method != "deletion":
        witness = scan_minors(M).negative  # (minor, value), or None when TNN
        verdicts.append(witness is None)
        payload["bruteforce"] = {
            "tnn": witness is None,
            "witness": witness and str(witness[0]),
            "witness_value": witness and str(witness[1]),
        }
    if len(set(verdicts)) > 1:
        raise ConsistencyError("deletion and brute-force verdicts disagree")
    verdict = verdicts[0]
    payload["tnn"] = verdict
    if verdict:
        text = "totally nonnegative"
        if method != "bruteforce" and result.diagram:
            text += "\n" + result.diagram.to_ascii()
    else:
        text = "not totally nonnegative"
        if method != "deletion":  # the routes agree, so the scan found a witness
            text += f": minor {witness[0]} = {witness[1]}"
    for route, exc in refused.items():
        text += f"\n{route} not run: {exc}"
    _emit(fmt, payload, text, _verdict_code(verdict))


def _run_sweep(matrix: str, fmt: str, stages: bool, forward: bool) -> None:
    M = _matrix_arg(matrix)
    if forward:
        sweep, staged = cauchon_mod.restoration, cauchon_mod.restoration_stages
    else:
        sweep, staged = cauchon_mod.deleting_derivations, cauchon_mod.deleting_stages
    steps = list(staged(M)) if stages else []
    final = steps[-1][1] if steps else sweep(M)
    payload: dict[str, Any] = {"final": matrix_to_json(final)}
    lines = []
    if stages:
        payload["stages"] = [
            {"step": list(ix), "matrix": matrix_to_json(stage)}
            for ix, stage in steps
        ]
        for ix, stage in steps:
            lines.append(f"after {ix}:")
            lines.append(str(stage))
    lines.append(str(final))
    _emit(fmt, payload, "\n".join(lines))


@main.command()
@click.argument("matrix")
@click.option("--stages", is_flag=True, help="Show the matrix after every step.")
@format_option
def restore(matrix: str, stages: bool, fmt: str) -> None:
    """Run the restoration sweep (1,1) up to (m,p)."""
    _run_sweep(matrix, fmt, stages, forward=True)


@main.command()
@click.argument("matrix")
@click.option("--stages", is_flag=True, help="Show the matrix after every step.")
@format_option
def delete(matrix: str, stages: bool, fmt: str) -> None:
    """Run the deleting-derivations sweep (m,p) down to (1,1)."""
    _run_sweep(matrix, fmt, stages, forward=False)


@main.command()
@click.option("--diagram", "-d", "diagram_src", required=True)
@click.option(
    "--symbolic/--ones",
    default=False,
    help="Symbolic entries per white cell, or every white cell set to 1.",
)
@format_option
def tc(diagram_src: str, symbolic: bool, fmt: str) -> None:
    """The canonical matrix of a diagram."""
    diagram = _diagram_arg(diagram_src)
    if symbolic:
        M = cauchon_mod.symbolic_TC(diagram)
        entries = [[str(x) for x in row] for row in M.rows]
        payload = {"m": M.m, "p": M.p, "entries": entries, "symbolic": True}
    else:
        M = cauchon_mod.ones_TC(diagram)
        payload = {**matrix_to_json(M), "symbolic": False}
    _emit(fmt, payload, str(M))


@main.command()
@click.option("--diagram", "-d", "diagram_src", required=True)
@format_option
def vanish(diagram_src: str, fmt: str) -> None:
    """The identically vanishing minors of a diagram's canonical matrix."""
    diagram = _diagram_arg(diagram_src)
    family = cauchon_mod.vanishing_family(diagram)
    _emit(fmt, family.to_json, lambda: _listing(family))


# ---------------------------------------------------------------------------
# Diagram commands
# ---------------------------------------------------------------------------


def _count_or_guard(m: int, p: int, count_only: bool, fmt: str, what: str) -> None:
    """Answer ``--count-only`` with the poly-Bernoulli number, which counts the
    diagrams and, through their pipe dreams, S(m, p); else refuse a listing
    over ``guards.LISTING_LIMIT`` before any of it is built."""
    count = diagrams_mod.poly_bernoulli(m, p)
    if count_only:
        _emit(fmt, {"m": m, "p": p, "count": count}, str(count))
    guards.ensure(count, guards.LISTING_LIMIT, what)


@main.group()
def diagram() -> None:
    """Diagram enumeration and validation."""


@diagram.command(name="enum")
@click.argument("m", type=int)
@click.argument("p", type=int)
@click.option("--count-only", is_flag=True)
@format_option
def diagram_enum(m: int, p: int, count_only: bool, fmt: str) -> None:
    """All diagrams of the grid, in canonical order."""
    stream = diagrams_mod.enumerate_diagrams(m, p)  # checks the sizes and the guard
    _count_or_guard(m, p, count_only, fmt, "diagrams to list")
    items = list(stream)
    payload = {
        "m": m,
        "p": p,
        "count": len(items),
        "diagrams": [d.to_json() for d in items],
    }
    text = "\n\n".join(d.to_ascii() for d in items) + f"\n\ntotal {len(items)}"
    _emit(fmt, payload, text)


@diagram.command(name="check")
@click.argument("grid")
@format_option
def diagram_check(grid: str, fmt: str) -> None:
    """Is a 0/1 or dot/hash grid a valid diagram?"""
    m, p, black = diagrams_mod.parse_grid(_read_source(grid))
    ok = diagrams_mod.is_cauchon(m, p, frozenset(black))
    payload = {"m": m, "p": p, "valid": ok}
    _emit(fmt, payload, "valid" if ok else "not a diagram", _verdict_code(ok))


# ---------------------------------------------------------------------------
# Network commands
# ---------------------------------------------------------------------------


@main.group()
def network() -> None:
    """Planar networks and path counting."""


@network.command(name="from-diagram")
@click.option("--diagram", "-d", "diagram_src", required=True)
@click.option("--dot", "as_dot", is_flag=True, help="Emit Graphviz DOT.")
@format_option
def network_from_diagram(diagram_src: str, as_dot: bool, fmt: str) -> None:
    """Build the dot-and-hook network of a diagram."""
    net = networks_mod.postnikov_network(_diagram_arg(diagram_src))
    if as_dot:
        click.echo(net.to_dot(), file=sys.stdout)
        sys.exit(0)
    payload = net.to_json()
    _emit(fmt, payload, json.dumps(payload, indent=2))


def _network_arg(diagram_src: str | None, network_src: str | None):
    if (diagram_src is None) == (network_src is None):
        raise DomainError("give exactly one of --diagram or --network")
    if diagram_src is not None:
        return networks_mod.postnikov_network(_diagram_arg(diagram_src))
    return networks_mod.PlanarNetwork.from_json(parse_json(_read_source(network_src), "network"))


@network.command(name="path-matrix")
@click.option("--diagram", "-d", "diagram_src", default=None)
@click.option("--network", "-n", "network_src", default=None)
@format_option
def network_path_matrix(diagram_src, network_src, fmt: str) -> None:
    """Weighted source-to-sink path sums."""
    if diagram_src is not None and network_src is None:  # charged before it is built
        M = networks_mod.diagram_path_matrix(_diagram_arg(diagram_src))
    else:
        M = networks_mod.path_matrix(_network_arg(diagram_src, network_src))
    _emit(fmt, matrix_to_json(M), str(M))


@network.command(name="lindstrom")
@click.option("--diagram", "-d", "diagram_src", default=None)
@click.option("--network", "-n", "network_src", default=None)
@click.option("--rows", required=True)
@click.option("--cols", required=True)
@format_option
def network_lindstrom(diagram_src, network_src, rows: str, cols: str, fmt: str) -> None:
    """Count vertex-disjoint path families from sources to sinks."""
    net = _network_arg(diagram_src, network_src)
    ix = MinorIndex(_index_list(rows), _index_list(cols))
    count = networks_mod.nonintersecting_count(net, ix)
    payload = {"index": str(ix), "count": str(count)}
    _emit(fmt, payload, str(count))


# ---------------------------------------------------------------------------
# Permutation commands
# ---------------------------------------------------------------------------


@main.group()
def perm() -> None:
    """Restricted permutations and pipe dreams."""


@perm.command(name="enum")
@click.argument("m", type=int)
@click.argument("p", type=int)
@click.option("--count-only", is_flag=True)
@format_option
def perm_enum(m: int, p: int, count_only: bool, fmt: str) -> None:
    """All restricted permutations in lexicographic order."""
    stream = perm_mod.enumerate_restricted(m, p)  # checks the sizes and the guard
    _count_or_guard(m, p, count_only, fmt, "permutations to list")
    items = list(stream)
    payload = {
        "m": m,
        "p": p,
        "count": len(items),
        "permutations": [w.one_line() for w in items],
    }
    text = "\n".join(w.one_line() for w in items) + f"\ntotal {len(items)}"
    _emit(fmt, payload, text)


@perm.command(name="pipedream")
@click.option("--diagram", "-d", "diagram_src", required=True)
@format_option
def perm_pipedream(diagram_src: str, fmt: str) -> None:
    """Trace a diagram's pipes to a permutation."""
    w = perm_mod.pipe_dream(_diagram_arg(diagram_src))
    payload = {"one_line": w.one_line(), "cycles": w.cycle_string()}
    _emit(fmt, payload, w.one_line())


@perm.command(name="inverse-pipedream")
@click.argument("w")
@click.option("--m", "m", type=int, required=True)
@click.option("--p", "p", type=int, required=True)
@format_option
def perm_inverse_pipedream(w: str, m: int, p: int, fmt: str) -> None:
    """The diagram whose pipes trace to the given permutation."""
    require_grid(m, p)
    perm_value = perm_mod.parse_permutation(w, m + p)
    diagram = perm_mod.inverse_pipe_dream(perm_value, m, p)
    _emit(fmt, diagram.to_json(), diagram.to_ascii())


@perm.command(name="mw")
@click.argument("w")
@click.option("--m", "m", type=int, required=True)
@click.option("--p", "p", type=int, required=True)
@format_option
def perm_mw(w: str, m: int, p: int, fmt: str) -> None:
    """The minor family attached to a restricted permutation."""
    require_grid(m, p)
    perm_value = perm_mod.parse_permutation(w, m + p)
    family = perm_mod.minor_family(perm_value, m, p)
    _emit(fmt, family.to_json, lambda: _listing(family))


@perm.command(name="bruhat")
@click.argument("u")
@click.argument("w")
@format_option
def perm_bruhat(u: str, w: str, fmt: str) -> None:
    """Is u below w in Bruhat order?"""
    pu = perm_mod.parse_permutation(u)
    pw = perm_mod.parse_permutation(w, pu.n)
    ok = perm_mod.bruhat_leq(pu, pw)
    payload = {"u": pu.one_line(), "w": pw.one_line(), "leq": ok}
    _emit(fmt, payload, "yes" if ok else "no", _verdict_code(ok))


# ---------------------------------------------------------------------------
# Cell commands
# ---------------------------------------------------------------------------


@main.group(name="cells")
def cells_group() -> None:
    """Admissible families and cell classification."""


@cells_group.command(name="enum")
@click.argument("m", type=int)
@click.argument("p", type=int)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@format_option
def cells_enum(m: int, p: int, out: str | None, fmt: str) -> None:
    """One descriptor per nonempty cell."""
    descriptors = cells_mod.admissible_families(m, p)
    payload = {
        "m": m,
        "p": p,
        "count": len(descriptors),
        "cells": [d.to_json() for d in descriptors],
    }
    if out:
        Path(out).write_text(json.dumps(payload["cells"], indent=2))
        _emit(fmt, {"written": out, "count": len(descriptors)},
              f"wrote {len(descriptors)} descriptors to {out}")
    lines = [
        f"{d.permutation.one_line()}  {d.diagram.to_ascii().replace(chr(10), '/')}"
        f"  |family|={len(d.family)}"
        for d in descriptors
    ]
    lines.append(f"total {len(descriptors)}")
    _emit(fmt, payload, "\n".join(lines))


@cells_group.command(name="admissible")
@click.option("--family", "-f", "family_src", required=True)
@format_option
def cells_admissible(family_src: str, fmt: str) -> None:
    """Is a minor family the vanishing set of a nonempty cell?"""
    family = MinorFamily.from_json(parse_json(_read_source(family_src), "minor family"))
    verdict = cells_mod.is_admissible(family)
    payload = {
        "admissible": verdict.admissible,
        "descriptor": verdict.descriptor.to_json() if verdict.descriptor else None,
    }
    if verdict.admissible:
        text = "admissible\n" + verdict.descriptor.diagram.to_ascii()
    else:
        text = "not admissible"
    _emit(fmt, payload, text, _verdict_code(verdict.admissible))


@cells_group.command(name="of")
@click.argument("matrix")
@format_option
def cells_of(matrix: str, fmt: str) -> None:
    """Classify a TNN matrix into its cell."""
    descriptor = cells_mod.cell_of(_matrix_arg(matrix))
    _emit(fmt, descriptor.to_json, lambda: "\n".join([
        descriptor.diagram.to_ascii(),
        f"permutation {descriptor.permutation.one_line()}",
        f"family {descriptor.family}",
    ]))


@cells_group.command(name="verify")
@click.argument("m", type=int)
@click.argument("p", type=int)
@click.option("--jobs", default=1, show_default=True)
@format_option
def cells_verify(m: int, p: int, jobs: int, fmt: str) -> None:
    """Cross-check the family routes on every diagram."""
    report = cells_mod.unifying_check(m, p, jobs=jobs)
    text = (f"{report.agreements}/{report.total} agree, {report.expected} diagrams expected "
            f"({report.elapsed:.2f}s)")
    if report.mismatches:
        text += "\nmismatches:\n" + json.dumps(list(report.mismatches), indent=2)
    _emit(fmt, report.to_json(), text, _verdict_code(report.ok))


# ---------------------------------------------------------------------------
# Quantum commands
# ---------------------------------------------------------------------------


def _mp_options(fn):
    fn = click.option("--p", "p", type=int, default=2, show_default=True)(fn)
    fn = click.option("--m", "m", type=int, default=2, show_default=True)(fn)
    return fn


@main.group()
def quantum() -> None:
    """Quantum matrix algebra."""


@quantum.command(name="nf")
@click.argument("expr")
@_mp_options
@format_option
def quantum_nf(expr: str, m: int, p: int, fmt: str) -> None:
    """Normal form of an expression in the generators."""
    value = quantum_mod.parse_qpoly(expr, m, p)
    payload = {
        "m": m,
        "p": p,
        "terms": [
            {"word": [list(g) for g in word], "coeff": str(coeff)}
            for word, coeff in sorted(value.terms.items())
        ],
        "normal_form": value.to_str(),
    }
    _emit(fmt, payload, value.to_str())


@quantum.command(name="minor")
@click.option("--rows", required=True)
@click.option("--cols", required=True)
@_mp_options
@format_option
def quantum_minor_cmd(rows: str, cols: str, m: int, p: int, fmt: str) -> None:
    """The signed permutation-sum minor."""
    value = quantum_mod.quantum_minor(m, p, _index_list(rows), _index_list(cols))
    payload = {"normal_form": value.to_str()}
    _emit(fmt, payload, value.to_str())


@quantum.command(name="comm")
@click.argument("f")
@click.argument("g")
@_mp_options
@format_option
def quantum_comm(f: str, g: str, m: int, p: int, fmt: str) -> None:
    """Commutator fg - gf in normal form."""
    value = quantum_mod.commutator(
        quantum_mod.parse_qpoly(f, m, p), quantum_mod.parse_qpoly(g, m, p)
    )
    payload = {"normal_form": value.to_str(), "zero": value.is_zero}
    _emit(fmt, payload, value.to_str())


# ---------------------------------------------------------------------------
# Poisson commands
# ---------------------------------------------------------------------------


@main.group()
def poisson() -> None:
    """Poisson brackets and Hamiltonian flows."""


@poisson.command(name="bracket")
@click.argument("f")
@click.argument("g")
@_mp_options
@format_option
def poisson_bracket(f: str, g: str, m: int, p: int, fmt: str) -> None:
    """The bracket {f, g}."""
    value = poisson_mod.bracket(
        m, p, poisson_mod.parse_poisson(f, m, p), poisson_mod.parse_poisson(g, m, p)
    )
    _emit(fmt, {"bracket": str(value), "zero": value.is_zero}, str(value))


@poisson.command(name="jacobi")
@click.argument("f")
@click.argument("g")
@click.argument("h")
@_mp_options
@format_option
def poisson_jacobi(f: str, g: str, h: str, m: int, p: int, fmt: str) -> None:
    """The Jacobi cyclic sum; exits 0 exactly when it vanishes."""
    value = poisson_mod.jacobi_check(
        m,
        p,
        poisson_mod.parse_poisson(f, m, p),
        poisson_mod.parse_poisson(g, m, p),
        poisson_mod.parse_poisson(h, m, p),
    )
    _emit(
        fmt,
        {"jacobi_sum": str(value), "zero": value.is_zero},
        str(value),
        _verdict_code(value.is_zero),
    )


@poisson.command(name="semiclassical")
@_mp_options
@format_option
def poisson_semiclassical(m: int, p: int, fmt: str) -> None:
    """Compare quantum commutators at q -> 1 with the bracket, all pairs."""
    results = [
        {"pair": [list(u), list(v)], "ok": ok}
        for u, v, ok in poisson_mod.semiclassical_pairs(m, p)
    ]
    all_ok = all(r["ok"] for r in results)
    payload = {"m": m, "p": p, "pairs": results, "ok": all_ok}
    bad = [r for r in results if not r["ok"]]
    text = (
        f"{len(results) - len(bad)}/{len(results)} generator pairs agree"
        + ("" if not bad else "\nfailures: " + json.dumps(bad))
    )
    _emit(fmt, payload, text, _verdict_code(all_ok))


@poisson.command(name="flow")
@click.option("--path", "path_src", required=True)
@click.option("--hamiltonian", "-H", "ham", default="a", show_default=True)
@format_option
def poisson_flow(path_src: str, ham: str, fmt: str) -> None:
    """Check a closed-form path against the flow equation."""
    path = poisson_mod.FlowPath.from_json(parse_json(_read_source(path_src), "path"))
    hamiltonian = poisson_mod.parse_poisson(ham, path.m, path.p)
    report = poisson_mod.verify_flow(path, hamiltonian)
    payload = {
        "symbolic_zero": report.symbolic_zero,
        "coordinate": list(report.coordinate) if report.coordinate else None,
        "residual": str(report.residual),
    }
    _emit(fmt, payload, str(report), _verdict_code(report.symbolic_zero))


# ---------------------------------------------------------------------------
# Batch verification and fixtures
# ---------------------------------------------------------------------------


@main.group()
def verify() -> None:
    """Batch cross-checks."""


@verify.command(name="all")
@click.option("--m", "m", type=int, default=2, show_default=True)
@click.option("--p", "p", type=int, default=2, show_default=True)
@click.option("--jobs", default=1, show_default=True)
@format_option
def verify_all(m: int, p: int, jobs: int, fmt: str) -> None:
    """Run every cross-check suite at one grid size."""
    cells_mod.check_walk(m, p, jobs)
    checks: list[dict[str, Any]] = []

    def check(name: str, ok: bool, detail: str) -> None:
        checks.append({"name": name, "ok": ok, "detail": detail})

    @contextmanager
    def suite(*names: str) -> Iterator[None]:
        """The arguments are checked before any suite runs, so a
        ConsistencyError or DomainError a suite raises is a fault of the
        program: each of its checks fails with the message, and the other
        suites still run. A suite adds its checks after all its work."""
        try:
            yield
        except (ConsistencyError, DomainError) as exc:
            for name in names:
                check(name, False, f"{type(exc).__name__}: {exc}")

    with suite("unifying", "lindstrom"):
        report = cells_mod.unifying_check(m, p, jobs=jobs, lindstrom=True)
        detail = f"{report.agreements}/{report.total} diagrams agree"
        if report.total != report.expected:
            detail += f", {report.expected} expected"
        checked, mismatched = report.lindstrom
        check("unifying", report.ok, detail)
        check(
            "lindstrom",
            mismatched == 0,
            f"{checked - mismatched}/{checked} minors match path counts",
        )

    with suite("quantum-relations"):
        bad_relations = quantum_mod.defining_relations_hold(m, p)
        check(
            "quantum-relations",
            not bad_relations,
            f"{len(bad_relations)} broken generator pairs",
        )
    if (m, p) == (2, 2):
        with suite("quantum-determinant-central"):
            central = quantum_mod.is_central_2x2_determinant()
            check(
                "quantum-determinant-central",
                central,
                "D_q commutes with a,b,c,d" if central else "not central",
            )

    with suite("semiclassical"):
        verdicts = [ok for _, _, ok in poisson_mod.semiclassical_pairs(m, p)]
        check("semiclassical", all(verdicts), f"{sum(verdicts)}/{len(verdicts)} pairs agree")

    for name in fixtures_mod.FLOW_NAMES:
        with suite(f"flow:{name}"):
            path = fixtures_mod.load_flow(name)
            hamiltonian = poisson_mod.parse_poisson("a", path.m, path.p)
            flow_report = poisson_mod.verify_flow(path, hamiltonian)
            check(f"flow:{name}", flow_report.symbolic_zero, str(flow_report))

    passed = sum(1 for c in checks if c["ok"])
    all_ok = passed == len(checks)
    payload = {"m": m, "p": p, "passed": passed, "total": len(checks), "checks": checks}
    lines = [
        f"[{'PASS' if c['ok'] else 'FAIL'}] {c['name']}: {c['detail']}" for c in checks
    ]
    lines.append(f"{passed}/{len(checks)} suites passed")
    _emit(fmt, payload, "\n".join(lines), _verdict_code(all_ok))


@main.command()
@click.option("--out", type=click.Path(file_okay=False), required=True)
@format_option
def fixtures(out: str, fmt: str) -> None:
    """Export the bundled demonstration files."""
    written = fixtures_mod.export_all(out)
    payload = {"written": [str(w) for w in written]}
    _emit(fmt, payload, "\n".join(str(w) for w in written))


if __name__ == "__main__":
    main()
