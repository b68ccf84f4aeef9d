"""End-to-end command-line coverage, one happy path and key exits per command."""

import contextlib
import gc
import io
import json
import multiprocessing
import os
import resource
import subprocess
import sys
import time
import weakref
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

import oracles
from tnncells import fixtures, guards
from tnncells.cauchon import ones_TC
from tnncells.cli import main
from tnncells.diagrams import CauchonDiagram, enumerate_diagrams, poly_bernoulli
from tnncells.matrices import MinorFamily, matrix_to_json
from tnncells.networks import postnikov_network
from tnncells.permutations import minor_family, pipe_dream


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def demo_diagram(tmp_path):
    f = tmp_path / "demo.diag"
    f.write_text(".#.\n##.\n...\n")
    return str(f)


@pytest.fixture()
def tnn_matrix(tmp_path):
    f = tmp_path / "m.json"
    f.write_text(json.dumps({
        "m": 3, "p": 3,
        "entries": [["2", "1", "1"], ["1", "1", "1"], ["1", "1", "1"]],
    }))
    return str(f)


@pytest.fixture()
def bad_matrix(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("0,1\n1,0\n")
    return str(f)


def test_minors_lists_all(runner, tnn_matrix):
    result = runner.invoke(main, ["minors", tnn_matrix, "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["count"] == 19


def test_tp_check_verdicts(runner, tmp_path):
    good = tmp_path / "tp.csv"
    good.write_text("1,1\n1,2\n")
    assert runner.invoke(main, ["tp-check", str(good)]).exit_code == 0
    flat = tmp_path / "flat.csv"
    flat.write_text("1,1\n1,1\n")
    assert runner.invoke(main, ["tp-check", str(flat)]).exit_code == 1


def test_tnn_check_both_routes(runner, tnn_matrix, bad_matrix):
    ok = runner.invoke(main, ["tnn-check", tnn_matrix])
    assert ok.exit_code == 0
    assert "totally nonnegative" in ok.output
    bad = runner.invoke(main, ["tnn-check", bad_matrix])
    assert bad.exit_code == 1
    assert "[1,2|1,2]" in bad.output


def test_tnn_check_runs_the_deletion_test_once(runner, tnn_matrix, monkeypatch):
    from tnncells import cauchon

    calls = []
    real_tnn_test = cauchon.tnn_test

    def counting_tnn_test(M):
        calls.append(M)
        return real_tnn_test(M)

    monkeypatch.setattr(cauchon, "tnn_test", counting_tnn_test)
    result = runner.invoke(main, ["tnn-check", tnn_matrix])
    assert result.exit_code == 0
    assert len(calls) == 1
    assert CauchonDiagram.from_ascii(".#.\n##.\n...").to_ascii() in result.output


def test_restore_and_delete_are_inverse_on_files(runner, tmp_path):
    seed = tmp_path / "seed.csv"
    seed.write_text("1,-1,1\n0,2,1\n1,1,1\n")
    restored = runner.invoke(
        main, ["restore", str(seed), "--format", "json"]
    )
    assert restored.exit_code == 0
    entries = json.loads(restored.output)["final"]["entries"]
    assert entries == [["3", "2", "1"], ["3", "3", "1"], ["1", "1", "1"]]

    back = tmp_path / "restored.json"
    back.write_text(json.dumps(json.loads(restored.output)["final"]))
    deleted = runner.invoke(main, ["delete", str(back), "--format", "json"])
    assert json.loads(deleted.output)["final"]["entries"] == [
        ["1", "-1", "1"], ["0", "2", "1"], ["1", "1", "1"],
    ]


def test_restore_stages_flag(runner, tmp_path):
    seed = tmp_path / "seed.csv"
    seed.write_text("1,-1,1\n0,2,1\n1,1,1\n")
    result = runner.invoke(
        main, ["restore", str(seed), "--stages", "--format", "json"]
    )
    payload = json.loads(result.output)
    assert len(payload["stages"]) == 9


@pytest.mark.parametrize("command", ["restore", "delete"])
def test_sweep_without_stages_prints_the_last_stage(runner, tmp_path, command):
    # the sweep alone gives the final matrix that --stages ends with, in text
    # and in JSON
    seed = tmp_path / "seed.csv"
    for text in ("1,-1,1\n0,2,1\n1,1,1\n", "1,1,1,1\n1,2,3,4\n1,3,6,10\n1,4,10,20\n",
                 "2,-1\n1/2,0\n3,1\n"):
        seed.write_text(text)
        staged = runner.invoke(main, [command, str(seed), "--stages", "--format", "json"])
        plain = runner.invoke(main, [command, str(seed), "--format", "json"])
        assert plain.exit_code == staged.exit_code == 0
        final = json.loads(staged.output)["final"]
        assert final == json.loads(staged.output)["stages"][-1]["matrix"]
        assert plain.output == json.dumps({"final": final}) + "\n"
        staged, plain = (runner.invoke(main, [command, str(seed), *flag])
                         for flag in (["--stages"], []))
        assert staged.output.endswith("\n" + plain.output)


def test_tc_ones_and_symbolic(runner, demo_diagram):
    ones = runner.invoke(main, ["tc", "-d", demo_diagram, "--format", "json"])
    assert json.loads(ones.output)["entries"][0] == ["2", "1", "1"]
    symbolic = runner.invoke(main, ["tc", "-d", demo_diagram, "--symbolic"])
    assert "t[3,3]" in symbolic.output


def test_tc_symbolic_prints_laurent_entries(runner):
    data = Path(fixtures.__file__).parent / "data" / "demo_diagram_3x3.diag"
    result = runner.invoke(main, ["tc", "-d", str(data), "--symbolic", "--format", "json"])
    assert result.exit_code == 0, result.output
    entries = json.loads(result.output)["entries"]
    assert entries[0][0] == "t[1,1] + t[1,3]*t[3,1]*t[3,3]^-1"


def test_vanish(runner, demo_diagram):
    result = runner.invoke(main, ["vanish", "-d", demo_diagram, "--format", "json"])
    payload = json.loads(result.output)
    assert len(payload["members"]) == 6


def _timed(runner, args):
    started = time.perf_counter()
    result = runner.invoke(main, args)
    return result, time.perf_counter() - started


def test_vanish_full_4x4_family_is_quick(runner):
    # the vanishing family of a 4x4 diagram with fifteen white cells
    grid = "#.../..../..../...."
    result, took = _timed(runner, ["vanish", "-d", grid, "--format", "json"])
    assert result.exit_code == 0, result.output
    family = MinorFamily.from_json(json.loads(result.output))
    d = CauchonDiagram.from_ascii(grid)
    assert family == minor_family(pipe_dream(d), 4, 4)
    assert took < 1.0


def test_cells_of_symmetric_fixture_is_quick(runner):
    data = Path(fixtures.__file__).parent / "data" / "symmetric_4x4.json"
    result, took = _timed(runner, ["cells", "of", str(data), "--format", "json"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["diagram"]["black"] == [[1, 2], [2, 1], [2, 2]]
    assert took < 1.0


def test_diagram_enum_and_check(runner, tmp_path):
    count = runner.invoke(main, ["diagram", "enum", "2", "2", "--count-only"])
    assert count.output.strip() == "14"
    listing = runner.invoke(
        main, ["diagram", "enum", "2", "2", "--format", "json"]
    )
    assert json.loads(listing.output)["count"] == 14

    ok = runner.invoke(main, ["diagram", "check", ".#/.#"])
    assert ok.exit_code == 0
    bad = runner.invoke(main, ["diagram", "check", "../.#"])
    assert bad.exit_code == 1
    le = runner.invoke(main, ["diagram", "check", "11/10"])
    assert le.exit_code == 1
    # malformed text, including grids that name a directory ("", "../.")
    for grid in ["../.x", "../.", ""]:
        malformed = runner.invoke(main, ["diagram", "check", grid])
        assert malformed.exit_code == 2, (grid, malformed.output)
        assert "Traceback" not in malformed.output


def test_network_commands(runner, demo_diagram):
    built = runner.invoke(
        main, ["network", "from-diagram", "-d", demo_diagram, "--format", "json"]
    )
    assert built.exit_code == 0
    net_json = built.output

    pm = runner.invoke(
        main, ["network", "path-matrix", "-d", demo_diagram, "--format", "json"]
    )
    assert json.loads(pm.output)["entries"][0] == ["2", "1", "1"]

    lind = runner.invoke(
        main,
        ["network", "lindstrom", "-d", demo_diagram,
         "--rows", "1,2", "--cols", "1,2"],
    )
    assert lind.output.strip() == "1"

    dot = runner.invoke(main, ["network", "from-diagram", "-d", demo_diagram, "--dot"])
    assert "digraph" in dot.output
    assert net_json.startswith("{")


# `network from-diagram -d demo/demo_diagram_3x3.diag` in JSON and in DOT:
# the vertices sorted, the row edges from the top row down, then the column
# edges from the left column right
DEMO_NETWORK_JSON = (
    '{"m": 3, "p": 3, "vertices": ['
    '"dot:1,1", "dot:1,3", "dot:2,3", "dot:3,1", "dot:3,2", "dot:3,3", '
    '"s1", "s2", "s3", "t1", "t2", "t3"], "edges": ['
    '{"from": "s1", "to": "dot:1,3", "weight": "1"}, '
    '{"from": "dot:1,3", "to": "dot:1,1", "weight": "1"}, '
    '{"from": "s2", "to": "dot:2,3", "weight": "1"}, '
    '{"from": "s3", "to": "dot:3,3", "weight": "1"}, '
    '{"from": "dot:3,3", "to": "dot:3,2", "weight": "1"}, '
    '{"from": "dot:3,2", "to": "dot:3,1", "weight": "1"}, '
    '{"from": "dot:1,1", "to": "dot:3,1", "weight": "1"}, '
    '{"from": "dot:3,1", "to": "t1", "weight": "1"}, '
    '{"from": "dot:3,2", "to": "t2", "weight": "1"}, '
    '{"from": "dot:1,3", "to": "dot:2,3", "weight": "1"}, '
    '{"from": "dot:2,3", "to": "dot:3,3", "weight": "1"}, '
    '{"from": "dot:3,3", "to": "t3", "weight": "1"}], '
    '"coords": {'
    '"dot:1,1": [1.0, -1.0], '
    '"dot:1,3": [3.0, -1.0], '
    '"dot:2,3": [3.0, -2.0], '
    '"dot:3,1": [1.0, -3.0], '
    '"dot:3,2": [2.0, -3.0], '
    '"dot:3,3": [3.0, -3.0], '
    '"s1": [4.0, -1.0], '
    '"s2": [4.0, -2.0], '
    '"s3": [4.0, -3.0], '
    '"t1": [1.0, -4.0], '
    '"t2": [2.0, -4.0], '
    '"t3": [3.0, -4.0]}}\n'
)

DEMO_NETWORK_DOT = """\
digraph network {
  rankdir=RL;
  "dot:1,1" [shape=point, pos="1.0,-1.0!", label="dot:1,1"];
  "dot:1,3" [shape=point, pos="3.0,-1.0!", label="dot:1,3"];
  "dot:2,3" [shape=point, pos="3.0,-2.0!", label="dot:2,3"];
  "dot:3,1" [shape=point, pos="1.0,-3.0!", label="dot:3,1"];
  "dot:3,2" [shape=point, pos="2.0,-3.0!", label="dot:3,2"];
  "dot:3,3" [shape=point, pos="3.0,-3.0!", label="dot:3,3"];
  "s1" [shape=circle, pos="4.0,-1.0!", label="s1"];
  "s2" [shape=circle, pos="4.0,-2.0!", label="s2"];
  "s3" [shape=circle, pos="4.0,-3.0!", label="s3"];
  "t1" [shape=circle, pos="1.0,-4.0!", label="t1"];
  "t2" [shape=circle, pos="2.0,-4.0!", label="t2"];
  "t3" [shape=circle, pos="3.0,-4.0!", label="t3"];
  "s1" -> "dot:1,3";
  "dot:1,3" -> "dot:1,1";
  "s2" -> "dot:2,3";
  "s3" -> "dot:3,3";
  "dot:3,3" -> "dot:3,2";
  "dot:3,2" -> "dot:3,1";
  "dot:1,1" -> "dot:3,1";
  "dot:3,1" -> "t1";
  "dot:3,2" -> "t2";
  "dot:1,3" -> "dot:2,3";
  "dot:2,3" -> "dot:3,3";
  "dot:3,3" -> "t3";
}
"""


@pytest.mark.parametrize("flag, expect", [
    ("--format=json", DEMO_NETWORK_JSON), ("--dot", DEMO_NETWORK_DOT),
])
def test_network_output_is_pinned(runner, flag, expect):
    demo = Path(fixtures.__file__).parent / "data" / "demo_diagram_3x3.diag"
    result = runner.invoke(main, ["network", "from-diagram", "-d", str(demo), flag])
    assert result.exit_code == 0, result.output
    assert result.output == expect


def test_network_needs_exactly_one_input(runner, demo_diagram):
    result = runner.invoke(main, ["network", "path-matrix"])
    assert result.exit_code == 2


def test_perm_commands(runner, demo_diagram):
    enum = runner.invoke(main, ["perm", "enum", "2", "2", "--count-only"])
    assert enum.output.strip() == "14"

    pd = runner.invoke(main, ["perm", "pipedream", "-d", demo_diagram])
    assert pd.output.strip() == "135246"

    inv = runner.invoke(
        main, ["perm", "inverse-pipedream", "135246", "--m", "3", "--p", "3"]
    )
    assert inv.output.strip() == ".#.\n##.\n..."

    mw = runner.invoke(
        main, ["perm", "mw", "(2 3 5 4)", "--m", "3", "--p", "3", "--format", "json"]
    )
    assert len(json.loads(mw.output)["members"]) == 6

    assert runner.invoke(main, ["perm", "bruhat", "1234", "3412"]).exit_code == 0
    assert runner.invoke(main, ["perm", "bruhat", "3412", "1234"]).exit_code == 1


def test_cells_commands(runner, tnn_matrix, bad_matrix, tmp_path):
    enum = runner.invoke(main, ["cells", "enum", "2", "2", "--format", "json"])
    assert json.loads(enum.output)["count"] == 14

    fam = tmp_path / "family.json"
    fam.write_text(json.dumps({
        "m": 2, "p": 2,
        "members": [{"rows": [2], "cols": [2]}],
    }))
    rejected = runner.invoke(main, ["cells", "admissible", "-f", str(fam)])
    assert rejected.exit_code == 1

    of = runner.invoke(main, ["cells", "of", tnn_matrix, "--format", "json"])
    assert json.loads(of.output)["permutation"] == "135246"

    bad = runner.invoke(main, ["cells", "of", bad_matrix])
    assert bad.exit_code == 2

    verify = runner.invoke(main, ["cells", "verify", "2", "2", "--format", "json"])
    assert verify.exit_code == 0
    assert json.loads(verify.output)["agreements"] == 14


def test_quantum_commands(runner):
    nf = runner.invoke(main, ["quantum", "nf", "d*a", "--m", "2", "--p", "2"])
    assert nf.output.strip() == "a*d - (q - q^-1)*b*c"

    qm = runner.invoke(
        main,
        ["quantum", "minor", "--rows", "1,2", "--cols", "1,2",
         "--m", "2", "--p", "2"],
    )
    assert qm.output.strip() == "a*d - q*b*c"

    comm = runner.invoke(
        main, ["quantum", "comm", "a", "d", "--format", "json"]
    )
    payload = json.loads(comm.output)
    assert payload["normal_form"] == "(q - q^-1)*b*c"
    assert payload["zero"] is False


def test_poisson_commands(runner, tmp_path):
    br = runner.invoke(main, ["poisson", "bracket", "a", "d"])
    assert br.output.strip() == "2*Y[1,2]*Y[2,1]"

    jac = runner.invoke(main, ["poisson", "jacobi", "a*d", "b", "c+d"])
    assert jac.exit_code == 0

    semi = runner.invoke(main, ["poisson", "semiclassical", "--format", "json"])
    assert semi.exit_code == 0
    assert json.loads(semi.output)["ok"] is True

    flow = tmp_path / "flow.json"
    flow.write_text(json.dumps({
        "m": 2, "p": 2,
        "entries": [["0", "3"], ["5", "30*t"]],
    }))
    run = runner.invoke(main, ["poisson", "flow", "--path", str(flow)])
    assert run.exit_code == 0
    assert "exactly" in run.output


def test_verify_all(runner):
    result = runner.invoke(
        main, ["verify", "all", "--m", "2", "--p", "2", "--format", "json"]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["passed"] == payload["total"]


# unifying_check imports multiprocessing.Pool inside its jobs > 1 branch, so a
# stand-in set on the multiprocessing module is the pool it starts
class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("no worker process may start")


@pytest.mark.parametrize(
    "command", [["cells", "verify", "2", "2"], ["verify", "all", "--m", "2", "--p", "2"]],
    ids=["cells-verify", "verify-all"],
)
@pytest.mark.parametrize(
    "jobs, code, message",
    [("0", 2, "jobs must be at least 1, got 0"), ("-3", 2, "jobs must be at least 1, got -3"),
     ("5000", 3, "worker processes: 5000 exceeds the limit of 64")],
    ids=["zero", "negative", "5000"],
)
def test_jobs_out_of_range_are_refused_before_a_worker_starts(
    runner, monkeypatch, command, jobs, code, message
):
    monkeypatch.setattr(multiprocessing, "Pool", _NoPool)
    result = runner.invoke(main, [*command, "--jobs", jobs])
    assert result.exit_code == code, result.output
    assert message in result.output


def test_workers_never_outnumber_the_bottom_rows(runner, monkeypatch):
    started = []

    class InProcessPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    result = runner.invoke(main, ["cells", "verify", "2", "2", "--jobs", "64"])
    assert result.exit_code == 0, result.output
    assert started == [4]  # one task per bottom row of the 2x2 grid


def test_one_worker_never_loads_the_pool():
    """A fresh process that classifies a fixture and runs verify all in one
    worker imports nothing of multiprocessing or concurrent.futures."""
    src = Path(__file__).resolve().parents[1] / "src"
    program = (
        "import sys\n"
        "from tnncells.cli import main\n"
        f"for args in (['cells', 'of', {str(src / 'tnncells' / 'data' / 'tnn_4x4.json')!r}],\n"
        "             ['verify', 'all', '--m', '2', '--p', '2']):\n"
        "    try:\n"
        "        main(args)\n"
        "    except SystemExit as exc:\n"
        "        assert not exc.code, (args, exc.code)\n"
        "print('loaded:', *sorted(name for name in sys.modules\n"
        "                         for package in ('multiprocessing', 'concurrent.futures')\n"
        "                         if name == package or name.startswith(package + '.')), file=sys.stderr)\n"
    )
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "loaded:"


def test_verify_all_in_two_workers_reports_as_in_one(runner):
    reports = [
        runner.invoke(main, ["verify", "all", "--m", "3", "--p", "3", "--jobs", jobs, "--format", "json"])
        for jobs in ("1", "2")
    ]
    assert [r.exit_code for r in reports] == [0, 0]
    assert json.loads(reports[0].output) == json.loads(reports[1].output)


@pytest.mark.skipif(
    not os.environ.get("TNNCELLS_TARGETS"),
    reason="about 40 s on two cores; set TNNCELLS_TARGETS=1 to run",
)
def test_cells_verify_5x5_in_two_workers_meets_its_targets():
    """All 329,462 diagrams of 5x5 in under 40 s with two workers, while the
    parent, which holds no diagram, stays under 50 MB."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    # the peak of this process alone: ru_maxrss would keep the launcher's across exec
    program = (
        "import atexit, sys\n"
        "atexit.register(lambda: print(*[line.split()[1] for line in open('/proc/self/status')"
        " if line.startswith('VmHWM')], file=sys.stderr))\n"
        "from tnncells.cli import main\n"
        "main(['cells', 'verify', '5', '5', '--jobs', '2', '--format', 'json'])\n"
    )
    env = dict(os.environ, CAUCHON_GUARD="25",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                          timeout=300, env=env)
    took = time.perf_counter() - started
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["agreements"] == report["total"] == report["expected"] == 329_462
    assert int(proc.stderr.split()[-1]) < 50 * 1024  # KiB
    assert took < 40


def test_diagram_check_is_one_pass(runner, tmp_path):
    grid = tmp_path / "black.diag"
    grid.write_text("\n".join(["#" * 600] * 600))
    started = time.perf_counter()
    result = runner.invoke(main, ["diagram", "check", str(grid)])
    took = time.perf_counter() - started
    assert (result.exit_code, result.output) == (0, "valid\n")
    assert took < 3.0


def test_fixtures_export(runner, tmp_path):
    out = tmp_path / "fx"
    result = runner.invoke(main, ["fixtures", "--out", str(out)])
    assert result.exit_code == 0
    assert (out / "tnn_4x4.json").exists()


def test_inverse_pipedream_needs_no_enumeration(runner, monkeypatch):
    monkeypatch.delenv("CAUCHON_GUARD", raising=False)
    result = runner.invoke(
        main, ["perm", "inverse-pipedream", "123456789", "--m", "5", "--p", "4"]
    )
    assert result.exit_code == 0, result.output
    assert result.output.strip() == "\n".join(["...."] * 5)
    outside = runner.invoke(main, ["perm", "inverse-pipedream", "4123", "--m", "2", "--p", "2"])
    assert outside.exit_code == 2, outside.output


def test_pipedream_round_trips_a_20x20_diagram(runner, tmp_path):
    staircase = CauchonDiagram(
        20, 20, {(i, a) for i in range(1, 21) for a in range(1, 21) if i + a <= 21}
    )
    f = tmp_path / "staircase.json"
    f.write_text(json.dumps(staircase.to_json()))
    w = json.loads(runner.invoke(
        main, ["perm", "pipedream", "-d", str(f), "--format", "json"]
    ).output)["one_line"]
    back = runner.invoke(
        main, ["perm", "inverse-pipedream", w, "--m", "20", "--p", "20", "--format", "json"]
    )
    assert back.exit_code == 0, back.output
    assert json.loads(back.output) == staircase.to_json()


@pytest.mark.parametrize("command", [["tnn-check"], ["perm", "pipedream", "-d"]])
def test_unreadable_files_exit_2(runner, tmp_path, command):
    f = tmp_path / "bad.txt"
    f.write_bytes(b"\xff\xfe1,2\n")
    result = runner.invoke(main, [*command, str(f)])
    assert result.exit_code == 2, result.exception
    assert "error:" in result.output


def test_domain_errors_exit_2(runner, demo_diagram):
    result = runner.invoke(main, ["tp-check", demo_diagram])
    assert result.exit_code == 2
    result = runner.invoke(main, ["poisson", "bracket", "a^-1", "b"])
    assert result.exit_code == 2
    for args in (["perm", "mw", "(1 x)", "--m", "1", "--p", "1"],
                 ["perm", "bruhat", "1²", "21"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.exception


@pytest.mark.parametrize(
    "args",
    [
        ["cells", "admissible", "-f",
         '{"m":2,"p":2,"members":[{"rows":[1],"cols":[1]}]'],
        ["cells", "admissible", "-f",
         '{"m":2,"p":2,"members":[{"rows":["a"],"cols":[1]}]}'],
        ["cells", "admissible", "-f", '{"m":"x","p":2,"members":[]}'],
        ["poisson", "flow", "--path", "nope"],
        ["network", "lindstrom", "-n", '{"m":1,"p":1,"edges":[{"from":"s1"}]}',
         "--rows", "1", "--cols", "1"],
        ["tnn-check", '{"m":"a","p":2,"entries":[]}'],
        ["tc", "-d", '{"m":2,"p":2,"black":[[1,"x"]]}'],
        ["tc", "-d", '{"m":2,"p":2,"black":[[2,1.0]]}'],
        ["tnn-check", '{"m":2.9,"p":2,"entries":[[1,2],[3,4]]}'],
        ["cells", "admissible", "-f",
         '{"m":2,"p":2,"members":[{"rows":[1.7],"cols":[true]}]}'],
        ["cells", "admissible", "-f",
         '{"m":2,"p":2,"members":[{"rows":[3],"cols":[1]}]}'],
    ],
)
def test_malformed_json_exits_2(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.exception
    assert "Traceback" not in result.output
    assert "error:" in result.output


@pytest.mark.parametrize("args", [["minors", "1,1\n1,2"], ["minors", "1,x"]])
def test_in_process_calls_release_their_streams(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit):
            main.main(args=args, prog_name="tnncells", standalone_mode=False)
    assert out.getvalue() or err.getvalue()
    refs = [weakref.ref(out), weakref.ref(err)]
    del out, err
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_guard_exits_3(runner, monkeypatch):
    monkeypatch.setenv("CAUCHON_GUARD", "2")
    result = runner.invoke(main, ["diagram", "enum", "2", "2"])
    assert result.exit_code == 3


@pytest.mark.parametrize(
    "args",
    [
        ["diagram", "enum", "5", "5", "--count-only"],
        ["diagram", "enum", "5", "5"],
        ["perm", "enum", "6", "6", "--count-only"],
        ["perm", "enum", "6", "6"],
    ],
)
def test_enumerators_honour_the_guard(runner, args):
    result, took = _timed(runner, args)
    assert result.exit_code == 3, result.output
    assert "Traceback" not in result.output
    assert took < 2.0


@pytest.mark.parametrize("command", ["diagram", "perm"])
def test_count_only_enumerates_nothing(runner, monkeypatch, command):
    # the count is the poly-Bernoulli number; the guard and the size check
    # still come first
    monkeypatch.setenv("CAUCHON_GUARD", "25")
    result, took = _timed(runner, [command, "enum", "5", "5", "--count-only"])
    assert (result.exit_code, result.output) == (0, "329462\n")
    assert took < 0.3
    result = runner.invoke(main, [command, "enum", "5", "6", "--count-only"])
    assert result.exit_code == 3
    result = runner.invoke(main, [command, "enum", "0", "3", "--count-only"])
    assert result.exit_code == 2
    assert "sizes must be at least 1" in result.output


@pytest.mark.parametrize("command", ["diagram", "perm"])
def test_a_listing_is_counted_before_it_is_built(runner, monkeypatch, command):
    # 40x30 has about 7.7e89 diagrams: refused on its poly-Bernoulli count
    # before the first is built, while the count itself still answers
    monkeypatch.setenv("CAUCHON_GUARD", "2000")
    for fmt in ("text", "json"):
        result, took = _timed(runner, [command, "enum", "40", "30", "--format", fmt])
        assert result.exit_code == 3, result.output
        assert "exceeds the limit of 65536" in result.output
        assert "Traceback" not in result.output
        assert took < 2.0
    result = runner.invoke(main, [command, "enum", "40", "30", "--count-only"])
    assert (result.exit_code, result.output) == (0, f"{poly_bernoulli(40, 30)}\n")


def test_every_grid_under_the_default_guard_may_be_listed():
    # the largest is 1x16, with 2^16 diagrams
    counts = [poly_bernoulli(m, p) for m in range(1, guards.DEFAULT_CELL_LIMIT + 1)
              for p in range(1, guards.DEFAULT_CELL_LIMIT // m + 1)]
    assert max(counts) == poly_bernoulli(1, 16) == guards.LISTING_LIMIT


def _run_process(args, stdin="", address_space=None):
    """Run the CLI as its own process, so that a hang fails only this test;
    ``address_space`` (bytes) caps the memory the process may map."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "tnncells.cli", *args], input=stdin,
        capture_output=True, text=True, timeout=5,
        env=dict(os.environ, PYTHONPATH=path),
        preexec_fn=None if address_space is None else limit,
    )
    return proc, time.perf_counter() - started


@pytest.mark.parametrize(
    "args, stdin",
    [
        (["tnn-check", '{"m":1,"p":1,"entries":[["1e999999999"]]}'], ""),
        (["tnn-check", "-"], "1e999999999\n"),
    ],
)
def test_exponent_literals_exit_2(args, stdin):
    proc, took = _run_process(args, stdin)
    assert proc.returncode == 2, proc.stderr
    assert "error:" in proc.stdout + proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert took < 2.0


@pytest.mark.parametrize("k, code", [(10, 3), (4, 0)])
def test_quantum_minor_term_budget(k, code):
    index = ",".join(str(x) for x in range(1, k + 1))
    proc, took = _run_process(
        ["quantum", "minor", "--rows", index, "--cols", index,
         "--m", str(k), "--p", str(k)]
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert took < 2.0


def _pascal_csv(n):
    return "\n".join(
        ",".join(str(comb(i + a, i)) for a in range(n)) for i in range(n)
    )


@pytest.mark.parametrize(
    "args, n, codes, shown",
    [
        # past the minor table, tnn-check answers by deletion alone
        (["tnn-check", "--format", "json", "-"], 12, {0}, '"method": "deletion"'),
        (["minors", "-"], 12, {3}, ""),
        (["cells", "of", "-"], 12, {3}, ""),
        (["tnn-check", "-"], 6, {0, 1}, ""),
    ],
    ids=["tnn-check-12", "minors-12", "cells-of-12", "tnn-check-6"],
)
def test_minor_table_budget(args, n, codes, shown):
    proc, took = _run_process(args, _pascal_csv(n))
    assert proc.returncode in codes, proc.stderr
    assert shown in proc.stdout
    assert "Traceback" not in proc.stdout + proc.stderr
    assert took < 2.0


@pytest.mark.parametrize(
    "args",
    [["tnn-check", "-"], ["delete", "-"], ["restore", "-"]],
    ids=["tnn-check-deletion", "delete", "restore"],
)
def test_sweep_budget(args):
    # 40x40 is past the sweep guard and the minor table: tnn-check exits on the first
    proc, took = _run_process(args, _pascal_csv(40))
    assert proc.returncode == 3, proc.stderr
    assert "entries one sweep rewrites" in proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert took < 1.0


def _never_started(*args):
    raise AssertionError("a route its guard refused was started")


def test_tnn_check_runs_deletion_alone_past_the_minor_table(runner, monkeypatch):
    from tnncells import cli

    monkeypatch.setattr(cli, "scan_minors", _never_started)
    bad = _pascal_csv(12).replace("1", "0", 1)  # [1,2|1,2] = 0*2 - 1*1 < 0
    result = runner.invoke(main, ["tnn-check", "-", "--format", "json"], input=bad)
    assert result.exit_code == 1, result.output
    payload = json.loads(result.output)
    assert (payload["method"], payload["tnn"]) == ("deletion", False)
    assert list(payload) == ["m", "p", "method", "deletion", "tnn"]
    assert not payload["deletion"]["tnn"]
    result = runner.invoke(main, ["tnn-check", "-"], input=bad)
    assert result.exit_code == 1
    assert result.output.splitlines() == [
        "not totally nonnegative",
        "bruteforce not run: minors of the 12x12 grid: 297925 exceeds the limit of 184755",
    ]


def test_tnn_check_scans_a_wide_matrix_past_the_sweep_guard(runner, monkeypatch):
    from tnncells import cauchon

    monkeypatch.setattr(cauchon, "tnn_test", _never_started)
    row = ",".join(["1"] * 500 + ["-3"] + ["1"] * 500)  # 1x1001: 1,002,001 sweep entries
    result = runner.invoke(main, ["tnn-check", "-", "--format", "json"], input=row)
    assert result.exit_code == 1, result.output
    payload = json.loads(result.output)
    assert payload["method"] == "bruteforce"
    assert payload["bruteforce"] == {"tnn": False, "witness": "[1|501]", "witness_value": "-3"}
    result = runner.invoke(main, ["tnn-check", "-"], input=row)
    assert result.exit_code == 1
    assert result.output.splitlines() == [
        "not totally nonnegative: minor [1|501] = -3",
        "deletion not run: entries one sweep rewrites: 1002001 exceeds the limit of 1000000",
    ]


def test_tnn_check_runs_both_routes_when_both_guards_admit(runner):
    result = runner.invoke(main, ["tnn-check", "-", "--format", "json"], input=_pascal_csv(6))
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["method"] == "both"
    assert payload["deletion"]["tnn"] and payload["bruteforce"]["tnn"]


def test_tnn_check_has_no_method_option(runner):
    result = runner.invoke(main, ["tnn-check", "--method", "both", "-"], input="1,1\n1,2\n")
    assert result.exit_code == 2
    assert "No such option" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["cells", "verify", "--", "-5", "-5"],
        ["verify", "all", "--m", "-5", "--p", "-5"],
        ["cells", "enum", "--", "-5", "-5"],
        ["cells", "admissible", "-f", '{"m": -5, "p": -5, "members": []}'],
        ["perm", "mw", "1", "--m", "-5", "--p", "-5"],
        ["perm", "inverse-pipedream", "1", "--m", "-5", "--p", "-5"],
    ],
    ids=["cells-verify", "verify-all", "cells-enum", "cells-admissible", "perm-mw",
         "perm-inverse-pipedream"],
)
def test_negative_sizes_are_domain_errors_before_any_guard(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "grid sizes must be at least 1" in result.output
    assert "Traceback" not in result.output


def test_huge_json_diagram_is_refused_before_a_cell_is_read(runner):
    # the cells are malformed (exit 2 if read), so exit 3 shows none was read
    result = runner.invoke(main, ["tc", "-d", json.dumps({"m": 600, "p": 600, "black": "##"})])
    assert result.exit_code == 3, result.output
    assert "pipe dream letters" in result.output


@pytest.mark.parametrize(
    "args, size, seconds",
    [
        (["network", "lindstrom", "--rows", "1", "--cols", "1"], 10**5, 1.0),
        (["tc"], 10**5, 1.0),
        (["vanish"], 10**6, 1.0),
        # read, but charged before its network is built: building it took 0.6 s
        (["network", "path-matrix"], 400, 0.25),
    ],
    ids=["network-lindstrom", "tc", "vanish", "network-path-matrix-400x400"],
)
def test_huge_diagram_is_refused_before_it_is_read(runner, args, size, seconds):
    text = json.dumps({"m": size, "p": size, "black": []})
    started = time.perf_counter()
    result = runner.invoke(main, [*args, "-d", text])
    took = time.perf_counter() - started
    assert result.exit_code == 3, result.output
    assert "Traceback" not in result.output
    assert took < seconds


@pytest.mark.parametrize("n, code", [(32, 3), (31, 0)])
def test_tp_check_elimination_budget(n, code):
    proc, took = _run_process(["tp-check", "-"], _pascal_csv(n))
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert took < 3.0


def test_path_matrix_of_an_all_white_400x400_grid_is_refused():
    # the propagation is charged before it runs: about 96 M steps here
    proc, took = _run_process(
        ["network", "path-matrix", "-d", "-"], "\n".join(["." * 400] * 400)
    )
    assert proc.returncode == 3, proc.stderr
    assert "steps of one path matrix" in proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert took < 2.0


@pytest.mark.parametrize(
    "command, size, edges",
    [
        (["path-matrix"], 600, []),
        (["path-matrix"], 20_000, "not a list"),  # exit 2 had the edges been read
        (["lindstrom", "--rows", "1", "--cols", "1"], 10**5, []),
    ],
    ids=["path-matrix", "path-matrix-edges-unread", "lindstrom"],
)
def test_huge_json_network_is_refused_before_a_vertex_is_read(runner, command, size, edges):
    text = json.dumps({"m": size, "p": size, "edges": edges})
    started = time.perf_counter()
    result = runner.invoke(main, ["network", command[0], "-n", text, *command[1:]])
    took = time.perf_counter() - started
    assert result.exit_code == 3, result.output
    assert "network sources and sinks" in result.output
    assert took < 1.0


@pytest.mark.parametrize(
    "command", [["path-matrix"], ["lindstrom", "--rows", "1", "--cols", "1"]],
    ids=["path-matrix", "lindstrom"],
)
@pytest.mark.parametrize(
    "text, message",
    [
        ('{"m":1,"p":1,"edges":[{"from":1,"to":"t1"},{"from":"s1","to":1}]}', "must be strings"),
        ('{"m":1,"p":1,"vertices":[null],"edges":[]}', "must be strings"),
        ('{"m":1,"p":1,"vertices":["s1","t1"],"edges":[{"from":["s1"],"to":"t1"}]}',
         "must be strings"),
        ('{"m":1,"p":1,"vertices":"s1t1","edges":[]}', "must be a list"),  # not 4 letters
    ],
    ids=["int-endpoint", "null-vertex", "list-endpoint", "string-vertices"],
)
def test_json_network_names_must_be_strings(runner, command, text, message):
    result = runner.invoke(main, ["network", command[0], "-n", text, *command[1:]])
    assert result.exit_code == 2, repr(result.exception)
    assert message in result.output


def test_lindstrom_step_budget_on_the_full_8x8_minor():
    full = "1,2,3,4,5,6,7,8"
    proc, took = _run_process(
        ["network", "lindstrom", "-d", "/".join(["........"] * 8),
         "--rows", full, "--cols", full]
    )
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert took < 2.0


def test_lindstrom_counts_the_full_7x7_minor_within_its_step_budget(runner):
    # rows added bottom up: 923,688 steps of the 1,000,000
    full = "1,2,3,4,5,6,7"
    result = runner.invoke(main, ["network", "lindstrom", "-d", "/".join(["......."] * 7),
                                  "--rows", full, "--cols", full])
    assert (result.exit_code, result.output) == (0, "1\n"), result.output


def test_cells_of_6x6_reads_the_leibniz_zero_minors():
    witness = ones_TC(CauchonDiagram.from_ascii("##.#../##..../#...../....../....../......"))
    proc, took = _run_process(
        ["cells", "of", "-", "--format", "json"], json.dumps(matrix_to_json(witness))
    )
    assert proc.returncode == 0, proc.stderr
    family = MinorFamily.from_json(json.loads(proc.stdout)["family"])
    rows = [list(row) for row in witness.rows]
    zeros = {
        (r, c)
        for k in range(1, 7)
        for r in combinations(range(1, 7), k)
        for c in combinations(range(1, 7), k)
        if oracles.leibniz_minor(rows, r, c) == 0
    }
    assert zeros and set(family) == zeros
    assert took < 2.0


@pytest.mark.parametrize(
    "args, stdin, code, seconds",
    [
        (["vanish", "-d", "/".join(["." * 10] * 10)], "", 0, 2.0),
        (["vanish", "-d", "/".join(["." * 11] * 11)], "", 3, 1.0),
        (["perm", "mw", "(1 2)", "--m", "400", "--p", "1"], "", 3, 1.0),
        (["perm", "bruhat", "(1 1000000)", "21"], "", 3, 1.0),
        (["perm", "inverse-pipedream", "(1 2)", "--m", "1000000", "--p", "1"],
         "", 3, 1.0),
        (["cells", "of", "-"], ",".join(["1"] * 1000), 3, 1.0),
        (["cells", "admissible", "-f",
          '{"m":1000000000,"p":1,"members":[{"rows":[1],"cols":[1]}]}'], "", 3, 1.0),
        (["perm", "mw", "()", "--m", "11", "--p", "11"], "", 0, 2.0),
        (["perm", "mw", pipe_dream(oracles.all_black(11, 11)).one_line(), "--m", "11", "--p", "11"],
         "", 0, 2.0),
    ],
    ids=["vanish-10x10", "vanish-11x11", "perm-mw-400x1", "perm-bruhat-1000000",
         "perm-inverse-pipedream-1000001", "cells-of-1x1000", "cells-admissible-1e9x1",
         "perm-mw-11x11-identity", "perm-mw-11x11-all-black"],
)
def test_family_and_permutation_budgets(args, stdin, code, seconds):
    proc, took = _run_process(args, stdin)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert took < seconds


@pytest.mark.parametrize(
    "args",
    [
        ["poisson", "bracket", "a^99999999", "b"],
        ["quantum", "nf", "a^99999999"],
        ["poisson", "bracket", "(a+b+c+d)^100", "b"],
        ["poisson", "bracket", "((a+b+c+d)^9)^9", "b"],
        ["quantum", "nf", "((a+b+c+d)^9)^9"],
        ["quantum", "nf", "d^35*a^35"],
        # its insertion memo stays small, since one entry on the letters above
        # a serves every prefix of d's; the budget is spent reading it
        ["quantum", "nf", "d^60*a^60"],
    ],
    ids=["poisson-bracket", "quantum-nf", "poisson-bracket-sum-power",
         "poisson-bracket-nested-power", "quantum-nf-nested-power",
         "quantum-nf-long-chain", "quantum-nf-memo-reads"],
)
def test_huge_powers_exit_3(args):
    proc, took = _run_process(args)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert took < 2.0


def test_a_power_inside_the_product_budget_exits_0():
    # its last product is charged 36,541 of the 70,000 units
    proc, _ = _run_process(["quantum", "nf", "(a+b+c+d)^10"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("a*a*a*a*a*a*a*a*a*a + ")


@pytest.mark.parametrize(
    "args, code",
    [
        (["quantum", "nf", "1", "--m", "0", "--p", "0"], 2),
        (["poisson", "semiclassical", "--m", "-1", "--p", "-1"], 2),
        (["poisson", "flow", "--path", '{"m":0,"p":0,"entries":[]}', "-H", "1"], 2),
        (["poisson", "bracket", "1", "1", "--m", "100000", "--p", "100000"], 3),
        (["quantum", "nf", "X[1,2]*X[1,1]", "--m", "300", "--p", "300"], 3),
        (["poisson", "semiclassical", "--m", "100", "--p", "100"], 3),
        (["poisson", "bracket", "Y[1,1]", "Y[1,2]", "--m", "300", "--p", "300"], 3),
    ],
    ids=["quantum-nf-0x0", "poisson-semiclassical-negative", "poisson-flow-0x0",
         "poisson-bracket-1e5x1e5", "quantum-nf-300x300", "poisson-semiclassical-100x100",
         "poisson-bracket-300x300"],
)
def test_algebra_grid_sizes_keep_the_exit_contract(args, code):
    # under a 2 GB address-space limit, as in CI, so that a table built
    # before its guard fails fast instead of filling the host's memory
    proc, took = _run_process(args, address_space=2_000_000_000)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert took < 1.0


def _nested(depth):
    return "(" * depth + "a" + ")" * depth


@pytest.mark.parametrize(
    "args, code, seconds",
    [
        (["poisson", "bracket", "+".join(["a"] * 3000), "b"], 0, 2.0),
        (["quantum", "nf", "*".join(["a"] * 1200)], 0, 2.0),
        (["quantum", "nf", "--", "-" * 3001 + "a"], 0, 2.0),
        (["poisson", "bracket", _nested(100), "b"], 0, 2.0),
        (["poisson", "bracket", _nested(400), "b"], 3, 2.0),
        (["quantum", "nf", "²"], 2, 2.0),
        (["quantum", "nf", "1" * 5000], 2, 2.0),
        # malformed text fails before the costly power is evaluated
        (["quantum", "nf", "(a+b+c+d)^14 +"], 2, 0.5),
    ],
    ids=["long-sum", "long-product", "minus-run", "nesting-100", "nesting-400",
         "superscript-digit", "long-literal", "malformed-after-power"],
)
def test_expression_reader_exit_codes(args, code, seconds):
    proc, took = _run_process(args)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert took < seconds


def test_product_budget_admits_ninth_powers(runner):
    result = runner.invoke(main, ["quantum", "nf", "(a+b+c+d)^9"])
    assert result.exit_code == 0, result.output
    assert result.output.rstrip().endswith("d*d*d*d*d*d*d*d*d")


def test_stdin_matrix(runner):
    result = runner.invoke(main, ["tnn-check", "-"], input="1,1\n1,2\n")
    assert result.exit_code == 0



@pytest.mark.parametrize(
    "text, code",
    [
        ("1,1\n1," + "7" * 300, 0),  # too long to be a file name
        (f"{'7' * 4000},1\n3,{'7' * 4000}", 3),  # a result past 4,300 digits
    ],
    ids=["inline-text-past-a-file-name", "result-past-the-digit-cap"],
)
def test_long_matrix_text_keeps_the_exit_contract(runner, text, code):
    result = runner.invoke(main, ["delete", text])
    assert result.exit_code == code, (result.output, result.exception)

# Matrix text: rectangular grids of readable entries (small, huge, and
# fractions with huge denominators) as often as anything else, where
# anything else mixes in zero denominators, exponents, blanks, junk and
# ragged rows
_ENTRY = st.one_of(
    st.integers(-9, 9).map(str),
    st.integers(1, 4300).map(lambda n: "7" * n),
    st.tuples(st.integers(-10**40, 10**40), st.integers(1, 10**40)).map(
        lambda nd: f"{nd[0]}/{nd[1]}"
    ),
    st.integers(1, 4300).map(lambda n: f"-1/{'3' * n}"),
    st.sampled_from(["0", "1.5", "-0.25", " 2 ", "+3", "0/5"]),
)
_BAD_ENTRY = st.one_of(
    st.integers(4301, 5000).map(lambda n: "7" * n),
    st.sampled_from(["1/0", "0/0", "1e5", "2E-3", "", " ", "--1", "x", "1/-2",
                     "1//2", "nan", "inf", "0x10", "١"]),
)
_GRIDS = st.one_of(
    st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
        lambda mp: st.lists(
            st.lists(_ENTRY, min_size=mp[1], max_size=mp[1]),
            min_size=mp[0], max_size=mp[0],
        )
    ),
    st.lists(st.lists(st.one_of(_ENTRY, _BAD_ENTRY), max_size=4), min_size=1, max_size=4),
)
_CSV_TEXT = st.tuples(_GRIDS, st.sampled_from(["\n", "\n\n", "\r\n"])).map(
    lambda g: g[1].join(",".join(row) for row in g[0])
)
_JSON_TEXT = st.tuples(
    _GRIDS,
    st.lists(st.one_of(st.integers(-10**30, 10**30), st.floats(), st.booleans(),
                       st.none()), max_size=2),
    st.booleans(),
).map(lambda t: json.dumps({
    "m": len(t[0]), "p": len(t[0][0]) if t[0][0] else 0,
    "entries": [row + t[1] for row in t[0]],
})[: None if t[2] else -2])


@settings(max_examples=80)
@given(
    st.one_of(_CSV_TEXT, _JSON_TEXT),
    st.sampled_from([["tnn-check"], ["delete"], ["restore"], ["cells", "of"]]),
    st.sampled_from(["text", "json"]),
    st.booleans(),
)
def test_matrix_text_fuzz_exits_with_a_contract_code(text, command, fmt, inline):
    # inline text may be too long for a file name; "-" reads it from stdin
    args = [*command, text if inline else "-", "--format", fmt]
    result = CliRunner().invoke(main, args, input=None if inline else text)
    assert result.exit_code in (0, 1, 2, 3), (args, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        args, repr(result.exception)
    )
    assert "Traceback" not in result.output


def _assert_contract(args, result):
    assert result.exit_code in (0, 1, 2, 3), (args, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        args, repr(result.exception)
    )
    assert "Traceback" not in result.output


# Diagram text: valid diagrams as ASCII or JSON as often as anything else,
# where anything else is junk grids, ragged rows, bad sizes and cells, and
# truncated JSON; the 40x40 all-black grid is over the sweep and minor
# table guards
_SIZE = st.one_of(st.integers(-1, 5), st.floats(), st.booleans(), st.just("3"))
_DIAGRAM_TEXT = st.one_of(
    st.sampled_from(list(enumerate_diagrams(3, 3))).flatmap(
        lambda d: st.sampled_from([d.to_ascii(), d.to_ascii().replace("\n", "/"),
                                   json.dumps(d.to_json())])
    ),
    st.tuples(
        st.lists(st.text(".#01x /", max_size=5), min_size=1, max_size=4),
        st.sampled_from(["\n", "/"]),
    ).map(lambda t: t[1].join(t[0])),
    st.tuples(
        _SIZE, _SIZE,
        st.lists(st.lists(st.one_of(st.integers(-1, 6), st.floats(), st.none()),
                          max_size=3), max_size=4),
        st.booleans(),
    ).map(lambda t: json.dumps({"m": t[0], "p": t[1], "black": t[2]})[: None if t[3] else -3]),
    st.just(json.dumps({"m": 40, "p": 40, "black": [[i, a] for i in range(1, 41)
                                                    for a in range(1, 41)]})),
)
_INDEX_TEXT = st.sampled_from(["1", "2", "1,2", "2,3", "1,2,3", "2,1", "0", "", "x", "1,,2"])
_INDEX_PAIR = st.one_of(
    st.sampled_from([("1", "1"), ("2", "3"), ("1,2", "2,3"), ("1,2,3", "1,2,3")]),
    st.tuples(_INDEX_TEXT, _INDEX_TEXT),
)


@settings(max_examples=80, deadline=None)
@given(
    _DIAGRAM_TEXT,
    st.one_of(
        st.sampled_from([["tc"], ["tc", "--symbolic"], ["vanish"], ["perm", "pipedream"]]),
        _INDEX_PAIR.map(lambda rc: ["network", "lindstrom", "--rows", rc[0], "--cols", rc[1]]),
    ),
    st.sampled_from(["text", "json"]),
)
def test_diagram_text_fuzz_exits_with_a_contract_code(text, command, fmt):
    args = [*command, "-d", text, "--format", fmt]
    _assert_contract(args, CliRunner().invoke(main, args))


_VERTEX = st.sampled_from(["s1", "s2", "t1", "t2", "a", "b", ""])
_NETWORK_TEXT = st.one_of(
    st.sampled_from(list(enumerate_diagrams(2, 3))).map(
        lambda d: json.dumps(postnikov_network(d).to_json())
    ),
    st.tuples(
    _SIZE, _SIZE,
    st.lists(
        st.fixed_dictionaries(
            {"from": _VERTEX, "to": _VERTEX},
            optional={"weight": st.one_of(
                st.sampled_from(["1", "-1", "1/2", "0", "x", "1e5", "1/0"]),
                st.integers(-3, 3), st.floats(), st.none(),
            )},
        ),
        max_size=6,
        ),
        st.booleans(),
    ).map(lambda t: json.dumps({"m": t[0], "p": t[1], "edges": t[2]})[: None if t[3] else -3]),
)


@settings(max_examples=80, deadline=None)
@given(_NETWORK_TEXT, _INDEX_PAIR, st.sampled_from(["text", "json"]))
def test_network_json_fuzz_exits_with_a_contract_code(text, index, fmt):
    args = ["network", "lindstrom", "--network", text, "--rows", index[0],
            "--cols", index[1], "--format", fmt]
    _assert_contract(args, CliRunner().invoke(main, args))


# Permutation text: a word on m + p letters as often as anything else
_PERMUTATION_ARGS = st.one_of(
    st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
        lambda mp: st.tuples(
            st.permutations(range(1, sum(mp) + 1)).map(lambda w: "".join(map(str, w))),
            st.just(mp[0]), st.just(mp[1]),
        )
    ),
    st.tuples(
        st.one_of(
            st.text("0123456789,() x-", max_size=12),
            st.sampled_from(["()", "(1 2)", "(1 2)(3 4)", "(1 9)", "((1 2))", "1,1,2"]),
        ),
        st.one_of(st.integers(-1, 6), st.just(10**6)),
        st.integers(-1, 6),
    ),
)


@settings(max_examples=80, deadline=None)
@given(
    _PERMUTATION_ARGS,
    st.sampled_from([["perm", "inverse-pipedream"], ["perm", "mw"]]),
    st.sampled_from(["text", "json"]),
)
# a negative size once reached the window scan and ended in an IndexError
@example(("()", -1, 1), ["perm", "mw"], "text")
def test_permutation_text_fuzz_exits_with_a_contract_code(wmp, command, fmt):
    args = [*command, wmp[0], "--m", str(wmp[1]), "--p", str(wmp[2]), "--format", fmt]
    _assert_contract(args, CliRunner().invoke(main, args))
