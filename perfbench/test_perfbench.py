"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

import run

run.add_program_path()

import workloads  # noqa: E402

SEEDED = ("classify-4x4", "screen-6x6", "algebra-4x4")


@pytest.mark.parametrize("name", SEEDED)
def test_seed_reproduces_identical_inputs(name):
    workload = workloads.WORKLOADS[name]
    first = workload.generate(7, 40)
    assert first == workload.generate(7, 40)
    assert [op.label for op in first] != [op.label for op in workload.generate(8, 40)]


def _fixture_op(name: str) -> workloads.Op:
    workload = workloads.WORKLOADS["classify-4x4"]
    ops = workload.generate(0, 0) + workload.hang_probe_ops()
    return next(op for op in ops if op.label == f"fixture {name}")


def test_oracle_rejects_a_planted_wrong_diagram():
    workload = workloads.WORKLOADS["classify-4x4"]
    op = _fixture_op("tnn_4x4")
    result = workload.execute(op, None)
    assert workload.check(op, result) == workloads.OK

    payload = json.loads(result.out)
    black = {tuple(c) for c in payload["diagram"]["black"]}
    planted = sorted(black ^ {(4, 4)})
    payload["diagram"]["black"] = [list(c) for c in planted]
    wrong = workloads.CliResult(result.code, json.dumps(payload), result.err)
    with pytest.raises(workloads.WrongVerdict, match="reported diagram"):
        workload.check(op, wrong)


def test_oracle_rejects_a_tnn_verdict_on_a_non_tnn_matrix():
    workload = workloads.WORKLOADS["classify-4x4"]
    op = _fixture_op("near_tnn_4x4")
    assert op.expect is None
    assert workload.check(op, workload.execute(op, None)) == workloads.OK
    with pytest.raises(workloads.WrongVerdict):
        workload.check(op, workloads.CliResult(0, "{}", ""))


@dataclass
class Spinner:
    """A workload whose only op never finishes."""

    limit_s: float = 0.05

    def execute(self, op, tracer):
        while True:
            pass

    def check(self, op, value):
        raise AssertionError("a timed-out op must not be checked")


def test_forced_timeout_counts_as_one_failed_op():
    op = workloads.Op("spin", None, None)
    tally = run.run_ops(Spinner(), [op], count=1)
    assert (tally.ops, tally.attempted, tally.failed) == (1, 1, 1)
    assert tally.failed_ops == ["spin (timeout)"]
    assert tally.latencies == []


def test_classify_stream_keeps_to_light_cells_and_probes_the_rest():
    workload = workloads.WORKLOADS["classify-4x4"]
    ops = workload.generate(3, 200)
    cells = [op.expect.black for op in ops if op.expect is not None and op.label.startswith("cell")]
    assert cells and all(16 - len(black) <= workload.MAX_WHITE for black in cells)
    probe_labels = [op.label for op in workload.hang_probe_ops()]
    assert "fixture symmetric_4x4" in probe_labels
    assert not set(probe_labels) & {op.label for op in ops}


def test_hang_probe_reports_symmetric_4x4_as_a_timeout():
    probe = run.hang_probe(workloads.WORKLOADS["classify-4x4"])
    assert "fixture symmetric_4x4 (timeout)" in probe.failed_ops


def test_exits_nonzero_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify-4x4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
