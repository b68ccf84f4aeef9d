"""Benchmark of the tnncells command line: one workload per run.

    python3 perfbench/run.py --workload classify-4x4 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. A run executes ops until their time, normalised to a nominal
machine speed (see ``speed.py``), adds up to ``--seconds``; on a slow host
the wall time is longer. With ``--trace 0`` the run measures end-to-end
metrics with no instrumentation. With ``--trace 1`` it runs the first half
of the time untraced, replays the same ops with spans around each layer's
public calls, and reports per-layer metrics; spans are written to
``perfbench/out/trace-<workload>.tsv``. The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every op has a time limit enforced in-process with ``setitimer``; an op
that runs past it, or that a resource guard refuses (exit 3), counts as
failed. A wrong verdict ends the run with exit code 1 and no numbers.
Inputs known to hang are kept out of the timed stream, so that its failure
count does not hinge on the machine's speed: a workload's hang probe runs
each of them once after the stream, and reports how many ran out of time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

from speed import NOMINAL_S, SpeedSampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
# The tail is p90 whenever at least ten samples lie beyond it (100 or more
# ops). Higher percentiles are left out: a faster program, doing more ops in
# the same time, must not be scored on a deeper tail, and beyond p90 the
# value moves with the seed's few heaviest inputs more than with the program.
TAIL_GRID = (50.0, 90.0)
PROBE_PREAMBLE = """\
import io, json, sys, time
from contextlib import redirect_stderr, redirect_stdout
t0 = time.perf_counter()
import tnncells.cli
t1 = time.perf_counter()
def run(args, stdin=''):
    sys.stdin = io.StringIO(stdin)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            tnncells.cli.main.main(args=args, prog_name='tnncells', standalone_mode=False)
        except SystemExit as exc:
            assert exc.code in (0, None), exc.code
"""
PROBE_EPILOGUE = """
t2 = time.perf_counter()
import speed
print(t1 - t0, t2 - t0, speed.reference_seconds(9))
"""


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op that ran past its limit."""


def _alarm(signum: int, frame: Any) -> None:
    raise OpTimeout()


def add_program_path() -> None:
    """Import tnncells from this checkout's src/, never from elsewhere."""
    if not (SRC / "tnncells" / "cli.py").is_file():
        raise SystemExit(f"error: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tnncells

    if Path(tnncells.__file__).resolve().parent != SRC / "tnncells":
        raise SystemExit(f"error: tnncells imported from {tnncells.__file__}")


@dataclass
class Tally:
    """What a stretch of ops did, in the workload's units; times are normalised."""

    ops: int = 0
    attempted: int = 0
    failed: int = 0
    op_seconds: float = 0.0
    raw_seconds: float = 0.0
    latencies: list[float] = field(default_factory=list)
    failed_ops: list[str] = field(default_factory=list)
    speed_factor: float = 1.0


def timed_call(fn: Any, limit: float) -> tuple[Any, float, bool]:
    """Run fn under a one-shot wall-clock alarm; returns (value, seconds, timed_out)."""
    start = perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return None, perf_counter() - start, True
    return value, perf_counter() - start, False


def run_ops(workload: Any, ops: list, *, seconds: float | None = None,
            count: int | None = None, tracer: Any = None,
            limit_s: float | None = None) -> Tally:
    """Closed loop over ops (cycling) until their normalised time reaches
    seconds, or until count ops are done. Each op's normalised time limit
    is limit_s, or else the workload's.

    Bounding normalised rather than wall time makes a seed's run cover the
    same inputs whatever the machine's momentary speed.
    """
    signal.signal(signal.SIGALRM, _alarm)
    limit_s = workload.limit_s if limit_s is None else limit_s
    tally = Tally()
    with SpeedSampler() as sampler:
        while (count is None and tally.op_seconds < seconds) or (
            count is not None and tally.ops < count
        ):
            op = ops[tally.ops % len(ops)]
            if tracer is not None:
                tracer.begin_op(tally.ops)
            mark = sampler.mark()
            limit = limit_s * sampler.recent() / NOMINAL_S
            value, raw, timed_out = timed_call(lambda: workload.execute(op, tracer), limit)
            took = sampler.scale(mark, raw)
            status = "timeout" if timed_out else workload.check(op, value)
            tally.ops += 1
            tally.attempted += op.units
            tally.op_seconds += took
            tally.raw_seconds += raw
            if status == "ok":
                tally.latencies.append(took)
            else:
                tally.failed += op.units
                tally.failed_ops.append(f"{op.label} ({status})")
    tally.speed_factor = sampler.median_factor()
    return tally


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> float:
    """The highest grid percentile with at least ten samples beyond it."""
    best = 100.0
    for q in TAIL_GRID:
        if n - math.ceil(q / 100 * n) >= 10:
            best = q
    return best


def setup_probe(workload: Any) -> tuple[float, float]:
    """Fresh interpreter: import tnncells.cli, then one small op of the workload.

    Bytecode caching is left on, as for an installed program, so only the
    first probe in a checkout compiles. Returns normalised (import seconds,
    import-plus-op seconds).
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    code = PROBE_PREAMBLE + workload.probe + PROBE_EPILOGUE
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"error: setup probe failed:\n{done.stderr}")
    import_s, total_s, ref_s = map(float, done.stdout.split())
    return import_s * NOMINAL_S / ref_s, total_s * NOMINAL_S / ref_s


def source_lines() -> int:
    return sum(
        len(path.read_text().splitlines()) for path in sorted((SRC / "tnncells").rglob("*.py"))
    )


def end_to_end(workload: Any, tally: Tally, setup: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    limit_ms = workload.limit_s * 1000
    samples = sorted(t * 1000 for t in tally.latencies) + [math.inf] * len(tally.failed_ops)
    q = tail_percentile(len(samples))
    completed = tally.attempted - tally.failed
    metrics = {
        "setup_s": (statistics.median(t for _, t in setup), "s"),
        "throughput_ops_s": (completed / tally.op_seconds, "ops/s"),
        "latency_p50_ms": (min(statistics.median(samples), limit_ms), "ms"),
        "latency_tail_ms": (min(percentile(samples, q), limit_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"latency_tail_ms is p{q:g} of {len(samples)} op latencies "
        f"({len(samples) - math.ceil(q / 100 * len(samples))} beyond it); "
        f"failed ops count as slower than the {limit_ms:g} ms limit",
        f"failed_frac = {tally.failed / tally.attempted:.6f} ({tally.failed}/{tally.attempted})",
        f"times are normalised by the reference computation: x{tally.speed_factor:.3f} "
        f"on this run; raw throughput {completed / tally.raw_seconds:.6g} ops/s",
    ]
    return metrics, notes


def hang_probe(workload: Any) -> Tally:
    """Each of the workload's hang-prone inputs once, under its hang limit."""
    ops = workload.hang_probe_ops() if hasattr(workload, "hang_probe_ops") else []
    if not ops:
        return Tally()
    return run_ops(workload, ops, count=len(ops), limit_s=workload.hang_limit_s)


def hang_note(workload: Any, probe: Tally) -> str:
    if not probe.ops:
        return "hang probe: no inputs"
    timed_out = [label for label in probe.failed_ops if label.endswith("(timeout)")]
    return (
        f"hang probe: {len(timed_out)} of {probe.ops} inputs ran past "
        f"{workload.hang_limit_s:g} s (not counted as ops): {', '.join(timed_out) or 'none'}"
    )


def per_layer(untraced: Tally, traced: Tally, tracer: Any,
              setup: list[tuple[float, float]], probe: Tally) -> dict:
    from spans import SPAN_NAMES

    per_op = 1 / traced.attempted
    selfs = tracer.self_times()
    metrics: dict[str, tuple[float, str]] = {
        f"{name}.self_s": (selfs[name] * traced.speed_factor * per_op, "s/op")
        for name in SPAN_NAMES
    }
    for name in ("cauchon.vanishing_family", "networks.nonintersecting_count"):
        metrics[f"{name}.calls"] = (tracer.calls[name] * per_op, "1/op")
    metrics["cauchon.vanishing_family.timeouts"] = (
        tracer.raised[("cauchon.vanishing_family", "OpTimeout")] * per_op, "1/op"
    )
    metrics["guards.trips"] = (
        tracer.raised[("guards.ensure_enumerable", "ResourceGuardError")] * per_op, "1/op"
    )
    metrics["hang_probe.timeouts"] = (
        sum(label.endswith("(timeout)") for label in probe.failed_ops), "count"
    )
    metrics["cli.import_s"] = (statistics.median(t for t, _ in setup), "s")
    metrics["trace.overhead_frac"] = (traced.op_seconds / untraced.op_seconds - 1, "frac")
    metrics["trace.unattributed_frac"] = (1 - tracer.root_seconds() / traced.raw_seconds, "frac")
    metrics["src.lines"] = (source_lines(), "count")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    add_program_path()
    os.environ.pop("CAUCHON_GUARD", None)  # the default guards, always
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    setup = [setup_probe(workload) for _ in range(SETUP_PROBES)]
    import tnncells.cli  # noqa: F401  (loaded before anything is timed)

    try:
        ops = workload.generate(args.seed, math.ceil(workload.rate_hint * args.seconds))
        if args.trace == 0:
            tally = run_ops(workload, ops, seconds=args.seconds)
            probe = hang_probe(workload)
            metrics, notes = end_to_end(workload, tally, setup)
            notes.append(hang_note(workload, probe))
            attempted, failed = tally.attempted, tally.failed
            failures = tally.failed_ops
        else:
            untraced = run_ops(workload, ops, seconds=args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_ops(workload, ops, count=untraced.ops, tracer=tracer)
            finally:
                tracer.uninstall()
            out = Path(__file__).resolve().parent / "out" / f"trace-{workload.name}.tsv"
            tracer.write(out)
            probe = hang_probe(workload)
            metrics = per_layer(untraced, traced, tracer, setup, probe)
            notes = [f"{len(tracer.spans)} spans over {traced.ops} ops written to {out}",
                     hang_note(workload, probe)]
            attempted = untraced.attempted + traced.attempted
            failed = untraced.failed + traced.failed
            failures = untraced.failed_ops + traced.failed_ops
    except workloads.WrongVerdict as exc:
        print(f"wrong verdict: {exc}", file=sys.stderr)
        return 1

    print(f"{workload.name} seed {args.seed}: {attempted} attempted, {failed} failed")
    for label in sorted(set(failures)):
        print(f"  failed x{failures.count(label)}: {label}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
