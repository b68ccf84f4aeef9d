"""Run workloads over several seeds and summarise each metric.

    python3 perfbench/seeds.py --seeds 1-10 [--workload NAME ...] [--trace 1]

For every workload and metric this prints the median, the quartiles and the
spread (quartile distance over median), the statistics a before/after
comparison is judged by, and writes them as JSON to perfbench/out/seeds.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    first, last = map(int, args.seeds.split("-"))
    names = args.workload or [w["name"] for w in BENCH["workloads"]]
    summary: dict = {}
    for name in names:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        failed = attempted = 0
        for seed in range(first, last + 1):
            result = run_once(name, seed, args.trace)
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
                units[metric] = m["unit"]
        summary[name] = {"failed": failed, "attempted": attempted, "metrics": {}}
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            spread = (q3 - q1) / med if med else 0.0
            summary[name]["metrics"][metric] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "unit": units[metric],
                "values": vals,
            }
            print(f"{name} {metric}: median {med:.6g} {units[metric]} "
                  f"[{q1:.6g}, {q3:.6g}] spread {spread:.3f}", flush=True)
    out = HERE / "out" / "seeds.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=2) + "\n")


if __name__ == "__main__":
    main()
