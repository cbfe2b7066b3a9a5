"""Run the benchmark repeatedly and print the median and quartiles of each metric.

Usage, from the repository root::

    python3 perfbench/steadiness.py --runs 10 --trace 0 [--first-seed 1] [WORKLOAD ...]

Each run gets its own seed (``first-seed``, ``first-seed + 1``, ...) and
``run_seconds`` from ``BENCHMARK.json``.  For each metric the table gives
the quartiles of its values as ``statistics.quantiles(values, n=4)`` gives
them, and the spread: the distance between the first and third quartile as
a share of the median.  The rows go to standard output as Markdown, and
every run's JSON result to ``.perfbench/steadiness-<trace>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    log_path = ROOT / ".perfbench" / f"steadiness-{args.trace}.jsonl"
    log_path.parent.mkdir(parents=True, exist_ok=True)
    print("| workload | metric | unit | median | q1 | q3 | spread |")
    print("|---|---|---|---|---|---|---|")
    status = 0
    for workload in args.workloads:
        values = {}
        for run in range(args.runs):
            seed = args.first_seed + run
            proc = subprocess.run(
                config["command"]
                + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(config["run_seconds"]), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(log_path, "a", encoding="utf-8") as log:
                log.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            if proc.returncode != 0 or not result["correct"]:
                print(f"run {workload} seed {seed} failed:\n{proc.stdout}", file=sys.stderr)
                status = 1
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
        for name, (unit, samples) in values.items():
            q1, median, q3 = statistics.quantiles(samples, n=4)
            spread = (q3 - q1) / median if median else 0.0
            print(
                f"| {workload} | {name} | {unit} | {median:.6g} | {q1:.6g} | {q3:.6g} "
                f"| {spread:.3f} |",
                flush=True,
            )
    return status


if __name__ == "__main__":
    sys.exit(main())
