"""Regenerate ``expected.json`` from the python-backend trace simulator.

Run once from the repository root when a workload's kernels change::

    python3 perfbench/make_expected.py [WORKLOAD ...]

Named workloads (all by default) are regenerated; the others keep their
committed counts.  Each count comes from the exact trace path with the
pure-Python backend (``TraceGenerator`` + ``StackDistanceProfiler``),
independent of the symbolic model and of the NumPy backend the benchmark
runs on.  For serve-mixed it also keeps each kernel's whole miss curve (from
the full stack-distance histogram) under ``"curves"``, against which every
requested capacity sweep is checked.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from repro.api import Session, registry  # noqa: E402

from workloads import ANALYSES, WORKLOADS, ServeScript, build_scop  # noqa: E402

EXPECTED = BENCH_DIR / "expected.json"


def trace_result(scop, levels):
    session = Session().backend("python")
    if levels:
        session.machine(tuple(levels))
    return session.cache_model().analyze_by_trace(scop)


def misses(result) -> list:
    return [level.misses for level in result.level_results]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", choices=WORKLOADS, default=list(WORKLOADS))
    args = parser.parse_args()
    expected = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
    for workload in args.workloads:
        if workload == "serve-mixed":
            continue
        expected[workload] = {}
        for op in ANALYSES[workload]:
            expected[workload][op["name"]] = misses(trace_result(build_scop(op), op["levels"]))
            print(workload, op["name"], expected[workload][op["name"]], flush=True)
    if "serve-mixed" in args.workloads:
        expected["serve-mixed"], expected["curves"] = {}, {}
        for kernel in sorted({k for group in ServeScript.CONNECTION_KERNELS for k in group}):
            result = trace_result(registry.get_kernel(kernel).build("mini"), None)
            expected["serve-mixed"][f"{kernel}/mini"] = misses(result)
            expected["curves"][f"{kernel}/mini"] = result.miss_curve.to_dict()
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
