"""Run one analysis in this fresh process and print its measurements.

Usage (from ``run.py``)::

    python3 -I perfbench/child.py OP_JSON SPAWNED_MONOTONIC TRACE_FILE|-|--setup-only

``setup_s`` runs from ``SPAWNED_MONOTONIC`` (taken by the parent just
before it started this process) to the first timed call, so it covers the
interpreter, ``import repro`` and the ``Session``.  The timed call builds
the scop and analyses it.  With a trace file, the layer wrappers of
``tracing.py`` are installed first and their spans are written there.
With ``--setup-only`` the process stops at the first timed call and prints
only ``setup_s``: one more set-up sample of the same op.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main(argv) -> int:
    op = json.loads(argv[1])
    spawned = float(argv[2])
    trace_path = argv[3]
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    sys.path.insert(0, str(BENCH_DIR))

    from repro.api import Session

    from workloads import build_scop

    recorder = None
    if trace_path not in ("-", "--setup-only"):
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
    session = Session().no_store().budget(op["budget"]).options(fallback=op["fallback"])
    if op["levels"]:
        session.machine(tuple(op["levels"]))

    def build_and_analyze():
        return session.analyze(build_scop(op))

    if recorder is not None:
        # The root span: every layer span of this analysis shares its id.
        build_and_analyze = recorder.span("analysis", build_and_analyze, None)
    ready = time.monotonic()
    if trace_path == "--setup-only":
        print(json.dumps({"setup_s": ready - spawned}))
        return 0
    start = time.perf_counter()
    result = build_and_analyze()
    wall = time.perf_counter() - start

    out = {
        "setup_s": ready - spawned,
        "wall_s": wall,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "misses": [level.misses for level in result.level_results],
        "used_fallback": result.used_fallback,
        "counts": {"core.work_units": result.timing.work_units_charged},
    }
    if recorder is not None:
        recorder.calibrate()
        out["layers"] = recorder.summary()
        recorder.dump(trace_path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
