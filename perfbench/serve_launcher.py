"""Start ``repro-haystack serve`` in this process, optionally traced.

Usage (from ``run.py``)::

    python3 -I perfbench/serve_launcher.py TRACE_FILE|- serve [SERVE ARGS...]

With a trace file, the layer wrappers of ``tracing.py`` are installed
before the server starts; when the server shuts down on SIGINT the wrapper
cost is calibrated and every span is written to the file.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main(argv) -> int:
    trace_path = argv[1]
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    sys.path.insert(0, str(BENCH_DIR))

    from repro import cli

    recorder = None
    if trace_path != "-":
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
    status = cli.main(argv[2:])
    if recorder is not None:
        recorder.calibrate()
        recorder.dump(trace_path)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
