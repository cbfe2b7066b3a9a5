"""Record every workload's exact counts in ``counts.json`` for the current code.

Run from the repository root after a change to ``src/`` or to the files
that decide what is counted (``run.COUNTED_FILES``, ``kernels/``)::

    python3 perfbench/record_counts.py

Each workload runs once untraced and once traced (one round each, seed 1).
The counts these runs record under ``.perfbench/counts/<digest>/`` are
written to ``counts.json`` with the code digest, so a later run of the same
code in any checkout fails when its counts differ.  A run that fails stops
the recording.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

sys.path.insert(0, str(BENCH_DIR))

from run import COUNTS, ROOT, STATE_DIR, code_digest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    digest = code_digest()
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                       "--seed", "1", "--seconds", "1", "--trace", trace]
            proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            print(f"{workload} --trace {trace}: ok", flush=True)
    counts = {
        workload: json.loads((STATE_DIR / "counts" / digest / f"{workload}.json").read_text())
        for workload in WORKLOADS
    }
    COUNTS.write_text(json.dumps({"code_digest": digest, "counts": counts}, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
