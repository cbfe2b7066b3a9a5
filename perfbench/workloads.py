"""The benchmark's workloads: which analyses or requests each one runs.

Every analysis runs in a fresh process, so no analysis is timed twice in
one process and none inherits the process-global memo of another (see
``README.md`` for why).  The expected per-level miss counts in
``expected.json`` were generated once by ``make_expected.py`` from the
python-backend trace simulator; the benchmark never regenerates them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent

#: Two-level 16-line / 128-line hierarchy for the symbolic kernels: small
#: enough that every kernel has capacity misses at some level.
SYMBOLIC_LEVELS = (1024, 8192)

#: PolyBench's six smoke kernels: the kernels every CI smoke job analyses.
SMOKE_KERNELS = ("gemm", "atax", "bicg", "mvt", "trisolv", "jacobi-1d")
MEDIUM_KERNELS = ("gemm", "2mm", "3mm", "syrk", "syr2k", "doitgen")


def _knl(name: str, dataset: str) -> Dict:
    return {
        "name": f"{name}/{dataset}",
        "knl": f"kernels/{name}.knl",
        "dataset": dataset,
        "levels": list(SYMBOLIC_LEVELS),
        "budget": None,
        "fallback": False,
    }


def _registered(name: str, dataset: str, budget: int) -> Dict:
    return {
        "name": f"{name}/{dataset}",
        "kernel": name,
        "dataset": dataset,
        "levels": None,
        "budget": budget,
        "fallback": True,
    }


#: Analysis workloads: name -> the analyses of one round, in script order.
ANALYSES: Dict[str, List[Dict]] = {
    "symbolic-exact": [
        _knl("matvec", "n16"),
        _knl("matvec", "n64"),
        _knl("trisum", "n24"),
        _knl("stencil3", "n64"),
        _knl("copylines", "n8"),
    ],
    "polybench-fallback": [_registered(name, "mini", 2000) for name in SMOKE_KERNELS],
    "trace-medium": [_registered(name, "medium", 200) for name in MEDIUM_KERNELS],
}


class ServeScript:
    """serve-mixed: the server settings and the seeded request script."""

    #: Budget of every request and the server's admission ceiling.
    BUDGET = 150
    #: Warm-up kernel: spawns the engine worker; the script never requests it.
    WARMUP_KERNEL = "gemm"
    #: Write kernels of each connection.  Disjoint, so the jobs of one kernel
    #: reach the single engine worker's memo in a fixed order.
    CONNECTION_KERNELS = (("atax", "trisolv"), ("bicg", "mvt", "jacobi-1d"))
    REQUESTS_PER_CONNECTION = 110
    WRITE_SHARE = 0.3
    #: Sweep capacities in bytes: 1 to 16 lines of 64 bytes, where the serve
    #: kernels' miss curves change (four reach 0 by 10 lines, mvt by 32), so
    #: the checked curve values are mostly not 0.
    CAPACITIES = range(64, 17 * 64, 64)

    @classmethod
    def build(cls, rng) -> List[List[Tuple[str, Dict]]]:
        """Per connection, the ordered ``("write"|"read", job)`` requests.

        Every write is a capacity sweep never requested before in the run;
        every read repeats a job this connection has already been answered.
        """
        seen = set()
        script = []
        for kernels in cls.CONNECTION_KERNELS:
            count = cls.REQUESTS_PER_CONNECTION
            writes = round(count * cls.WRITE_SHARE)
            slots = [True] + rng.sample([True] * (writes - 1) + [False] * (count - writes), count - 1)
            requests: List[Tuple[str, Dict]] = []
            written: List[Dict] = []
            for is_write in slots:
                if not is_write:
                    requests.append(("read", rng.choice(written)))
                    continue
                kernel = kernels[len(written) % len(kernels)]
                while True:
                    capacities = tuple(sorted(rng.sample(cls.CAPACITIES, 4)))
                    if (kernel, capacities) not in seen:
                        break
                seen.add((kernel, capacities))
                job = {
                    "kernel": kernel,
                    "dataset": "mini",
                    "budget": cls.BUDGET,
                    "capacities": list(capacities),
                }
                written.append(job)
                requests.append(("write", job))
            script.append(requests)
        return script


WORKLOADS = tuple(ANALYSES) + ("serve-mixed",)


def load_expected() -> Dict[str, Dict[str, List[int]]]:
    """Committed per-level miss counts: workload -> analysis name -> misses."""
    with open(BENCH_DIR / "expected.json", encoding="utf-8") as handle:
        return json.load(handle)


def build_scop(op: Dict):
    """The op's scop: a registered kernel, or a ``.knl`` file of ``kernels/``.

    The registry and the parser are reached through their modules, so the
    wrappers of ``tracing.install`` see the call.
    """
    from repro.api import registry
    from repro.frontend import parser

    if "knl" not in op:
        return registry.get_kernel(op["kernel"]).build(op["dataset"])
    source = (BENCH_DIR / op["knl"]).read_text(encoding="utf-8")
    program = parser.parse_kernel(source, op["knl"])
    return program.instantiate(program.dataset_sizes(op["dataset"]))
