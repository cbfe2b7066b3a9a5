"""Shared workload definitions and runners for the benchmark harness.

Every figure/table of the paper's evaluation has a corresponding
``bench_*.py`` module; they all draw their workloads from here.

Scaling note: the paper runs PolyBench
LARGE on native hardware with isl/barvinok doing the symbolic counting.  The
pure-Python polyhedral substrate of this reproduction is orders of magnitude
slower than isl, so the benchmark suite uses a *scaled benchmark suite*:
representative kernels with small problem sizes, and element size equal to
the cache line size for the kernels used in timing sweeps (which keeps the
stack-distance polynomials div-free).  Dedicated line-granularity workloads
(8 elements per line) exercise equalization/rasterization/partial enumeration
for the experiments that study exactly those code paths (Figure 14, Table 1).

Simulator backends: every trace-driven helper (``run_simulator``,
``reference_misses``) runs on the vectorized NumPy engine, exactly like the
model's trace fallback.  The regression
harness additionally carries a ``trace`` workload (see
``repro.reporting.bench.SUITES``): a fig10-style simulator run timed under
*both* backends, whose numpy-vs-python speedup ratio lands in
``BENCH_<suite>.json`` and is gated by ``bench --compare`` (suite floor
10x).  Figure modules therefore never need to time the backends themselves.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import Session
from repro.core import CacheLevelSpec, MachineModel, ModelOptions, ModelResult
from repro.engine.batch import default_worker_count
from repro.scop import Scop, ScopBuilder
from repro.simulator import CacheLevelConfig, DineroSimulator
from repro.simulator.vectorized import misses_for_capacity, trace_arrays

LINE = 64

#: Cache sizes used by the scaled experiments (in lines: 16 and 128).
L1_SIZE = 16 * LINE
L2_SIZE = 128 * LINE
L3_SIZE = 1024 * LINE

#: Results memoised across benchmark modules, keyed on ``JobSpec.key()``.
_RESULTS: Dict[Tuple, ModelResult] = {}


def smoke_mode() -> bool:
    """Fast-mode flag set by ``pytest --smoke`` (via the REPRO_SMOKE env var)."""
    return os.environ.get("REPRO_SMOKE", "") not in ("", "0")


def default_jobs() -> int:
    """Worker count for benchmark fan-outs (REPRO_BENCH_JOBS overrides)."""
    env = os.environ.get("REPRO_BENCH_JOBS", "")
    if env:
        return max(1, int(env))
    return default_worker_count()


def sweep(values: Sequence, keep: int = 2) -> List:
    """Problem-size sweep, truncated to ``keep`` points in smoke mode."""
    values = list(values)
    return values[:keep] if smoke_mode() else values


# ----------------------------------------------------------------------
# Scaled kernel suite (element size == line size -> div-free model runs)
# ----------------------------------------------------------------------
def gemm(ni=6, nj=6, nk=6, element_size=LINE) -> Scop:
    b = ScopBuilder("gemm", context={"NI": ni, "NJ": nj, "NK": nk}, element_size=element_size)
    C = b.array("C", (ni, nj))
    A = b.array("A", (ni, nk))
    B = b.array("B", (nk, nj))
    with b.loop("i", 0, ni):
        with b.loop("j", 0, nj):
            b.stmt(reads=[C[b.v("i"), b.v("j")]], writes=[C[b.v("i"), b.v("j")]])
        with b.loop("k", 0, nk):
            with b.loop("j2", 0, nj):
                b.stmt(
                    reads=[A[b.v("i"), b.v("k")], B[b.v("k"), b.v("j2")], C[b.v("i"), b.v("j2")]],
                    writes=[C[b.v("i"), b.v("j2")]],
                )
    return b.build()


def jacobi_1d(n=32, tsteps=2, element_size=LINE) -> Scop:
    b = ScopBuilder("jacobi-1d", context={"N": n, "TSTEPS": tsteps}, element_size=element_size)
    A = b.array("A", (n,))
    B = b.array("B", (n,))
    with b.loop("t", 0, tsteps):
        with b.loop("i", 1, n - 1):
            b.stmt(reads=[A[b.v("i") - 1], A[b.v("i")], A[b.v("i") + 1]], writes=[B[b.v("i")]])
        with b.loop("i2", 1, n - 1):
            b.stmt(reads=[B[b.v("i2") - 1], B[b.v("i2")], B[b.v("i2") + 1]], writes=[A[b.v("i2")]])
    return b.build()


def mvt(n=10, element_size=LINE) -> Scop:
    b = ScopBuilder("mvt", context={"N": n}, element_size=element_size)
    A = b.array("A", (n, n))
    x1 = b.array("x1", (n,))
    x2 = b.array("x2", (n,))
    y1 = b.array("y1", (n,))
    y2 = b.array("y2", (n,))
    with b.loop("i", 0, n):
        with b.loop("j", 0, n):
            b.stmt(reads=[x1[b.v("i")], A[b.v("i"), b.v("j")], y1[b.v("j")]], writes=[x1[b.v("i")]])
    with b.loop("i2", 0, n):
        with b.loop("j2", 0, n):
            b.stmt(reads=[x2[b.v("i2")], A[b.v("j2"), b.v("i2")], y2[b.v("j2")]], writes=[x2[b.v("i2")]])
    return b.build()


def atax(m=8, n=10, element_size=LINE) -> Scop:
    b = ScopBuilder("atax", context={"M": m, "N": n}, element_size=element_size)
    A = b.array("A", (m, n))
    x = b.array("x", (n,))
    y = b.array("y", (n,))
    tmp = b.array("tmp", (m,))
    with b.loop("i0", 0, n):
        b.stmt(writes=[y[b.v("i0")]])
    with b.loop("i", 0, m):
        b.stmt(writes=[tmp[b.v("i")]])
        with b.loop("j", 0, n):
            b.stmt(reads=[A[b.v("i"), b.v("j")], x[b.v("j")], tmp[b.v("i")]], writes=[tmp[b.v("i")]])
        with b.loop("j2", 0, n):
            b.stmt(reads=[y[b.v("j2")], A[b.v("i"), b.v("j2")], tmp[b.v("i")]], writes=[y[b.v("j2")]])
    return b.build()


def trisolv(n=12, element_size=LINE) -> Scop:
    b = ScopBuilder("trisolv", context={"N": n}, element_size=element_size)
    L = b.array("L", (n, n))
    x = b.array("x", (n,))
    bvec = b.array("b", (n,))
    with b.loop("i", 0, n):
        b.stmt(reads=[bvec[b.v("i")]], writes=[x[b.v("i")]])
        with b.loop("j", 0, b.v("i")):
            b.stmt(reads=[x[b.v("i")], L[b.v("i"), b.v("j")], x[b.v("j")]], writes=[x[b.v("i")]])
        b.stmt(reads=[x[b.v("i")], L[b.v("i"), b.v("i")]], writes=[x[b.v("i")]])
    return b.build()


def cholesky_like(n=8, element_size=LINE) -> Scop:
    """Triangular update kernel with cholesky's loop structure."""
    b = ScopBuilder("cholesky", context={"N": n}, element_size=element_size)
    A = b.array("A", (n, n))
    with b.loop("i", 0, n):
        with b.loop("j", 0, b.v("i")):
            with b.loop("k", 0, b.v("j")):
                b.stmt(
                    reads=[A[b.v("i"), b.v("j")], A[b.v("i"), b.v("k")], A[b.v("j"), b.v("k")]],
                    writes=[A[b.v("i"), b.v("j")]],
                )
            b.stmt(reads=[A[b.v("i"), b.v("j")], A[b.v("j"), b.v("j")]], writes=[A[b.v("i"), b.v("j")]])
        b.stmt(reads=[A[b.v("i"), b.v("i")]], writes=[A[b.v("i"), b.v("i")]])
    return b.build()



def copy(n=48, element_size=LINE) -> Scop:
    """Streaming copy kernel B[i] = A[i]."""
    b = ScopBuilder("copy", context={"N": n}, element_size=element_size)
    A = b.array("A", (n,))
    B = b.array("B", (n,))
    with b.loop("i", 0, n):
        b.stmt(reads=[A[b.v("i")]], writes=[B[b.v("i")]])
    return b.build()


def transpose(n=10, m=9, element_size=LINE) -> Scop:
    """Out-of-place matrix transpose B[j][i] = A[i][j]."""
    b = ScopBuilder("transpose", context={"N": n, "M": m}, element_size=element_size)
    A = b.array("A", (n, m))
    B = b.array("B", (m, n))
    with b.loop("i", 0, n):
        with b.loop("j", 0, m):
            b.stmt(reads=[A[b.v("i"), b.v("j")]], writes=[B[b.v("j"), b.v("i")]])
    return b.build()


def stencil_1d(n=32, element_size=LINE) -> Scop:
    """Single jacobi-1d sweep B[i] = f(A[i-1], A[i], A[i+1])."""
    b = ScopBuilder("stencil-1d", context={"N": n}, element_size=element_size)
    A = b.array("A", (n,))
    B = b.array("B", (n,))
    with b.loop("i", 1, n - 1):
        b.stmt(reads=[A[b.v("i") - 1], A[b.v("i")], A[b.v("i") + 1]], writes=[B[b.v("i")]])
    return b.build()


def trisum(n=12, element_size=LINE) -> Scop:
    """Triangular reduction s[i] += A[i][j] for j <= i (trisolv-like reuse)."""
    b = ScopBuilder("trisum", context={"N": n}, element_size=element_size)
    A = b.array("A", (n, n))
    s = b.array("s", (n,))
    with b.loop("i", 0, n):
        with b.loop("j", 0, b.v("i"), upper_inclusive=True):
            b.stmt(reads=[A[b.v("i"), b.v("j")], s[b.v("i")]], writes=[s[b.v("i")]])
    return b.build()



def nested_triangular(n=8, element_size=LINE) -> Scop:
    """Three-deep triangular nest (cholesky-style reuse).

    The accumulator line is revisited across the outermost loop with a reuse
    window whose size grows quadratically, which yields genuinely non-affine
    stack-distance polynomials and exercises partial enumeration.
    """
    b = ScopBuilder("nested-tri", context={"N": n}, element_size=element_size)
    A = b.array("A", (n, n))
    acc = b.array("acc", (n,))
    with b.loop("i", 0, n):
        with b.loop("j", 0, b.v("i"), upper_inclusive=True):
            with b.loop("k", 0, b.v("j"), upper_inclusive=True):
                b.stmt(reads=[A[b.v("j"), b.v("k")], acc[b.v("i")]], writes=[acc[b.v("i")]])
    return b.build()


def copy_line_grained(n=16) -> Scop:
    """8 elements per cache line; exercises the floor-elimination paths."""
    b = ScopBuilder("copy-lines", context={"N": n}, element_size=8)
    A = b.array("A", (n,))
    B = b.array("B", (n,))
    with b.loop("i", 0, n):
        b.stmt(reads=[A[b.v("i")]], writes=[B[b.v("i")]])
    return b.build()


def triangular_line_grained(n=8) -> Scop:
    """Triangular kernel at cache-line granularity: non-affine distances."""
    b = ScopBuilder("tri-lines", context={"N": n}, element_size=8)
    A = b.array("A", (n, n))
    s = b.array("s", (n,))
    with b.loop("i", 0, n):
        with b.loop("j", 0, b.v("i"), upper_inclusive=True):
            b.stmt(reads=[A[b.v("i"), b.v("j")], s[b.v("i")]], writes=[s[b.v("i")]])
    return b.build()


#: The scaled benchmark suite used by the per-kernel figures.  These kernels
#: complete in seconds with the pure-Python symbolic backend; the full
#: PolyBench kernels remain available via ``repro.scop.polybench`` for longer
#: offline runs.
SUITE = {
    "copy": copy,
    "transpose": transpose,
    "stencil-1d": stencil_1d,
    "trisum": trisum,
}


def suite() -> Dict:
    """The benchmark suite, truncated to two kernels in smoke mode."""
    if smoke_mode():
        return {name: SUITE[name] for name in ("transpose", "trisum")}
    return dict(SUITE)


def nonaffine_workloads() -> List[Tuple[str, "object"]]:
    """Line-granularity workloads with non-affine stack distances.

    Shared by the Figure 14 ablation and the Table 1 statistic so both
    exercise identical kernels; smoke mode shrinks the problem sizes.
    """
    if smoke_mode():
        return [("nested-tri", lambda: nested_triangular(5)), ("copy-lines", lambda: copy_line_grained(8))]
    return [("nested-tri", nested_triangular), ("copy-lines", copy_line_grained)]


# ----------------------------------------------------------------------
# Runners
# ----------------------------------------------------------------------
def machine(levels: Tuple[int, ...] = (L1_SIZE, L2_SIZE), line_size: int = LINE) -> MachineModel:
    return MachineModel(
        line_size=line_size,
        levels=tuple(CacheLevelSpec(size, f"L{i+1}") for i, size in enumerate(levels)),
    )


def analysis_session(
    levels: Tuple[int, ...] = (L1_SIZE, L2_SIZE),
    options: Optional[ModelOptions] = None,
    *,
    jobs: Optional[int] = None,
) -> Session:
    """A :class:`repro.api.Session` configured for the scaled experiments.

    Figure modules run every analysis through this façade; single runs use
    ``analysis_session(...).analyze(scop)``, sweeps open a request with
    ``.scops(...)``.  Exporting REPRO_STORE_PATH shares the persistent
    analysis store across pytest sessions.
    """
    session = Session().machine(machine(levels)).workers(jobs if jobs is not None else default_jobs())
    if options is not None:
        session.configure(options)
    store_path = os.environ.get("REPRO_STORE_PATH", "").strip() or None
    if store_path:
        session.store(store_path)
    return session


def run_models(
    scops: Sequence[Scop],
    levels: Tuple[int, ...] = (L1_SIZE, L2_SIZE),
    options: Optional[ModelOptions] = None,
    *,
    jobs: Optional[int] = None,
) -> List[ModelResult]:
    """Analyse several kernels through the session façade (parallel workers).

    Results are memoised across benchmark modules on the job identity, so a
    kernel analysed by one figure is free for every later figure.  Ordering
    is deterministic: results come back in argument order regardless of the
    worker count.
    """
    session = analysis_session(levels, options, jobs=jobs)
    specs = session.scops(*scops).specs()
    missing = [spec for spec in specs if spec.key() not in _RESULTS]
    if missing:
        batch = session.run(missing)
        for spec, record in zip(missing, batch.records):
            if not record.ok or record.result is None:
                raise RuntimeError(f"benchmark job {spec.describe()} failed: {record.error}")
            _RESULTS[spec.key()] = record.result
    return [_RESULTS[spec.key()] for spec in specs]


def run_model(scop: Scop, levels: Tuple[int, ...] = (L1_SIZE, L2_SIZE), options: Optional[ModelOptions] = None) -> ModelResult:
    """Run the analytical model (memoised across benchmark modules)."""
    return run_models([scop], levels, options, jobs=1)[0]


def model_session(
    levels: Tuple[int, ...] = (L1_SIZE, L2_SIZE), options: Optional[ModelOptions] = None
) -> Session:
    """Session for *timed* single runs: inline worker and no store, so the
    measured wall time is the model's compute, not a disk lookup."""
    return analysis_session(levels, options, jobs=1).no_store()


def run_simulator(scop: Scop, levels: Tuple[int, ...] = (L1_SIZE, L2_SIZE), associativity=None):
    configs = [CacheLevelConfig(cache_size=size, line_size=LINE, associativity=associativity) for size in levels]
    return DineroSimulator(configs).run(scop)


def reference_misses(scop: Scop, cache_lines: int, line_size: int = LINE) -> Tuple[int, int]:
    """Exact (compulsory, capacity) misses from the vectorized stack-distance
    profiler (identical to the reference :class:`StackDistanceProfiler`)."""
    arrays = trace_arrays(scop, line_size=line_size, padded=True)
    return misses_for_capacity(arrays.line_indices(), cache_lines)


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start
