"""Benchmark regression harness: named suites, reports, baseline comparison.

``repro-haystack bench`` runs a *named workload suite* through the batch
engine and emits a machine-readable ``BENCH_<suite>.json`` report: wall
time, per-job phase breakdown, cardinality-cache and store traffic, and the
deterministic symbolic work charged by each job.  A report can be compared
against a committed baseline with a configurable tolerance; the comparison
exits non-zero on regression, which is how CI holds the line on the model's
speed and accuracy claims.

Two metric families with different trust levels:

* **deterministic** — miss counts (the model is exact, so *any* change is an
  accuracy regression) and symbolic work units (machine-independent cost;
  compared with the tolerance);
* **wall clock** — noisy and machine-dependent.  Every report therefore
  includes a ``calibration_seconds`` measurement of a fixed symbolic
  workload taken on the same machine at the same time; wall-time comparison
  uses the *calibration-normalized* ratio, so a baseline recorded on a fast
  laptop still compares meaningfully on a slow CI runner.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "SUITES",
    "WORKLOADS",
    "Gate",
    "Workload",
    "compare_reports",
    "default_baseline_path",
    "load_report",
    "run_suite",
    "suite_names",
    "write_report",
]

#: Schema version of the ``BENCH_*.json`` payload (2 = added the ``trace``
#: simulator workload; 3 = added the ``curve`` sweep workload; 4 = added the
#: ``symbolic`` chamber-evaluation workload; 5 = added the ``serve`` live
#: server workload; 6 = added the ``explore`` design-space workload; readers
#: treat missing sections as absent).
BENCH_SCHEMA = 6

#: Named workload suites: kernels x datasets analysed under a deterministic
#: work budget, plus one config per row of :data:`WORKLOADS` that the suite
#: runs.  ``smoke`` finishes in seconds (CI gate); ``full`` covers the whole
#: PolyBench registry for offline trend tracking.
SUITES: Dict[str, Dict] = {
    "smoke": {
        "kernels": ["gemm", "atax", "bicg", "mvt", "trisolv", "jacobi-1d"],
        "datasets": ["mini"],
        "levels": [(32 * 1024, 256 * 1024)],
        "budget": 2_000,
        # ~11k-access gemm: large enough that the >=10x vectorization claim
        # is far from the noise floor (measured ~40-60x), small enough that
        # the reference pass stays under a second.
        "trace": {"size": 14, "rounds": 3, "min_speedup": 10.0},
        # 64-point sweep vs one fixed-capacity analysis on a kernel the
        # symbolic pipeline completes in seconds; the 2x ceiling is the
        # miss-curve acceptance bar (shared counting pass, sweep points
        # nearly free).
        "curve": {"size": 32, "points": 64, "max_ratio": 2.0},
        # Dense capacity grid through the parametric chambers of the matvec
        # distance pieces: the pure-Python piecewise walk is the reference,
        # the veceval bulk evaluator must beat it by the floor while
        # producing byte-identical totals.
        "symbolic": {"size": 32, "points": 1024, "rounds": 3, "min_speedup": 3.0},
        # Live-server load test: hundreds of mixed requests (duplicates
        # interleaved with unique capacity sweeps) against a background
        # `repro-haystack serve` with real process workers and a fresh
        # sqlite store.  Gates: zero errors, exact engine-job dedup,
        # deterministic coalescing of batch duplicates, budget shedding,
        # and calibration-normalized p95 latency.
        "serve": {
            "kernels": ["gemm", "atax", "bicg", "mvt", "trisolv", "jacobi-1d"],
            "dataset": "mini",
            "budget": 2_000,
            "repeats": 34,
            "clients": 8,
            "workers": 2,
        },
        # Design-space explorer: a 4-tile x 16-capacity grid (64
        # configurations, 4 analyses) against 64 independent store-cold
        # analyses of the same configurations.  Gates: the grid must cost at
        # most a quarter of the independent sweep (the per-axis parametric
        # amortization claim) and the ranked table must be byte-identical
        # across backends and stable against the baseline.
        "explore": {"size": 16, "tiles": [1, 2, 4, 8], "points": 16, "max_cost_ratio": 0.25},
    },
    "full": {
        "kernels": "all",
        "datasets": ["mini"],
        "levels": [(32 * 1024, 256 * 1024)],
        "budget": 10_000,
        "trace": {"size": 20, "rounds": 3, "min_speedup": 10.0},
        "curve": {"size": 48, "points": 64, "max_ratio": 2.0},
        "symbolic": {"size": 48, "points": 2048, "rounds": 3, "min_speedup": 3.0},
        "serve": {
            "kernels": ["gemm", "atax", "bicg", "mvt", "trisolv", "jacobi-1d"],
            "dataset": "mini",
            "budget": 10_000,
            "repeats": 67,
            "clients": 8,
            "workers": 2,
        },
        "explore": {"size": 24, "tiles": [1, 2, 4, 8, 16], "points": 16, "max_cost_ratio": 0.25},
    },
}


def suite_names() -> List[str]:
    return sorted(SUITES)


def default_baseline_path(suite: str) -> Path:
    """Committed baseline location (relative to the repository root / cwd)."""
    return Path("benchmarks") / "baselines" / f"BENCH_{suite}.json"


#: Repetitions of the calibration workload (one analysis is a few ms; the sum
#: is long enough that timer noise stays well under the comparison tolerance).
_CALIBRATION_ROUNDS = 50


def _calibrate() -> float:
    """Seconds for a fixed symbolic workload on this machine, right now.

    The workload is deterministic (same kernel, same machine model, no
    store), so the measurement tracks machine speed only.  Reports carry it
    so wall-time comparisons can be normalized across machines.  One warm-up
    run is excluded, then a fixed number of fresh analyses are timed, each
    from an empty program memo so it runs every stage.
    """
    from ..api import Session
    from ..core.model import PROGRAM_MEMO
    from ..scop import ScopBuilder

    builder = ScopBuilder("calibration", context={"N": 10, "M": 9}, element_size=64)
    A = builder.array("A", (10, 9))
    B = builder.array("B", (9, 10))
    with builder.loop("i", 0, 10):
        with builder.loop("j", 0, 9):
            builder.stmt(reads=[A[builder.v("i"), builder.v("j")]], writes=[B[builder.v("j"), builder.v("i")]])
    scop = builder.build()
    session = Session().machine((1024, 8192))
    session.analyze(scop)
    elapsed = 0.0
    for _ in range(_CALIBRATION_ROUNDS):
        PROGRAM_MEMO.clear()
        start = time.perf_counter()
        session.analyze(scop)
        elapsed += time.perf_counter() - start
    return elapsed


def _trace_workload_scop(size: int):
    """The fig10-style simulator workload: a gemm of ``size``^3 updates.

    Element size equals the line size so every access is one line — the
    trace length (and therefore the measured speedup) depends only on
    ``size``, not on layout details.
    """
    from ..scop import ScopBuilder

    builder = ScopBuilder("bench-trace-gemm", context={"N": size}, element_size=64)
    C = builder.array("C", (size, size))
    A = builder.array("A", (size, size))
    B = builder.array("B", (size, size))
    with builder.loop("i", 0, size):
        with builder.loop("j", 0, size):
            builder.stmt(reads=[C[builder.v("i"), builder.v("j")]], writes=[C[builder.v("i"), builder.v("j")]])
        with builder.loop("k", 0, size):
            with builder.loop("j2", 0, size):
                builder.stmt(
                    reads=[A[builder.v("i"), builder.v("k")], B[builder.v("k"), builder.v("j2")], C[builder.v("i"), builder.v("j2")]],
                    writes=[C[builder.v("i"), builder.v("j2")]],
                )
    return builder.build()


def _time_backends(run: Callable[[str], Tuple[Any, float]], rounds: int) -> Tuple[Any, Dict, Any]:
    """Time ``run(backend) -> (result, seconds)`` under both backends.

    The pure-Python reference is the slow side and runs once; the NumPy
    backend runs ``rounds`` times and its best run counts.  Returns the
    reference result, the report's timing fields (``python_seconds``,
    ``numpy_seconds``, ``speedup``, ``results_match``) and the last NumPy
    result that disagreed with the reference (``None`` when every round
    agreed).
    """
    reference, python_seconds = run("python")
    best = None
    disagreement = None
    for _ in range(max(1, int(rounds))):
        result, seconds = run("numpy")
        best = seconds if best is None else min(best, seconds)
        if result != reference:
            disagreement = result
    timing: Dict = {
        "python_seconds": python_seconds,
        "numpy_seconds": best,
        "speedup": python_seconds / best if best else None,
        "results_match": disagreement is None,
    }
    return reference, timing, disagreement


def _run_trace_workload(config: Dict) -> Dict:
    """Time the concrete simulator pipeline under both backends.

    Runs the fig10 simulator-accuracy path — one fully associative level and
    one 4-way LRU level over the full trace — through
    :func:`_time_backends`, recording the speedup ratio and whether the two
    backends produced identical miss counts.
    """
    from ..simulator import CacheLevelConfig, DineroSimulator

    scop = _trace_workload_scop(config.get("size", 14))
    levels = [
        CacheLevelConfig(cache_size=16 * 64, line_size=64, associativity=None),
        CacheLevelConfig(cache_size=128 * 64, line_size=64, associativity=4),
    ]

    def simulate(backend: str):
        result = DineroSimulator(levels, backend=backend).run(scop)
        return (result.accesses, [stats.misses for stats in result.levels]), result.elapsed_seconds

    (accesses, misses), timing, disagreement = _time_backends(simulate, config.get("rounds", 3))
    entry: Dict = {
        "kernel": scop.name,
        "accesses": accesses,
        "misses": misses,
        **timing,
        "min_speedup": config.get("min_speedup", 10.0),
    }
    if disagreement is not None:
        entry["numpy_misses"] = disagreement[1]
    return entry


def _curve_workload_scop(size: int):
    """The curve-sweep workload: a matrix-vector product of ``size``^2 updates.

    One statement with three distinct reuse behaviours (``x`` reused within a
    row, ``y`` reused across rows at distance ~``size``, ``A`` streamed), so
    the miss curve has real structure across the sweep.  Element size equals
    the line size, which keeps the symbolic pipeline fast enough to complete
    un-budgeted in seconds.
    """
    from ..scop import ScopBuilder

    builder = ScopBuilder("bench-curve-matvec", context={"N": size}, element_size=64)
    A = builder.array("A", (size, size))
    x = builder.array("x", (size,))
    y = builder.array("y", (size,))
    with builder.loop("i", 0, size):
        with builder.loop("j", 0, size):
            builder.stmt(
                reads=[A[builder.v("i"), builder.v("j")], y[builder.v("j")], x[builder.v("i")]],
                writes=[x[builder.v("i")]],
            )
    return builder.build()


def _curve_sweep_bytes(points: int, line_size: int = 64) -> List[int]:
    """Log-spaced sweep from one line to 4096 lines (deterministic)."""
    from ..sweep import log_spaced

    return log_spaced(line_size, line_size * 4096, points)


def _run_curve_workload(config: Dict) -> Dict:
    """Time a many-point capacity sweep against one fixed-capacity analysis.

    Both runs use the full symbolic pipeline (no budget, no store).  The
    sweep resolves every capacity through the result's
    :class:`~repro.core.MissCurve`; its counts are additionally checked
    against the exact trace-derived curve, so :func:`compare_reports` can
    gate on correctness (``counts_match``, count drift vs the baseline) and
    on the sweep staying under ``max_ratio`` times the single-capacity wall
    time (the one-analysis-every-cache-size claim).
    """
    from ..api import Session
    from ..core import CacheModel, ModelOptions
    from ..core.model import PROGRAM_MEMO

    size = int(config.get("size", 32))
    points = int(config.get("points", 64))
    max_ratio = float(config.get("max_ratio", 2.0))
    scop = _curve_workload_scop(size)
    machine = (16 * 64,)  # one 16-line L1: y overflows it, x does not
    sweep = _curve_sweep_bytes(points)

    # Warm process-wide state (Faulhaber tables, interpreter specialization)
    # with one untimed full-size run, so the single-vs-sweep ratio measures
    # the sweep and not whichever analysis happened to go first.  Both timed
    # runs start from an empty program memo: each is a full analysis.
    Session().machine(machine).no_store().analyze(_curve_workload_scop(size))

    session = Session().machine(machine).no_store()
    PROGRAM_MEMO.clear()
    start = time.perf_counter()
    single = session.analyze(scop)
    single_seconds = time.perf_counter() - start

    sweep_session = Session().machine(machine).no_store().sweep(capacities=sweep)
    PROGRAM_MEMO.clear()
    start = time.perf_counter()
    swept = sweep_session.analyze(scop)
    sweep_seconds = time.perf_counter() - start

    curve = swept.miss_curve
    lines = [max(1, size_bytes // 64) for size_bytes in sweep]
    sweep_misses = curve.sample(lines) if curve is not None else None
    reference = CacheModel(
        session.machine_model, ModelOptions(backend="python")
    ).analyze_by_trace(scop).miss_curve
    counts_match = (
        curve is not None
        and sweep_misses == reference.sample(lines)
        and single.level_results[0].misses == swept.level_results[0].misses
    )
    return {
        "kernel": scop.name,
        "accesses": swept.accesses,
        "points": len(sweep),
        "single_seconds": single_seconds,
        "sweep_seconds": sweep_seconds,
        "sweep_ratio": (sweep_seconds / single_seconds) if single_seconds else None,
        "counts_match": counts_match,
        "used_fallback": swept.used_fallback,
        "sweep_misses": sweep_misses,
        "max_ratio": max_ratio,
    }


def _run_symbolic_workload(config: Dict) -> Dict:
    """Time bulk chamber/grid evaluation under both backends.

    This is the gate on the vectorized symbolic core: the parametric
    capacity chambers of every distance piece of the curve-workload matvec
    are extracted once (symbolic work, untimed — identical for both
    backends), then evaluated over a dense capacity grid of ``points``
    capacities through :func:`_time_backends` — the pure-Python piecewise
    walk against the :mod:`repro.isl.veceval` bulk evaluator.  The two
    backends must produce byte-identical per-capacity totals; the report
    records a digest of the totals so the baseline can pin them.
    """
    import hashlib

    from ..core.capacity import CAPACITY_PARAM, CapacityCounter
    from ..core.distance import StackDistanceAnalysis
    from ..core.model import ModelOptions
    from ..isl.counting import piecewise_values

    scop = _curve_workload_scop(int(config.get("size", 32)))
    grid = list(range(1, int(config.get("points", 1024)) + 1))
    chamber_sets = []
    for access_distances in StackDistanceAnalysis(scop, line_size=64).analyze():
        counter = CapacityCounter(access_distances.access.statement.loop_vars, ModelOptions())
        for piece in access_distances.pieces:
            if not piece.polynomial.is_affine():
                continue
            chambers = counter._parametric_chambers(piece)
            if chambers:
                chamber_sets.append(chambers)

    def evaluate(backend: str):
        start = time.perf_counter()
        totals = [0] * len(grid)
        for chambers in chamber_sets:
            values = piecewise_values(chambers, {CAPACITY_PARAM: grid}, backend=backend)
            if values is None:
                raise RuntimeError("symbolic workload: chamber evaluation failed")
            for index, value in enumerate(values):
                totals[index] += value
        return totals, time.perf_counter() - start

    totals, timing, _ = _time_backends(evaluate, config.get("rounds", 3))
    return {
        "kernel": scop.name,
        "chamber_sets": len(chamber_sets),
        "points": len(grid),
        "totals_sha256": hashlib.sha256(json.dumps(totals).encode("ascii")).hexdigest(),
        **timing,
        "min_speedup": config.get("min_speedup", 3.0),
    }


#: Inline ``.knl`` program shipped by the serve workload's coalesce probe.
#: It exists in no registry, so its first submission is always a fresh
#: engine job — the duplicates in the same batch *must* coalesce onto it.
_SERVE_PROBE_SOURCE = """\
kernel bench_serve_probe

dataset mini { N = 24 }

array A[N][N]
array x[N]
array y[N]

S0: { [i, j] : 0 <= i < N and 0 <= j < N }
    schedule [0, i, 0, j, 0]
    y[i] += A[i][j] * x[j]
"""


def _run_serve_workload(config: Dict) -> Dict:
    """Load-test a live analysis server: duplicate-heavy traffic, real workers.

    Boots an in-process :class:`~repro.server.BackgroundServer` — process
    workers, the same execution path as ``repro-haystack serve`` — on a
    fresh sqlite store, then drives two deterministic probes plus a
    concurrent mixed load:

    * **coalesce probe** — one ``/v1/batch`` carrying three copies of an
      inline ``.knl`` job nobody else submits: the server admits all three
      before the leader's first engine job can finish, so exactly one job
      runs and both duplicates answer ``coalesced`` (deterministic — no
      timing assumptions);
    * **shed probe** — a request demanding an unlimited work budget against
      the server's admission ceiling must come back 429 / ``shed=budget``;
    * **mixed load** — ``repeats`` round-robin rounds over the unique specs
      (one per kernel, each with its own capacity sweep) fired from
      ``clients`` concurrent connections.  Every duplicate must be served
      without a new engine job — coalesced while the leader is in flight,
      from the store afterwards — so ``engine_jobs`` equals the unique-spec
      count *exactly*, and all responses for one spec must be
      byte-identical.

    The entry records the dedup accounting, per-kernel miss counts
    (accuracy), the store counters, and p50/p95 request latency;
    :func:`compare_reports` gates on all of them.
    """
    import hashlib
    import statistics
    import tempfile
    from concurrent.futures import ThreadPoolExecutor

    from ..server import BackgroundServer

    kernels = list(config.get("kernels", []))
    dataset = str(config.get("dataset", "mini"))
    budget = int(config.get("budget", 2_000))
    repeats = max(2, int(config.get("repeats", 34)))
    clients = max(1, int(config.get("clients", 8)))
    # Process workers (never the inline-thread test mode): the bench must
    # exercise the same pool the production `serve` command runs.
    workers = max(1, int(config.get("workers", 2)))
    levels = [32 * 1024, 256 * 1024]

    unique_jobs = [
        {
            "kernel": kernel,
            "dataset": dataset,
            "levels": levels,
            "budget": budget,
            # Every spec gets its own sweep, so duplicates repeat a genuine
            # miss-curve request rather than a degenerate single-point one.
            "capacities": _curve_sweep_bytes(8 + 2 * index),
        }
        for index, kernel in enumerate(kernels)
    ]
    probe = {
        "source": _SERVE_PROBE_SOURCE,
        "dataset": "mini",
        "levels": levels,
        "budget": budget,
    }

    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmp:
        server = BackgroundServer(
            store_path=f"{tmp}/store.sqlite",
            workers=workers,
            max_inflight=len(unique_jobs) + 4,
            max_budget=budget,
        )
        with server:
            client = server.client()
            client.wait_ready()

            records = list(client.batch_iter([dict(probe) for _ in range(3)]))
            probe_ok = len(records) == 3 and all(r["status"] == 200 for r in records)
            probe_coalesced = sum(
                1 for r in records if r["status"] == 200 and r["body"]["meta"]["coalesced"]
            )

            status, body = client.request(
                "POST",
                "/v1/analyze",
                {"kernel": kernels[0], "dataset": dataset, "levels": levels},
            )
            shed_ok = status == 429 and body.get("shed") == "budget"

            requests = [job for _ in range(repeats) for job in unique_jobs]
            latencies: List[float] = []
            payload_digests: Dict[str, set] = {}
            misses: Dict[str, List[int]] = {}
            cached = coalesced_responses = client_errors = 0

            def one_request(job: Dict):
                start = time.perf_counter()
                envelope = client.analyze(job)
                return time.perf_counter() - start, envelope

            wall_start = time.perf_counter()
            with ThreadPoolExecutor(max_workers=clients) as pool:
                futures = [pool.submit(one_request, job) for job in requests]
                for future, job in zip(futures, requests):
                    try:
                        elapsed, envelope = future.result()
                    except Exception:  # noqa: BLE001 - failures become the errors gate
                        client_errors += 1
                        continue
                    latencies.append(elapsed)
                    meta = envelope["meta"]
                    cached += bool(meta["cached"])
                    coalesced_responses += bool(meta["coalesced"])
                    kernel = job["kernel"]
                    digest = hashlib.sha256(
                        json.dumps(envelope["result"], sort_keys=True).encode("utf-8")
                    ).hexdigest()
                    payload_digests.setdefault(kernel, set()).add(digest)
                    misses.setdefault(
                        kernel, [level["misses"] for level in envelope["result"]["levels"]]
                    )
            wall_seconds = time.perf_counter() - wall_start
            stats = client.stats()

    # One engine job per unique spec (the kernels plus the probe source);
    # everything else is a duplicate and must be coalesced or store-served.
    unique = len(unique_jobs) + 1
    admitted = len(requests) + 3  # the shed probe is rejected, not deduped
    store = stats.get("store") or {}
    if latencies:
        p50 = statistics.median(latencies)
        p95 = statistics.quantiles(latencies, n=20)[18] if len(latencies) >= 20 else max(latencies)
    else:
        p50 = p95 = None
    return {
        "kernels": kernels,
        "requests": admitted,
        "unique_specs": unique,
        "dedup": admitted - unique,
        "workers": workers,
        "clients": clients,
        "probe_ok": probe_ok,
        "probe_coalesced": probe_coalesced,
        "shed_ok": shed_ok,
        "errors": client_errors + int(stats.get("errors", 0)),
        "engine_jobs": stats.get("engine_jobs"),
        "coalesced": stats.get("coalesced"),
        "cached": cached,
        "payloads_identical": all(len(digests) == 1 for digests in payload_digests.values()),
        "misses": {kernel: misses[kernel] for kernel in sorted(misses)},
        "store_hits": store.get("hits"),
        "store_misses": store.get("misses"),
        "store_hit_rate": store.get("hit_rate"),
        "wall_seconds": wall_seconds,
        "p50_seconds": p50,
        "p95_seconds": p95,
    }


def _run_explore_workload(config: Dict) -> Dict:
    """Price a design-space grid against independent per-configuration runs.

    Walks a ``tiles`` x ``points``-capacity grid of the curve-workload
    matvec through :meth:`repro.api.Session.explore` (store-cold, no
    budget), then analyzes the *same* configurations as independent
    store-cold :meth:`~repro.api.Session.analyze` calls — one per (tile,
    capacity), each against a machine of exactly that capacity.  The grid
    shares one analysis per tile (the capacity axis rides along as
    parametric :class:`~repro.core.MissCurve` breakpoints), so its wall time
    must stay under ``max_cost_ratio`` times the independent sweep.

    The ranked table is re-derived with the pure-Python backend and with the
    NumPy backend; both must produce a byte-identical
    :meth:`~repro.explore.ExploreResult.table_digest` — the determinism half
    of the explore acceptance gate.  The digest also rides into the report
    so :func:`compare_reports` can hold the table stable against the
    committed baseline.
    """
    from ..api import Session
    from ..core.model import PROGRAM_MEMO
    from ..scop.schedule import tile_scop
    from ..sweep import log_spaced

    size = int(config.get("size", 16))
    tiles = [int(tile) for tile in config.get("tiles", (1, 2, 4, 8))]
    points = int(config.get("points", 16))
    max_cost_ratio = float(config.get("max_cost_ratio", 0.25))
    scop = _curve_workload_scop(size)
    capacities = [64 * lines for lines in log_spaced(2, 1024, points)]

    # Warm process-wide state with one untimed analysis (same convention as
    # the curve workload) so the grid-vs-independent ratio is not dominated
    # by whichever side pays the first-run interpreter and table costs.
    Session().machine((8 * 64,)).no_store().analyze(_curve_workload_scop(size))

    def grid_session() -> Session:
        return Session().machine((max(capacities),)).no_store()

    PROGRAM_MEMO.clear()
    start = time.perf_counter()
    result = grid_session().explore(scop, tiles=tiles, capacities=capacities)
    grid_seconds = time.perf_counter() - start
    digest = result.table_digest()

    # The independent side gets the tiled variants for free: it pays one
    # full analysis per configuration (from an empty program memo), nothing
    # else.
    variants = {tile: tile_scop(scop, tile) if tile > 1 else scop for tile in tiles}
    independent_seconds = 0.0
    independent = 0
    for tile in tiles:
        for capacity in capacities:
            PROGRAM_MEMO.clear()
            start = time.perf_counter()
            Session().machine((capacity,)).no_store().analyze(variants[tile])
            independent_seconds += time.perf_counter() - start
            independent += 1

    backends_match = all(
        grid_session().backend(backend).explore(scop, tiles=tiles, capacities=capacities).table_digest() == digest
        for backend in ("python", "numpy")
    )
    return {
        "kernel": scop.name,
        "tiles": tiles,
        "capacity_points": len(capacities),
        "grid_size": len(result.configs),
        "pareto_size": len(result.front()),
        "analyses": result.analyses,
        "independent_analyses": independent,
        "grid_seconds": grid_seconds,
        "independent_seconds": independent_seconds,
        "cost_ratio": (grid_seconds / independent_seconds) if independent_seconds else None,
        "max_cost_ratio": max_cost_ratio,
        "table_digest": digest,
        "backends_match": backends_match,
    }


@dataclass(frozen=True)
class Gate:
    """One regression check on a workload's report entry.

    ``kind`` decides what the gate compares:

    * ``"holds"`` — ``check(now)`` must be true of the current entry (by
      default: ``now[field]`` is not ``False``);
    * ``"exact"`` — ``now[field]`` must equal the baseline's (skipped when
      the baseline has no value);
    * ``"floor"`` / ``"ceiling"`` — ``now[field]`` must stay at least / at
      most the entry's own threshold field ``limit`` (the baseline's when
      the entry has none);
    * ``"collapse"`` — ``now[field]`` must stay within ``factor`` times the
      baseline's: at least that when ``factor < 1`` (a speedup), at most
      when ``factor > 1`` (a latency).  ``per_calibration`` first divides
      both values by their report's ``calibration_seconds``.

    Floors, ceilings and collapses are skipped when the value or the
    threshold is missing.  ``wall`` marks a wall-clock gate, skipped with
    ``check_wall=False``.  ``message(now, base, value, reference)`` renders
    the regression, where ``reference`` is the baseline value or threshold
    the value was held against.
    """

    kind: str
    field: str
    message: Callable[[Dict, Dict, Any, Any], str]
    check: Optional[Callable[[Dict], bool]] = None
    limit: str = ""
    factor: float = 1.0
    per_calibration: bool = False
    wall: bool = False

    def regression(self, now: Dict, base: Dict, current: Dict, baseline: Dict) -> Optional[str]:
        """The regression message when ``now`` fails this gate, else ``None``."""
        value = now.get(self.field)
        reference = base.get(self.field)
        if self.kind == "holds":
            holds = self.check(now) if self.check else value is not False
            return None if holds else self.message(now, base, value, None)
        if self.kind == "exact":
            failed = reference is not None and value != reference
            return self.message(now, base, value, reference) if failed else None
        if self.kind == "collapse":
            if self.per_calibration:
                value = _per_calibration(value, current)
                reference = _per_calibration(reference, baseline)
            threshold = reference * self.factor if reference else None
            floor = self.factor < 1
        else:
            reference = threshold = now.get(self.limit) or base.get(self.limit)
            floor = self.kind == "floor"
        if value is None or not threshold:
            return None
        failed = value < threshold if floor else value > threshold
        return self.message(now, base, value, reference) if failed else None


@dataclass(frozen=True)
class Workload:
    """One row of :data:`WORKLOADS`: a report section and its gates.

    ``run(config)`` produces the section from the suite's config of the
    same name, every gate in ``gates`` is applied to it by
    :func:`compare_reports`, and ``summary(entry)`` is its line in
    :func:`format_bench_summary`.
    """

    name: str
    run: Callable[[Dict], Dict]
    gates: Tuple[Gate, ...]
    summary: Callable[[Dict], str]


def _per_calibration(seconds: Optional[float], report: Dict) -> Optional[float]:
    """``seconds`` in units of the report's calibration time (or ``None``)."""
    calibration = report.get("calibration_seconds") or 0.0
    if not calibration or seconds is None:
        return None
    return seconds / calibration


def _speedup_text(entry: Dict) -> str:
    speedup = entry.get("speedup")
    return (
        f"python {entry.get('python_seconds', 0.0):.3f}s, numpy {entry.get('numpy_seconds', 0.0):.4f}s "
        f"({'n/a' if speedup is None else f'{speedup:.1f}x'} speedup, floor {entry.get('min_speedup', 0):.0f}x)"
    )


def _ratio_text(ratio: Optional[float]) -> str:
    return f"{ratio:.2f}x" if ratio is not None else "n/a"


def _latency_text(entry: Dict) -> str:
    p50, p95 = entry.get("p50_seconds"), entry.get("p95_seconds")
    if p50 is None or p95 is None:
        return "no latency samples"
    return f"p50 {p50 * 1000:.1f}ms / p95 {p95 * 1000:.1f}ms"


#: Every optional workload of a suite, in the order :func:`run_suite` runs
#: them.  Adding a workload means adding one row here (and its config to
#: :data:`SUITES`); :func:`compare_reports` flags a row whose section the
#: baseline has but the current report lacks, then applies its gates.
WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "trace",
        _run_trace_workload,
        (
            Gate(
                "holds",
                "results_match",
                lambda now, *_: "accuracy: trace workload backends disagree "
                f"(python {now.get('misses')}, numpy {now.get('numpy_misses')})",
            ),
            Gate(
                "exact",
                "misses",
                lambda now, base, value, reference: "accuracy: trace workload miss counts changed "
                f"(baseline {reference}, current {value})",
            ),
            Gate(
                "floor",
                "speedup",
                lambda now, base, value, reference: f"performance: trace simulator speedup {value:.1f}x "
                f"is below the suite floor of {reference:.0f}x (python {now.get('python_seconds', 0):.3f}s, "
                f"numpy {now.get('numpy_seconds', 0):.4f}s)",
                limit="min_speedup",
            ),
            Gate(
                "collapse",
                "speedup",
                lambda now, base, value, reference: "performance: trace simulator speedup collapsed "
                f"{reference:.1f}x -> {value:.1f}x (under a quarter of baseline)",
                factor=0.25,
            ),
        ),
        lambda entry: f"trace workload: {entry.get('accesses', 0)} accesses, {_speedup_text(entry)}",
    ),
    Workload(
        "curve",
        _run_curve_workload,
        (
            Gate(
                "holds",
                "counts_match",
                lambda *_: "accuracy: curve workload sweep counts disagree with the exact trace reference",
            ),
            Gate(
                "exact",
                "sweep_misses",
                lambda *_: "accuracy: curve workload sweep counts changed against the baseline",
            ),
            Gate(
                "holds",
                "used_fallback",
                lambda *_: "accuracy: curve workload fell back to the trace (the sweep must "
                "exercise the symbolic curve)",
                check=lambda entry: not entry.get("used_fallback"),
            ),
            Gate(
                "ceiling",
                "sweep_ratio",
                lambda now, base, value, reference: f"performance: {now.get('points', 0)}-point curve "
                f"sweep costs {value:.2f}x a single fixed-capacity analysis (ceiling {reference:.1f}x; "
                f"single {now.get('single_seconds', 0):.2f}s, sweep {now.get('sweep_seconds', 0):.2f}s)",
                limit="max_ratio",
                wall=True,
            ),
        ),
        lambda entry: f"curve workload: {entry.get('points', 0)}-point sweep in "
        f"{entry.get('sweep_seconds', 0.0):.2f}s vs single analysis {entry.get('single_seconds', 0.0):.2f}s "
        f"({_ratio_text(entry.get('sweep_ratio'))}, ceiling {entry.get('max_ratio', 0):.1f}x), "
        f"counts {'match' if entry.get('counts_match') else 'DIFFER'}",
    ),
    Workload(
        "symbolic",
        _run_symbolic_workload,
        (
            Gate(
                "holds",
                "results_match",
                lambda *_: "accuracy: symbolic workload evaluation backends disagree on the "
                "per-capacity totals",
            ),
            Gate(
                "exact",
                "totals_sha256",
                lambda *_: "accuracy: symbolic workload per-capacity totals changed against the baseline",
            ),
            Gate(
                "floor",
                "speedup",
                lambda now, base, value, reference: "performance: symbolic chamber evaluation speedup "
                f"{value:.1f}x is below the suite floor of {reference:.0f}x "
                f"(python {now.get('python_seconds', 0):.3f}s, numpy {now.get('numpy_seconds', 0):.4f}s)",
                limit="min_speedup",
            ),
            Gate(
                "collapse",
                "speedup",
                lambda now, base, value, reference: "performance: symbolic chamber evaluation speedup "
                f"collapsed {reference:.1f}x -> {value:.1f}x (under a quarter of baseline)",
                factor=0.25,
            ),
        ),
        lambda entry: f"symbolic workload: {entry.get('chamber_sets', 0)} chamber sets x "
        f"{entry.get('points', 0)} capacities, {_speedup_text(entry)}, "
        f"totals {'match' if entry.get('results_match') else 'DIFFER'}",
    ),
    Workload(
        "serve",
        _run_serve_workload,
        (
            Gate(
                "holds",
                "errors",
                lambda now, *_: f"accuracy: serve workload saw {now['errors']} failed request(s) "
                f"out of {now.get('requests', 0)}",
                check=lambda entry: not entry.get("errors"),
            ),
            Gate(
                "holds",
                "probe_coalesced",
                lambda now, *_: "performance: serve workload batch duplicates failed to coalesce "
                f"({now.get('probe_coalesced', 0)}/2 duplicate responses coalesced)",
                check=lambda entry: entry.get("probe_ok", True) and entry.get("probe_coalesced", 0) >= 2,
            ),
            Gate(
                "holds",
                "shed_ok",
                lambda *_: "accuracy: serve workload unlimited-budget request was not shed with 429/budget",
            ),
            Gate(
                "holds",
                "engine_jobs",
                lambda now, *_: f"performance: serve workload ran {now.get('engine_jobs')} engine jobs for "
                f"{now.get('unique_specs')} unique specs (every duplicate must coalesce or hit the store)",
                check=lambda entry: None in (entry.get("engine_jobs"), entry.get("unique_specs"))
                or entry["engine_jobs"] == entry["unique_specs"],
            ),
            Gate(
                "holds",
                "dedup",
                lambda now, *_: "performance: serve workload dedup accounting broke "
                f"({now.get('coalesced')} coalesced + {now.get('cached')} store-cached "
                f"!= {now.get('dedup')} duplicates)",
                check=lambda entry: entry.get("dedup") is None
                or (entry.get("coalesced") or 0) + (entry.get("cached") or 0) == entry["dedup"],
            ),
            Gate(
                "holds",
                "cached",
                lambda *_: "performance: serve workload store served no duplicate (store hit rate is zero)",
                check=lambda entry: entry.get("cached", 0) >= 1,
            ),
            Gate(
                "holds",
                "payloads_identical",
                lambda *_: "accuracy: serve workload responses for one spec are not byte-identical",
            ),
            Gate(
                "exact",
                "misses",
                lambda now, base, value, reference: "accuracy: serve workload per-kernel miss counts "
                f"changed (baseline {reference}, current {value})",
            ),
            # Loopback request latencies are far noisier than whole-suite wall
            # time, so the gate is collapse-style, not the regular tolerance.
            Gate(
                "collapse",
                "p95_seconds",
                lambda now, base, value, reference: "performance: serve workload p95 request latency "
                f"rose {reference:.2f}x -> {value:.2f}x calibration (> 4x baseline; raw "
                f"{(base.get('p95_seconds') or 0) * 1000:.1f}ms -> {(now.get('p95_seconds') or 0) * 1000:.1f}ms)",
                factor=4.0,
                per_calibration=True,
                wall=True,
            ),
        ),
        lambda entry: f"serve workload: {entry.get('requests', 0)} requests over "
        f"{entry.get('unique_specs', 0)} unique specs on {entry.get('workers', 0)} worker(s): "
        f"{entry.get('engine_jobs', 0)} engine jobs, {entry.get('coalesced', 0)} coalesced, "
        f"{entry.get('cached', 0)} store hits, {entry.get('errors', 0)} errors, {_latency_text(entry)}",
    ),
    Workload(
        "explore",
        _run_explore_workload,
        (
            Gate(
                "holds",
                "backends_match",
                lambda *_: "accuracy: explore workload table is not byte-identical across backends",
            ),
            Gate(
                "exact",
                "table_digest",
                lambda *_: "accuracy: explore workload ranked table changed against the baseline",
            ),
            Gate(
                "ceiling",
                "cost_ratio",
                lambda now, base, value, reference: f"performance: {now.get('grid_size', 0)}-configuration "
                f"explore grid costs {value:.2f}x the {now.get('independent_analyses', 0)} independent "
                f"analyses (ceiling {reference:.2f}x; grid {now.get('grid_seconds', 0):.2f}s, "
                f"independent {now.get('independent_seconds', 0):.2f}s)",
                limit="max_cost_ratio",
                wall=True,
            ),
        ),
        lambda entry: f"explore workload: {entry.get('grid_size', 0)}-config grid "
        f"({entry.get('analyses', 0)} analyses) in {entry.get('grid_seconds', 0.0):.2f}s "
        f"vs {entry.get('independent_analyses', 0)} independent analyses "
        f"{entry.get('independent_seconds', 0.0):.2f}s ({_ratio_text(entry.get('cost_ratio'))}, "
        f"ceiling {entry.get('max_cost_ratio', 0):.2f}x), "
        f"tables {'identical' if entry.get('backends_match') else 'DIFFER'}",
    ),
)


def run_suite(
    suite: str,
    *,
    jobs: int = 1,
    store_path: Optional[str] = None,
) -> Dict:
    """Run one named suite and return the ``BENCH_*.json`` report payload."""
    try:
        config = SUITES[suite]
    except KeyError:
        raise ValueError(f"unknown bench suite {suite!r}; available: {', '.join(suite_names())}") from None
    from ..api import Session, registry

    kernels = registry.kernel_names() if config["kernels"] == "all" else list(config["kernels"])
    session = Session().budget(config["budget"]).workers(jobs)
    if store_path:
        session.store(store_path)
    request = (
        session.kernels(*kernels)
        .datasets(*config["datasets"])
        .levels(*[tuple(levels) for levels in config["levels"]])
    )
    calibration = _calibrate()
    sections = {
        workload.name: workload.run(config[workload.name]) if config.get(workload.name) else None
        for workload in WORKLOADS
    }
    batch = request.run()

    job_entries = []
    for record in batch.records:
        entry = {
            "kernel": record.kernel,
            "dataset": record.dataset,
            "levels": list(record.levels),
            "status": record.status,
            "cached": record.cached,
            "elapsed_seconds": record.elapsed_seconds,
        }
        if record.result is not None:
            timing = record.result.timing
            entry.update(
                {
                    "accesses": record.result.accesses,
                    "misses": [level.misses for level in record.result.level_results],
                    "used_fallback": record.result.used_fallback,
                    "work_units": timing.work_units_charged,
                    "cache_hits": timing.cardinality_cache_hits,
                    "cache_misses": timing.cardinality_cache_misses,
                    "store_hits": timing.store_hits,
                    "store_misses": timing.store_misses,
                    "phases": {
                        "stack_distance_seconds": timing.stack_distance_seconds,
                        "capacity_seconds": timing.capacity_seconds,
                        "other_seconds": timing.other_seconds,
                    },
                }
            )
        job_entries.append(entry)

    # Totals describe the compute of THIS run: records served whole from the
    # store replay the counters of the run that originally computed them, so
    # they are excluded here (per-job entries keep them, flagged ``cached``).
    computed = [r.result for r in batch.records if r.result is not None and not r.cached]
    return {
        "schema_version": BENCH_SCHEMA,
        "suite": suite,
        "wall_seconds": batch.elapsed_seconds,
        "calibration_seconds": calibration,
        "worker_count": batch.worker_count,
        "jobs": job_entries,
        "totals": {
            "jobs": len(batch),
            "errors": batch.error_count,
            "cached": batch.cached_count,
            "fallbacks": batch.fallback_count,
            "work_units": sum(r.timing.work_units_charged for r in computed),
            "cache_hits": batch.cache_hits,
            "cache_misses": batch.cache_misses,
            "store_hits": batch.cardinality_store_hits,
            "store_misses": batch.cardinality_store_misses,
        },
        "store": dict(batch.store_stats) if batch.store_stats is not None else None,
        **sections,
    }


def write_report(report: Dict, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_report(path) -> Dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _job_key(entry: Dict):
    return (entry["kernel"], entry["dataset"], tuple(entry["levels"]))


def compare_reports(
    current: Dict,
    baseline: Dict,
    *,
    tolerance: float = 0.2,
    check_wall: bool = True,
) -> List[str]:
    """Regressions of ``current`` against ``baseline`` (empty list = clean).

    * any job error, missing job, or miss-count change is an **accuracy**
      regression (the model is exact — there is no tolerance on counts);
    * total symbolic work units beyond ``baseline * (1 + tolerance)`` is a
      deterministic **performance** regression;
    * calibration-normalized wall time beyond the same factor is a wall-clock
      regression (skipped with ``check_wall=False`` or when either report
      lacks a calibration measurement);
    * every row of :data:`WORKLOADS` regresses when the baseline has its
      section and the current report does not, and on every failed
      :class:`Gate` (wall-clock gates skipped with ``check_wall=False``).

    ``tolerance`` must be a finite number >= 0; anything else raises
    :class:`ValueError` (a NaN or infinite tolerance would pass any rise).
    """
    if not math.isfinite(tolerance) or tolerance < 0:
        raise ValueError(f"tolerance must be a finite number >= 0, got {tolerance!r}")
    regressions: List[str] = []
    if current.get("suite") != baseline.get("suite"):
        regressions.append(
            f"suite mismatch: current={current.get('suite')!r} baseline={baseline.get('suite')!r}"
        )
        return regressions

    current_jobs = {_job_key(entry): entry for entry in current.get("jobs", [])}
    baseline_keys = {_job_key(entry) for entry in baseline.get("jobs", [])}
    # Jobs the baseline does not know about (e.g. a kernel added to the suite
    # before the baseline was refreshed) still must not error.
    for key, entry in current_jobs.items():
        if key not in baseline_keys and entry.get("status") != "ok":
            regressions.append(
                f"accuracy: job {key[0]}/{key[1]} (not in baseline) fails ({entry.get('status')})"
            )
    for entry in baseline.get("jobs", []):
        key = _job_key(entry)
        label = f"{key[0]}/{key[1]}"
        now = current_jobs.get(key)
        if now is None:
            regressions.append(f"accuracy: job {label} missing from current report")
            continue
        if entry.get("status") == "ok" and now.get("status") != "ok":
            regressions.append(f"accuracy: job {label} now fails ({now.get('status')})")
            continue
        if entry.get("status") != "ok":
            continue
        if entry.get("misses") != now.get("misses") or entry.get("accesses") != now.get("accesses"):
            regressions.append(
                f"accuracy: job {label} miss counts changed "
                f"(baseline {entry.get('misses')} @ {entry.get('accesses')} accesses, "
                f"current {now.get('misses')} @ {now.get('accesses')})"
            )

    baseline_work = baseline.get("totals", {}).get("work_units", 0)
    current_work = current.get("totals", {}).get("work_units", 0)
    if baseline_work and current_work > baseline_work * (1.0 + tolerance):
        regressions.append(
            f"performance: symbolic work units rose {baseline_work} -> {current_work} "
            f"(> {tolerance:.0%} over baseline)"
        )

    for workload in WORKLOADS:
        now = current.get(workload.name)
        base = baseline.get(workload.name)
        if now is None:
            if base is not None:
                regressions.append(f"accuracy: {workload.name} workload missing from current report")
            continue
        for gate in workload.gates:
            if gate.wall and not check_wall:
                continue
            message = gate.regression(now, base or {}, current, baseline)
            if message:
                regressions.append(message)

    if check_wall:
        baseline_norm = _per_calibration(baseline.get("wall_seconds"), baseline)
        current_norm = _per_calibration(current.get("wall_seconds"), current)
        if baseline_norm and current_norm and current_norm > baseline_norm * (1.0 + tolerance):
            regressions.append(
                "performance: calibration-normalized wall time rose "
                f"{baseline_norm:.2f}x -> {current_norm:.2f}x calibration "
                f"(> {tolerance:.0%} over baseline; raw {baseline.get('wall_seconds', 0):.2f}s -> "
                f"{current.get('wall_seconds', 0):.2f}s)"
            )
    return regressions


def format_bench_summary(report: Dict, regressions: Optional[Sequence[str]] = None) -> str:
    """Human-readable one-screen summary of a bench report."""
    totals = report.get("totals", {})
    lines = [
        f"bench suite {report.get('suite')!r}: {totals.get('jobs', 0)} jobs, "
        f"{totals.get('errors', 0)} errors, {totals.get('cached', 0)} served from store, "
        f"{totals.get('fallbacks', 0)} fallbacks",
        f"wall {report.get('wall_seconds', 0.0):.2f}s "
        f"(calibration {report.get('calibration_seconds', 0.0):.3f}s), "
        f"work units {totals.get('work_units', 0)}, "
        f"cardinality cache {totals.get('cache_hits', 0)}/{totals.get('cache_hits', 0) + totals.get('cache_misses', 0)} hits, "
        f"store {totals.get('store_hits', 0)} hits / {totals.get('store_misses', 0)} misses",
    ]
    lines.extend(workload.summary(report[workload.name]) for workload in WORKLOADS if report.get(workload.name))
    if regressions is not None:
        if regressions:
            lines.append(f"{len(regressions)} regression(s) against baseline:")
            lines.extend(f"  - {message}" for message in regressions)
        else:
            lines.append("no regressions against baseline")
    return "\n".join(lines)
