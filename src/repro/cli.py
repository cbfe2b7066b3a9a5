"""Command-line interface: analyse or simulate PolyBench kernels.

Examples::

    repro-haystack list
    repro-haystack kernels --json
    repro-haystack model gemm --dataset mini --l1 32768 --l2 1048576
    repro-haystack model gemm --dataset mini --machine paper-xeon
    repro-haystack analyze examples/kernels/gemm.knl --machine paper-xeon
    repro-haystack analyze my-kernel.knl --curve --sweep 1K:8M
    repro-haystack simulate jacobi-1d --dataset mini --l1 32768
    repro-haystack compare trisolv --dataset mini --l1 4096
    repro-haystack batch --kernels gemm,atax,mvt --jobs 4 --output results.json
    repro-haystack bench --suite smoke --compare

Every analysis command is a thin wrapper over :class:`repro.api.Session`;
kernel and machine names resolve through :mod:`repro.api.registry`, so
plugin-contributed kernels are first-class citizens here too.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from typing import List, Optional, Tuple

from . import sweep as sweepmod
from .sweep import DEFAULT_SWEEP_POINTS, Sweep, SweepError

from .api import Session
from .api import registry
from .api.registry import RegistryError
from .api.session import SessionConfigError
from .core import CacheLevelSpec, MachineModel
from .core.prevmap import ModelFallbackRequired
from .core.results import ModelResult
from .engine.store import (
    BACKEND_NAMES,
    default_store_path,
    job_digest,
    make_store_spec,
    validate_store_env,
    validate_store_path,
)
from .frontend import KernelParseError, parse_kernel_path
from .isl.work import BudgetExhausted
from .reporting import (
    format_batch_summary,
    format_diagnostics,
    format_miss_curve,
    format_table,
)
from .reporting.bench import (
    compare_reports,
    default_baseline_path,
    format_bench_summary,
    load_report,
    run_suite,
    suite_names,
    write_report,
)
from .simulator import (
    BACKENDS,
    BackendUnavailableError,
    CacheLevelConfig,
    DineroSimulator,
    validate_backend_env,
)

__all__ = ["main"]

#: Default deterministic symbolic work budget for CLI runs.  Heavy kernels
#: trip it within seconds and degrade to the exact trace-based fallback
#: (flagged in the output); ``--budget 0`` removes the bound.
DEFAULT_WORK_BUDGET = 10_000

#: Cache-geometry defaults applied when neither ``--machine`` nor explicit
#: flags are given (kept as ``None`` argparse defaults so a preset and an
#: explicit override can be told apart).
DEFAULT_LINE_SIZE = 64
DEFAULT_L1_BYTES = 32 * 1024


class _ArgsError(Exception):
    """Invalid flag combination; the message goes to stderr, exit code 2."""


def _budget_value(args) -> Optional[int]:
    return args.budget if args.budget > 0 else None


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def _parse_size(text: str) -> int:
    """Parse a byte size like ``4096``, ``32K``, or ``1MiB``.

    Thin CLI adapter over :func:`repro.sweep.parse_size` — the single parser
    shared with the API, the server, and the explorer — converting
    :class:`~repro.sweep.SweepError` into the exit-code-2 path.
    """
    try:
        return sweepmod.parse_size(text)
    except SweepError as exc:
        raise _ArgsError(str(exc)) from None


def _sweep_sizes(spec: str, *, label: str = "--sweep") -> List[int]:
    """Expand ``MIN:MAX[:POINTS]`` via the shared :mod:`repro.sweep` parser."""
    try:
        return sweepmod.expand_range(spec, label=label)
    except SweepError as exc:
        raise _ArgsError(str(exc)) from None


def _axis_values(spec: str, *, label: str) -> List[int]:
    """Parse a CSV-of-sizes-and-ranges axis spec (``explore`` flags)."""
    try:
        return list(Sweep.parse(spec, label=label).values)
    except SweepError as exc:
        raise _ArgsError(str(exc)) from None


def _curve_capacities(args, machine: MachineModel) -> List[int]:
    """Capacity sweep of the ``curve`` command, in bytes.

    Explicit ``--capacities`` entries and the ``--sweep`` range combine; with
    neither given, the default sweep runs log-spaced from one cache line to
    twice the largest hierarchy level.
    """
    sizes = set()
    if args.capacities:
        sizes.update(_axis_values(args.capacities, label="--capacities"))
    if args.sweep:
        sizes.update(_sweep_sizes(args.sweep))
    if not sizes:
        largest = max(level.size for level in machine.levels)
        sizes.update(_sweep_sizes(f"{machine.line_size}:{2 * largest}:{DEFAULT_SWEEP_POINTS}"))
        sizes.update(level.size for level in machine.levels)
    return sorted(sizes)


def _warn_fallback(args, exc: Exception) -> None:
    """Announce the fallback *before* the trace enumeration starts."""
    if isinstance(exc, BudgetExhausted):
        cause = (
            f"exceeded the work budget ({args.budget} units); raise --budget "
            "(0 = unlimited) to keep the symbolic pipeline going"
        )
    else:
        cause = f"cannot handle this program exactly ({exc})"
    print(
        f"note: the symbolic analysis {cause}. Computing exact miss counts from "
        "the trace instead — this enumerates every access and can be slow for "
        "large datasets.",
        file=sys.stderr,
    )
    sys.stderr.flush()


def _machine_from_args(args) -> MachineModel:
    """Resolve ``--machine NAME`` or the raw ``--line-size/--l1/--l2/--l3`` flags."""
    explicit = [
        flag
        for flag, attr in (("--line-size", "line_size"), ("--l1", "l1"), ("--l2", "l2"), ("--l3", "l3"))
        if getattr(args, attr, None) is not None
    ]
    if getattr(args, "machine", None):
        if explicit:
            raise _ArgsError(
                f"--machine {args.machine} cannot be combined with {', '.join(explicit)}; "
                "name a preset or shape the hierarchy by hand, not both"
            )
        try:
            return registry.get_machine(args.machine).build()
        except RegistryError as exc:
            raise _ArgsError(str(exc)) from None
        except Exception as exc:  # noqa: BLE001 - a broken factory is a user-facing error
            raise _ArgsError(f"machine {args.machine!r} failed to build: {exc}") from None
    line_size = args.line_size if args.line_size is not None else DEFAULT_LINE_SIZE
    l1 = args.l1 if args.l1 is not None else DEFAULT_L1_BYTES
    levels = [CacheLevelSpec(l1, "L1")]
    if getattr(args, "l2", None):
        levels.append(CacheLevelSpec(args.l2, "L2"))
    if getattr(args, "l3", None):
        levels.append(CacheLevelSpec(args.l3, "L3"))
    return MachineModel(line_size=line_size, levels=tuple(levels))


def _store_path(args) -> Optional[str]:
    """Resolved store spec: ``--no-store`` disables, ``--store-path`` overrides.

    The returned string carries the backend choice (``--store-backend`` /
    ``$REPRO_STORE_BACKEND``) as a ``backend:path`` spec, so it flows through
    sessions, pool workers, and the server unchanged.
    """
    if args.no_store:
        return None
    path = args.store_path or default_store_path()
    return make_store_spec(path, getattr(args, "store_backend", None))


def _session_from_args(args, machine: MachineModel) -> Session:
    """The configured façade every analysis command runs through."""
    session = Session().machine(machine).budget(_budget_value(args))
    if getattr(args, "no_fallback", False):
        session.options(fallback=False)
    if getattr(args, "backend", None):
        session.backend(args.backend)
    path = _store_path(args)
    if path:
        session.store(path)
    return session


def _analyze_for_cli(args, session: Session, scop):
    """Symbolic analysis first; on failure warn, then run the exact fallback.

    Returns ``(result, exit_code)`` with ``result=None`` when ``--no-fallback``
    turned the failure into an error.
    """
    # Fallback is disabled on the model so the CLI can warn the user before
    # the (potentially long) trace enumeration starts.
    model = session.cache_model(fallback=False)
    try:
        return model.analyze(scop), 0
    except (ModelFallbackRequired, BudgetExhausted) as exc:
        if args.no_fallback:
            print(f"symbolic analysis failed and fallback is disabled: {exc}", file=sys.stderr)
            return None, 3
        _warn_fallback(args, exc)
        result = model.analyze_by_trace(scop)
        result.timing.work_units_charged = getattr(exc, "work_units_charged", 0)
        return result, 0


def _model_result_with_store(
    args, session: Session, scop, *, structural: bool = False
) -> Tuple[Optional[ModelResult], bool, int]:
    """Analytical result via the persistent store: ``(result, cached, exit_code)``.

    With ``structural=True`` the store digest fingerprints the scop's full
    structure instead of the (kernel, dataset) name pair — used by ``analyze``,
    where the same kernel name may mean different file contents over time.
    """
    store = session.open_store()
    digest = None
    if store is not None:
        # The spec mirrors the session machine exactly (L1 always present,
        # L2/L3 optional), so distinct hierarchies never alias one digest.
        kernel_name = getattr(args, "kernel", None) or scop.name
        spec = session.job_spec(
            kernel_name, args.dataset, scop=scop if structural else None
        )
        digest = job_digest(spec)
        payload = store.get_result(digest)
        if payload is not None:
            try:
                return ModelResult.from_dict(payload), True, 0
            except (KeyError, TypeError, ValueError):
                pass
    result, exit_code = _analyze_for_cli(args, session, scop)
    if result is not None and store is not None:
        store.put_result(digest, result.to_dict())
    return result, False, exit_code


def _model_stats_line(result: ModelResult, cached: bool, store_enabled: bool) -> str:
    """Cache/store statistics footer shared by ``model`` and ``compare``.

    Printed unconditionally — in particular the fallback path, whose timing
    carries zero cache lookups but a real work-unit charge, must not drop it.
    """
    timing = result.timing
    parts = [
        f"model time: {timing.total_seconds:.2f}s",
        f"work units: {timing.work_units_charged}",
        f"cardinality cache {timing.cardinality_cache_hits}/{timing.cardinality_cache_lookups} hits",
    ]
    if store_enabled:
        store_part = f"store {timing.store_hits} hits / {timing.store_misses} misses"
        if cached:
            store_part = "result served from store"
        parts.append(store_part)
    else:
        parts.append("store disabled")
    if result.used_fallback:
        parts.append("fallback used")
    return ", ".join(parts)


def _simulator(
    machine: MachineModel,
    associativity: Optional[int],
    backend: str = "auto",
    *,
    policy: str = "lru",
    prefetch_degree: int = 0,
) -> DineroSimulator:
    return DineroSimulator(
        [
            CacheLevelConfig(
                cache_size=level.size,
                line_size=machine.line_size,
                associativity=associativity,
                policy=policy,
                prefetch_degree=prefetch_degree,
            )
            for level in machine.levels
        ],
        backend=backend,
    )


def _add_budget_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--budget",
        type=_nonnegative_int,
        default=DEFAULT_WORK_BUDGET,
        metavar="UNITS",
        help="deterministic symbolic work budget; exceeding it falls back to the "
        f"exact trace computation (default {DEFAULT_WORK_BUDGET}, 0 = unlimited)",
    )


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default="auto",
        help="concrete-pipeline implementation: 'numpy' (vectorized), 'python' "
        "(reference), 'auto' = NumPy when installed (default; both backends "
        "produce identical results)",
    )


def _add_machine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--machine",
        metavar="NAME",
        default=None,
        help="named machine preset from the registry (see `kernels`); "
        "mutually exclusive with the raw cache-geometry flags",
    )
    parser.add_argument("--line-size", type=int, default=None, help=f"line size in bytes (default {DEFAULT_LINE_SIZE})")
    parser.add_argument("--l1", type=int, default=None, help=f"L1 size in bytes (default {DEFAULT_L1_BYTES})")
    parser.add_argument("--l2", type=int, default=None, help="L2 size in bytes (0 = disabled)")
    parser.add_argument("--l3", type=int, default=None, help="L3 size in bytes (0 = disabled)")


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("kernel", help="kernel name (see `list`)")
    parser.add_argument(
        "--dataset", default="mini", help="problem size class (default: mini)"
    )
    _add_machine_arguments(parser)


def _add_store_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store-path",
        metavar="DIR",
        default=None,
        help="persistent analysis store root (default: $REPRO_STORE_PATH or "
        "~/.cache/repro-haystack/store)",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="disable the persistent analysis store for this run",
    )
    parser.add_argument(
        "--store-backend",
        choices=BACKEND_NAMES,
        default=None,
        help="store backend: 'dir' (one file per entry, the default) or "
        "'sqlite' (one WAL-mode database; safe for many server workers); "
        "default: $REPRO_STORE_BACKEND or dir",
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-haystack",
        description=__doc__,
        epilog="Environment variables (REPRO_BACKEND, REPRO_STORE_PATH, "
        "REPRO_STORE_MAX_BYTES, REPRO_BENCH_JOBS, REPRO_EXAMPLE_FAST) are "
        "documented in the README's 'Environment variables' table; see also "
        "docs/ARCHITECTURE.md and docs/PERFORMANCE.md.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the available kernel names")

    kernels_parser = subparsers.add_parser(
        "kernels", help="list registered kernels, datasets and machine presets"
    )
    kernels_parser.add_argument(
        "--json", action="store_true", help="machine-readable output instead of tables"
    )

    model_parser = subparsers.add_parser("model", help="run the analytical cache model")
    _add_cache_arguments(model_parser)
    model_parser.add_argument("--no-fallback", action="store_true", help="fail instead of falling back to the trace")
    _add_budget_argument(model_parser)
    _add_store_arguments(model_parser)
    _add_backend_argument(model_parser)

    analyze_parser = subparsers.add_parser(
        "analyze",
        help="parse a kernel DSL (.knl) file and run the analytical model on it",
    )
    analyze_parser.add_argument(
        "file", help="kernel DSL file (language reference: docs/KERNEL_DSL.md)"
    )
    analyze_parser.add_argument(
        "--dataset",
        default=None,
        help="dataset block of the file to instantiate (default: its first block)",
    )
    _add_machine_arguments(analyze_parser)
    analyze_parser.add_argument(
        "--no-fallback", action="store_true", help="fail instead of falling back to the trace"
    )
    analyze_parser.add_argument(
        "--curve",
        action="store_true",
        help="report a miss curve over a capacity sweep instead of the level table",
    )
    analyze_parser.add_argument(
        "--sweep",
        metavar="MIN:MAX[:POINTS]",
        default=None,
        help="capacity sweep for --curve (same syntax as the curve command)",
    )
    analyze_parser.add_argument(
        "--capacities",
        metavar="LIST",
        default=None,
        help="explicit cache sizes for --curve (comma-separated, K/M/G suffixes ok)",
    )
    analyze_parser.add_argument(
        "--json", action="store_true", help="machine-readable --curve output"
    )
    analyze_parser.add_argument(
        "--compare",
        action="store_true",
        help="also run the trace simulator and compare the miss counts",
    )
    analyze_parser.add_argument(
        "--associativity",
        type=int,
        default=None,
        help="simulator ways for --compare (default: fully associative)",
    )
    _add_budget_argument(analyze_parser)
    _add_store_arguments(analyze_parser)
    _add_backend_argument(analyze_parser)

    lint_parser = subparsers.add_parser(
        "lint",
        help="statically verify a kernel and predict its symbolic cost "
        "without running the model (diagnostic codes: docs/LINT.md)",
    )
    lint_parser.add_argument(
        "file",
        nargs="?",
        default=None,
        help="kernel DSL (.knl) file to lint; alternatively use --kernel",
    )
    lint_parser.add_argument(
        "--kernel",
        default=None,
        metavar="NAME",
        help="registered kernel to lint instead of a file (see `list`)",
    )
    lint_parser.add_argument(
        "--dataset",
        default=None,
        help="dataset to instantiate (default: the file's first block, or "
        "'mini' for registered kernels)",
    )
    lint_parser.add_argument(
        "--json",
        action="store_true",
        help="schema-versioned machine-readable findings instead of the table",
    )
    lint_parser.add_argument(
        "--strict",
        action="store_true",
        help="warnings also fail the lint (exit 3), not just errors",
    )
    lint_parser.add_argument(
        "--no-cost",
        action="store_true",
        help="skip the symbolic-cost probe (COST findings); static checks only",
    )
    _add_machine_arguments(lint_parser)
    _add_budget_argument(lint_parser)

    sim_parser = subparsers.add_parser("simulate", help="run the trace-driven simulator")
    _add_cache_arguments(sim_parser)
    sim_parser.add_argument("--associativity", type=int, default=None, help="ways (default: fully associative)")
    sim_parser.add_argument(
        "--policy",
        choices=["lru", "fifo", "tree-plru"],
        default="lru",
        help="replacement policy for set-associative levels (default lru)",
    )
    sim_parser.add_argument(
        "--prefetch-degree",
        type=_nonnegative_int,
        default=0,
        metavar="N",
        help="next-line prefetcher: install N sequential lines on every miss "
        "(default 0 = disabled; forces the reference simulator)",
    )
    _add_backend_argument(sim_parser)

    curve_parser = subparsers.add_parser(
        "curve", help="miss curve: sweep many cache sizes from one analysis"
    )
    _add_cache_arguments(curve_parser)
    curve_parser.add_argument(
        "--sweep",
        metavar="MIN:MAX[:POINTS]",
        default=None,
        help="log-spaced capacity sweep in bytes (sizes accept K/M/G suffixes; "
        f"default {DEFAULT_SWEEP_POINTS} points); combines with --capacities",
    )
    curve_parser.add_argument(
        "--capacities",
        metavar="LIST",
        default=None,
        help="comma-separated explicit cache sizes in bytes (K/M/G suffixes ok)",
    )
    curve_parser.add_argument(
        "--json", action="store_true", help="machine-readable output instead of a table"
    )
    curve_parser.add_argument(
        "--no-fallback", action="store_true", help="fail instead of falling back to the trace"
    )
    _add_budget_argument(curve_parser)
    _add_store_arguments(curve_parser)
    _add_backend_argument(curve_parser)

    explore_parser = subparsers.add_parser(
        "explore",
        help="design-space explorer: rank a tile x capacity x line-size x "
        "associativity grid and report its Pareto front (docs/EXPLORE.md)",
    )
    _add_cache_arguments(explore_parser)
    explore_parser.add_argument(
        "--tiles",
        metavar="LIST",
        default=None,
        help="tile sizes to explore (comma-separated values and MIN:MAX[:POINTS] "
        "ranges; 1 = untiled; default: 1 only)",
    )
    explore_parser.add_argument(
        "--capacities",
        metavar="LIST",
        default=None,
        help="cache capacities to explore (comma-separated sizes and "
        "MIN:MAX[:POINTS] ranges, K/M/G suffixes ok; combines with --sweep; "
        "default: the machine's hierarchy levels)",
    )
    explore_parser.add_argument(
        "--sweep",
        metavar="MIN:MAX[:POINTS]",
        default=None,
        help="log-spaced capacity sweep (same syntax as the curve command); "
        "combines with --capacities",
    )
    explore_parser.add_argument(
        "--line-sizes",
        metavar="LIST",
        default=None,
        help="cache line sizes to explore (default: the machine's line size)",
    )
    explore_parser.add_argument(
        "--associativities",
        metavar="LIST",
        default=None,
        help="way counts for the hardware-cost axis (the miss prediction is "
        "associativity-blind; default: fully associative)",
    )
    explore_parser.add_argument(
        "--pareto", action="store_true", help="print only the Pareto-optimal rows"
    )
    explore_parser.add_argument(
        "--limit",
        type=_positive_int,
        default=None,
        metavar="N",
        help="print at most N ranked rows (default: all)",
    )
    explore_parser.add_argument(
        "--json", action="store_true", help="machine-readable output instead of a table"
    )
    explore_parser.add_argument(
        "--no-fallback", action="store_true", help="fail instead of falling back to the trace"
    )
    _add_budget_argument(explore_parser)
    _add_store_arguments(explore_parser)
    _add_backend_argument(explore_parser)

    cmp_parser = subparsers.add_parser("compare", help="run both and compare the miss counts")
    _add_cache_arguments(cmp_parser)
    cmp_parser.add_argument("--associativity", type=int, default=None)
    cmp_parser.add_argument("--no-fallback", action="store_true", help="fail instead of falling back to the trace")
    _add_budget_argument(cmp_parser)
    _add_store_arguments(cmp_parser)
    _add_backend_argument(cmp_parser)

    batch_parser = subparsers.add_parser(
        "batch", help="analyse a kernel x dataset matrix across a worker pool"
    )
    batch_parser.add_argument(
        "--kernels",
        required=True,
        help="comma-separated kernel names, or 'all' for every registered kernel",
    )
    batch_parser.add_argument(
        "--datasets", default="mini", help="comma-separated dataset classes (default: mini)"
    )
    batch_parser.add_argument("--jobs", type=_positive_int, default=1, metavar="N", help="worker processes")
    batch_parser.add_argument("--output", metavar="FILE", help="write the batch results as JSON")
    _add_machine_arguments(batch_parser)
    batch_parser.add_argument("--no-fallback", action="store_true", help="record an error instead of falling back")
    batch_parser.add_argument(
        "--progress",
        action="store_true",
        help="stream one line per job to stderr as the pool completes them",
    )
    _add_budget_argument(batch_parser)
    _add_store_arguments(batch_parser)
    _add_backend_argument(batch_parser)

    bench_parser = subparsers.add_parser(
        "bench", help="run a named benchmark suite and compare against a baseline"
    )
    bench_parser.add_argument(
        "--suite", default="smoke", choices=suite_names(), help="workload suite (default: smoke)"
    )
    bench_parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="report path (default: BENCH_<suite>.json in the current directory)",
    )
    bench_mode = bench_parser.add_mutually_exclusive_group()
    bench_mode.add_argument(
        "--compare",
        action="store_true",
        help="compare the report against the baseline and exit 4 on regression",
    )
    bench_parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="baseline report (default: benchmarks/baselines/BENCH_<suite>.json)",
    )
    bench_parser.add_argument(
        "--tolerance",
        type=_tolerance,
        default=0.2,
        metavar="FRAC",
        help="allowed relative rise of wall time and work units (default: 0.2)",
    )
    bench_parser.add_argument(
        "--no-wall",
        action="store_true",
        help="skip the wall-clock comparison (deterministic metrics only)",
    )
    bench_mode.add_argument(
        "--update-baseline",
        action="store_true",
        help="write the report to the baseline path instead of comparing",
    )
    bench_parser.add_argument("--jobs", type=_positive_int, default=1, metavar="N", help="worker processes")
    _add_store_arguments(bench_parser)
    _add_backend_argument(bench_parser)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the analysis HTTP service (endpoints: /healthz, /stats, "
        "/v1/analyze, /v1/batch; see docs/SERVER.md)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve_parser.add_argument(
        "--port",
        type=_nonnegative_int,
        default=8157,
        help="TCP port; 0 picks an ephemeral port (default: 8157)",
    )
    serve_parser.add_argument(
        "--port-file",
        metavar="FILE",
        default=None,
        help="write the bound port to FILE once listening (ephemeral-port discovery)",
    )
    serve_parser.add_argument(
        "--workers",
        type=_nonnegative_int,
        default=2,
        metavar="N",
        help="engine worker processes (0 = run jobs on server threads; default: 2)",
    )
    serve_parser.add_argument(
        "--max-inflight",
        type=_positive_int,
        default=8,
        metavar="N",
        help="admission cap on concurrently executing jobs; beyond it requests "
        "are shed with 429 (default: 8)",
    )
    serve_parser.add_argument(
        "--max-budget",
        type=_positive_int,
        default=None,
        metavar="UNITS",
        help="admission ceiling on per-request symbolic work budgets; requests "
        "above it (or asking for unlimited) are shed with 429 (default: no ceiling)",
    )
    _add_budget_argument(serve_parser)
    _add_store_arguments(serve_parser)

    args = parser.parse_args(argv)

    # A bad $REPRO_BACKEND would otherwise ride through backend="auto" into a
    # deep ValueError mid-run, and a bad $REPRO_STORE_PATH/--store-path into
    # a failure (or a silently disabled store) mid-analysis; reject both
    # before doing anything.
    try:
        validate_backend_env()
        validate_store_env()
        if getattr(args, "store_path", None) and not getattr(args, "no_store", False):
            validate_store_path(args.store_path, getattr(args, "store_backend", None))
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "list":
        for name in registry.kernel_names():
            print(name)
        return 0

    if args.command == "kernels":
        return _run_kernels(args)

    if args.command == "batch":
        return _run_batch(args)

    if args.command == "analyze":
        return _run_analyze(args)

    if args.command == "lint":
        return _run_lint(args)

    if args.command == "bench":
        return _run_bench(args)

    try:
        machine = _machine_from_args(args)
    except (_ArgsError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        entry = registry.get_kernel(args.kernel)
    except RegistryError as exc:
        # The registry message is a one-liner with a did-you-mean hint and
        # the full kernel listing.
        print(str(exc), file=sys.stderr)
        return 2
    try:
        scop = entry.build(args.dataset)
    except RegistryError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.command == "model":
        return _run_model(args, machine, scop)

    if args.command == "curve":
        return _run_curve(args, machine, scop)

    if args.command == "explore":
        return _run_explore(args, machine)

    if args.command == "simulate":
        if args.associativity is None and args.policy != "lru":
            print("--policy requires --associativity (fully associative caches are LRU)", file=sys.stderr)
            return 2
        try:
            result = _simulator(
                machine,
                args.associativity,
                args.backend,
                policy=args.policy,
                prefetch_degree=args.prefetch_degree,
            ).run(scop)
        except BackendUnavailableError as exc:
            # $REPRO_BACKEND itself was validated at entry; this is the
            # explicit-numpy-without-NumPy case.
            print(str(exc), file=sys.stderr)
            return 2
        rows = [
            (f"L{i+1}", stats.accesses, stats.compulsory_misses, stats.capacity_misses + stats.conflict_misses, stats.misses, stats.hits, stats.writebacks)
            for i, stats in enumerate(result.levels)
        ]
        print(format_table(["level", "accesses", "compulsory", "other misses", "misses", "hits", "writebacks"], rows,
                           title=f"{scop.name} ({args.dataset}) — trace simulation"))
        print(f"simulation time: {result.elapsed_seconds:.3f}s for {result.accesses} accesses")
        return 0

    if args.command == "compare":
        return _run_compare(args, machine, scop)

    return 1


def _run_model(args, machine: MachineModel, scop, *, structural: bool = False) -> int:
    """``model`` subcommand body (also the default mode of ``analyze``)."""
    try:
        session = _session_from_args(args, machine)
    except SessionConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    result, cached, exit_code = _model_result_with_store(
        args, session, scop, structural=structural
    )
    if result is None:
        return exit_code
    rows = [
        (level.name, level.cache_size, level.accesses, level.compulsory, level.capacity, level.misses, level.hits)
        for level in result.level_results
    ]
    print(format_table(["level", "size [B]", "accesses", "compulsory", "capacity", "misses", "hits"], rows,
                       title=f"{scop.name} ({args.dataset}) — analytical model"))
    print(f"pieces: {result.piece_count}, " + _model_stats_line(result, cached, not args.no_store))
    return 0


def _run_compare(args, machine: MachineModel, scop, *, structural: bool = False) -> int:
    """``compare`` subcommand body (also ``analyze --compare``)."""
    try:
        session = _session_from_args(args, machine)
    except SessionConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    model_result, cached, exit_code = _model_result_with_store(
        args, session, scop, structural=structural
    )
    if model_result is None:
        return exit_code
    sim_result = _simulator(machine, args.associativity, args.backend).run(scop)
    rows = []
    disagreement = 0
    for index, level in enumerate(model_result.level_results):
        sim = sim_result.levels[index]
        difference = level.misses - sim.misses
        disagreement += abs(difference)
        rows.append((level.name, level.misses, sim.misses, difference))
    # A fallback "model" result is itself trace-derived, so agreement with
    # the simulator does not validate the symbolic pipeline; say so.
    title = f"{scop.name} ({args.dataset}) — model vs. simulation"
    if model_result.used_fallback:
        title += " (model used trace fallback)"
    print(format_table(["level", "model misses", "simulated misses", "difference"], rows, title=title))
    # The statistics footer is printed on every path — the fallback run
    # in particular must not silently drop its cache/store counters.
    print(_model_stats_line(model_result, cached, not args.no_store))
    return 1 if disagreement else 0


def _run_curve(args, machine: MachineModel, scop, *, structural: bool = False) -> int:
    """``curve`` subcommand: one analysis, a whole capacity sweep."""
    try:
        sweep = _curve_capacities(args, machine)
    except _ArgsError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        session = _session_from_args(args, machine).sweep(capacities=sweep)
    except SessionConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    result, cached, exit_code = _model_result_with_store(
        args, session, scop, structural=structural
    )
    if result is None:
        return exit_code
    curve = result.miss_curve
    if curve is None:
        print("analysis result carries no miss curve (stale store payload?)", file=sys.stderr)
        return 3
    if args.json:
        points = []
        for size in sweep:
            lines = max(1, size // machine.line_size)
            points.append(
                {
                    "capacity_bytes": size,
                    "capacity_lines": lines,
                    "capacity_misses": curve.misses_at(lines),
                    "misses": curve.total_misses_at(lines),
                    "miss_ratio": curve.miss_ratio_at(lines),
                }
            )
        payload = {
            "kernel": scop.name,
            "dataset": args.dataset,
            "line_size": machine.line_size,
            "levels": [level.size for level in machine.levels],
            "used_fallback": result.used_fallback,
            "elapsed_seconds": result.timing.total_seconds,
            "curve": curve.to_dict(),
            "sweep": points,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    title = f"{scop.name} ({args.dataset}) — miss curve over {len(sweep)} capacities"
    if result.used_fallback:
        title += " (exact, from trace fallback)"
    print(format_miss_curve(curve, sweep, title=title))
    print(_model_stats_line(result, cached, not args.no_store))
    return 0


def _run_explore(args, machine: MachineModel) -> int:
    """``explore`` subcommand: rank a design grid, print its Pareto front.

    One symbolic analysis per (tile, line size); the capacity and
    associativity axes ride the parametric miss curve for free (see
    :mod:`repro.explore`).  Axis flags all parse through :mod:`repro.sweep`.
    """
    try:
        capacities = set()
        if args.capacities:
            capacities.update(_axis_values(args.capacities, label="--capacities"))
        if args.sweep:
            capacities.update(_sweep_sizes(args.sweep))
        tiles = _axis_values(args.tiles, label="--tiles") if args.tiles else None
        line_sizes = (
            _axis_values(args.line_sizes, label="--line-sizes") if args.line_sizes else None
        )
        ways = (
            _axis_values(args.associativities, label="--associativities")
            if args.associativities
            else None
        )
    except _ArgsError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        session = _session_from_args(args, machine)
        result = session.explore(
            args.kernel,
            args.dataset,
            tiles=tiles,
            capacities=sorted(capacities) or None,
            line_sizes=line_sizes,
            associativities=ways,
        )
    except SessionConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.json:
        payload = result.to_dict()
        payload["table_digest"] = result.table_digest()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    configs = result.front() if args.pareto else result.configs
    shown = configs[: args.limit] if args.limit else configs
    rows = [
        (
            rank + 1,
            config.tile,
            config.line_size,
            config.associativity if config.associativity is not None else "full",
            config.capacity_bytes,
            config.misses,
            f"{100 * config.miss_ratio:.2f}%",
            config.cost,
            "*" if config.pareto else "",
        )
        for rank, config in enumerate(shown)
    ]
    mode = "Pareto front" if args.pareto else "ranked configurations"
    title = (
        f"{result.kernel} ({args.dataset}) — {mode}: "
        f"{len(result.configs)} configs from {result.analyses} analyses"
    )
    print(
        format_table(
            ["rank", "tile", "line", "ways", "capacity [B]", "misses", "miss %", "cost", "pareto"],
            rows,
            title=title,
        )
    )
    if args.limit and len(configs) > args.limit:
        print(f"... {len(configs) - args.limit} more rows (raise --limit or use --json)")
    print(
        f"explore time: {result.elapsed_seconds:.2f}s, "
        f"{result.analyses} analyses for {len(result.configs)} configurations, "
        f"table digest {result.table_digest()[:12]}"
    )
    return 0


def _run_analyze(args) -> int:
    """``analyze`` subcommand: model/curve/compare straight from a .knl file.

    Parse and validation failures print the located error with a caret
    snippet (see :meth:`repro.frontend.KernelParseError.render`) and exit
    with status 2 — never a traceback.  The file is *not* registered: the
    scop feeds the session directly and the store digest fingerprints its
    structure, so editing the file never serves a stale cached result.
    """
    if args.curve and args.compare:
        print("--curve and --compare are mutually exclusive", file=sys.stderr)
        return 2
    if args.json and not args.curve:
        print("--json requires --curve", file=sys.stderr)
        return 2
    if args.associativity is not None and not args.compare:
        print("--associativity only applies with --compare", file=sys.stderr)
        return 2
    if (args.sweep or args.capacities) and not args.curve:
        print("--sweep/--capacities only apply with --curve", file=sys.stderr)
        return 2
    try:
        machine = _machine_from_args(args)
    except (_ArgsError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        program = parse_kernel_path(args.file)
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    except KernelParseError as exc:
        print(exc.render(), file=sys.stderr)
        return 2
    dataset = args.dataset or next(iter(program.datasets))
    try:
        scop = program.instantiate(program.dataset_sizes(dataset))
    except KernelParseError as exc:
        print(exc.render(), file=sys.stderr)
        return 2
    # Downstream helpers label output and key the store off these fields.
    args.dataset = dataset
    args.kernel = program.name
    if args.curve:
        return _run_curve(args, machine, scop, structural=True)
    if args.compare:
        return _run_compare(args, machine, scop, structural=True)
    return _run_model(args, machine, scop, structural=True)


def _run_lint(args) -> int:
    """``lint`` subcommand: static diagnostics + symbolic-cost prediction.

    Exit status: 0 = clean (infos and, without ``--strict``, warnings are
    allowed), 2 = bad arguments / unreadable or unparsable input, 3 = at
    least one error-severity finding (with ``--strict``: or warning).
    """
    from .verify import verify_scop

    if (args.file is None) == (args.kernel is None):
        print("lint needs exactly one input: a .knl file or --kernel NAME", file=sys.stderr)
        return 2
    try:
        machine = _machine_from_args(args)
    except (_ArgsError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.file is not None:
        try:
            program = parse_kernel_path(args.file)
        except OSError as exc:
            print(f"cannot read {args.file}: {exc}", file=sys.stderr)
            return 2
        except KernelParseError as exc:
            print(exc.render(), file=sys.stderr)
            return 2
        dataset = args.dataset or next(iter(program.datasets))
        kernel = program.name
        try:
            scop = program.instantiate(program.dataset_sizes(dataset))
        except KernelParseError as exc:
            print(exc.render(), file=sys.stderr)
            return 2
    else:
        dataset = args.dataset or "mini"
        kernel = args.kernel
        try:
            scop = registry.get_kernel(kernel).build(dataset)
        except RegistryError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    report = verify_scop(
        scop,
        machine,
        dataset=dataset,
        budget=_budget_value(args),
        cost=not args.no_cost,
    )
    failed = report.has_errors(strict=args.strict)
    if args.json:
        print(json.dumps(report.to_payload(), indent=2, sort_keys=True))
        return 3 if failed else 0

    counts = report.counts()
    source = args.file if args.file is not None else kernel
    if report.diagnostics:
        print(
            format_diagnostics(
                report.diagnostics, title=f"{kernel} ({dataset}) — lint of {source}"
            )
        )
    summary = ", ".join(f"{counts[name]} {name}(s)" for name in ("error", "warning", "info"))
    print(f"lint: {summary}")
    if report.cost is not None and report.cost.outcome == "fits":
        print(
            f"cost: fits the budget ({report.cost.work_units} of "
            f"{report.cost.budget if report.cost.budget is not None else 'unlimited'} work units)"
        )
    return 3 if failed else 0


def _run_kernels(args) -> int:
    """``kernels`` subcommand: everything the registries know about."""
    kernels = [
        {"name": entry.name, "datasets": list(entry.datasets), "source": entry.source}
        for entry in registry.kernel_entries()
    ]
    machines = []
    for entry in registry.machine_entries():
        # A broken factory (e.g. a buggy plugin) must not take down the one
        # command users run to see what registered; warn and keep listing.
        try:
            model = entry.build()
        except Exception as exc:  # noqa: BLE001 - plugin isolation
            print(f"warning: machine {entry.name!r} failed to build: {exc}", file=sys.stderr)
            continue
        machines.append(
            {
                "name": entry.name,
                "levels": [level.size for level in model.levels],
                "line_size": model.line_size,
                "description": entry.description,
                "source": entry.source,
            }
        )
    if args.json:
        print(json.dumps({"kernels": kernels, "machines": machines}, indent=2, sort_keys=True))
        return 0
    kernel_rows = [(k["name"], ", ".join(k["datasets"]), k["source"]) for k in kernels]
    machine_rows = [
        (
            m["name"],
            "+".join(str(size) for size in m["levels"]),
            m["line_size"],
            m["description"] or "-",
            m["source"],
        )
        for m in machines
    ]
    print(format_table(["kernel", "datasets", "source"], kernel_rows,
                       title=f"{len(kernel_rows)} registered kernels"))
    print()
    print(format_table(["machine", "levels [B]", "line [B]", "description", "source"], machine_rows,
                       title=f"{len(machine_rows)} registered machine presets"))
    return 0


def _run_batch(args) -> int:
    if args.kernels.strip().lower() == "all":
        kernels = registry.kernel_names()
    else:
        kernels = [name.strip() for name in args.kernels.split(",") if name.strip()]
    datasets = [name.strip() for name in args.datasets.split(",") if name.strip()]
    if not kernels:
        print("no kernels given (use --kernels name[,name...] or --kernels all)", file=sys.stderr)
        return 2
    if not datasets:
        print("no datasets given (use --datasets name[,name...])", file=sys.stderr)
        return 2
    known = set(registry.kernel_names())
    unknown = [name for name in kernels if name not in known]
    if unknown:
        print(f"unknown kernels: {', '.join(unknown)}", file=sys.stderr)
        return 2
    known_datasets = set(registry.dataset_names())
    invalid = [name for name in datasets if name not in known_datasets]
    if invalid:
        print(f"unknown datasets: {', '.join(invalid)}", file=sys.stderr)
        return 2
    if args.l1 is not None and args.l1 <= 0:
        print("--l1 must be a positive size in bytes (only L2/L3 can be disabled with 0)", file=sys.stderr)
        return 2
    try:
        machine = _machine_from_args(args)
    except (_ArgsError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        session = _session_from_args(args, machine).workers(args.jobs)
    except SessionConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    progress = None
    if args.progress:
        def progress(record, done, total):
            status = record.status if not record.cached else "cached"
            print(f"[{done}/{total}] {record.kernel}/{record.dataset}: {status} "
                  f"({record.elapsed_seconds:.2f}s)", file=sys.stderr)
            sys.stderr.flush()
    try:
        batch = session.kernels(*kernels).datasets(*datasets).run(progress=progress)
    except (SessionConfigError, RegistryError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(format_batch_summary(batch))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(batch.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"wrote {len(batch)} job records to {args.output}")
    return 0 if batch.error_count == 0 else 1


def _run_serve(args) -> int:
    """Run the analysis HTTP service until interrupted."""
    import asyncio

    from .server import AnalysisService, HttpServer

    try:
        service = AnalysisService(
            store_path=None if args.no_store else (args.store_path or default_store_path()),
            store_backend=getattr(args, "store_backend", None),
            workers=args.workers,
            max_inflight=args.max_inflight,
            max_budget=args.max_budget,
            default_budget=_budget_value(args),
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    server = HttpServer(service, host=args.host, port=args.port)

    async def _serve() -> None:
        await server.start()
        if args.port_file:
            with open(args.port_file, "w", encoding="utf-8") as handle:
                handle.write(f"{server.port}\n")
        store = service.store_path or "off"
        print(
            f"repro-haystack serve: listening on http://{args.host}:{server.port} "
            f"(workers={args.workers}, max-inflight={args.max_inflight}, store={store})",
            file=sys.stderr,
        )
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        service.shutdown()
    return 0


def _run_bench(args) -> int:
    output = args.output or f"BENCH_{args.suite}.json"
    baseline_path = args.baseline or str(default_baseline_path(args.suite))
    # Default to a fresh throwaway store so the measurement is a defined
    # cold run; --store-path measures against existing warmth (that is how
    # CI exercises the warm-rerun speedup) and --no-store drops the store
    # entirely.
    tmp_store = None
    if args.no_store:
        store_path = None
    elif args.store_path:
        store_path = make_store_spec(args.store_path, getattr(args, "store_backend", None))
    else:
        tmp_store = tempfile.TemporaryDirectory(prefix="repro-bench-store-")
        store_path = make_store_spec(tmp_store.name, getattr(args, "store_backend", None))
    try:
        report = run_suite(args.suite, jobs=args.jobs, store_path=store_path, backend=args.backend)
    except SessionConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    finally:
        if tmp_store is not None:
            tmp_store.cleanup()
    write_report(report, output)

    if args.update_baseline:
        write_report(report, baseline_path)
        print(format_bench_summary(report))
        print(f"wrote report to {output} and refreshed baseline {baseline_path}")
        return 0

    regressions = None
    if args.compare:
        try:
            baseline = load_report(baseline_path)
        except (OSError, ValueError) as exc:
            print(
                f"cannot load baseline {baseline_path}: {exc} "
                "(generate one with `repro-haystack bench --update-baseline`)",
                file=sys.stderr,
            )
            return 2
        regressions = compare_reports(
            report, baseline, tolerance=args.tolerance, check_wall=not args.no_wall
        )
    print(format_bench_summary(report, regressions))
    print(f"wrote report to {output}")
    if args.compare:
        return 4 if regressions else 0
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
