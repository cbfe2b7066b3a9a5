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
import os
import sys
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

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
from .simulator import CacheLevelConfig, DineroSimulator

__all__ = ["COMMANDS", "Command", "main"]

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


#: Everything a runner raises for bad user input.  :func:`main` prints the
#: message (a parse error with its caret snippet) and exits 2.
_USAGE_ERRORS = (_ArgsError, RegistryError, SessionConfigError, SweepError, KernelParseError)


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


def _port(text: str) -> int:
    value = int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"must be in 0..65535, got {value}")
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


# ----------------------------------------------------------------------
# Argument groups and the subcommand table
# ----------------------------------------------------------------------
#: One ``add_argument`` call: ``(flags, keyword arguments)``.
ArgSpec = Tuple[Tuple[str, ...], Dict[str, Any]]


def _arg(*flags: str, **kwargs: Any) -> ArgSpec:
    return flags, kwargs


class _OneOf(tuple):
    """Argument specs that form one mutually exclusive group."""


class _SuiteNames:
    """``--suite`` choices, read when the command line is parsed: suites can
    be registered after this module is imported."""

    def __iter__(self):
        return iter(suite_names())

    def __contains__(self, name) -> bool:
        return name in suite_names()


_JOBS = _arg("--jobs", type=_positive_int, default=1, metavar="N", help="worker processes")

#: Argument groups shared between subcommands, by the name a
#: :class:`Command` row lists them under.
ARG_GROUPS: Dict[str, Tuple[ArgSpec, ...]] = {
    "kernel": (
        _arg("kernel", help="kernel name (see `list`)"),
        _arg("--dataset", default="mini", help="problem size class (default: mini)"),
    ),
    "machine": (
        _arg(
            "--machine",
            metavar="NAME",
            default=None,
            help="named machine preset from the registry (see `kernels`); "
            "mutually exclusive with the raw cache-geometry flags",
        ),
        _arg("--line-size", type=int, default=None, help=f"line size in bytes (default {DEFAULT_LINE_SIZE})"),
        _arg("--l1", type=int, default=None, help=f"L1 size in bytes (default {DEFAULT_L1_BYTES})"),
        _arg("--l2", type=int, default=None, help="L2 size in bytes (0 = disabled)"),
        _arg("--l3", type=int, default=None, help="L3 size in bytes (0 = disabled)"),
    ),
    "budget": (
        _arg(
            "--budget",
            type=_nonnegative_int,
            default=DEFAULT_WORK_BUDGET,
            metavar="UNITS",
            help="deterministic symbolic work budget; exceeding it falls back to the "
            f"exact trace computation (default {DEFAULT_WORK_BUDGET}, 0 = unlimited)",
        ),
    ),
    "store": (
        _arg(
            "--store-path",
            metavar="DIR",
            default=None,
            help="persistent analysis store root (default: $REPRO_STORE_PATH or "
            "~/.cache/repro-haystack/store)",
        ),
        _arg("--no-store", action="store_true", help="disable the persistent analysis store for this run"),
        _arg(
            "--store-backend",
            choices=BACKEND_NAMES,
            default=None,
            help="store backend: 'dir' (one file per entry, the default) or "
            "'sqlite' (one WAL-mode database; safe for many server workers); "
            "default: $REPRO_STORE_BACKEND or dir",
        ),
    ),
    "no-fallback": (
        _arg(
            "--no-fallback",
            action="store_true",
            help="fail (batch: record an error) instead of falling back to the trace",
        ),
    ),
    "json": (
        _arg("--json", action="store_true", help="machine-readable JSON output instead of tables"),
    ),
    "sweep": (
        _arg(
            "--sweep",
            metavar="MIN:MAX[:POINTS]",
            default=None,
            help="log-spaced capacity sweep in bytes (sizes accept K/M/G suffixes; "
            f"default {DEFAULT_SWEEP_POINTS} points); combines with --capacities",
        ),
        _arg(
            "--capacities",
            metavar="LIST",
            default=None,
            help="cache sizes in bytes: comma-separated sizes and MIN:MAX[:POINTS] "
            "ranges, K/M/G suffixes ok; combines with --sweep",
        ),
    ),
    "associativity": (
        _arg(
            "--associativity",
            type=_positive_int,
            default=None,
            help="simulator ways (default: fully associative)",
        ),
    ),
}


@dataclass(frozen=True)
class Command:
    """One ``repro-haystack`` subcommand.

    ``args`` lists the command's arguments in ``--help`` order: a string
    names a shared group of :data:`ARG_GROUPS`, an :func:`_arg` spec is the
    command's own argument, and a :class:`_OneOf` holds specs that are
    mutually exclusive.  ``run`` gets the parsed arguments and returns the
    exit status; it raises one of :data:`_USAGE_ERRORS` on bad input.
    """

    name: str
    help: str
    run: Callable[[argparse.Namespace], int]
    args: Tuple[Any, ...] = ()


def _add_arguments(parser, specs) -> None:
    for spec in specs:
        if isinstance(spec, str):
            _add_arguments(parser, ARG_GROUPS[spec])
        elif isinstance(spec, _OneOf):
            _add_arguments(parser.add_mutually_exclusive_group(), spec)
        else:
            flags, kwargs = spec
            parser.add_argument(*flags, **kwargs)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-haystack",
        description=__doc__,
        epilog="Environment variables (REPRO_STORE_PATH, REPRO_STORE_BACKEND, "
        "REPRO_STORE_MAX_BYTES, REPRO_BENCH_JOBS, REPRO_EXAMPLE_FAST) are "
        "documented in the README's 'Environment variables' table; see also "
        "docs/ARCHITECTURE.md and docs/PERFORMANCE.md.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        sub = subparsers.add_parser(command.name, help=command.help, description=command.help)
        _add_arguments(sub, command.args)
        sub.set_defaults(run=command.run)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_environment(args)
        return args.run(args)
    except KernelParseError as exc:
        print(exc.render(), file=sys.stderr)
    except _USAGE_ERRORS as exc:
        print(str(exc), file=sys.stderr)
    return 2


def _check_environment(args) -> None:
    """Reject a bad ``$REPRO_STORE_*`` or ``--store-path``.

    Otherwise a bad store location would surface as a failure (or a silently
    disabled store) mid-analysis.
    """
    try:
        validate_store_env()
        if getattr(args, "store_path", None) and not args.no_store:
            validate_store_path(args.store_path, args.store_backend)
    except ValueError as exc:
        raise _ArgsError(str(exc)) from None


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _capacities(args) -> List[int]:
    """Sorted byte sizes named by ``--capacities`` and the ``--sweep`` range."""
    sizes = set()
    if args.capacities:
        sizes.update(Sweep.parse(args.capacities, label="--capacities").values)
    if args.sweep:
        sizes.update(sweepmod.expand_range(args.sweep, label="--sweep"))
    return sorted(sizes)


def _curve_capacities(args, machine: MachineModel) -> List[int]:
    """Capacity sweep of the ``curve`` command, in bytes.

    Explicit ``--capacities`` entries and the ``--sweep`` range combine; with
    neither given, the default sweep runs log-spaced from one cache line to
    twice the largest hierarchy level.
    """
    sizes = _capacities(args)
    if sizes:
        return sizes
    largest = max(level.size for level in machine.levels)
    default = sweepmod.expand_range(
        f"{machine.line_size}:{2 * largest}:{DEFAULT_SWEEP_POINTS}", label="--sweep"
    )
    return sorted(set(default).union(level.size for level in machine.levels))


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
        if getattr(args, attr) is not None
    ]
    if args.machine:
        if explicit:
            raise _ArgsError(
                f"--machine {args.machine} cannot be combined with {', '.join(explicit)}; "
                "name a preset or shape the hierarchy by hand, not both"
            )
        entry = registry.get_machine(args.machine)
        try:
            return entry.build()
        except Exception as exc:  # noqa: BLE001 - a broken factory is a user-facing error
            raise _ArgsError(f"machine {args.machine!r} failed to build: {exc}") from None
    line_size = args.line_size if args.line_size is not None else DEFAULT_LINE_SIZE
    l1 = args.l1 if args.l1 is not None else DEFAULT_L1_BYTES
    levels = [CacheLevelSpec(l1, "L1")]
    if args.l2:
        levels.append(CacheLevelSpec(args.l2, "L2"))
    if args.l3:
        levels.append(CacheLevelSpec(args.l3, "L3"))
    try:
        return MachineModel(line_size=line_size, levels=tuple(levels))
    except ValueError as exc:
        raise _ArgsError(str(exc)) from None


def _load_scop(args):
    """The scop a command runs on: the ``.knl`` file ``args.file`` if given,
    else the registered kernel ``args.kernel``.

    Fills in ``args.kernel`` and ``args.dataset`` (a file's name and first
    dataset block, or ``mini``): output labels and store digests key off them.
    """
    path = getattr(args, "file", None)
    if path is None:
        if args.dataset is None:
            args.dataset = "mini"
        return registry.get_kernel(args.kernel).build(args.dataset)
    try:
        program = parse_kernel_path(path)
    except OSError as exc:
        raise _ArgsError(f"cannot read {path}: {exc}") from None
    args.kernel = program.name
    args.dataset = args.dataset or next(iter(program.datasets))
    return program.instantiate(program.dataset_sizes(args.dataset))


def _store_path(args, root: Optional[str] = None) -> Optional[str]:
    """Resolved store spec: ``--no-store`` disables, ``--store-path`` overrides
    ``root`` (default: ``$REPRO_STORE_PATH`` or the per-user cache).

    The returned string carries the backend choice (``--store-backend`` /
    ``$REPRO_STORE_BACKEND``) as a ``backend:path`` spec, so it flows through
    sessions, pool workers, and the server unchanged.
    """
    if args.no_store:
        return None
    return make_store_spec(args.store_path or root or default_store_path(), args.store_backend)


def _session_from_args(args, machine: MachineModel) -> Session:
    """The configured façade every analysis command runs through."""
    session = Session().machine(machine).budget(_budget_value(args))
    if args.no_fallback:
        session.options(fallback=False)
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
        return model.analyze_by_trace(scop, failed=exc), 0


def _model_result_with_store(args, session: Session, scop) -> Tuple[Optional[ModelResult], bool, int]:
    """Analytical result via the persistent store: ``(result, cached, exit_code)``.

    For a ``.knl`` file the store digest fingerprints the scop's full
    structure instead of the (kernel, dataset) name pair, because the same
    kernel name may mean different file contents over time.
    """
    store = session.open_store()
    digest = None
    if store is not None:
        # The spec mirrors the session machine exactly (L1 always present,
        # L2/L3 optional), so distinct hierarchies never alias one digest.
        structural = getattr(args, "file", None) is not None
        spec = session.job_spec(args.kernel, args.dataset, scop=scop if structural else None)
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


def _simulator(args, machine: MachineModel) -> DineroSimulator:
    """The trace simulator for ``machine`` and ``--associativity``.

    The geometry is checked here, before any analysis or trace runs; the
    caches repeat the geometry checks as a safety net.
    """
    ways = args.associativity
    for index, level in enumerate(machine.levels):
        if level.size <= 0:
            problem = "cache and line size must be positive"
        elif level.size % (machine.line_size * (ways or 1)):
            problem = (
                "cache size must be a multiple of the line size"
                if ways is None
                else "cache size must be a multiple of line size * associativity"
            )
        else:
            continue
        raise _ArgsError(
            f"{problem} ({level.label(index)}: {level.size} B, line size "
            f"{machine.line_size} B, associativity {ways or 'full'})"
        )
    return DineroSimulator(
        [
            CacheLevelConfig(
                cache_size=level.size,
                line_size=machine.line_size,
                associativity=ways,
                policy=getattr(args, "policy", "lru"),
                prefetch_degree=getattr(args, "prefetch_degree", 0),
            )
            for level in machine.levels
        ]
    )


# ----------------------------------------------------------------------
# Runners: one per subcommand
# ----------------------------------------------------------------------
def _run_list(args) -> int:
    for name in registry.kernel_names():
        print(name)
    return 0


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


def _run_model(args) -> int:
    """``model`` subcommand body (also the default mode of ``analyze``)."""
    machine = _machine_from_args(args)
    scop = _load_scop(args)
    session = _session_from_args(args, machine)
    result, cached, exit_code = _model_result_with_store(args, session, scop)
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


def _run_simulate(args) -> int:
    """``simulate`` subcommand: the trace-driven simulator alone."""
    machine = _machine_from_args(args)
    scop = _load_scop(args)
    if args.associativity is None and args.policy != "lru":
        raise _ArgsError("--policy requires --associativity (fully associative caches are LRU)")
    result = _simulator(args, machine).run(scop)
    rows = [
        (f"L{i+1}", stats.accesses, stats.compulsory_misses, stats.capacity_misses + stats.conflict_misses, stats.misses, stats.hits, stats.writebacks)
        for i, stats in enumerate(result.levels)
    ]
    print(format_table(["level", "accesses", "compulsory", "other misses", "misses", "hits", "writebacks"], rows,
                       title=f"{scop.name} ({args.dataset}) — trace simulation"))
    print(f"simulation time: {result.elapsed_seconds:.3f}s for {result.accesses} accesses")
    return 0


def _run_compare(args) -> int:
    """``compare`` subcommand body (also ``analyze --compare``)."""
    machine = _machine_from_args(args)
    scop = _load_scop(args)
    session = _session_from_args(args, machine)
    simulator = _simulator(args, machine)
    model_result, cached, exit_code = _model_result_with_store(args, session, scop)
    if model_result is None:
        return exit_code
    sim_result = simulator.run(scop)
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


def _run_curve(args) -> int:
    """``curve`` subcommand (also ``analyze --curve``): one analysis, a whole capacity sweep."""
    machine = _machine_from_args(args)
    scop = _load_scop(args)
    sweep = _curve_capacities(args, machine)
    session = _session_from_args(args, machine).sweep(capacities=sweep)
    result, cached, exit_code = _model_result_with_store(args, session, scop)
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


def _run_explore(args) -> int:
    """``explore`` subcommand: rank a design grid, print its Pareto front.

    One symbolic analysis per (tile, line size); the capacity and
    associativity axes ride the parametric miss curve for free (see
    :mod:`repro.explore`).  Axis flags all parse through :mod:`repro.sweep`.
    """
    machine = _machine_from_args(args)
    _load_scop(args)  # unknown kernels and datasets fail before the axes parse

    def axis(spec, label):
        return list(Sweep.parse(spec, label=label).values) if spec else None

    capacities = _capacities(args)
    tiles = axis(args.tiles, "--tiles")
    line_sizes = axis(args.line_sizes, "--line-sizes")
    ways = axis(args.associativities, "--associativities")
    result = _session_from_args(args, machine).explore(
        args.kernel,
        args.dataset,
        tiles=tiles,
        capacities=capacities or None,
        line_sizes=line_sizes,
        associativities=ways,
    )
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
        raise _ArgsError("--curve and --compare are mutually exclusive")
    if args.json and not args.curve:
        raise _ArgsError("--json requires --curve")
    if args.associativity is not None and not args.compare:
        raise _ArgsError("--associativity only applies with --compare")
    if (args.sweep or args.capacities) and not args.curve:
        raise _ArgsError("--sweep/--capacities only apply with --curve")
    if args.curve:
        return _run_curve(args)
    if args.compare:
        return _run_compare(args)
    return _run_model(args)


def _run_lint(args) -> int:
    """``lint`` subcommand: static diagnostics + symbolic-cost prediction.

    Exit status: 0 = clean (infos and, without ``--strict``, warnings are
    allowed), 2 = bad arguments / unreadable or unparsable input, 3 = at
    least one error-severity finding (with ``--strict``: or warning).
    """
    from .verify import verify_scop

    if (args.file is None) == (args.kernel is None):
        raise _ArgsError("lint needs exactly one input: a .knl file or --kernel NAME")
    machine = _machine_from_args(args)
    scop = _load_scop(args)
    report = verify_scop(
        scop,
        machine,
        dataset=args.dataset,
        budget=_budget_value(args),
        cost=not args.no_cost,
    )
    failed = report.has_errors(strict=args.strict)
    if args.json:
        print(json.dumps(report.to_payload(), indent=2, sort_keys=True))
        return 3 if failed else 0

    counts = report.counts()
    source = args.file if args.file is not None else args.kernel
    if report.diagnostics:
        print(
            format_diagnostics(
                report.diagnostics, title=f"{args.kernel} ({args.dataset}) — lint of {source}"
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


def _run_batch(args) -> int:
    """``batch`` subcommand: a kernel x dataset matrix across a worker pool."""
    if args.kernels.strip().lower() == "all":
        kernels = registry.kernel_names()
    else:
        kernels = [name.strip() for name in args.kernels.split(",") if name.strip()]
    datasets = [name.strip() for name in args.datasets.split(",") if name.strip()]
    if not kernels:
        raise _ArgsError("no kernels given (use --kernels name[,name...] or --kernels all)")
    if not datasets:
        raise _ArgsError("no datasets given (use --datasets name[,name...])")
    known = set(registry.kernel_names())
    unknown = [name for name in kernels if name not in known]
    if unknown:
        raise _ArgsError(f"unknown kernels: {', '.join(unknown)}")
    known_datasets = set(registry.dataset_names())
    invalid = [name for name in datasets if name not in known_datasets]
    if invalid:
        raise _ArgsError(f"unknown datasets: {', '.join(invalid)}")
    if args.l1 is not None and args.l1 <= 0:
        raise _ArgsError("--l1 must be a positive size in bytes (only L2/L3 can be disabled with 0)")
    # Fail before the jobs run, not when the finished batch is written.
    if args.output and not os.path.isdir(os.path.dirname(os.path.abspath(args.output))):
        raise _ArgsError(f"--output directory does not exist: {os.path.dirname(args.output)}")
    machine = _machine_from_args(args)
    session = _session_from_args(args, machine).workers(args.jobs)
    progress = None
    if args.progress:
        def progress(record, done, total):
            status = record.status if not record.cached else "cached"
            print(f"[{done}/{total}] {record.kernel}/{record.dataset}: {status} "
                  f"({record.elapsed_seconds:.2f}s)", file=sys.stderr)
            sys.stderr.flush()
    batch = session.kernels(*kernels).datasets(*datasets).run(progress=progress)
    print(format_batch_summary(batch))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(batch.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"wrote {len(batch)} job records to {args.output}")
    return 0 if batch.error_count == 0 else 1


def _run_bench(args) -> int:
    """``bench`` subcommand: run a suite, then compare or refresh the baseline."""
    output = args.output or f"BENCH_{args.suite}.json"
    baseline_path = args.baseline or str(default_baseline_path(args.suite))
    # Default to a fresh throwaway store so the measurement is a defined
    # cold run; --store-path measures against existing warmth (that is how
    # CI exercises the warm-rerun speedup) and --no-store drops the store
    # entirely.
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as scratch:
        report = run_suite(args.suite, jobs=args.jobs, store_path=_store_path(args, scratch))
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
            raise _ArgsError(
                f"cannot load baseline {baseline_path}: {exc} "
                "(generate one with `repro-haystack bench --update-baseline`)"
            ) from None
        regressions = compare_reports(
            report, baseline, tolerance=args.tolerance, check_wall=not args.no_wall
        )
    print(format_bench_summary(report, regressions))
    print(f"wrote report to {output}")
    return 4 if regressions else 0


def _run_serve(args) -> int:
    """``serve`` subcommand: run the analysis HTTP service until interrupted."""
    import asyncio

    from .server import AnalysisService, HttpServer

    try:
        service = AnalysisService(
            store_path=_store_path(args),
            workers=args.workers,
            max_inflight=args.max_inflight,
            max_budget=args.max_budget,
            default_budget=_budget_value(args),
        )
    except ValueError as exc:
        raise _ArgsError(str(exc)) from None
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


#: Every subcommand, in ``--help`` order.  A new subcommand is one row here
#: plus its runner.
COMMANDS: Tuple[Command, ...] = (
    Command("list", "list the available kernel names", _run_list),
    Command("kernels", "list registered kernels, datasets and machine presets", _run_kernels, ("json",)),
    Command(
        "model",
        "run the analytical cache model",
        _run_model,
        ("kernel", "machine", "no-fallback", "budget", "store"),
    ),
    Command(
        "analyze",
        "parse a kernel DSL (.knl) file and run the analytical model on it",
        _run_analyze,
        (
            _arg("file", help="kernel DSL file (language reference: docs/KERNEL_DSL.md)"),
            _arg(
                "--dataset",
                default=None,
                help="dataset block of the file to instantiate (default: its first block)",
            ),
            "machine",
            "no-fallback",
            _arg(
                "--curve",
                action="store_true",
                help="report a miss curve over a capacity sweep instead of the level table",
            ),
            "sweep",
            "json",
            _arg(
                "--compare",
                action="store_true",
                help="also run the trace simulator and compare the miss counts",
            ),
            "associativity",
            "budget",
            "store",
        ),
    ),
    Command(
        "lint",
        "statically verify a kernel and predict its symbolic cost "
        "without running the model (diagnostic codes: docs/LINT.md)",
        _run_lint,
        (
            _arg(
                "file",
                nargs="?",
                default=None,
                help="kernel DSL (.knl) file to lint; alternatively use --kernel",
            ),
            _arg(
                "--kernel",
                default=None,
                metavar="NAME",
                help="registered kernel to lint instead of a file (see `list`)",
            ),
            _arg(
                "--dataset",
                default=None,
                help="dataset to instantiate (default: the file's first block, or "
                "'mini' for registered kernels)",
            ),
            "json",
            _arg("--strict", action="store_true", help="warnings also fail the lint (exit 3), not just errors"),
            _arg(
                "--no-cost",
                action="store_true",
                help="skip the symbolic-cost probe (COST findings); static checks only",
            ),
            "machine",
            "budget",
        ),
    ),
    Command(
        "simulate",
        "run the trace-driven simulator",
        _run_simulate,
        (
            "kernel",
            "machine",
            "associativity",
            _arg(
                "--policy",
                choices=["lru", "fifo", "tree-plru"],
                default="lru",
                help="replacement policy for set-associative levels (default lru)",
            ),
            _arg(
                "--prefetch-degree",
                type=_nonnegative_int,
                default=0,
                metavar="N",
                help="next-line prefetcher: install N sequential lines on every miss "
                "(default 0 = disabled; forces the reference simulator)",
            ),
        ),
    ),
    Command(
        "curve",
        "miss curve: sweep many cache sizes from one analysis",
        _run_curve,
        ("kernel", "machine", "sweep", "json", "no-fallback", "budget", "store"),
    ),
    Command(
        "explore",
        "design-space explorer: rank a tile x capacity x line-size x "
        "associativity grid and report its Pareto front (docs/EXPLORE.md)",
        _run_explore,
        (
            "kernel",
            "machine",
            _arg(
                "--tiles",
                metavar="LIST",
                default=None,
                help="tile sizes to explore (comma-separated values and MIN:MAX[:POINTS] "
                "ranges; 1 = untiled; default: 1 only)",
            ),
            "sweep",
            _arg(
                "--line-sizes",
                metavar="LIST",
                default=None,
                help="cache line sizes to explore (default: the machine's line size)",
            ),
            _arg(
                "--associativities",
                metavar="LIST",
                default=None,
                help="way counts for the hardware-cost axis (the miss prediction is "
                "associativity-blind; default: fully associative)",
            ),
            _arg("--pareto", action="store_true", help="print only the Pareto-optimal rows"),
            _arg(
                "--limit",
                type=_positive_int,
                default=None,
                metavar="N",
                help="print at most N ranked rows (default: all)",
            ),
            "json",
            "no-fallback",
            "budget",
            "store",
        ),
    ),
    Command(
        "compare",
        "run both and compare the miss counts",
        _run_compare,
        ("kernel", "machine", "associativity", "no-fallback", "budget", "store"),
    ),
    Command(
        "batch",
        "analyse a kernel x dataset matrix across a worker pool",
        _run_batch,
        (
            _arg(
                "--kernels",
                required=True,
                help="comma-separated kernel names, or 'all' for every registered kernel",
            ),
            _arg("--datasets", default="mini", help="comma-separated dataset classes (default: mini)"),
            _JOBS,
            _arg("--output", metavar="FILE", help="write the batch results as JSON"),
            "machine",
            "no-fallback",
            _arg(
                "--progress",
                action="store_true",
                help="stream one line per job to stderr as the pool completes them",
            ),
            "budget",
            "store",
        ),
    ),
    Command(
        "bench",
        "run a named benchmark suite and compare against a baseline",
        _run_bench,
        (
            _arg("--suite", default="smoke", choices=_SuiteNames(), help="workload suite (default: smoke)"),
            _arg(
                "--output",
                metavar="FILE",
                default=None,
                help="report path (default: BENCH_<suite>.json in the current directory)",
            ),
            _OneOf(
                (
                    _arg(
                        "--compare",
                        action="store_true",
                        help="compare the report against the baseline and exit 4 on regression",
                    ),
                    _arg(
                        "--update-baseline",
                        action="store_true",
                        help="write the report to the baseline path instead of comparing",
                    ),
                )
            ),
            _arg(
                "--baseline",
                metavar="FILE",
                default=None,
                help="baseline report (default: benchmarks/baselines/BENCH_<suite>.json)",
            ),
            _arg(
                "--tolerance",
                type=_tolerance,
                default=0.2,
                metavar="FRAC",
                help="allowed relative rise of wall time and work units (default: 0.2)",
            ),
            _arg(
                "--no-wall",
                action="store_true",
                help="skip the wall-clock comparison (deterministic metrics only)",
            ),
            _JOBS,
            "store",
        ),
    ),
    Command(
        "serve",
        "run the analysis HTTP service (endpoints: /healthz, /stats, "
        "/v1/analyze, /v1/batch; see docs/SERVER.md)",
        _run_serve,
        (
            _arg("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"),
            _arg("--port", type=_port, default=8157, help="TCP port; 0 picks an ephemeral port (default: 8157)"),
            _arg(
                "--port-file",
                metavar="FILE",
                default=None,
                help="write the bound port to FILE once listening (ephemeral-port discovery)",
            ),
            _arg(
                "--workers",
                type=_nonnegative_int,
                default=2,
                metavar="N",
                help="engine worker processes (0 = run jobs on server threads; default: 2)",
            ),
            _arg(
                "--max-inflight",
                type=_positive_int,
                default=8,
                metavar="N",
                help="admission cap on concurrently executing jobs; beyond it requests "
                "are shed with 429 (default: 8)",
            ),
            _arg(
                "--max-budget",
                type=_positive_int,
                default=None,
                metavar="UNITS",
                help="admission ceiling on per-request symbolic work budgets; requests "
                "above it (or asking for unlimited) are shed with 429 (default: no ceiling)",
            ),
            "budget",
            "store",
        ),
    ),
)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
