"""HayStack: the analytical cache model (public entry point).

:class:`CacheModel` ties the pipeline together:

1. symbolic backward stack distances for every access
   (:mod:`repro.core.distance`),
2. compulsory misses = first touches of a cache line
   (:mod:`repro.core.prevmap`),
3. capacity misses = accesses whose stack distance exceeds the cache
   capacity, counted with Algorithm 1 in one walk over a capacity grid
   that holds every hierarchy level (:mod:`repro.core.capacity`).

Stack distances are computed once and re-used for every cache level, exactly
like the paper (Section 4.3, Figure 13) — and, through the miss-curve layer
(:mod:`repro.core.curve`), for every *other* capacity as well: each access's
distance pieces go through one :meth:`~repro.core.capacity.CapacityCounter.count_curve`
pass whose samples aggregate into the result's
:class:`~repro.core.curve.MissCurve`; the per-level counts of both the
symbolic and the trace engine are read off that curve.  If the symbolic
pipeline cannot handle a program exactly — or exceeds the configured
deterministic work budget (:mod:`repro.isl.work`) — the model optionally
falls back to the trace-based reference computation and flags the result,
so callers always receive exact miss counts.

Each analysis job runs with a fresh memoizing cardinality cache
(:mod:`repro.engine.cache`) shared across first-touch and capacity counts of
all hierarchy levels; its hit/miss statistics are reported in
:class:`~repro.core.results.TimingBreakdown`.

Everything about a program that does not depend on the capacity grid is
computed once per process and kept in :data:`PROGRAM_MEMO`: the outcome of
the stack-distance stages (the distances and their work units, or the
failure they raised) and the trace histogram of each numeric backend.  A new
capacity sweep of a program seen before pays only the capacity phase.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from ..engine.cache import CardinalityCache
from ..isl.counting import CountingError
from ..isl.veceval import check_backend
from ..isl.work import BudgetExhausted, WorkBudget, active_budget
from ..scop.scop import Scop, program_fingerprint
from .capacity import CapacityCounter
from .config import MachineModel
from .curve import MissCurve
from .distance import AccessDistances, StackDistanceAnalysis
from .prevmap import ModelFallbackRequired
from .results import AccessMissCounts, LevelMissCounts, ModelResult, TimingBreakdown

__all__ = ["CacheModel", "ModelOptions", "PROGRAM_MEMO", "ProgramMemo", "SymbolicProbe"]


@dataclass(frozen=True)
class _DistanceOutcome:
    """What the stack-distance stages (2 and 3) did on one program.

    ``need`` is the number of work units they are known to cost: the exact
    count when they finished (``distances``) or raised
    :class:`~repro.core.prevmap.ModelFallbackRequired` (``failure``, its
    message), and ``limit + 1`` when a budget of ``limit`` units tripped,
    in which case neither is known.  Every charge is one unit, so a budget
    below ``need`` trips at exactly ``limit + 1``.
    """

    need: int
    distances: Optional[List[AccessDistances]] = None
    failure: Optional[str] = None


class ProgramMemo:
    """Bounded, thread-safe, per-process memo of capacity-independent work.

    Keyed by :func:`~repro.scop.program_fingerprint` plus the line size.
    Each entry holds up to one ``"distances"`` value (a
    :class:`_DistanceOutcome`) and one trace histogram per numeric backend
    (``("trace", backend)``), so a ``python``-backend run never reads the
    ``numpy`` histogram.  The least recently used program goes once more
    than ``capacity`` programs are held.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Dict[Hashable, object]]" = OrderedDict()

    def get(self, key: Hashable, part: Hashable):
        """The stored ``part`` of program ``key``, or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry.get(part)

    def put(self, key: Hashable, part: Hashable, value) -> None:
        """Store ``part`` of program ``key``, evicting the oldest program."""
        with self._lock:
            entry = self._entries.setdefault(key, {})
            self._entries.move_to_end(key)
            entry[part] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


#: The process's program memo (see :class:`ProgramMemo`).
PROGRAM_MEMO = ProgramMemo(16)


@dataclass(frozen=True)
class SymbolicProbe:
    """Outcome of :meth:`CacheModel.symbolic_probe`.

    ``outcome`` is ``"ok"`` (the symbolic phase completed within budget),
    ``"budget"`` (the work budget tripped) or ``"fallback"`` (the pipeline
    cannot handle the program exactly); ``work_units`` is the deterministic
    cost charged up to that point.  On success ``result`` carries the full
    symbolic :class:`~repro.core.results.ModelResult` (piece statistics and
    all).
    """

    outcome: str
    work_units: int
    result: Optional["ModelResult"] = None
    reason: str = ""


@dataclass
class ModelOptions:
    """Behavioural switches of the analytical model."""

    partial_enumeration: bool = True
    #: Fall back to trace-based computation when the symbolic pipeline cannot
    #: handle the program exactly (keeps results exact; sets ``used_fallback``).
    fallback_to_simulation: bool = True
    #: Cross-check the symbolic result against the trace-based reference
    #: (test-suite use only; requires enumerating the trace).
    cross_check: bool = False
    #: Deterministic bound on symbolic work units (see
    #: :class:`repro.isl.work.WorkBudget`); ``None`` = unlimited.  When the
    #: budget trips the model falls back to the exact trace computation (or
    #: raises, with ``fallback_to_simulation=False``).
    symbolic_work_budget: Optional[int] = None
    #: Root of the persistent analysis store
    #: (:class:`repro.engine.store.AnalysisStore`); ``None`` keeps the
    #: cardinality cache purely in-memory.  A path (not a store object) so
    #: options stay picklable — every worker opens its own store handle.
    store_path: Optional[str] = None
    #: Numeric-evaluation implementation for both pipelines: the trace
    #: fallback / cross-check reference (:mod:`repro.simulator.vectorized`)
    #: and the symbolic curve's bulk chamber evaluation
    #: (:mod:`repro.isl.veceval`).  ``"numpy"`` (vectorized, default) or
    #: ``"python"`` (the reference oracle).  Both produce identical
    #: :class:`ModelResult` payloads.
    backend: str = "numpy"
    #: Extra cache sizes (in bytes) to include as breakpoints of the
    #: result's :class:`~repro.core.curve.MissCurve` beyond the machine's
    #: hierarchy levels; ``None`` keeps just the hierarchy.  The curve shares
    #: the single counting pass, so sweep points are nearly free.
    curve_capacities: Optional[Tuple[int, ...]] = None
    #: Static verification pre-flight (:mod:`repro.verify`) before any
    #: analysis work: ``"off"`` (default) skips it, ``"warn"`` emits a
    #: :class:`~repro.verify.VerificationWarning` per error-severity finding,
    #: ``"error"`` raises :class:`~repro.verify.VerificationError` so
    #: analyze/curve/explore jobs refuse provably-broken inputs.
    verify: str = "off"


class CacheModel:
    """Fully associative LRU cache model for static control programs."""

    def __init__(self, machine: Optional[MachineModel] = None, options: Optional[ModelOptions] = None) -> None:
        self.machine = machine or MachineModel()
        self.options = options or ModelOptions()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def analyze(self, scop: Scop) -> ModelResult:
        """Compute compulsory and capacity misses for every cache level.

        The symbolic pipeline runs under the configured work budget (see
        :class:`repro.isl.work.WorkBudget`); both an exact-computation
        failure and budget exhaustion degrade to the trace-based fallback,
        which is exact and flagged on the result.

        With :attr:`ModelOptions.verify` set to ``"warn"`` or ``"error"``
        the static verifier (:mod:`repro.verify`) pre-flights the scop and
        warns about — or refuses — provably-broken inputs before any
        analysis work is spent.
        """
        self._preflight(scop)
        try:
            result = self._symbolic_attempt(scop)
        except (ModelFallbackRequired, BudgetExhausted) as exc:
            if not self.options.fallback_to_simulation:
                raise
            result = self.analyze_by_trace(scop, failed=exc)
        if self.options.cross_check:
            self._cross_check(scop, result)
        return result

    def analyze_by_trace(self, scop: Scop, *, failed: Optional[Exception] = None) -> ModelResult:
        """Exact trace-based analysis (the fallback path), flagged as such.

        Callers that want to react to a failed symbolic run *before* the
        (potentially long) trace enumeration starts — e.g. the CLI, which
        warns the user first — disable ``fallback_to_simulation``, catch the
        failure and invoke this method explicitly.  Passing the caught
        exception as ``failed`` books the failed attempt on the result: its
        work units in ``work_units_charged`` and its seconds in
        ``other_seconds``, next to the trace's own.
        """
        result = self._analyze_by_trace(scop, used_fallback=True)
        if failed is not None:
            result.timing.work_units_charged = getattr(failed, "work_units_charged", 0)
            result.timing.other_seconds += getattr(failed, "attempt_seconds", 0.0)
        return result

    def symbolic_probe(self, scop: Scop) -> "SymbolicProbe":
        """Run only the symbolic phase and report its deterministic cost.

        This is the measurement half of the ``repro.verify`` COST
        diagnostic: the probe executes the exact same budgeted pipeline as
        :meth:`analyze` — work-unit charges depend only on the program, not
        on cache warmth or backend — but never assembles a user-facing
        result and never falls back to the (potentially minutes-long)
        trace.  Its wall-clock cost is therefore bounded by the configured
        budget, and its trip/no-trip outcome is, by construction, the
        outcome a real analysis under the same options would see.
        """
        try:
            result = self._symbolic_attempt(scop)
        except BudgetExhausted as exc:
            return SymbolicProbe(outcome="budget", work_units=exc.work_units_charged)
        except ModelFallbackRequired as exc:
            return SymbolicProbe(
                outcome="fallback", work_units=exc.work_units_charged, reason=str(exc)
            )
        return SymbolicProbe(outcome="ok", work_units=result.timing.work_units_charged, result=result)

    def _symbolic_attempt(self, scop: Scop) -> ModelResult:
        """Run the symbolic pipeline under a fresh budget of the configured size.

        The budget is active only in the calling thread or task context
        (:func:`repro.isl.work.active_budget`), so concurrent analyses never
        charge each other.  The result's ``work_units_charged`` is the
        budget's count; a failed attempt re-raises with
        ``work_units_charged`` and ``attempt_seconds`` set on the exception.
        """
        budget = WorkBudget(self.options.symbolic_work_budget)
        start = time.perf_counter()
        try:
            with active_budget(budget):
                result = self._analyze_symbolic(scop, budget)
        except (ModelFallbackRequired, BudgetExhausted) as exc:
            exc.work_units_charged = budget.used
            exc.attempt_seconds = time.perf_counter() - start
            raise
        result.timing.work_units_charged = budget.used
        return result

    def _preflight(self, scop: Scop) -> None:
        """Static verification gate controlled by :attr:`ModelOptions.verify`."""
        mode = self.options.verify
        if mode == "off":
            return
        if mode not in ("warn", "error"):
            raise ValueError(f"verify must be 'off', 'warn' or 'error', got {mode!r}")
        from ..verify import VerificationError, VerificationWarning, check_scop

        findings = [diag for diag in check_scop(scop) if diag.severity == "error"]
        if not findings:
            return
        if mode == "error":
            raise VerificationError(findings)
        import warnings

        for diag in findings:
            warnings.warn(diag.render(), VerificationWarning, stacklevel=3)

    # ------------------------------------------------------------------
    # Symbolic pipeline
    # ------------------------------------------------------------------
    def _make_cardinality_cache(self) -> CardinalityCache:
        if self.options.store_path:
            from ..engine.store import AnalysisStore, PersistentCardinalityCache

            return PersistentCardinalityCache(AnalysisStore(self.options.store_path))
        return CardinalityCache()

    def _curve_grid_lines(self) -> List[int]:
        """Sorted capacity grid (in lines) of the result's miss curve.

        Always contains ``0`` and every hierarchy level; extra sweep points
        come from :attr:`ModelOptions.curve_capacities` (bytes, converted
        with the machine's line size exactly like
        :meth:`~repro.core.config.CacheLevelSpec.capacity_lines`).
        """
        grid = {0}
        grid.update(self.machine.capacities_in_lines())
        for size in self.options.curve_capacities or ():
            grid.add(max(1, int(size) // self.machine.line_size))
        return sorted(grid)

    def _program_key(self, scop: Scop) -> Tuple:
        return (program_fingerprint(scop), self.machine.line_size)

    def _stack_distances(self, scop: Scop, budget: WorkBudget) -> List[AccessDistances]:
        """Stages 2-3 under ``budget``, replayed from :data:`PROGRAM_MEMO`.

        A known outcome is replayed with the units and exception a fresh run
        would give: a budget below the known need trips at ``limit + 1``, a
        finished run leaves ``budget.used`` at its count (stage 4 charges on
        from there), a fallback re-raises its message.  A budget trip only
        bounds the need from below, so a larger budget recomputes.
        """
        key = self._program_key(scop)
        known: Optional[_DistanceOutcome] = PROGRAM_MEMO.get(key, "distances")
        if known is not None:
            if budget.limit is not None and budget.limit < known.need:
                budget.used = budget.limit
                budget.charge()
            if known.distances is not None or known.failure is not None:
                budget.used = known.need
                if known.failure is not None:
                    raise ModelFallbackRequired(known.failure)
                return known.distances
        try:
            distances = StackDistanceAnalysis(scop, line_size=self.machine.line_size).analyze()
        except BudgetExhausted:
            PROGRAM_MEMO.put(key, "distances", _DistanceOutcome(budget.used))
            raise
        except ModelFallbackRequired as exc:
            PROGRAM_MEMO.put(key, "distances", _DistanceOutcome(budget.used, failure=str(exc)))
            raise
        PROGRAM_MEMO.put(key, "distances", _DistanceOutcome(budget.used, distances=distances))
        return distances

    def _analyze_symbolic(self, scop: Scop, budget: WorkBudget) -> ModelResult:
        line_size = self.machine.line_size
        distance_start = time.perf_counter()
        distances = self._stack_distances(scop, budget)
        stack_distance_seconds = time.perf_counter() - distance_start

        capacity_start = time.perf_counter()
        # One counting pass serves every capacity: per-access and per-level
        # counts are samples of the per-access curves and of the kernel-level
        # MissCurve they aggregate into (fixed-capacity analysis is a curve
        # sample, not a separate algorithm).
        grid = self._curve_grid_lines()
        level_slots = [grid.index(capacity) for capacity in self.machine.capacities_in_lines()]
        # One memoizing cardinality cache serves the whole analysis, so
        # repeated first-touch and capacity counts (e.g. the same
        # constant-distance domain counted for every hierarchy level) are
        # served from memory instead of re-derived.  With a configured store
        # path the cache gains a persistent disk tier shared across processes
        # and runs.
        cardinality_cache = self._make_cardinality_cache()
        curve_totals = [0] * len(grid)
        per_access: List[AccessMissCounts] = []
        piece_count = 0
        nonaffine_pieces = 0
        nonaffine_dims: List[int] = []
        enumerated_points = 0
        instance_counts: Dict[str, int] = {}

        for access_distances in distances:
            access = access_distances.access
            statement = access.statement
            if statement.name not in instance_counts:
                instance_counts[statement.name] = statement.instance_count()
            accesses = instance_counts[statement.name]

            compulsory = 0
            for domain in access_distances.first_touch_domains:
                compulsory += self._domain_cardinality(domain, statement.loop_vars, cardinality_cache)

            counter = CapacityCounter(statement.loop_vars, self.options, cardinality_cache=cardinality_cache)
            access_curve = counter.count_curve(access_distances.pieces, grid)
            capacity_per_level = [access_curve[slot] for slot in level_slots]
            for index, count in enumerate(access_curve):
                curve_totals[index] += count
            piece_count += counter.stats.pieces_counted
            nonaffine_pieces += counter.stats.nonaffine_pieces
            nonaffine_dims.extend(counter.stats.nonaffine_affine_dims)
            enumerated_points += counter.stats.enumerated_points

            per_access.append(
                AccessMissCounts(
                    statement=statement.name,
                    position=access.position,
                    array=access.ref.array.name,
                    is_write=access.ref.is_write,
                    accesses=accesses,
                    compulsory=compulsory,
                    capacity=capacity_per_level,
                )
            )
        capacity_seconds = time.perf_counter() - capacity_start

        miss_curve = MissCurve(
            line_size=line_size,
            accesses=sum(entry.accesses for entry in per_access),
            compulsory=sum(entry.compulsory for entry in per_access),
            capacities=tuple(grid),
            counts=tuple(curve_totals),
            exact=False,
        )
        store = getattr(cardinality_cache, "store", None)
        timing = TimingBreakdown(
            stack_distance_seconds=stack_distance_seconds,
            capacity_seconds=capacity_seconds,
            cardinality_cache_hits=cardinality_cache.stats.hits,
            cardinality_cache_misses=cardinality_cache.stats.misses,
            store_hits=getattr(cardinality_cache, "store_hits", 0),
            store_misses=getattr(cardinality_cache, "store_misses", 0),
            store_invalidations=store.stats().invalidations if store is not None else 0,
        )
        return ModelResult(
            kernel=scop.name,
            level_results=self._level_results(miss_curve),
            per_access=per_access,
            timing=timing,
            piece_count=piece_count,
            nonaffine_pieces=nonaffine_pieces,
            nonaffine_affine_dims=nonaffine_dims,
            enumerated_points=enumerated_points,
            used_fallback=False,
            miss_curve=miss_curve,
        )

    def _level_results(self, curve: MissCurve) -> List[LevelMissCounts]:
        """Per-level counts of both engines, read off the kernel's miss curve.

        Every hierarchy capacity is a breakpoint of the symbolic grid (see
        :meth:`_curve_grid_lines`) and the trace curve is exact everywhere,
        so each ``misses_at`` is the level's exact capacity-miss count.
        """
        return [
            LevelMissCounts(
                name=label,
                cache_size=level.size,
                accesses=curve.accesses,
                compulsory=curve.compulsory,
                capacity=curve.misses_at(lines),
            )
            for label, level, lines in zip(
                self.machine.level_labels(),
                self.machine.levels,
                self.machine.capacities_in_lines(),
            )
        ]

    def _domain_cardinality(self, domain, loop_vars, cache: CardinalityCache) -> int:
        count_vars = [v for v in loop_vars if domain.involves(v)]
        try:
            return cache.cardinality(domain, count_vars)
        except CountingError as exc:
            raise ModelFallbackRequired(f"cardinality of first-touch domain failed: {exc}") from exc

    # ------------------------------------------------------------------
    # Trace-based fallback (exact, but cost proportional to the trace)
    # ------------------------------------------------------------------
    def _analyze_by_trace(self, scop: Scop, *, used_fallback: bool) -> ModelResult:
        start = time.perf_counter()
        histogram = self._trace_histogram(scop)
        miss_curve = MissCurve.from_histogram(
            histogram, line_size=self.machine.line_size, exact=True
        )
        timing = TimingBreakdown(other_seconds=time.perf_counter() - start)
        return ModelResult(
            kernel=scop.name,
            level_results=self._level_results(miss_curve),
            per_access=[],
            timing=timing,
            used_fallback=used_fallback,
            miss_curve=miss_curve,
        )

    def _trace_histogram(self, scop: Scop) -> Mapping[Optional[int], int]:
        """The program's stack-distance histogram, once per backend and process.

        The full histogram costs the same one profiling pass as the per-level
        counts did, and its suffix sums are the entire miss curve — exact at
        every capacity, so the fallback answers arbitrary sweeps as cheaply
        as the hierarchy, and a known program answers them from
        :data:`PROGRAM_MEMO` without a trace.
        """
        backend = check_backend(self.options.backend)
        key = self._program_key(scop)
        histogram = PROGRAM_MEMO.get(key, ("trace", backend))
        if histogram is not None:
            return histogram
        if backend == "numpy":
            from ..simulator.vectorized import trace_model_curve

            histogram = trace_model_curve(scop, line_size=self.machine.line_size)
        else:
            from ..simulator.lru import StackDistanceProfiler
            from ..simulator.trace import TraceGenerator

            generator = TraceGenerator(scop, line_size=self.machine.line_size, padded=True)
            histogram = StackDistanceProfiler().histogram(generator.line_trace())
        histogram = MappingProxyType(histogram)
        PROGRAM_MEMO.put(key, ("trace", backend), histogram)
        return histogram

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    def _cross_check(self, scop: Scop, result: ModelResult) -> None:
        reference = self._analyze_by_trace(scop, used_fallback=False)
        for index in range(len(self.machine.levels)):
            model_level = result.level(index)
            reference_level = reference.level(index)
            if (model_level.compulsory, model_level.capacity) != (
                reference_level.compulsory,
                reference_level.capacity,
            ):
                raise AssertionError(
                    f"model disagrees with trace reference for {scop.name} at level {model_level.name}: "
                    f"model=({model_level.compulsory}, {model_level.capacity}) "
                    f"trace=({reference_level.compulsory}, {reference_level.capacity})"
                )

