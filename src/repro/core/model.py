"""HayStack: the analytical cache model (public entry point).

:class:`CacheModel` ties the pipeline together:

1. symbolic backward stack distances for every access
   (:mod:`repro.core.distance`),
2. compulsory misses = first touches of a cache line
   (:mod:`repro.core.prevmap`),
3. capacity misses = accesses whose stack distance exceeds the cache
   capacity, counted per hierarchy level with Algorithm 1
   (:mod:`repro.core.capacity`).

Stack distances are computed once and re-used for every cache level, exactly
like the paper (Section 4.3, Figure 13) — and, through the miss-curve layer
(:mod:`repro.core.curve`), for every *other* capacity as well: each access's
distance pieces go through one :meth:`~repro.core.capacity.CapacityCounter.count_curve`
pass whose samples provide the per-level counts and aggregate into the
result's :class:`~repro.core.curve.MissCurve`.  If the symbolic pipeline cannot
handle a program exactly — or exceeds the configured deterministic work
budget (:mod:`repro.isl.work`) — the model optionally falls back to the
trace-based reference computation and flags the result, so callers always
receive exact miss counts.

Each analysis job runs with a fresh memoizing cardinality cache
(:mod:`repro.engine.cache`) shared across first-touch and capacity counts of
all hierarchy levels; its hit/miss statistics are reported in
:class:`~repro.core.results.TimingBreakdown`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..engine.cache import CardinalityCache
from ..isl.counting import CountingError
from ..isl.veceval import check_backend
from ..isl.work import BudgetExhausted, WorkBudget, active_budget
from ..scop.scop import Scop
from .capacity import CapacityCounter, CounterOptions
from .config import MachineModel
from .curve import MissCurve
from .distance import StackDistanceAnalysis
from .prevmap import ModelFallbackRequired
from .results import AccessMissCounts, LevelMissCounts, ModelResult, TimingBreakdown

__all__ = ["CacheModel", "ModelOptions", "SymbolicProbe"]


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

    equalization: bool = True
    rasterization: bool = True
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

    def counter_options(self) -> CounterOptions:
        return CounterOptions(
            equalization=self.equalization,
            rasterization=self.rasterization,
            partial_enumeration=self.partial_enumeration,
        )


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
                result = self._analyze_symbolic(scop)
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

    def _analyze_symbolic(self, scop: Scop) -> ModelResult:
        line_size = self.machine.line_size
        analysis = StackDistanceAnalysis(scop, line_size=line_size)
        distances = analysis.analyze()

        capacity_start = time.perf_counter()
        capacities = self.machine.capacities_in_lines()
        labels = self.machine.level_labels()
        # One counting pass serves every capacity: the per-level counts below
        # are read off the same per-access curves that aggregate into the
        # kernel-level MissCurve (fixed-capacity analysis is now a curve
        # sample, not a separate algorithm).
        grid = self._curve_grid_lines()
        level_slots = [grid.index(capacity) for capacity in capacities]
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

            counter = CapacityCounter(
                statement.loop_vars,
                self.options.counter_options(),
                cardinality_cache=cardinality_cache,
                backend=self.options.backend,
            )
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
            stack_distance_seconds=analysis.elapsed_seconds,
            capacity_seconds=capacity_seconds,
            cardinality_cache_hits=cardinality_cache.stats.hits,
            cardinality_cache_misses=cardinality_cache.stats.misses,
            store_hits=getattr(cardinality_cache, "store_hits", 0),
            store_misses=getattr(cardinality_cache, "store_misses", 0),
            store_invalidations=store.stats().invalidations if store is not None else 0,
        )
        return ModelResult(
            kernel=scop.name,
            level_results=self._aggregate_levels(per_access, labels),
            per_access=per_access,
            timing=timing,
            piece_count=piece_count,
            nonaffine_pieces=nonaffine_pieces,
            nonaffine_affine_dims=nonaffine_dims,
            enumerated_points=enumerated_points,
            used_fallback=False,
            miss_curve=miss_curve,
        )

    def _aggregate_levels(self, per_access: Sequence[AccessMissCounts], labels: Sequence[str]) -> List[LevelMissCounts]:
        levels: List[LevelMissCounts] = []
        total_accesses = sum(entry.accesses for entry in per_access)
        for index, label in enumerate(labels):
            compulsory = sum(entry.compulsory for entry in per_access)
            capacity = sum(entry.capacity[index] for entry in per_access)
            levels.append(
                LevelMissCounts(
                    name=label,
                    cache_size=self.machine.levels[index].size,
                    accesses=total_accesses,
                    compulsory=compulsory,
                    capacity=capacity,
                )
            )
        return levels

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
        labels = self.machine.level_labels()
        capacities = self.machine.capacities_in_lines()
        # The full distance histogram costs the same one profiling pass as
        # the per-level counts did, and its suffix sums are the entire miss
        # curve — exact at every capacity, so the fallback answers arbitrary
        # sweeps as cheaply as the hierarchy.
        if check_backend(self.options.backend) == "numpy":
            from ..simulator.vectorized import trace_model_curve

            histogram = trace_model_curve(scop, line_size=self.machine.line_size)
        else:
            from ..simulator.lru import StackDistanceProfiler
            from ..simulator.trace import TraceGenerator

            generator = TraceGenerator(scop, line_size=self.machine.line_size, padded=True)
            histogram = StackDistanceProfiler().histogram(generator.line_trace())
        miss_curve = MissCurve.from_histogram(
            histogram, line_size=self.machine.line_size, exact=True
        )

        level_results = []
        for index, label in enumerate(labels):
            level_results.append(
                LevelMissCounts(
                    name=label,
                    cache_size=self.machine.levels[index].size,
                    accesses=miss_curve.accesses,
                    compulsory=miss_curve.compulsory,
                    capacity=miss_curve.misses_at(capacities[index]),
                )
            )
        timing = TimingBreakdown(other_seconds=time.perf_counter() - start)
        return ModelResult(
            kernel=scop.name,
            level_results=level_results,
            per_access=[],
            timing=timing,
            used_fallback=used_fallback,
            miss_curve=miss_curve,
        )

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

