"""The unified analysis façade: :class:`Session` and :class:`AnalysisRequest`.

One object owns everything a run needs — machine model, model options, work
budget, worker pool size, and analysis-store path — and every entry point
(single analysis, batch matrix, streaming batch) flows through it::

    from repro.api import Session

    batch = (
        Session()
        .machine("paper-xeon")
        .budget(10_000)
        .workers(4)
        .kernels("gemm", "jacobi-2d")
        .datasets("small", "large")
        .run()
    )

    for record in Session().kernels("gemm").datasets("mini").run_iter():
        ...  # records stream in as the pool completes them

Kernel and machine names resolve through :mod:`repro.api.registry`, so
plugin-contributed kernels work everywhere a builtin does.  Configuration
methods validate eagerly and return the session, so a typo fails at the call
site instead of deep inside a worker process.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..core import CacheLevelSpec, CacheModel, MachineModel, ModelOptions
from ..core.results import ModelResult
from ..engine.batch import BatchEngine, BatchResult, JobRecord, default_worker_count
from ..engine.jobs import JobSpec
from ..scop import Scop

__all__ = ["AnalysisRequest", "Session", "SessionConfigError"]

#: ModelOptions switches settable through :meth:`Session.options`.
_OPTION_NAMES = (
    "equalization",
    "rasterization",
    "partial_enumeration",
    "fallback",
    "cross_check",
)


class SessionConfigError(ValueError):
    """Invalid session or request configuration (raised at the call site)."""


#: Sentinel distinguishing ``store()`` (use the default path) from an
#: explicit ``store(None)`` (disable the store).
_USE_DEFAULT_STORE = object()


def _coerce_levels(levels) -> Tuple[int, ...]:
    if isinstance(levels, int):
        levels = (levels,)
    try:
        sizes = tuple(int(size) for size in levels)
    except TypeError:
        raise SessionConfigError(
            f"cache levels must be an int or a sequence of ints, got {levels!r}"
        ) from None
    if not sizes or any(size <= 0 for size in sizes):
        raise SessionConfigError(f"cache level sizes must be positive, got {sizes!r}")
    if list(sizes) != sorted(sizes):
        raise SessionConfigError(
            f"cache levels must be ordered from smallest to largest, got {sizes!r}"
        )
    return sizes


class Session:
    """Owns the full configuration of analysis runs; entry point of the API.

    All configuration methods mutate the session and return it, so calls
    chain fluently.  :meth:`kernels` / :meth:`scops` open an
    :class:`AnalysisRequest` that inherits the session's configuration.
    """

    def __init__(self, machine: Union[str, MachineModel, None] = None) -> None:
        from . import registry

        # A bad $REPRO_STORE_PATH / $REPRO_STORE_BACKEND would otherwise
        # surface as a failure (or a silently disabled store) mid-analysis;
        # fail at session construction instead, with the offending value
        # named.
        from ..engine.store import validate_store_env

        try:
            validate_store_env()
        except ValueError as exc:
            raise SessionConfigError(str(exc)) from None
        self._registry = registry
        self._machine: MachineModel = (
            MachineModel() if machine is None else self._resolve_machine(machine)
        )
        self._budget: Optional[int] = None
        self._workers: int = 1
        self._store_path: Optional[str] = None
        self._backend: str = "numpy"
        self._capacities: Tuple[int, ...] = ()
        self._tiles: Tuple[int, ...] = ()
        self._line_sizes: Tuple[int, ...] = ()
        self._toggles = {
            "equalization": True,
            "rasterization": True,
            "partial_enumeration": True,
            "fallback": True,
            "cross_check": False,
        }

    # ------------------------------------------------------------------
    # Fluent configuration
    # ------------------------------------------------------------------
    def _resolve_machine(self, spec) -> MachineModel:
        if isinstance(spec, (tuple, list)):
            return MachineModel(
                levels=tuple(
                    CacheLevelSpec(size, f"L{index + 1}")
                    for index, size in enumerate(_coerce_levels(spec))
                )
            )
        return self._registry.resolve_machine(spec)

    def machine(self, spec: Union[str, MachineModel, Sequence[int]]) -> "Session":
        """Set the machine model: a registry name (``"paper-xeon"``), a
        :class:`MachineModel`, or a sequence of cache sizes in bytes."""
        self._machine = self._resolve_machine(spec)
        return self

    def budget(self, units: Optional[int]) -> "Session":
        """Deterministic symbolic work budget; ``None`` or ``0`` = unlimited."""
        if units is not None and units < 0:
            raise SessionConfigError(f"work budget must be >= 0 or None, got {units}")
        self._budget = units or None
        return self

    def backend(self, name: str) -> "Session":
        """Numeric backend for trace fallback, cross-check, simulator
        baselines and curve evaluation: ``"numpy"`` (vectorized, default) or
        ``"python"`` (the reference oracle).  Validated eagerly."""
        from ..isl.veceval import check_backend

        try:
            check_backend(name)
        except ValueError as exc:
            raise SessionConfigError(str(exc)) from None
        self._backend = name
        return self

    def sweep(self, capacities=None, *, tiles=None, line_sizes=None) -> "Session":
        """Configure sweep axes through the one shared parser (:mod:`repro.sweep`).

        Every axis accepts ints, iterables, ``"MIN:MAX[:POINTS]"`` range
        strings, and K/M/G-suffixed sizes — the same grammar as the CLI's
        ``--sweep`` and the server's ``capacities`` field.  ``capacities``
        become breakpoints of every result's :class:`~repro.core.MissCurve`
        (one counting pass serves the whole axis); ``tiles`` and
        ``line_sizes`` seed the default :class:`~repro.explore.DesignSpace`
        of :meth:`explore`.  ``None`` leaves an axis untouched; an empty
        spec (``()``) clears it.
        """
        if capacities is not None:
            self._capacities = self._clean_sizes(capacities, "capacities")
        if tiles is not None:
            cleaned = self._clean_sizes(tiles, "tiles")
            if any(tile < 1 for tile in cleaned):
                raise SessionConfigError(f"tiles must be >= 1, got {cleaned}")
            self._tiles = cleaned
        if line_sizes is not None:
            self._line_sizes = self._clean_sizes(line_sizes, "line_sizes")
        return self

    def _clean_sizes(self, sizes, label: str) -> Tuple[int, ...]:
        """Flatten, parse, and validate one sweep axis; sorted unique ints."""
        from ..sweep import Sweep, SweepError

        if not isinstance(sizes, (tuple, list, range, set, frozenset)):
            sizes = (sizes,)
        flat: List[int] = []
        for size in sizes:
            if isinstance(size, (tuple, list, range, set, frozenset)):
                flat.extend(size)
            else:
                flat.append(size)
        strings = [size for size in flat if isinstance(size, (str, Sweep))]
        numbers = [size for size in flat if not isinstance(size, (str, Sweep))]
        if any(isinstance(size, bool) for size in numbers):
            raise SessionConfigError(f"{label} must be cache sizes in bytes, got {sizes!r}")
        try:
            # operator.index rejects floats (no silent truncation of e.g.
            # 1.5 * KIB-style computed sizes) while accepting int-likes.
            cleaned = {operator.index(size) for size in numbers}
        except TypeError:
            raise SessionConfigError(
                f"{label} must be cache sizes in bytes, got {sizes!r}"
            ) from None
        for spec in strings:
            try:
                cleaned.update(Sweep.parse(spec, label=label).values)
            except SweepError as exc:
                raise SessionConfigError(str(exc)) from None
        ordered = sorted(cleaned)
        if ordered and ordered[0] <= 0:
            raise SessionConfigError(f"{label} must be positive byte sizes, got {ordered}")
        return tuple(ordered)

    def workers(self, count: Union[int, str]) -> "Session":
        """Worker-pool size for batch runs; ``"auto"`` picks a machine default."""
        if count == "auto":
            count = default_worker_count()
        if not isinstance(count, int) or count < 1:
            raise SessionConfigError(f"worker count must be >= 1 or 'auto', got {count!r}")
        self._workers = count
        return self

    def store(self, path=_USE_DEFAULT_STORE, *, backend: Optional[str] = None) -> "Session":
        """Enable the persistent analysis store.

        ``store()`` uses the default path (``$REPRO_STORE_PATH`` or the user
        cache directory); ``store(path)`` uses that path.  An explicit
        ``store(None)`` disables the store — so configuration values of the
        form ``store_path or None`` pass through with their
        :class:`~repro.engine.batch.BatchEngine` meaning intact.

        ``backend`` selects the storage backend (``"dir"`` / ``"sqlite"``;
        default: ``$REPRO_STORE_BACKEND`` or the directory backend).  The
        location is validated eagerly — a path that exists with the wrong
        type or an unwritable parent raises here, at the call site, instead
        of disabling the store deep inside a worker.  The stored path is a
        normalized ``backend:path`` spec, so workers and the server open the
        same backend with no extra plumbing.
        """
        from ..engine.store import default_store_path, validate_store_path

        if path is _USE_DEFAULT_STORE:
            path = default_store_path()
        elif path is None:
            self._store_path = None
            return self
        try:
            self._store_path = validate_store_path(str(path), backend)
        except ValueError as exc:
            raise SessionConfigError(str(exc)) from None
        return self

    def no_store(self) -> "Session":
        self._store_path = None
        return self

    def options(self, **toggles: bool) -> "Session":
        """Set model switches: ``equalization``, ``rasterization``,
        ``partial_enumeration``, ``fallback`` (trace fallback on symbolic
        failure), ``cross_check``."""
        unknown = set(toggles) - set(_OPTION_NAMES)
        if unknown:
            raise SessionConfigError(
                f"unknown model options: {', '.join(sorted(unknown))}; "
                f"available: {', '.join(_OPTION_NAMES)}"
            )
        for name, value in toggles.items():
            self._toggles[name] = bool(value)
        return self

    def configure(self, options: ModelOptions) -> "Session":
        """Adopt the switches of an existing :class:`ModelOptions` (migration aid)."""
        self._toggles.update(
            equalization=options.equalization,
            rasterization=options.rasterization,
            partial_enumeration=options.partial_enumeration,
            fallback=options.fallback_to_simulation,
            cross_check=options.cross_check,
        )
        self._budget = options.symbolic_work_budget
        if options.store_path:
            self._store_path = options.store_path
        self._backend = options.backend
        self._capacities = tuple(options.curve_capacities or ())
        return self

    # ------------------------------------------------------------------
    # Derived configuration
    # ------------------------------------------------------------------
    @property
    def machine_model(self) -> MachineModel:
        return self._machine

    @property
    def store_path(self) -> Optional[str]:
        return self._store_path

    @property
    def worker_count(self) -> int:
        return self._workers

    def model_options(self, *, fallback: Optional[bool] = None) -> ModelOptions:
        return ModelOptions(
            equalization=self._toggles["equalization"],
            rasterization=self._toggles["rasterization"],
            partial_enumeration=self._toggles["partial_enumeration"],
            fallback_to_simulation=(
                self._toggles["fallback"] if fallback is None else fallback
            ),
            cross_check=self._toggles["cross_check"],
            symbolic_work_budget=self._budget,
            store_path=self._store_path,
            backend=self._backend,
            curve_capacities=self._capacities or None,
        )

    def cache_model(self, *, fallback: Optional[bool] = None) -> CacheModel:
        """A :class:`CacheModel` bound to this session's machine and options."""
        return CacheModel(self._machine, self.model_options(fallback=fallback))

    def open_store(self):
        """The session's :class:`AnalysisStore` handle, or ``None``."""
        if not self._store_path:
            return None
        from ..engine.store import AnalysisStore

        return AnalysisStore(self._store_path)

    def job_spec(
        self,
        kernel: str,
        dataset: str = "mini",
        *,
        scop: Optional[Scop] = None,
        levels: Optional[Sequence[int]] = None,
    ) -> JobSpec:
        """The :class:`JobSpec` this session would run for one kernel/scop."""
        sizes = (
            _coerce_levels(levels)
            if levels is not None
            else tuple(level.size for level in self._machine.levels)
        )
        return JobSpec(
            kernel=kernel,
            dataset=dataset,
            scop=scop,
            line_size=self._machine.line_size,
            levels=sizes,
            fallback=self._toggles["fallback"],
            equalization=self._toggles["equalization"],
            rasterization=self._toggles["rasterization"],
            partial_enumeration=self._toggles["partial_enumeration"],
            symbolic_work_budget=self._budget,
            cross_check=self._toggles["cross_check"],
            backend=self._backend,
            curve_capacities=self._capacities,
        )

    # ------------------------------------------------------------------
    # Requests and runs
    # ------------------------------------------------------------------
    def kernels(self, *names: str) -> "AnalysisRequest":
        """Open a batch request over registered kernel names."""
        return AnalysisRequest(self).kernels(*names)

    def scops(self, *scops: Scop) -> "AnalysisRequest":
        """Open a batch request over pre-built :class:`Scop` programs."""
        return AnalysisRequest(self).scops(*scops)

    def kernel_file(self, path, *, replace: bool = True) -> "AnalysisRequest":
        """Parse a ``.knl`` kernel file, register it, and open a request on it.

        The file's kernel joins the registry under its own name with its own
        dataset blocks (source ``file:<basename>``), so every later call —
        by-name batches, the store, miss curves — sees it like a builtin::

            result = Session().machine("paper-xeon").kernel_file(
                "examples/kernels/gemm.knl").datasets("mini").run()

        ``replace=True`` (the default) lets re-parsing an edited file win over
        the previous registration.  Raises
        :class:`~repro.frontend.KernelParseError` on invalid input and
        ``OSError`` if the file cannot be read.
        """
        from ..frontend import register_kernel_file

        program = register_kernel_file(path, replace=replace)
        return self.kernels(program.name)

    def _engine(self) -> BatchEngine:
        return BatchEngine(self._workers, store_path=self._store_path)

    def run(
        self,
        specs: Sequence[JobSpec],
        *,
        progress: Optional[Callable[[JobRecord, int, int], None]] = None,
        error_policy: str = "continue",
    ) -> BatchResult:
        """Run explicit :class:`JobSpec` records through the session's pool."""
        return self._engine().run(specs, progress=progress, error_policy=error_policy)

    def run_iter(
        self,
        specs: Sequence[JobSpec],
        *,
        progress: Optional[Callable[[JobRecord, int, int], None]] = None,
        error_policy: str = "continue",
    ) -> Iterator[JobRecord]:
        """Stream :class:`JobRecord` results as the pool completes them."""
        return self._engine().run_iter(specs, progress=progress, error_policy=error_policy)

    def analyze(
        self,
        target: Union[str, Scop],
        dataset: Optional[str] = None,
        *,
        overrides=None,
    ) -> ModelResult:
        """Analyse one kernel (by registered name) or one :class:`Scop`.

        Honors the session's machine, options, budget, and store: with a
        store configured the result round-trips through it exactly like a
        batch job would.  Raises on analysis failure (batch runs capture
        errors per record instead).
        """
        if isinstance(target, Scop):
            if dataset is not None or overrides:
                raise SessionConfigError(
                    "dataset/overrides only apply to kernel names; "
                    "build the Scop with the desired sizes instead"
                )
            scop = target
            spec = self.job_spec(scop.name, scop=scop)
        else:
            entry = self._registry.get_kernel(target)
            dataset = dataset if dataset is not None else entry.datasets[0]
            scop = entry.build(dataset, overrides)
            # Size overrides change the program identity, so the spec must
            # carry the structural fingerprint instead of the kernel name.
            spec = (
                self.job_spec(target, dataset)
                if not overrides
                else self.job_spec(target, scop=scop)
            )
        store = self.open_store()
        digest = None
        if store is not None:
            from ..engine.store import job_digest

            digest = job_digest(spec)
            payload = store.get_result(digest)
            if payload is not None:
                try:
                    return ModelResult.from_dict(payload)
                except (KeyError, TypeError, ValueError):
                    pass
        result = self.cache_model().analyze(scop)
        if store is not None:
            store.put_result(digest, result.to_dict())
        return result

    def lint(
        self,
        target: Union[str, Scop],
        dataset: Optional[str] = None,
        *,
        cost: bool = True,
    ):
        """Statically verify one kernel (by registered name) or one :class:`Scop`.

        Runs every :mod:`repro.verify` check against the session's machine
        and model options and returns a
        :class:`~repro.verify.VerifyReport`; no cache-model analysis is
        performed.  ``cost=True`` (default) also runs the symbolic-cost
        probe under the session's budget, predicting whether an
        :meth:`analyze` call would trip it (its wall cost is bounded by
        that budget).
        """
        from ..verify import verify_scop

        if isinstance(target, Scop):
            if dataset is not None:
                raise SessionConfigError(
                    "dataset only applies to kernel names; "
                    "build the Scop with the desired sizes instead"
                )
            scop = target
        else:
            entry = self._registry.get_kernel(target)
            dataset = dataset if dataset is not None else entry.datasets[0]
            scop = entry.build(dataset)
        return verify_scop(
            scop,
            self._machine,
            dataset=dataset,
            budget=self._budget,
            cost=cost,
            options=self.model_options(),
        )

    def derive(self, *, machine=None, capacities=None) -> "Session":
        """A copy of this session with selected knobs replaced.

        Budget, backend, store, worker counts, and model toggles carry over;
        ``machine`` and ``capacities`` (when given) replace the originals.
        The explorer uses this to analyze each design-grid variant against
        its own single-level machine while sharing the parent's store.
        """
        clone = Session(machine if machine is not None else self._machine)
        clone._budget = self._budget
        clone._workers = self._workers
        clone._store_path = self._store_path
        clone._backend = self._backend
        clone._capacities = (
            self._capacities if capacities is None else tuple(capacities)
        )
        clone._tiles = self._tiles
        clone._line_sizes = self._line_sizes
        clone._toggles = dict(self._toggles)
        return clone

    def explore(
        self,
        target: Union[str, Scop],
        dataset: Optional[str] = None,
        *,
        space=None,
        tiles=None,
        capacities=None,
        line_sizes=None,
        associativities=None,
        overrides=None,
    ):
        """Walk a tile × capacity × line-size × associativity design grid.

        Pass a pre-built :class:`~repro.explore.DesignSpace` *or* per-axis
        sweep specs (ints, iterables, ``"MIN:MAX[:POINTS]"`` strings —
        anything :mod:`repro.sweep` parses).  Axes left unset fall back to
        the session's :meth:`sweep` configuration, then to the machine's
        hierarchy (capacities) and line size.  Returns a ranked
        :class:`~repro.explore.ExploreResult` whose Pareto front minimizes
        (predicted misses, hardware-cost proxy); the grid costs one analysis
        per (tile, line size) — capacities and associativities are free.
        """
        from ..explore import DesignSpace, DesignSpaceError, run_explore

        if space is not None:
            if any(axis is not None for axis in (tiles, capacities, line_sizes, associativities)):
                raise SessionConfigError(
                    "pass either a pre-built DesignSpace or axis specs, not both"
                )
        else:
            try:
                space = DesignSpace.from_specs(
                    tiles=tiles if tiles is not None else (self._tiles or None),
                    capacities=(
                        capacities if capacities is not None else (self._capacities or None)
                    ),
                    line_sizes=(
                        line_sizes if line_sizes is not None else (self._line_sizes or None)
                    ),
                    associativities=associativities,
                )
            except DesignSpaceError as exc:
                raise SessionConfigError(str(exc)) from None
        if isinstance(target, Scop):
            if dataset is not None or overrides:
                raise SessionConfigError(
                    "dataset/overrides only apply to kernel names; "
                    "build the Scop with the desired sizes instead"
                )
            scop, kernel = target, target.name
        else:
            entry = self._registry.get_kernel(target)
            dataset = dataset if dataset is not None else entry.datasets[0]
            scop, kernel = entry.build(dataset, overrides), target
        try:
            return run_explore(self, scop, space, kernel=kernel, dataset=dataset)
        except DesignSpaceError as exc:
            raise SessionConfigError(str(exc)) from None

    def miss_curve(
        self,
        target: Union[str, Scop],
        dataset: Optional[str] = None,
        *,
        capacities: Optional[Sequence[int]] = None,
        overrides=None,
    ):
        """Miss curve of one kernel or :class:`Scop`: every cache size from
        one analysis.

        ``capacities`` (bytes, or any :meth:`sweep` spec) adds sweep
        breakpoints for this and later runs, like :meth:`sweep`.  The
        analysis flows through :meth:`analyze`, so the store caches the
        curve together with the per-level counts, and trace-fallback results
        return a curve that is exact at *every* capacity.
        """
        if capacities is not None:
            self.sweep(capacities=capacities)
        result = self.analyze(target, dataset, overrides=overrides)
        if result.miss_curve is None:
            raise SessionConfigError(
                "analysis result carries no miss curve (stale payload from an "
                "older schema?); re-run without the store or wipe it"
            )
        return result.miss_curve

    def build_scop(
        self, kernel: str, dataset: str = "mini", *, overrides=None
    ) -> Scop:
        """Instantiate a registered kernel (registry lookup + dataset sizes)."""
        return self._registry.get_kernel(kernel).build(dataset, overrides)

    def __repr__(self) -> str:
        levels = "+".join(str(level.size) for level in self._machine.levels)
        return (
            f"Session(machine={levels}@{self._machine.line_size}B, "
            f"budget={self._budget}, workers={self._workers}, "
            f"store={self._store_path or 'off'}, backend={self._backend})"
        )


class AnalysisRequest:
    """Fluent description of a batch: kernels/scops x datasets x level sets.

    Built by :meth:`Session.kernels` / :meth:`Session.scops`; the cross
    product expands in deterministic row-major order (kernels outermost,
    then datasets, then level sets, then explicit scops), so batch results
    are reproducible regardless of worker count.
    """

    def __init__(self, session: Session) -> None:
        self._session = session
        self._kernels: List[str] = []
        self._scops: List[Scop] = []
        self._datasets: Optional[List[str]] = None
        self._level_sets: Optional[List[Tuple[int, ...]]] = None

    def kernels(self, *names: str) -> "AnalysisRequest":
        """Add kernels by registered name (validated immediately)."""
        for name in names:
            self._session._registry.get_kernel(name)  # raises RegistryError on typos
            self._kernels.append(name)
        return self

    def scops(self, *scops: Scop) -> "AnalysisRequest":
        for scop in scops:
            if not isinstance(scop, Scop):
                raise SessionConfigError(
                    f"scops() takes Scop instances, got {type(scop).__name__}"
                )
            self._scops.append(scop)
        return self

    def datasets(self, *names: str) -> "AnalysisRequest":
        """Dataset classes to sweep (default: each kernel's first dataset)."""
        if not names:
            raise SessionConfigError("datasets() needs at least one dataset name")
        self._datasets = list(names)
        return self

    def levels(self, *level_sets: Union[int, Iterable[int]]) -> "AnalysisRequest":
        """Cache-hierarchy sweeps: each argument is one set of level sizes in
        bytes (default: the session machine's hierarchy)."""
        if not level_sets:
            raise SessionConfigError("levels() needs at least one level set")
        self._level_sets = [_coerce_levels(levels) for levels in level_sets]
        return self

    def specs(self) -> List[JobSpec]:
        """Expand the request into :class:`JobSpec` records (validating it)."""
        if not self._kernels and not self._scops:
            raise SessionConfigError(
                "nothing to analyse: add kernels(...) or scops(...) before running"
            )
        session = self._session
        level_sets = self._level_sets or [
            tuple(level.size for level in session.machine_model.levels)
        ]
        specs: List[JobSpec] = []
        for name in self._kernels:
            entry = session._registry.get_kernel(name)
            datasets = self._datasets or [entry.datasets[0]]
            # Builtins and entry-point plugins re-resolve by name inside pool
            # workers, but a kernel registered programmatically in *this*
            # process (source "user", or "file:*" from the kernel frontend)
            # is invisible to spawn-started workers — ship the built scop in
            # the spec so multi-worker runs stay platform-independent
            # (single-worker runs keep building lazily in the inline path).
            ship_scop = (
                entry.source != "builtin"
                and not entry.source.startswith("plugin")
                and session.worker_count > 1
            )
            for dataset in datasets:
                if dataset not in entry.datasets:
                    raise SessionConfigError(
                        f"kernel {name!r} has no dataset {dataset!r}; "
                        f"available: {', '.join(entry.datasets)}"
                    )
                scop = entry.build(dataset) if ship_scop else None
                for levels in level_sets:
                    specs.append(session.job_spec(name, dataset, scop=scop, levels=levels))
        for scop in self._scops:
            for levels in level_sets:
                specs.append(session.job_spec(scop.name, scop=scop, levels=levels))
        return specs

    def run(
        self,
        *,
        progress: Optional[Callable[[JobRecord, int, int], None]] = None,
        error_policy: str = "continue",
    ) -> BatchResult:
        """Run the request through the session's worker pool."""
        return self._session.run(self.specs(), progress=progress, error_policy=error_policy)

    def run_iter(
        self,
        *,
        progress: Optional[Callable[[JobRecord, int, int], None]] = None,
        error_policy: str = "continue",
    ) -> Iterator[JobRecord]:
        """Stream records as they complete (see :meth:`BatchEngine.run_iter`)."""
        return self._session.run_iter(
            self.specs(), progress=progress, error_policy=error_policy
        )

    def __repr__(self) -> str:
        parts = [f"kernels={self._kernels!r}"]
        if self._scops:
            parts.append(f"scops={[scop.name for scop in self._scops]!r}")
        if self._datasets:
            parts.append(f"datasets={self._datasets!r}")
        if self._level_sets:
            parts.append(f"levels={self._level_sets!r}")
        return f"AnalysisRequest({', '.join(parts)})"
