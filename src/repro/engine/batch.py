"""Parallel fan-out of analytical model jobs over a worker pool.

:class:`BatchEngine` takes a list of :class:`~repro.engine.jobs.JobSpec`
records and runs them either inline (``jobs=1``) or across a
``multiprocessing`` pool.  Three invariants hold regardless of worker count:

* **deterministic ordering** — results come back in job-list order
  (``Pool.map`` preserves it), so a parallel batch is byte-identical to the
  sequential one;
* **error isolation** — exceptions are caught inside the worker and recorded
  on the :class:`JobRecord`; one failed kernel never kills the batch;
* **per-job caching** — every job runs with a fresh
  :class:`~repro.engine.cache.CardinalityCache` whose hit/miss statistics
  travel back in the result's :class:`~repro.core.results.TimingBreakdown`.

With a configured :class:`~repro.engine.store.AnalysisStore` path the engine
is additionally **incremental**: before dispatching, every job's
content-addressed digest (:func:`~repro.engine.store.job_digest`) is looked
up in the store, hits become cached :class:`JobRecord` entries without
touching the pool, and only the misses are computed (their results are
written back for the next run).  Workers open their own store handle for the
persistent cardinality tier, so even a cold job benefits from counts derived
by earlier runs or sibling workers.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core import CacheLevelSpec, CacheModel, MachineModel, ModelOptions
from ..core.results import ModelResult
from .jobs import JobSpec
from .store import AnalysisStore, job_digest

__all__ = ["BatchEngine", "BatchResult", "JobError", "JobRecord"]

#: JSON schema version of the serialized batch payload.  Version 3 added
#: ``schema_version`` to the embedded model results and the ``index`` field
#: on job records; readers tolerate older payloads (missing fields get
#: defaults) and reject newer ones.
SCHEMA_VERSION = 3

#: Error policies accepted by :meth:`BatchEngine.run_iter`.
ERROR_POLICIES = ("continue", "stop", "raise")


class JobError(RuntimeError):
    """Raised by ``error_policy="raise"`` when a job records a failure."""

    def __init__(self, record: "JobRecord") -> None:
        super().__init__(f"job {record.kernel}/{record.dataset} failed: {record.error}")
        self.record = record


@dataclass
class JobRecord:
    """Outcome of one job: either a :class:`ModelResult` or a captured error."""

    kernel: str
    dataset: str
    levels: List[int]
    line_size: int
    status: str = "ok"
    error: str = ""
    elapsed_seconds: float = 0.0
    result: Optional[ModelResult] = None
    #: True when the result was served from the persistent analysis store
    #: instead of being computed by this run.
    cached: bool = False
    #: Position in the submitted spec list (streaming consumers receive
    #: records in completion order and use this to re-establish job order);
    #: ``-1`` when the record was built outside an engine run.
    index: int = -1

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def used_fallback(self) -> bool:
        return bool(self.result is not None and self.result.used_fallback)

    def to_dict(self) -> Dict:
        return {
            "kernel": self.kernel,
            "dataset": self.dataset,
            "levels": list(self.levels),
            "line_size": self.line_size,
            "status": self.status,
            "error": self.error,
            "elapsed_seconds": self.elapsed_seconds,
            "cached": self.cached,
            "index": self.index,
            "result": self.result.to_dict() if self.result is not None else None,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "JobRecord":
        result = data.get("result")
        return cls(
            kernel=data["kernel"],
            dataset=data["dataset"],
            levels=list(data["levels"]),
            line_size=data["line_size"],
            status=data["status"],
            error=data.get("error", ""),
            elapsed_seconds=data.get("elapsed_seconds", 0.0),
            cached=data.get("cached", False),
            index=data.get("index", -1),
            result=ModelResult.from_dict(result) if result is not None else None,
        )


@dataclass
class BatchResult:
    """Structured outcome of one batch run (job-list order preserved)."""

    records: List[JobRecord] = field(default_factory=list)
    worker_count: int = 1
    elapsed_seconds: float = 0.0
    #: Result-store counters of this run (``AnalysisStore.stats()`` as a
    #: dict) or ``None`` when the engine ran store-less.
    store_stats: Optional[Dict[str, int]] = None

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def ok_count(self) -> int:
        return sum(1 for record in self.records if record.ok)

    @property
    def error_count(self) -> int:
        return len(self.records) - self.ok_count

    @property
    def fallback_count(self) -> int:
        return sum(1 for record in self.records if record.used_fallback)

    @property
    def cache_hits(self) -> int:
        """Cardinality-cache hits of the work *this run* performed.

        Records served whole from the result store carry the counters of the
        run that originally computed them; summing those here would attribute
        historical traffic to this run, so cached records are excluded (the
        same holds for the other aggregate counters below).
        """
        return sum(
            r.result.timing.cardinality_cache_hits for r in self.records if r.result and not r.cached
        )

    @property
    def cache_misses(self) -> int:
        return sum(
            r.result.timing.cardinality_cache_misses for r in self.records if r.result and not r.cached
        )

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def cached_count(self) -> int:
        """Jobs served whole from the persistent result store."""
        return sum(1 for record in self.records if record.cached)

    @property
    def cardinality_store_hits(self) -> int:
        return sum(
            r.result.timing.store_hits for r in self.records if r.result and not r.cached
        )

    @property
    def cardinality_store_misses(self) -> int:
        return sum(
            r.result.timing.store_misses for r in self.records if r.result and not r.cached
        )

    def results(self) -> List[Optional[ModelResult]]:
        """Model results in job order (``None`` for failed jobs)."""
        return [record.result for record in self.records]

    def to_dict(self) -> Dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "worker_count": self.worker_count,
            "elapsed_seconds": self.elapsed_seconds,
            "store_stats": dict(self.store_stats) if self.store_stats is not None else None,
            "jobs": [record.to_dict() for record in self.records],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "BatchResult":
        version = data.get("schema_version", 1)
        if isinstance(version, int) and version > SCHEMA_VERSION:
            raise ValueError(
                f"batch payload has schema_version {version}; this build reads <= {SCHEMA_VERSION}"
            )
        store_stats = data.get("store_stats")
        return cls(
            records=[JobRecord.from_dict(entry) for entry in data.get("jobs", [])],
            worker_count=data.get("worker_count", 1),
            elapsed_seconds=data.get("elapsed_seconds", 0.0),
            store_stats=dict(store_stats) if store_stats is not None else None,
        )


def _blank_record(spec: JobSpec) -> JobRecord:
    return JobRecord(
        kernel=spec.kernel,
        dataset=spec.dataset if spec.scop is None else "-",
        levels=list(spec.levels),
        line_size=spec.line_size,
    )


def _execute_job(payload: Tuple[int, JobSpec, Optional[str]]) -> JobRecord:
    """Worker entry point: run one job, capturing any failure on the record.

    Module-level so it pickles for the pool; must stay side-effect free
    apart from the returned record (and the shared analysis store, whose
    writes are atomic and idempotent).  The store path travels alongside the
    spec — it configures the run but is not part of the job's identity.  The
    index rides along so unordered streaming results can be re-sequenced.
    """
    index, spec, store_path = payload
    record = _blank_record(spec)
    record.index = index
    start = time.perf_counter()
    try:
        if spec.scop is not None:
            scop = spec.scop
        else:
            # Registry lookup (not the hardcoded PolyBench dict): registered
            # and plugin-discovered kernels are batch-runnable like builtins.
            from ..api import registry

            scop = registry.get_kernel(spec.kernel).build(spec.dataset)
        machine = MachineModel(
            line_size=spec.line_size,
            levels=tuple(
                CacheLevelSpec(size, f"L{index + 1}") for index, size in enumerate(spec.levels)
            ),
        )
        options = ModelOptions(
            partial_enumeration=spec.partial_enumeration,
            fallback_to_simulation=spec.fallback,
            symbolic_work_budget=spec.symbolic_work_budget,
            cross_check=spec.cross_check,
            store_path=store_path,
            backend=spec.backend,
            curve_capacities=spec.curve_capacities or None,
        )
        record.result = CacheModel(machine, options).analyze(scop)
    except Exception as exc:  # noqa: BLE001 - error isolation is the contract
        record.status = "error"
        record.error = f"{type(exc).__name__}: {exc}"
    record.elapsed_seconds = time.perf_counter() - start
    return record


def default_worker_count() -> int:
    """Worker count when the caller does not specify one (capped at 4)."""
    return max(1, min(4, (os.cpu_count() or 1)))


class BatchEngine:
    """Runs a job matrix across a worker pool with deterministic ordering.

    With ``store_path`` set, runs are incremental: jobs whose digest is
    already in the persistent store come back as ``cached`` records and only
    the misses are dispatched to the pool.

    :meth:`run_iter` is the streaming primitive — it yields every
    :class:`JobRecord` the moment it exists (store hits first, then computed
    records in completion order).  :meth:`run` is built on top of it and
    re-establishes job-list order, so a parallel batch stays byte-identical
    to the sequential one.
    """

    def __init__(self, jobs: int = 1, store_path: Optional[str] = None) -> None:
        if jobs < 1:
            raise ValueError(f"worker count must be >= 1, got {jobs}")
        self.jobs = jobs
        self.store_path = store_path

    def run(
        self,
        specs: Sequence[JobSpec],
        *,
        progress: Optional[Callable[[JobRecord, int, int], None]] = None,
        error_policy: str = "continue",
    ) -> BatchResult:
        start = time.perf_counter()
        specs = list(specs)
        store = AnalysisStore(self.store_path) if self.store_path else None
        records = sorted(
            self._run_iter(specs, store, progress=progress, error_policy=error_policy),
            key=lambda record: record.index,
        )
        computed = sum(1 for record in records if not record.cached)
        return BatchResult(
            records=records,
            worker_count=min(self.jobs, computed) or 1,
            elapsed_seconds=time.perf_counter() - start,
            store_stats=store.stats().as_dict() if store is not None else None,
        )

    def run_iter(
        self,
        specs: Sequence[JobSpec],
        *,
        progress: Optional[Callable[[JobRecord, int, int], None]] = None,
        error_policy: str = "continue",
    ) -> Iterator[JobRecord]:
        """Yield job records as they complete (streaming counterpart of ``run``).

        Records served from the persistent store come first, in spec order;
        computed records follow in completion order (``record.index`` maps
        them back to their spec).  ``progress(record, done, total)`` is
        invoked before each yield.  ``error_policy`` decides what a failed
        job does to the rest of the batch:

        * ``"continue"`` (default) — yield the error record and keep going;
        * ``"stop"`` — yield the error record, then stop dispatching;
        * ``"raise"`` — raise :class:`JobError` (the record rides on it).
        """
        store = AnalysisStore(self.store_path) if self.store_path else None
        return self._run_iter(list(specs), store, progress=progress, error_policy=error_policy)

    def _run_iter(
        self,
        specs: List[JobSpec],
        store: Optional[AnalysisStore],
        *,
        progress: Optional[Callable[[JobRecord, int, int], None]],
        error_policy: str,
    ) -> Iterator[JobRecord]:
        if error_policy not in ERROR_POLICIES:
            raise ValueError(
                f"unknown error_policy {error_policy!r}; choose from {', '.join(ERROR_POLICIES)}"
            )
        total = len(specs)
        done = 0
        digests: List[Optional[str]] = [None] * total
        cached: List[JobRecord] = []
        pending: List[int] = []
        for index, spec in enumerate(specs):
            record = None
            if store is not None:
                digests[index] = job_digest(spec)
                payload = store.get_result(digests[index])
                if payload is not None:
                    record = _record_from_store(spec, payload)
            if record is None:
                pending.append(index)
            else:
                record.index = index
                cached.append(record)
        for record in cached:
            done += 1
            if progress is not None:
                progress(record, done, total)
            yield record
        if not pending:
            return
        worker_count = min(self.jobs, len(pending))
        payloads = [(index, specs[index], self.store_path) for index in pending]
        pool = None
        if worker_count == 1:
            # Lazy inline execution: each job runs only when the consumer
            # advances the iterator, so partial results stream immediately.
            results: Iterator[JobRecord] = map(_execute_job, payloads)
        else:
            pool = multiprocessing.Pool(processes=worker_count)
            results = pool.imap_unordered(_execute_job, payloads, chunksize=1)
        try:
            for record in results:
                if store is not None and record.ok and record.result is not None:
                    store.put_result(digests[record.index], record.result.to_dict())
                done += 1
                if progress is not None:
                    progress(record, done, total)
                if not record.ok and error_policy == "raise":
                    raise JobError(record)
                yield record
                if not record.ok and error_policy == "stop":
                    return
        finally:
            if pool is not None:
                pool.terminate()
                pool.join()


def _record_from_store(spec: JobSpec, payload: Dict) -> Optional[JobRecord]:
    """Cached JobRecord from a persisted result payload (None if undecodable)."""
    try:
        result = ModelResult.from_dict(payload)
    except (KeyError, TypeError, ValueError):
        return None
    record = _blank_record(spec)
    record.result = result
    record.cached = True
    return record

