"""Batch analysis engine: parallel fan-out of analytical model runs.

The engine layer turns the one-kernel-at-a-time :class:`repro.core.CacheModel`
into a throughput-oriented service:

* :mod:`repro.engine.jobs` describes a *job matrix* (kernel x dataset x
  machine model x options) as picklable :class:`JobSpec` records,
* :mod:`repro.engine.batch` fans the jobs out across a ``multiprocessing``
  worker pool with deterministic result ordering and per-job error capture
  (one failed kernel never kills the batch),
* :mod:`repro.engine.cache` provides the per-job memoizing cardinality cache
  that the model threads through its first-touch and capacity counts,
* :mod:`repro.engine.store` adds the persistent, content-addressed disk tier
  behind both, one SQLite database: cardinality counts and whole model
  results survive across processes and runs, with code-version invalidation
  and an LRU size cap.

``repro.core`` imports :mod:`repro.engine.cache` while
:mod:`repro.engine.batch` imports ``repro.core``; the batch/jobs names are
therefore re-exported lazily to keep the import graph acyclic.
"""

from __future__ import annotations

from .cache import CardinalityCache, CardinalityCacheStats

__all__ = [
    "AnalysisStore",
    "BatchEngine",
    "BatchResult",
    "CardinalityCache",
    "CardinalityCacheStats",
    "JobError",
    "JobRecord",
    "JobSpec",
    "PersistentCardinalityCache",
    "StoreStats",
    "default_store_path",
    "expand_matrix",
    "job_digest",
    "stable_digest",
    "validate_store_env",
    "validate_store_path",
]

_LAZY = {
    "BatchEngine": "batch",
    "BatchResult": "batch",
    "JobError": "batch",
    "JobRecord": "batch",
    "JobSpec": "jobs",
    "expand_matrix": "jobs",
    "AnalysisStore": "store",
    "PersistentCardinalityCache": "store",
    "StoreStats": "store",
    "default_store_path": "store",
    "job_digest": "store",
    "stable_digest": "store",
    "validate_store_env": "store",
    "validate_store_path": "store",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
