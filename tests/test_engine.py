"""Batch engine, cardinality cache, and work-budget behaviour."""

import asyncio
import sys

import pytest
from test_model_vs_simulator import build_copy_kernel, build_stencil_1d

from repro.core import CacheLevelSpec, CacheModel, MachineModel, ModelOptions
from repro.core.results import ModelResult
from repro.engine import BatchEngine, BatchResult, CardinalityCache, JobSpec, expand_matrix
from repro.isl.constraints import ConstraintSystem, ge, le
from repro.isl.work import BudgetExhausted, WorkBudget
from repro.reporting.equivalence import normalize
from repro.scop import ScopBuilder

LINE = 64


def _machine(levels):
    return MachineModel(
        line_size=LINE,
        levels=tuple(CacheLevelSpec(size, f"L{i + 1}") for i, size in enumerate(levels)),
    )


def _transpose(n=8, m=7):
    b = ScopBuilder("transpose", context={"N": n, "M": m}, element_size=LINE)
    A = b.array("A", (n, m))
    B = b.array("B", (m, n))
    with b.loop("i", 0, n):
        with b.loop("j", 0, m):
            b.stmt(reads=[A[b.v("i"), b.v("j")]], writes=[B[b.v("j"), b.v("i")]])
    return b.build()


def _trisum(n=10):
    b = ScopBuilder("trisum", context={"N": n}, element_size=LINE)
    A = b.array("A", (n, n))
    s = b.array("s", (n,))
    with b.loop("i", 0, n):
        with b.loop("j", 0, b.v("i"), upper_inclusive=True):
            b.stmt(reads=[A[b.v("i"), b.v("j")], s[b.v("i")]], writes=[s[b.v("i")]])
    return b.build()


# ----------------------------------------------------------------------
# Cardinality cache
# ----------------------------------------------------------------------
class TestCardinalityCache:
    def test_cache_hits_and_equivalence(self):
        system = ConstraintSystem([ge("i", 0), le("i", 9), ge("j", 0), le("j", "i")])
        cache = CardinalityCache()
        first = cache.cardinality(system, ["i", "j"])
        assert first == 55
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)
        # A structurally equal system built in a different order hits.
        reordered = ConstraintSystem([le("j", "i"), ge("j", 0), le("i", 9), ge("i", 0)])
        assert cache.cardinality(reordered, ["i", "j"]) == 55
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        # Different count-variable order is a different problem statement.
        cache.cardinality(system, ["j", "i"])
        assert cache.stats.misses == 2

    def test_multi_level_analysis_has_nonzero_hit_rate(self):
        result = CacheModel(_machine((1024, 8192, 65536))).analyze(_transpose())
        timing = result.timing
        assert timing.cardinality_cache_hits > 0
        assert 0.0 < timing.cardinality_cache_hit_rate <= 1.0

    def test_cached_analysis_matches_trace_reference(self):
        options = ModelOptions(cross_check=True)
        result = CacheModel(_machine((1024, 8192)), options).analyze(_trisum())
        assert not result.used_fallback


# ----------------------------------------------------------------------
# Serialization round trip
# ----------------------------------------------------------------------
class TestResultSerialization:
    def test_model_result_round_trip(self):
        result = CacheModel(_machine((1024, 8192))).analyze(_transpose())
        data = result.to_dict()
        clone = ModelResult.from_dict(data)
        assert clone.to_dict() == data
        assert [level.misses for level in clone.level_results] == [
            level.misses for level in result.level_results
        ]
        assert clone.timing.cardinality_cache_hits == result.timing.cardinality_cache_hits
        assert len(clone.per_access) == len(result.per_access)


# ----------------------------------------------------------------------
# Batch engine
# ----------------------------------------------------------------------
class TestBatchEngine:
    def test_expand_matrix_order_and_options(self):
        jobs = expand_matrix(["gemm", "atax"], ["mini", "small"], [(1024,), (1024, 8192)])
        assert len(jobs) == 8
        assert [(j.kernel, j.dataset, j.levels) for j in jobs[:3]] == [
            ("gemm", "mini", (1024,)),
            ("gemm", "mini", (1024, 8192)),
            ("gemm", "small", (1024,)),
        ]
        with pytest.raises(ValueError):
            expand_matrix(["gemm"], options={"bogus": True})

    def test_inline_jobs_with_scops(self):
        specs = [
            JobSpec(kernel="transpose", scop=_transpose(), levels=(1024, 8192), line_size=LINE),
            JobSpec(kernel="trisum", scop=_trisum(), levels=(1024, 8192), line_size=LINE),
        ]
        batch = BatchEngine(jobs=1).run(specs)
        assert batch.ok_count == 2 and batch.error_count == 0
        assert [record.kernel for record in batch] == ["transpose", "trisum"]
        reference = CacheModel(_machine((1024, 8192))).analyze(_transpose())
        assert batch.records[0].result.misses() == reference.misses()

    def test_parallel_matches_sequential(self):
        specs = [
            JobSpec(kernel=name, scop=scop, levels=(1024, 8192), line_size=LINE)
            for name, scop in [
                ("transpose", _transpose()),
                ("trisum", _trisum()),
                ("transpose-9", _transpose(9, 5)),
                ("trisum-8", _trisum(8)),
            ]
        ]
        sequential = BatchEngine(jobs=1).run(specs)
        parallel = BatchEngine(jobs=4).run(specs)
        assert parallel.worker_count == 4

        def miss_signature(batch):
            return [
                (record.kernel, [level.to_dict() for level in record.result.level_results])
                for record in batch
            ]

        assert miss_signature(parallel) == miss_signature(sequential)

    def test_error_isolation(self):
        specs = [
            JobSpec(kernel="no-such-kernel", dataset="mini", levels=(1024,)),
            JobSpec(kernel="transpose", scop=_transpose(), levels=(1024,), line_size=LINE),
        ]
        batch = BatchEngine(jobs=1).run(specs)
        assert batch.error_count == 1 and batch.ok_count == 1
        failed, succeeded = batch.records
        assert failed.status == "error" and "no-such-kernel" in failed.error
        assert succeeded.result is not None

    def test_key_distinguishes_same_name_different_size(self):
        a = JobSpec(kernel="transpose", scop=_transpose(8, 7), levels=(1024,))
        b = JobSpec(kernel="transpose", scop=_transpose(9, 7), levels=(1024,))
        assert a.key() != b.key()

    def test_cross_check_travels_through_batch(self):
        spec = JobSpec(kernel="trisum", scop=_trisum(), levels=(1024,), line_size=LINE, cross_check=True)
        batch = BatchEngine(jobs=1).run([spec])
        assert batch.ok_count == 1 and not batch.records[0].used_fallback

    def test_batch_result_round_trip(self):
        specs = [JobSpec(kernel="transpose", scop=_transpose(), levels=(1024,), line_size=LINE)]
        batch = BatchEngine(jobs=1).run(specs)
        clone = BatchResult.from_dict(batch.to_dict())
        assert clone.to_dict() == batch.to_dict()
        assert clone.records[0].result.misses() == batch.records[0].result.misses()


# ----------------------------------------------------------------------
# Work budget
# ----------------------------------------------------------------------
class TestWorkBudget:
    def test_budget_trips_deterministically(self):
        scop = _trisum(12)
        options = ModelOptions(symbolic_work_budget=50)
        first = CacheModel(_machine((1024,)), options).analyze(scop)
        second = CacheModel(_machine((1024,)), options).analyze(scop)
        assert first.used_fallback and second.used_fallback
        assert [level.to_dict() for level in first.level_results] == [
            level.to_dict() for level in second.level_results
        ]
        # The fallback is exact: unbudgeted symbolic analysis agrees.
        exact = CacheModel(_machine((1024,))).analyze(scop)
        assert not exact.used_fallback
        assert first.misses() == exact.misses()
        assert first.compulsory() == exact.compulsory()

    def test_budget_without_fallback_raises(self):
        options = ModelOptions(symbolic_work_budget=50, fallback_to_simulation=False)
        with pytest.raises(BudgetExhausted):
            CacheModel(_machine((1024,)), options).analyze(_trisum(12))

    def test_generous_budget_does_not_trip(self):
        options = ModelOptions(symbolic_work_budget=1_000_000)
        result = CacheModel(_machine((1024,)), options).analyze(_transpose())
        assert not result.used_fallback

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            WorkBudget(0)

    def test_fallback_books_attempt_and_trace_in_other_seconds(self):
        options = ModelOptions(symbolic_work_budget=50)
        result = CacheModel(_machine((1024,)), options).analyze(_trisum(12))
        assert result.used_fallback
        assert result.timing.work_units_charged == 51
        assert result.timing.other_seconds > 0
        assert result.timing.stack_distance_seconds == 0
        assert result.timing.capacity_seconds == 0
        assert result.timing.total_seconds == result.timing.other_seconds

    def test_concurrent_analyses_charge_only_their_own_budget(self):
        # The server's path: analyses in worker threads of one process via
        # asyncio.to_thread.  The first job's budget trips part-way through.
        jobs = [
            (_trisum(10), 1500),
            (build_stencil_1d(40), None),
            (build_copy_kernel(40), None),
            (_transpose(), None),
        ]

        def run(job):
            scop, budget = job
            model = CacheModel(_machine((1024, 4096)), ModelOptions(symbolic_work_budget=budget))
            probe = model.symbolic_probe(scop)
            result = model.analyze(scop)
            return (
                probe.outcome,
                probe.work_units,
                normalize(probe.result.to_dict()) if probe.result else None,
                normalize(result.to_dict()),
            )

        async def run_concurrently():
            return await asyncio.gather(*(asyncio.to_thread(run, job) for job in jobs))

        sequential = [run(job) for job in jobs]
        assert [entry[:2] for entry in sequential] == [
            ("budget", 1501), ("ok", 380), ("ok", 16), ("ok", 24)
        ]
        # A short switch interval interleaves the threads densely.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            concurrent = asyncio.run(asyncio.wait_for(run_concurrently(), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert concurrent == sequential
