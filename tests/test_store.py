"""Persistent analysis store: hashing, backends, recovery, concurrency."""

import json
import multiprocessing
import os
import sqlite3

import pytest

from repro.core import CacheLevelSpec, CacheModel, MachineModel, ModelOptions
from repro.engine import BatchEngine, JobSpec
from repro.engine.store import (
    AnalysisStore,
    LocalDirBackend,
    PersistentCardinalityCache,
    SQLiteBackend,
    cardinality_digest,
    job_digest,
    make_store_spec,
    parse_store_spec,
    stable_digest,
    validate_store_env,
    validate_store_path,
)
from repro.isl.constraints import ConstraintSystem, ge, le
from repro.scop import ScopBuilder

LINE = 64

#: Both StoreBackend implementations run the whole conformance suite.
BACKENDS = ("dir", "sqlite")


def _machine(levels=(1024, 8192)):
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


def _flatten_recency(store):
    """Force every entry onto one identical recency stamp (both backends)."""
    backend = store.backend
    if isinstance(backend, LocalDirBackend):
        for entry in backend.entries():
            os.utime(backend._path(entry.namespace, entry.digest), ns=(10**9, 10**9))
    else:
        with backend._lock:
            backend._connection().execute("UPDATE entries SET recency_ns = ?", (10**9,))


# ----------------------------------------------------------------------
# Stable hashing
# ----------------------------------------------------------------------
class TestStableDigest:
    def test_frozenset_order_insensitive(self):
        a = stable_digest(frozenset([("x", 1), ("y", 2), ("z", 3)]))
        b = stable_digest(frozenset([("z", 3), ("x", 1), ("y", 2)]))
        assert a == b

    def test_distinct_values_distinct_digests(self):
        assert stable_digest(("gemm", 1)) != stable_digest(("gemm", 2))

    def test_counting_problem_digest_matches_canonical_form(self):
        system = ConstraintSystem([ge("i", 0), le("i", 9), ge("j", 0), le("j", "i")])
        reordered = ConstraintSystem([le("j", "i"), ge("j", 0), le("i", 9), ge("i", 0)])
        assert cardinality_digest(system, ["i", "j"]) == cardinality_digest(reordered, ["i", "j"])
        assert cardinality_digest(system, ["i", "j"]) != cardinality_digest(system, ["j", "i"])

    def test_job_digest_tracks_spec_identity(self):
        a = JobSpec(kernel="gemm", dataset="mini", levels=(1024,))
        b = JobSpec(kernel="gemm", dataset="mini", levels=(2048,))
        assert job_digest(a) == job_digest(JobSpec(kernel="gemm", dataset="mini", levels=(1024,)))
        assert job_digest(a) != job_digest(b)

    def test_scop_backed_job_digest(self):
        # Scop identities embed QPoly index expressions (and possibly Div
        # symbols); they must digest, and structurally equal scops must agree.
        a = JobSpec(kernel="transpose", scop=_transpose(), levels=(1024,))
        b = JobSpec(kernel="transpose", scop=_transpose(), levels=(1024,))
        c = JobSpec(kernel="transpose", scop=_transpose(9, 7), levels=(1024,))
        assert job_digest(a) == job_digest(b)
        assert job_digest(a) != job_digest(c)

    def test_scop_backed_job_digest_tracks_schedules(self):
        # The same two loops distributed (S1 after all of S0) and fused (S1
        # right after S0 in each iteration) differ only in S1's schedule and
        # miss differently, so they must never share a store entry.
        def program(s1_schedule):
            from repro.frontend import parser

            text = (
                "kernel sched\ndataset mini { N = 8 }\narray A[N] elem 64\narray B[N] elem 64\n"
                "S0: { [i] : 0 <= i < N }\n    schedule [0, i, 0]\n    B[i] = A[i]\n"
                f"S1: {{ [i] : 0 <= i < N }}\n    schedule {s1_schedule}\n    A[i] = B[i]\n"
            )
            kernel = parser.parse_kernel(text)
            return kernel.instantiate(kernel.dataset_sizes("mini"))

        distributed, fused = program("[1, i, 0]"), program("[0, i, 1]")
        a = JobSpec(kernel="sched", scop=distributed, levels=(512,))
        b = JobSpec(kernel="sched", scop=fused, levels=(512,))
        assert a.key() != b.key()
        assert job_digest(a) != job_digest(b)
        machine = MachineModel(levels=(CacheLevelSpec(512),))
        misses = [
            (level.compulsory, level.capacity)
            for scop in (distributed, fused)
            for level in CacheModel(machine, ModelOptions(symbolic_work_budget=1)).analyze(scop).level_results
        ]
        assert misses == [(16, 16), (16, 0)]

    def test_registry_job_digest_is_pinned(self):
        assert job_digest(JobSpec(kernel="gemm")) == "b3eaa812cbe0f20594db70933125369ca9c02aa673e12a3a69c2ebf491ad247f"

    def test_digest_stable_across_hash_seeds(self):
        # Frozenset iteration order depends on PYTHONHASHSEED; the digest
        # must not.  Recompute in subprocesses with forced distinct seeds.
        import subprocess
        import sys

        script = (
            "from repro.engine import JobSpec, job_digest;"
            "print(job_digest(JobSpec(kernel='gemm', dataset='mini', levels=(1024, 8192))))"
        )
        digests = set()
        for seed in ("0", "1", "12345"):
            output = subprocess.run(
                [sys.executable, "-c", script],
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
                capture_output=True,
                text=True,
                check=True,
                cwd=str(__import__("pathlib").Path(__file__).resolve().parent.parent),
            )
            digests.add(output.stdout.strip())
        assert len(digests) == 1


# ----------------------------------------------------------------------
# Store specs and eager validation
# ----------------------------------------------------------------------
class TestStoreSpecs:
    def test_plain_path_defaults_to_dir(self, tmp_path):
        assert parse_store_spec(str(tmp_path)) == ("dir", str(tmp_path))

    def test_prefix_forces_backend(self, tmp_path):
        assert parse_store_spec(f"dir:{tmp_path}") == ("dir", str(tmp_path))
        name, root = parse_store_spec(f"sqlite:{tmp_path}/db")
        assert (name, root) == ("sqlite", f"{tmp_path}/db")

    def test_sqlite_directory_root_gets_database_name(self, tmp_path):
        name, root = parse_store_spec(str(tmp_path), backend="sqlite")
        assert name == "sqlite" and root == str(tmp_path / "store.sqlite")

    def test_existing_database_file_autodetected(self, tmp_path):
        db = tmp_path / "hits.db"
        sqlite3.connect(db).close()
        assert parse_store_spec(str(db)) == ("sqlite", str(db))

    def test_env_backend_applies_to_unprefixed_paths(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_BACKEND", "sqlite")
        name, _ = parse_store_spec(str(tmp_path / "fresh"))
        assert name == "sqlite"
        # An explicit prefix still wins over the environment.
        assert parse_store_spec(f"dir:{tmp_path}")[0] == "dir"

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown store backend"):
            parse_store_spec(str(tmp_path), backend="redis")

    def test_make_store_spec_round_trips(self, tmp_path):
        spec = make_store_spec(tmp_path, "sqlite")
        assert parse_store_spec(spec) == ("sqlite", str(tmp_path / "store.sqlite"))

    def test_validate_rejects_file_as_dir_root(self, tmp_path):
        target = tmp_path / "store"
        target.write_text("not a directory")
        with pytest.raises(ValueError, match="is a file, not a directory"):
            validate_store_path(str(target))

    def test_validate_rejects_dir_as_sqlite_root_file(self, tmp_path):
        (tmp_path / "db").mkdir()
        (tmp_path / "db" / "x").write_text("")
        with pytest.raises(ValueError, match="not a regular file"):
            validate_store_path(f"sqlite:{tmp_path}/db/x/nested")

    @pytest.mark.skipif(os.geteuid() == 0, reason="root ignores permission bits")
    def test_validate_rejects_unwritable_parent(self, tmp_path):
        parent = tmp_path / "locked"
        parent.mkdir(mode=0o500)
        try:
            with pytest.raises(ValueError, match="not writable"):
                validate_store_path(str(parent / "store"))
        finally:
            parent.chmod(0o700)

    def test_validate_env_flags_bad_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_BACKEND", "redis")
        with pytest.raises(ValueError, match="REPRO_STORE_BACKEND"):
            validate_store_env()

    def test_validate_env_flags_bad_path(self, tmp_path, monkeypatch):
        target = tmp_path / "store"
        target.write_text("a file")
        monkeypatch.setenv("REPRO_STORE_PATH", str(target))
        with pytest.raises(ValueError, match="REPRO_STORE_PATH"):
            validate_store_env()

    def test_validate_env_accepts_clean_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_BACKEND", "dir")
        monkeypatch.setenv("REPRO_STORE_PATH", str(tmp_path / "fresh"))
        validate_store_env()


# ----------------------------------------------------------------------
# Backend conformance: the whole lifecycle on every StoreBackend
# ----------------------------------------------------------------------
@pytest.fixture(params=BACKENDS)
def store(request, tmp_path):
    return AnalysisStore(tmp_path, backend=request.param)


class TestBackendConformance:
    def test_round_trip_and_stats(self, store):
        assert store.get_cardinality("ab" * 32) is None
        store.put_cardinality("ab" * 32, 55)
        assert store.get_cardinality("ab" * 32) == 55
        stats = store.stats()
        assert (stats.hits, stats.misses, stats.writes) == (1, 1, 1)
        assert stats.hit_rate == 0.5

    def test_version_mismatch_invalidates(self, store, tmp_path):
        backend_name = store.backend.name
        writer = AnalysisStore(tmp_path, backend=backend_name, version="v1")
        writer.put_cardinality("cd" * 32, 7)
        reader = AnalysisStore(tmp_path, backend=backend_name, version="v2")
        assert reader.get_cardinality("cd" * 32) is None
        assert reader.stats().invalidations == 1
        # The stale entry was deleted, so the old version cannot resurrect it.
        stale = AnalysisStore(tmp_path, backend=backend_name, version="v1")
        assert stale.get_cardinality("cd" * 32) is None

    def test_corrupt_entry_recovered(self, store):
        store.put_cardinality("ef" * 32, 9)
        # Truncated mid-write (dir: partial file; sqlite: partial payload).
        store.backend.write("cardinality", "ef" * 32, '{"schema": 1, "version')
        assert store.get_cardinality("ef" * 32) is None
        assert store.stats().invalidations == 1
        assert store.backend.read("cardinality", "ef" * 32) is None
        # A rewrite repopulates cleanly.
        store.put_cardinality("ef" * 32, 9)
        assert store.get_cardinality("ef" * 32) == 9

    def test_non_json_garbage_recovered(self, store):
        store.backend.write("result", "aa" * 32, "\x00\xff garbage")
        assert store.get_result("aa" * 32) is None
        assert store.stats().invalidations == 1

    def test_atomic_publish_replaces_whole_entry(self, store):
        store.put_result("bb" * 32, {"round": 1})
        store.put_result("bb" * 32, {"round": 2, "extra": list(range(50))})
        assert store.get_result("bb" * 32) == {"round": 2, "extra": list(range(50))}
        # Overwrites never duplicate the entry.
        assert store.entry_count() == 1

    def test_lru_eviction_under_size_cap(self, store):
        store.max_bytes = 2_000
        for index in range(100):
            store.put_cardinality(f"{index:064d}", index)
        store._evict_lru()
        assert store.size_bytes() <= 2_000
        assert store.stats().evictions > 0
        assert store.entry_count() < 100

    def test_eviction_order_is_stable_for_same_tick_writes(self, store):
        """Entries published in the same recency tick (routine under the mp
        pool) must evict in a deterministic order: recency first, then the
        key tiebreak — never storage enumeration order."""
        store.max_bytes = 10_000
        for index in range(8):
            store.put_cardinality(f"{index:064d}", index)
        survivors = []
        for trial in range(2):
            _flatten_recency(store)
            store.max_bytes = store.size_bytes() - 1  # evict exactly the stalest
            store._evict_lru()
            survivors.append(sorted(entry.digest for entry in store.backend.entries()))
            if trial == 0:
                # Repopulate the evicted entry for the second trial.
                store.max_bytes = 10_000
                for index in range(8):
                    store.put_cardinality(f"{index:064d}", index)
        assert survivors[0] == survivors[1]
        # The key tiebreak means the lexicographically smallest digest went.
        assert f"{0:064d}" not in survivors[0]

    def test_reads_refresh_recency(self, store):
        store.put_cardinality("11" * 32, 1)
        store.put_cardinality("22" * 32, 2)
        _flatten_recency(store)
        assert store.get_cardinality("11" * 32) == 1  # touch bumps recency
        store.max_bytes = store.size_bytes() - 1
        store._evict_lru()
        digests = {entry.digest for entry in store.backend.entries()}
        assert digests == {"11" * 32}

    def test_invalid_size_cap_rejected(self, store, tmp_path):
        with pytest.raises(ValueError):
            AnalysisStore(tmp_path, backend=store.backend.name, max_bytes=0)

    def test_wipe(self, store):
        store.put_cardinality("11" * 32, 1)
        store.put_result("22" * 32, {"kernel": "x"})
        assert store.wipe() == 2
        assert store.entry_count() == 0

    def test_spec_reopens_same_entries(self, store, tmp_path):
        store.put_result("33" * 32, {"kernel": "gemm"})
        spec = make_store_spec(tmp_path, store.backend.name)
        reopened = AnalysisStore(spec)
        assert reopened.backend.name == store.backend.name
        assert reopened.get_result("33" * 32) == {"kernel": "gemm"}


class TestSQLiteBackend:
    def test_wal_mode_enabled(self, tmp_path):
        store = AnalysisStore(tmp_path, backend="sqlite")
        store.put_cardinality("ab" * 32, 1)
        mode = store.backend._connection().execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"

    def test_corrupt_database_recovered_on_write(self, tmp_path):
        db = tmp_path / "store.sqlite"
        db.write_bytes(b"this is not a sqlite database, honest\0" * 20)
        store = AnalysisStore(f"sqlite:{db}")
        assert store.get_cardinality("ab" * 32) is None  # reads degrade to misses
        store.put_cardinality("ab" * 32, 5)  # first write buries the corpse
        assert store.get_cardinality("ab" * 32) == 5


# ----------------------------------------------------------------------
# Persistent cardinality tier
# ----------------------------------------------------------------------
class TestPersistentCardinalityCache:
    def test_disk_tier_shared_across_instances(self, tmp_path):
        system = ConstraintSystem([ge("i", 0), le("i", 9), ge("j", 0), le("j", "i")])
        first = PersistentCardinalityCache(AnalysisStore(tmp_path))
        assert first.cardinality(system, ["i", "j"]) == 55
        assert (first.store_hits, first.store_misses) == (0, 1)
        second = PersistentCardinalityCache(AnalysisStore(tmp_path))
        assert second.cardinality(system, ["i", "j"]) == 55
        assert (second.store_hits, second.store_misses) == (1, 0)

    def test_model_results_identical_with_and_without_store(self, tmp_path):
        baseline = CacheModel(_machine()).analyze(_transpose())
        stored = CacheModel(_machine(), ModelOptions(store_path=str(tmp_path))).analyze(_transpose())
        rerun = CacheModel(_machine(), ModelOptions(store_path=str(tmp_path))).analyze(_transpose())
        reference = [level.to_dict() for level in baseline.level_results]
        assert [level.to_dict() for level in stored.level_results] == reference
        assert [level.to_dict() for level in rerun.level_results] == reference
        assert rerun.timing.store_hits > 0 and rerun.timing.store_misses == 0

    def test_sqlite_spec_flows_through_model_options(self, tmp_path):
        spec = make_store_spec(tmp_path, "sqlite")
        baseline = CacheModel(_machine()).analyze(_transpose())
        CacheModel(_machine(), ModelOptions(store_path=spec)).analyze(_transpose())
        rerun = CacheModel(_machine(), ModelOptions(store_path=spec)).analyze(_transpose())
        reference = [level.to_dict() for level in baseline.level_results]
        assert [level.to_dict() for level in rerun.level_results] == reference
        assert rerun.timing.store_hits > 0 and rerun.timing.store_misses == 0
        assert (tmp_path / "store.sqlite").is_file()


# ----------------------------------------------------------------------
# Incremental batch engine
# ----------------------------------------------------------------------
class TestIncrementalBatch:
    SPECS = staticmethod(
        lambda: [
            JobSpec(kernel="gemm", dataset="mini", symbolic_work_budget=200),
            JobSpec(kernel="atax", dataset="mini", symbolic_work_budget=200),
        ]
    )

    def test_warm_rerun_serves_from_store(self, tmp_path):
        cold = BatchEngine(1, store_path=str(tmp_path)).run(self.SPECS())
        assert cold.cached_count == 0 and cold.ok_count == 2
        warm = BatchEngine(1, store_path=str(tmp_path)).run(self.SPECS())
        assert warm.cached_count == 2 and warm.ok_count == 2
        assert [r.result.to_dict() for r in warm] == [r.result.to_dict() for r in cold]
        assert warm.store_stats["hits"] == 2

    def test_partial_matrix_change_recomputes_only_misses(self, tmp_path):
        BatchEngine(1, store_path=str(tmp_path)).run(self.SPECS())
        extended = self.SPECS() + [JobSpec(kernel="mvt", dataset="mini", symbolic_work_budget=200)]
        batch = BatchEngine(1, store_path=str(tmp_path)).run(extended)
        assert batch.cached_count == 2 and batch.ok_count == 3
        assert [record.cached for record in batch] == [True, True, False]

    def test_corrupt_result_entry_recomputed(self, tmp_path):
        store_path = str(tmp_path)
        BatchEngine(1, store_path=store_path).run(self.SPECS())
        store = AnalysisStore(store_path)
        digest = job_digest(self.SPECS()[0])
        path = store._entry_path("result", digest)
        path.write_text(json.dumps({"schema": 1, "version": store.version, "payload": {"bogus": 1}}))
        batch = BatchEngine(1, store_path=store_path).run(self.SPECS())
        assert batch.ok_count == 2
        assert [record.cached for record in batch] == [False, True]

    def test_parallel_matches_sequential_with_store(self, tmp_path):
        specs = [
            JobSpec(kernel=name, dataset="mini", symbolic_work_budget=200)
            for name in ("gemm", "atax", "bicg", "mvt")
        ]
        sequential = BatchEngine(1, store_path=str(tmp_path / "a")).run(specs)
        parallel = BatchEngine(4, store_path=str(tmp_path / "b")).run(specs)

        def signature(batch):
            return [
                (record.kernel, [level.to_dict() for level in record.result.level_results])
                for record in batch
            ]

        assert signature(parallel) == signature(sequential)

    def test_sqlite_store_spec_through_the_pool(self, tmp_path):
        spec = make_store_spec(tmp_path, "sqlite")
        cold = BatchEngine(2, store_path=spec).run(self.SPECS())
        assert cold.cached_count == 0 and cold.ok_count == 2
        warm = BatchEngine(2, store_path=spec).run(self.SPECS())
        assert warm.cached_count == 2
        assert [r.result.to_dict() for r in warm] == [r.result.to_dict() for r in cold]

    def test_store_less_engine_unchanged(self):
        batch = BatchEngine(1).run(self.SPECS())
        assert batch.store_stats is None and batch.cached_count == 0

    def test_warm_aggregates_count_only_this_runs_compute(self, tmp_path):
        # Cached records replay the cold run's timing counters; the batch
        # aggregates must not attribute that traffic to the warm run.
        spec = JobSpec(kernel="transpose", scop=_transpose(), levels=(1024, 8192), line_size=LINE)
        cold = BatchEngine(1, store_path=str(tmp_path)).run([spec])
        assert cold.cache_misses > 0
        warm = BatchEngine(1, store_path=str(tmp_path)).run([spec])
        assert warm.cached_count == 1
        assert warm.cache_hits == 0 and warm.cache_misses == 0
        assert warm.cardinality_store_hits == 0 and warm.cardinality_store_misses == 0
        # The per-record provenance is preserved, flagged as cached.
        assert warm.records[0].cached
        assert warm.records[0].result.timing.cardinality_cache_misses == cold.cache_misses


# ----------------------------------------------------------------------
# Concurrent writers (the multiprocessing pool contract, both backends)
# ----------------------------------------------------------------------
def _store_worker(args):
    spec, worker_id = args
    store = AnalysisStore(spec)
    # Everyone hammers one shared key and one private key.
    store.put_cardinality("ff" * 32, 123)
    store.put_cardinality(f"{worker_id:064x}", worker_id)
    shared = store.get_cardinality("ff" * 32)
    private = store.get_cardinality(f"{worker_id:064x}")
    return shared, private


class TestConcurrentWriters:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pool_writers_never_corrupt(self, tmp_path, backend):
        spec = make_store_spec(tmp_path, backend)
        with multiprocessing.Pool(processes=4) as pool:
            outcomes = pool.map(_store_worker, [(spec, i) for i in range(16)])
        assert all(shared == 123 for shared, _ in outcomes)
        assert [private for _, private in outcomes] == list(range(16))
        store = AnalysisStore(spec)
        assert store.get_cardinality("ff" * 32) == 123
        # 1 shared + 16 private entries, all intact.
        assert store.entry_count() == 17
