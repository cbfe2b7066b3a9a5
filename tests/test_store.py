"""Persistent analysis store: hashing, store paths, recovery, concurrency."""

import json
import multiprocessing
import os
import sqlite3
from contextlib import closing

import pytest

from repro.core import CacheLevelSpec, CacheModel, MachineModel, ModelOptions
from repro.engine import BatchEngine, JobSpec
from repro.engine.store import (
    AnalysisStore,
    PersistentCardinalityCache,
    cardinality_digest,
    code_version,
    job_digest,
    stable_digest,
    validate_store_env,
    validate_store_path,
)
from repro.isl.constraints import ConstraintSystem, ge, le
from repro.scop import ScopBuilder

LINE = 64

#: The two ways to name a store: a directory that holds ``store.sqlite``
#: (``dir``) or the database file itself (``sqlite``).  The whole
#: conformance suite runs on both.
PATH_FORMS = ("dir", "sqlite")


def _store_path(form, tmp_path):
    return tmp_path if form == "dir" else tmp_path / "hits.db"


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
    """Force every entry onto one identical recency stamp."""
    store._execute("UPDATE entries SET recency_ns = ?", (10**9,))


def _digests(store):
    return sorted(digest for (digest,) in store._execute("SELECT digest FROM entries"))


def _payload(store, namespace, digest):
    rows = store._execute("SELECT payload FROM entries WHERE namespace = ? AND digest = ?", (namespace, digest))
    return rows[0][0] if rows else None


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
        assert job_digest(JobSpec(kernel="gemm")) == "fe2647259b1faf2ec1816b500b7008db1802bbb07cf104d53b3ef75c78b1fe55"

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
# Store paths and eager validation
# ----------------------------------------------------------------------
class TestStoreSpecs:
    def test_sqlite_directory_root_gets_database_name(self, tmp_path):
        assert validate_store_path(str(tmp_path)) == str(tmp_path / "store.sqlite")
        assert AnalysisStore(tmp_path).path == tmp_path / "store.sqlite"
        # A path that does not exist yet names the database file itself.
        assert validate_store_path(str(tmp_path / "fresh")) == str(tmp_path / "fresh")

    def test_existing_database_file_autodetected(self, tmp_path):
        db = tmp_path / "hits.db"
        writer = AnalysisStore(db)
        writer.put_cardinality("ab" * 32, 3)
        assert validate_store_path(str(db)) == str(db)
        assert AnalysisStore(validate_store_path(str(db))).get_cardinality("ab" * 32) == 3

    def test_validate_rejects_non_database_file(self, tmp_path):
        # The store moves a corrupt database aside on its first write, so a file
        # that is not one must never become the store.
        target = tmp_path / "notes.txt"
        target.write_text("not a database")
        with pytest.raises(ValueError, match="not a SQLite database"):
            validate_store_path(str(target))
        assert target.read_text() == "not a database"
        (tmp_path / "store.sqlite").mkdir()
        with pytest.raises(ValueError, match="not a regular file"):
            validate_store_path(str(tmp_path))

    def test_validate_rejects_dir_as_sqlite_root_file(self, tmp_path):
        (tmp_path / "db").mkdir()
        (tmp_path / "db" / "x").write_text("")
        with pytest.raises(ValueError, match="not a regular file"):
            validate_store_path(f"{tmp_path}/db/x/nested")

    @pytest.mark.skipif(os.geteuid() == 0, reason="root ignores permission bits")
    def test_validate_rejects_unwritable_parent(self, tmp_path):
        parent = tmp_path / "locked"
        parent.mkdir(mode=0o500)
        try:
            with pytest.raises(ValueError, match="not writable"):
                validate_store_path(str(parent / "store"))
        finally:
            parent.chmod(0o700)

    def test_validate_env_flags_bad_path(self, tmp_path, monkeypatch):
        target = tmp_path / "store"
        target.write_text("a file")
        monkeypatch.setenv("REPRO_STORE_PATH", str(target))
        with pytest.raises(ValueError, match="REPRO_STORE_PATH"):
            validate_store_env()

    def test_validate_env_accepts_clean_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_PATH", str(tmp_path / "fresh"))
        validate_store_env()


# ----------------------------------------------------------------------
# Conformance: the whole lifecycle, through either form of store path
# ----------------------------------------------------------------------
@pytest.fixture(params=PATH_FORMS)
def form(request):
    return request.param


@pytest.fixture
def store(form, tmp_path):
    return AnalysisStore(_store_path(form, tmp_path))


class TestBackendConformance:
    def test_round_trip_and_stats(self, store):
        assert store.get_cardinality("ab" * 32) is None
        store.put_cardinality("ab" * 32, 55)
        assert store.get_cardinality("ab" * 32) == 55
        stats = store.stats()
        assert (stats.hits, stats.misses, stats.writes) == (1, 1, 1)
        assert stats.hit_rate == 0.5

    def test_version_mismatch_invalidates(self, form, tmp_path):
        path = _store_path(form, tmp_path)
        writer = AnalysisStore(path, version="v1")
        writer.put_cardinality("cd" * 32, 7)
        reader = AnalysisStore(path, version="v2")
        assert reader.get_cardinality("cd" * 32) is None
        assert reader.stats().invalidations == 1
        # The stale entry was deleted, so the old version cannot resurrect it.
        stale = AnalysisStore(path, version="v1")
        assert stale.get_cardinality("cd" * 32) is None

    def test_corrupt_entry_recovered(self, store):
        store.put_cardinality("ef" * 32, 9)
        # A truncated payload.
        store._write("cardinality", "ef" * 32, '{"schema": 1, "version')
        assert store.get_cardinality("ef" * 32) is None
        assert store.stats().invalidations == 1
        assert _payload(store, "cardinality", "ef" * 32) is None
        # A rewrite repopulates cleanly.
        store.put_cardinality("ef" * 32, 9)
        assert store.get_cardinality("ef" * 32) == 9

    def test_non_json_garbage_recovered(self, store):
        store._write("result", "aa" * 32, "\x00\xff garbage")
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
            survivors.append(_digests(store))
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
        assert _digests(store) == ["11" * 32]

    def test_invalid_size_cap_rejected(self, form, tmp_path):
        with pytest.raises(ValueError):
            AnalysisStore(_store_path(form, tmp_path), max_bytes=0)

    def test_wipe(self, store):
        store.put_cardinality("11" * 32, 1)
        store.put_result("22" * 32, {"kernel": "x"})
        assert store.wipe() == 2
        assert store.entry_count() == 0

    def test_spec_reopens_same_entries(self, store, form, tmp_path):
        store.put_result("33" * 32, {"kernel": "gemm"})
        path = validate_store_path(str(_store_path(form, tmp_path)))
        reopened = AnalysisStore(path)
        assert reopened.path == store.path
        assert reopened.get_result("33" * 32) == {"kernel": "gemm"}


class TestSQLiteBackend:
    def test_wal_mode_enabled(self, tmp_path):
        store = AnalysisStore(tmp_path)
        store.put_cardinality("ab" * 32, 1)
        assert store._execute("PRAGMA journal_mode") == [("wal",)]

    def test_corrupt_database_recovered_on_write(self, tmp_path):
        db = tmp_path / "store.sqlite"
        db.write_bytes(b"this is not a sqlite database, honest\0" * 20)
        store = AnalysisStore(db)
        assert store.get_cardinality("ab" * 32) is None  # reads degrade to misses
        store.put_cardinality("ab" * 32, 5)  # first write buries the corpse
        assert store.get_cardinality("ab" * 32) == 5

    def test_locked_database_drops_the_write_and_keeps_entries(self, tmp_path, monkeypatch):
        # A writer that outwaits the busy timeout must not take the lock for
        # corruption: the shared database and its entries stay.
        from repro.engine import store as store_module

        monkeypatch.setattr(store_module, "_SQLITE_TIMEOUT", 0.05)
        store = AnalysisStore(tmp_path)
        store.put_cardinality("ab" * 32, 5)
        with closing(sqlite3.connect(store.path, isolation_level=None)) as other:
            other.execute("BEGIN EXCLUSIVE")
            AnalysisStore(tmp_path).put_cardinality("cd" * 32, 6)
            other.execute("COMMIT")
        reader = AnalysisStore(tmp_path)
        assert reader.get_cardinality("ab" * 32) == 5
        assert reader.get_cardinality("cd" * 32) is None


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
        spec = validate_store_path(str(tmp_path))
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
        AnalysisStore(store_path).put_result(job_digest(self.SPECS()[0]), {"bogus": 1})
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
        spec = str(tmp_path / "store.sqlite")
        cold = BatchEngine(2, store_path=spec).run(self.SPECS())
        assert cold.cached_count == 0 and cold.ok_count == 2
        warm = BatchEngine(2, store_path=spec).run(self.SPECS())
        assert warm.cached_count == 2
        assert [r.result.to_dict() for r in warm] == [r.result.to_dict() for r in cold]

    def test_old_directory_store_recomputes_then_serves(self, tmp_path):
        # A store directory of the old one-file-per-entry layout, holding a
        # well-formed result entry for the first job: never read.
        old = tmp_path / "store"
        digest = job_digest(self.SPECS()[0])
        shard = old / "result" / digest[:2]
        shard.mkdir(parents=True)
        envelope = {"schema": 1, "version": code_version(), "payload": {"kernel": "gemm"}}
        (shard / f"{digest}.json").write_text(json.dumps(envelope))
        cold = BatchEngine(1, store_path=str(old)).run(self.SPECS())
        assert cold.cached_count == 0 and cold.ok_count == 2
        with closing(sqlite3.connect(old / "store.sqlite")) as conn:
            count = conn.execute("SELECT COUNT(*) FROM entries WHERE namespace = 'result'")
            assert count.fetchone() == (2,)
        warm = BatchEngine(1, store_path=str(old)).run(self.SPECS())
        assert warm.cached_count == 2
        assert [r.result.to_dict() for r in warm] == [r.result.to_dict() for r in cold]

    def test_store_path_at_an_ordinary_file_keeps_its_bytes(self, tmp_path):
        # The engine takes its path unvalidated; a file SQLite cannot read is
        # moved aside for a fresh database, never deleted.
        notes = tmp_path / "results.json"
        notes.write_bytes(b'{"jobs": []}\n' * 50)
        cold = BatchEngine(1, store_path=str(notes)).run(self.SPECS())
        assert cold.cached_count == 0 and cold.ok_count == 2
        assert (tmp_path / "results.json.corrupt").read_bytes() == b'{"jobs": []}\n' * 50
        warm = BatchEngine(1, store_path=str(notes)).run(self.SPECS())
        assert warm.cached_count == 2

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
# Concurrent writers (the multiprocessing pool contract, both path forms)
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
    @pytest.mark.parametrize("form", PATH_FORMS)
    def test_pool_writers_never_corrupt(self, tmp_path, form):
        spec = str(_store_path(form, tmp_path))
        with multiprocessing.Pool(processes=4) as pool:
            outcomes = pool.map(_store_worker, [(spec, i) for i in range(16)])
        assert all(shared == 123 for shared, _ in outcomes)
        assert [private for _, private in outcomes] == list(range(16))
        store = AnalysisStore(spec)
        assert store.get_cardinality("ff" * 32) == 123
        # 1 shared + 16 private entries, all intact.
        assert store.entry_count() == 17
