"""Disk-backed, content-addressed store for analysis results.

The in-memory :class:`~repro.engine.cache.CardinalityCache` removes repeated
work *within* one analysis job; this module removes it *across* processes and
runs.  An :class:`AnalysisStore` persists two kinds of entries in one SQLite
database:

* ``cardinality`` — integer point counts, keyed by the canonical form of the
  counting problem (the same key the in-memory cache uses);
* ``result`` — whole serialized :class:`~repro.core.results.ModelResult`
  payloads, keyed by :func:`job_digest` over the full
  :meth:`~repro.engine.jobs.JobSpec.key` identity.

Both key families are hashed with :func:`stable_digest`, a canonical JSON
serialization that is stable across processes (frozensets are sorted, so
``PYTHONHASHSEED`` randomization cannot perturb the digest).  Every entry
records the :func:`code_version` that produced it; a version mismatch on read
deletes the entry and counts as an *invalidation*, so upgrading the analysis
code transparently recomputes instead of serving stale counts.

The database runs in WAL mode with a busy timeout, so the batch engine's
multiprocessing pool, N server workers, or N machines on a shared filesystem
that supports POSIX locks share one hit set safely.  A store path names the
database file; an existing directory names ``<dir>/store.sqlite`` (so an old
one-file-per-entry directory store opens as a fresh database next to its
shards and recomputes).

Size is bounded by an LRU cap (:attr:`AnalysisStore.max_bytes`): reads bump
the entry recency, and writers periodically evict the stalest entries once
the store exceeds the cap.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..isl.constraints import ConstraintSystem
from ..isl.qpoly import Div, QPoly
from .cache import CardinalityCache, canonical_key

__all__ = [
    "AnalysisStore",
    "PersistentCardinalityCache",
    "StoreStats",
    "cardinality_digest",
    "code_version",
    "default_store_path",
    "job_digest",
    "stable_digest",
    "validate_store_env",
    "validate_store_path",
]

#: On-disk schema version of store entries (bump on incompatible layout change).
ENTRY_SCHEMA = 1

#: Default LRU size cap: 256 MiB of JSON entries.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Environment overrides honoured by :func:`default_store_path` and the CLI.
STORE_PATH_ENV = "REPRO_STORE_PATH"
STORE_MAX_BYTES_ENV = "REPRO_STORE_MAX_BYTES"

#: Database file name a store path opens when it is an existing directory.
DATABASE_NAME = "store.sqlite"

#: First bytes of every SQLite database file.
_SQLITE_HEADER = b"SQLite format 3\x00"


def default_store_path() -> str:
    """Store location: ``$REPRO_STORE_PATH`` or ``~/.cache/repro-haystack/store.sqlite``."""
    env = os.environ.get(STORE_PATH_ENV, "").strip()
    if env:
        return env
    return str(Path.home() / ".cache" / "repro-haystack" / DATABASE_NAME)


def _database_path(path) -> Path:
    """The database file a store path names: ``<dir>/store.sqlite`` for an
    existing directory, else the path itself."""
    path = Path(path)
    return path / DATABASE_NAME if path.is_dir() else path


def _canonical(value):
    """Recursively rewrite ``value`` into a JSON-stable canonical form.

    Frozensets (used for order-insensitive constraint sets) are sorted by
    their serialized form so the digest does not depend on hash-based
    iteration order; Fractions keep exactness as a tagged pair.  The symbolic
    value types that appear inside job identities — quasi-polynomials (access
    index expressions) and floor-division symbols — canonicalize through
    their own canonical item tuples.
    """
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, Fraction):
        return ["F", value.numerator, value.denominator]
    if isinstance(value, float):
        return ["f", repr(value)]
    if isinstance(value, QPoly):
        return ["Q", _canonical(value._canonical_items())]
    if isinstance(value, Div):
        return ["V", _canonical(value.items), value.denominator]
    if isinstance(value, (tuple, list)):
        return [_canonical(item) for item in value]
    if isinstance(value, (frozenset, set)):
        items = [_canonical(item) for item in value]
        return ["S", sorted(items, key=lambda item: json.dumps(item, separators=(",", ":")))]
    if isinstance(value, dict):
        return ["D", sorted((_canonical(k), _canonical(v)) for k, v in value.items())]
    raise TypeError(f"cannot canonicalize {type(value).__name__} for hashing: {value!r}")


def stable_digest(value) -> str:
    """Process-stable SHA-256 hex digest of an arbitrary key structure."""
    payload = json.dumps(_canonical(value), separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def cardinality_digest(system: ConstraintSystem, count_vars: Sequence[str]) -> str:
    """Digest of one counting problem (same canonical form as the memo cache)."""
    return stable_digest(canonical_key(system, count_vars))


def job_digest(spec) -> str:
    """Digest of one analysis job's full :meth:`~repro.engine.jobs.JobSpec.key`."""
    return stable_digest(spec.key())


@functools.lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of the installed ``repro`` sources (the store's invalidation key).

    Any change to the package — model, counting substrate, kernels — yields a
    new version, so persisted counts can never outlive the code that derived
    them.  Hashing the sources (rather than trusting the package version
    string) keeps development trees honest.
    """
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# Eager validation of store paths
# ----------------------------------------------------------------------
def validate_store_path(path) -> str:
    """Eagerly check a store location; returns the database file it names.

    Raises ``ValueError`` with a one-line, actionable message when the
    location cannot work — the database path exists but is not a regular
    file, is a file that is not a SQLite database (the store would move it
    aside as a corrupt database on its first write), or the nearest existing
    ancestor is not writable — instead of letting a deep ``OSError`` (or a
    silently disabled store) surface mid-analysis.
    """
    path = _database_path(path)
    if path.exists() and not path.is_file():
        raise ValueError(
            f"store path {str(path)!r} is not a regular file "
            f"(point it at a database file or a directory that can hold one)"
        )
    if path.is_file() and _file_header(path) not in (b"", _SQLITE_HEADER):
        raise ValueError(
            f"store path {str(path)!r} is a file but not a SQLite database "
            f"(move it aside or pick another --store-path/$REPRO_STORE_PATH)"
        )
    probe = path if path.exists() else path.parent
    while not probe.exists():
        parent = probe.parent
        if parent == probe:
            break
        probe = parent
    if probe != path and probe.exists() and not probe.is_dir():
        raise ValueError(
            f"store path {str(path)!r} is not a regular file location "
            f"({probe} is a file in the way); pick another "
            f"--store-path/$REPRO_STORE_PATH"
        )
    access = os.W_OK | os.X_OK if probe.is_dir() else os.W_OK
    if probe.exists() and not os.access(probe, access):
        raise ValueError(
            f"store path {str(path)!r} is not writable ({probe} denies write access); "
            f"fix the permissions or pick another --store-path/$REPRO_STORE_PATH"
        )
    return str(path)


def _file_header(path: Path) -> bytes:
    """The first bytes of ``path`` (empty when it is empty or unreadable)."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(_SQLITE_HEADER))
    except OSError:
        return b""


def validate_store_env() -> None:
    """Validate ``$REPRO_STORE_PATH`` eagerly.

    Called at CLI entry, :class:`~repro.api.Session` construction, and server
    construction, so a bad environment fails with one clear line instead of a
    traceback from deep inside a worker.
    """
    path = os.environ.get(STORE_PATH_ENV, "").strip()
    if path:
        try:
            validate_store_path(path)
        except ValueError as exc:
            raise ValueError(f"${STORE_PATH_ENV}: {exc}") from None


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
@dataclass
class StoreStats:
    """Counters of one :class:`AnalysisStore` instance (per process).

    The same struct backs the ``store`` block of batch summaries, bench
    reports, and the server's ``/stats`` endpoint.
    """

    hits: int = 0
    misses: int = 0
    #: Entries discarded on read: stale code version or corrupt payload.
    invalidations: int = 0
    writes: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "StoreStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.invalidations += other.invalidations
        self.writes += other.writes
        self.evictions += other.evictions

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "writes": self.writes,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 6),
        }


#: Seconds a SQLite writer waits on a locked database before giving up.
_SQLITE_TIMEOUT = 30.0

_SQLITE_SCHEMA = """
CREATE TABLE IF NOT EXISTS entries (
    namespace  TEXT NOT NULL,
    digest     TEXT NOT NULL,
    payload    TEXT NOT NULL,
    size       INTEGER NOT NULL,
    recency_ns INTEGER NOT NULL,
    PRIMARY KEY (namespace, digest)
)
"""

_UPSERT = (
    "INSERT INTO entries (namespace, digest, payload, size, recency_ns) "
    "VALUES (?, ?, ?, ?, ?) "
    "ON CONFLICT (namespace, digest) DO UPDATE SET "
    "payload = excluded.payload, size = excluded.size, "
    "recency_ns = excluded.recency_ns"
)


class AnalysisStore:
    """Content-addressed, code-versioned JSON entries in one SQLite database.

    The store owns the entry envelope (schema + code version + payload), the
    per-process statistics, and the LRU size budget.  ``path`` names the
    database file (an existing directory names ``<dir>/store.sqlite``;
    default: :func:`default_store_path`).

    WAL lets readers proceed while a writer commits, and the busy timeout
    serializes concurrent writers, so the processes of a pool or a server
    share one hit set safely.  The connection is opened lazily per
    ``(instance, process)`` — a handle never crosses a ``fork`` — and guarded
    by a lock so one instance can serve multiple threads (the asyncio server
    reads from worker threads).  Every operation is total: SQLite and I/O
    failures surface as misses (reads) or dropped writes, never as
    exceptions, since the store is an accelerator and must not fail the
    analysis it accelerates.  A file SQLite cannot read (a corrupt database,
    or a path mistakenly pointed at some other file) is never deleted: the
    first write that finds it renames it (plus WAL side files) to
    ``<path>.corrupt`` and starts an empty database; reads report misses
    meanwhile.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        *,
        max_bytes: Optional[int] = None,
        version: Optional[str] = None,
    ) -> None:
        self.path = _database_path(path or default_store_path())
        if max_bytes is None:
            env = os.environ.get(STORE_MAX_BYTES_ENV, "").strip()
            max_bytes = int(env) if env else DEFAULT_MAX_BYTES
        if max_bytes <= 0:
            raise ValueError(f"store size cap must be positive, got {max_bytes}")
        self.max_bytes = max_bytes
        self.version = version if version is not None else code_version()
        self._stats = StoreStats()
        self._conn: Optional[sqlite3.Connection] = None
        self._pid: Optional[int] = None
        self._lock = threading.Lock()
        # Incremental size estimate: one size query when this instance first
        # writes, then each write adds its own size.  Eviction (and its full
        # scan) only happens when the estimate crosses the cap, so steady
        # writing far below the cap never re-scans the store.
        self._approx_bytes: Optional[int] = None

    def stats(self) -> StoreStats:
        """Hit/miss/invalidation/write/eviction counters of this instance.

        Batch summaries, bench reports, and the server's ``/stats`` endpoint
        all read this one struct (serialize with
        :meth:`StoreStats.as_dict`).
        """
        return self._stats

    # ------------------------------------------------------------------
    # Database access
    # ------------------------------------------------------------------
    def _connection(self) -> sqlite3.Connection:
        """This process's connection; call with ``_lock`` held."""
        if self._conn is None or self._pid != os.getpid():
            self._close()
            self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(
                str(self.path),
                timeout=_SQLITE_TIMEOUT,
                isolation_level=None,  # autocommit: every statement is its own txn
                check_same_thread=False,  # guarded by self._lock
            )
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(_SQLITE_SCHEMA)
            self._conn = conn
            self._pid = os.getpid()
        return self._conn

    def _close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None

    def _execute(self, statement: str, params: tuple = ()) -> Optional[List[tuple]]:
        """Rows of one statement, or ``None`` when the database fails it."""
        with self._lock:
            try:
                return self._connection().execute(statement, params).fetchall()
            except (sqlite3.Error, OSError):
                return None

    def _write(self, namespace: str, digest: str, text: str) -> int:
        """Publish one entry; returns bytes written (0 = dropped)."""
        size = len(text.encode("utf-8"))
        row = (namespace, digest, text, size, time.time_ns())
        with self._lock:
            try:
                self._connection().execute(_UPSERT, row)
            except sqlite3.OperationalError:
                # Locked past the busy timeout, or not openable: drop the
                # write and keep the database.
                return 0
            except sqlite3.DatabaseError:
                # Corrupt database, or a file that is not one: move it aside
                # (never delete it) and retry once on a fresh database.
                self._close()
                try:
                    _move_aside(self.path)
                    self._connection().execute(_UPSERT, row)
                except (sqlite3.Error, OSError):
                    return 0
            except (sqlite3.Error, OSError):
                return 0
        return size

    def _delete(self, namespace: str, digest: str) -> None:
        self._execute("DELETE FROM entries WHERE namespace = ? AND digest = ?", (namespace, digest))

    # ------------------------------------------------------------------
    # Generic entry access
    # ------------------------------------------------------------------
    def get(self, namespace: str, digest: str):
        """Payload stored under ``digest``, or ``None`` on miss.

        Version-stale and corrupt entries are deleted and counted as
        invalidations (plus the miss the caller observes).
        """
        rows = self._execute("SELECT payload FROM entries WHERE namespace = ? AND digest = ?", (namespace, digest))
        if not rows:
            self._stats.misses += 1
            return None
        try:
            entry = json.loads(rows[0][0])
            if entry["schema"] != ENTRY_SCHEMA or entry["version"] != self.version:
                raise _StaleEntry()
            payload = entry["payload"]
        except (ValueError, KeyError, TypeError, _StaleEntry):
            # Truncated JSON, garbage payload, or a different code version:
            # drop the entry so the next write repopulates it.
            self._stats.invalidations += 1
            self._stats.misses += 1
            self._delete(namespace, digest)
            return None
        self._stats.hits += 1
        self._execute(
            "UPDATE entries SET recency_ns = ? WHERE namespace = ? AND digest = ?",
            (time.time_ns(), namespace, digest),
        )
        return payload

    def put(self, namespace: str, digest: str, payload) -> None:
        """Atomically publish ``payload`` under ``digest``; never raises on I/O.

        The store is an accelerator: a failed write (read-only tree, disk
        full, locked database) must not fail the analysis that produced the
        payload.
        """
        text = json.dumps(
            {"schema": ENTRY_SCHEMA, "version": self.version, "payload": payload},
            separators=(",", ":"),
        )
        written = self._write(namespace, digest, text)
        if not written:
            return
        self._stats.writes += 1
        if self._approx_bytes is None:
            self._approx_bytes = self.size_bytes()
        else:
            self._approx_bytes += written
        if self._approx_bytes > self.max_bytes:
            self._evict_lru()

    # ------------------------------------------------------------------
    # Typed helpers
    # ------------------------------------------------------------------
    def get_cardinality(self, digest: str) -> Optional[int]:
        payload = self.get("cardinality", digest)
        return payload if isinstance(payload, int) else None

    def put_cardinality(self, digest: str, value: int) -> None:
        self.put("cardinality", digest, value)

    def get_result(self, digest: str) -> Optional[Dict]:
        payload = self.get("result", digest)
        return payload if isinstance(payload, dict) else None

    def put_result(self, digest: str, payload: Dict) -> None:
        self.put("result", digest, payload)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        rows = self._execute("SELECT COALESCE(SUM(size), 0) FROM entries")
        return int(rows[0][0]) if rows else 0

    def entry_count(self) -> int:
        rows = self._execute("SELECT COUNT(*) FROM entries")
        return int(rows[0][0]) if rows else 0

    def _evict_lru(self) -> None:
        """Delete stalest entries (by recency; reads refresh it) until under cap.

        Ordering is ``(recency_ns, namespace, digest)``: nanosecond stamps
        separate almost all writes, and the deterministic key tiebreak keeps
        the eviction order stable across runs and processes even for entries
        published in the same tick (routine under the mp pool).
        """
        rows = self._execute("SELECT namespace, digest, size FROM entries ORDER BY recency_ns, namespace, digest") or []
        total = sum(size for _, _, size in rows)
        for namespace, digest, size in rows:
            if total <= self.max_bytes:
                break
            self._delete(namespace, digest)
            total -= size
            self._stats.evictions += 1
        self._approx_bytes = total

    def wipe(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = self.entry_count()
        if self._execute("DELETE FROM entries") is None:
            removed = 0
        self._approx_bytes = 0
        return removed


class _StaleEntry(Exception):
    """Internal: entry exists but belongs to a different code version."""


def _move_aside(path: Path) -> None:
    """Rename ``path`` and its WAL side files to ``<path>.corrupt*``.

    The side files go first, so a fresh database never replays a stale WAL;
    an earlier ``.corrupt`` copy is replaced.  Raises ``OSError`` when a file
    that exists cannot be moved.
    """
    for suffix in ("-wal", "-shm", ""):
        try:
            os.replace(f"{path}{suffix}", f"{path}.corrupt{suffix}")
        except FileNotFoundError:
            pass


class PersistentCardinalityCache(CardinalityCache):
    """Two-tier cardinality cache: in-memory memo backed by an on-disk store.

    Lookup order is memory, then disk, then the symbolic counter; computed
    counts are written through to both tiers.  Memory hit/miss statistics
    keep their in-memory meaning (so
    :attr:`~repro.core.results.TimingBreakdown.cardinality_cache_hits` stays
    comparable across store configurations); disk traffic is reported
    separately via :attr:`store_hits` / :attr:`store_misses`.
    """

    def __init__(self, store: AnalysisStore) -> None:
        super().__init__()
        self.store = store
        self.store_hits = 0
        self.store_misses = 0

    def cardinality(self, system: ConstraintSystem, count_vars: Sequence[str]) -> int:
        key = canonical_key(system, count_vars)
        try:
            value = self._store[key]
        except KeyError:
            pass
        else:
            self.stats.hits += 1
            return value
        self.stats.misses += 1
        digest = stable_digest(key)
        persisted = self.store.get_cardinality(digest)
        if persisted is not None:
            self.store_hits += 1
            self._store[key] = persisted
            return persisted
        self.store_misses += 1
        from ..isl.counting import cardinality as _cardinality

        value = _cardinality(system, count_vars)
        self._store[key] = value
        self.store.put_cardinality(digest, value)
        return value
