"""Result containers of the analytical cache model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .curve import MissCurve

__all__ = ["AccessMissCounts", "LevelMissCounts", "ModelResult", "SCHEMA_VERSION", "TimingBreakdown"]

#: JSON schema version of serialized :class:`ModelResult` payloads.
#: :meth:`ModelResult.from_dict` is tolerant: payloads without the field
#: (written before versioning existed) are accepted, unknown extra keys are
#: ignored, and only payloads declaring a *newer* version are rejected.
#: Version 2 added the ``miss_curve`` section (see
#: :class:`repro.core.curve.MissCurve`); readers treat a missing curve as
#: ``None``.
SCHEMA_VERSION = 2


@dataclass
class AccessMissCounts:
    """Miss breakdown for one array reference of one statement."""

    statement: str
    position: int
    array: str
    is_write: bool
    accesses: int
    compulsory: int
    #: Capacity misses per cache level (indexed like the machine levels).
    capacity: List[int] = field(default_factory=list)

    def misses(self, level: int) -> int:
        return self.compulsory + self.capacity[level]

    def hits(self, level: int) -> int:
        return self.accesses - self.misses(level)

    def to_dict(self) -> Dict:
        return {
            "statement": self.statement,
            "position": self.position,
            "array": self.array,
            "is_write": self.is_write,
            "accesses": self.accesses,
            "compulsory": self.compulsory,
            "capacity": list(self.capacity),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "AccessMissCounts":
        return cls(
            statement=data["statement"],
            position=data["position"],
            array=data["array"],
            is_write=data["is_write"],
            accesses=data["accesses"],
            compulsory=data["compulsory"],
            capacity=list(data.get("capacity", [])),
        )


@dataclass
class LevelMissCounts:
    """Aggregate miss counts of one cache level."""

    name: str
    cache_size: int
    accesses: int
    compulsory: int
    capacity: int

    @property
    def misses(self) -> int:
        return self.compulsory + self.capacity

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def to_dict(self) -> Dict[str, int]:
        """JSON form; ``misses``/``hits`` are derived and therefore ignored
        by :meth:`from_dict`."""
        return {
            "name": self.name,
            "cache_size": self.cache_size,
            "accesses": self.accesses,
            "compulsory": self.compulsory,
            "capacity": self.capacity,
            "misses": self.misses,
            "hits": self.hits,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "LevelMissCounts":
        return cls(
            name=data["name"],
            cache_size=data["cache_size"],
            accesses=data["accesses"],
            compulsory=data["compulsory"],
            capacity=data["capacity"],
        )


@dataclass
class TimingBreakdown:
    """Wall-clock breakdown of the model phases (Figure 11).

    Also carries the cardinality-cache counters of the run (see
    :class:`repro.engine.cache.CardinalityCache`): how often a first-touch or
    capacity count was served memoized instead of re-derived symbolically.
    When the run is backed by the persistent analysis store
    (:class:`repro.engine.store.AnalysisStore`), ``store_hits`` /
    ``store_misses`` count the disk-tier lookups (memory misses that were
    served from, or had to populate, the store), and ``store_invalidations``
    counts entries dropped for belonging to a different code version.
    ``work_units_charged`` is the deterministic symbolic work consumed (see
    :class:`repro.isl.work.WorkBudget`) — a machine-independent cost metric
    the bench harness compares across runs.

    A fallback result (``used_fallback``) books the whole job in
    ``other_seconds``: the failed symbolic attempt plus the trace.  Its
    ``stack_distance_seconds`` and ``capacity_seconds`` stay 0, and
    ``total_seconds`` still covers the job.
    """

    stack_distance_seconds: float = 0.0
    capacity_seconds: float = 0.0
    other_seconds: float = 0.0
    cardinality_cache_hits: int = 0
    cardinality_cache_misses: int = 0
    store_hits: int = 0
    store_misses: int = 0
    store_invalidations: int = 0
    work_units_charged: int = 0

    @property
    def total_seconds(self) -> float:
        return self.stack_distance_seconds + self.capacity_seconds + self.other_seconds

    @property
    def cardinality_cache_lookups(self) -> int:
        return self.cardinality_cache_hits + self.cardinality_cache_misses

    @property
    def cardinality_cache_hit_rate(self) -> float:
        lookups = self.cardinality_cache_lookups
        return self.cardinality_cache_hits / lookups if lookups else 0.0

    @property
    def store_lookups(self) -> int:
        return self.store_hits + self.store_misses

    @property
    def store_hit_rate(self) -> float:
        lookups = self.store_lookups
        return self.store_hits / lookups if lookups else 0.0

    def to_dict(self) -> Dict:
        return {
            "stack_distance_seconds": self.stack_distance_seconds,
            "capacity_seconds": self.capacity_seconds,
            "other_seconds": self.other_seconds,
            "total_seconds": self.total_seconds,
            "cardinality_cache_hits": self.cardinality_cache_hits,
            "cardinality_cache_misses": self.cardinality_cache_misses,
            "store_hits": self.store_hits,
            "store_misses": self.store_misses,
            "store_invalidations": self.store_invalidations,
            "work_units_charged": self.work_units_charged,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "TimingBreakdown":
        return cls(
            stack_distance_seconds=data.get("stack_distance_seconds", 0.0),
            capacity_seconds=data.get("capacity_seconds", 0.0),
            other_seconds=data.get("other_seconds", 0.0),
            cardinality_cache_hits=data.get("cardinality_cache_hits", 0),
            cardinality_cache_misses=data.get("cardinality_cache_misses", 0),
            store_hits=data.get("store_hits", 0),
            store_misses=data.get("store_misses", 0),
            store_invalidations=data.get("store_invalidations", 0),
            work_units_charged=data.get("work_units_charged", 0),
        )


@dataclass
class ModelResult:
    """Full output of one analytical model run."""

    kernel: str
    level_results: List[LevelMissCounts]
    per_access: List[AccessMissCounts]
    timing: TimingBreakdown
    #: Number of separately counted pieces (Figure 11/12 solid lines); each
    #: piece is counted once for the whole capacity axis, not once per level.
    piece_count: int = 0
    nonaffine_pieces: int = 0
    #: Affine-dimension histogram of non-affine polynomials (Table 1).
    nonaffine_affine_dims: List[int] = field(default_factory=list)
    enumerated_points: int = 0
    #: True when the symbolic pipeline had to fall back to trace-based
    #: computation for this kernel.
    used_fallback: bool = False
    #: Capacity-miss curve of the whole kernel (one counting pass answering
    #: every cache size); trace-derived curves are exact at every capacity,
    #: symbolic ones at their breakpoints (see :class:`MissCurve`).
    miss_curve: Optional[MissCurve] = None

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def accesses(self) -> int:
        return self.level_results[0].accesses if self.level_results else 0

    def level(self, index: int) -> LevelMissCounts:
        return self.level_results[index]

    def misses(self, level: int = 0) -> int:
        return self.level_results[level].misses

    def hits(self, level: int = 0) -> int:
        return self.level_results[level].hits

    def compulsory(self, level: int = 0) -> int:
        return self.level_results[level].compulsory

    def capacity(self, level: int = 0) -> int:
        return self.level_results[level].capacity

    def miss_ratio(self, level: int = 0) -> float:
        return self.level_results[level].miss_ratio

    def prediction_error(self, measured_misses: int, level: int = 0) -> float:
        """Prediction error relative to the total number of accesses.

        This is the error metric of Figures 9 and 10: the absolute difference
        between predicted and measured misses divided by the total number of
        memory accesses of the kernel.
        """
        if not self.accesses:
            return 0.0
        return abs(self.misses(level) - measured_misses) / self.accesses

    def to_dict(self) -> Dict:
        """Full JSON-serializable form; inverse of :meth:`from_dict`."""
        return {
            "schema_version": SCHEMA_VERSION,
            "kernel": self.kernel,
            "levels": [level.to_dict() for level in self.level_results],
            "per_access": [entry.to_dict() for entry in self.per_access],
            "piece_count": self.piece_count,
            "nonaffine_pieces": self.nonaffine_pieces,
            "nonaffine_affine_dims": list(self.nonaffine_affine_dims),
            "enumerated_points": self.enumerated_points,
            "used_fallback": self.used_fallback,
            "miss_curve": self.miss_curve.to_dict() if self.miss_curve is not None else None,
            "timing": self.timing.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ModelResult":
        version = data.get("schema_version", 1)
        if isinstance(version, int) and version > SCHEMA_VERSION:
            raise ValueError(
                f"model result payload has schema_version {version}; "
                f"this build reads <= {SCHEMA_VERSION}"
            )
        return cls(
            kernel=data["kernel"],
            level_results=[LevelMissCounts.from_dict(entry) for entry in data.get("levels", [])],
            per_access=[AccessMissCounts.from_dict(entry) for entry in data.get("per_access", [])],
            timing=TimingBreakdown.from_dict(data.get("timing", {})),
            piece_count=data.get("piece_count", 0),
            nonaffine_pieces=data.get("nonaffine_pieces", 0),
            nonaffine_affine_dims=list(data.get("nonaffine_affine_dims", [])),
            enumerated_points=data.get("enumerated_points", 0),
            used_fallback=data.get("used_fallback", False),
            miss_curve=(
                MissCurve.from_dict(data["miss_curve"])
                if data.get("miss_curve") is not None
                else None
            ),
        )
