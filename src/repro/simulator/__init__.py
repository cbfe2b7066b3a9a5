"""Trace-driven cache simulation substrate (Dinero IV surrogate).

Two interchangeable implementations live here: the NumPy-vectorized fast
path (:mod:`.vectorized`, ``backend="numpy"``, the default) and the
per-access reference oracle (:mod:`.trace`, :mod:`.lru`, :mod:`.set_assoc`,
``backend="python"``), guaranteed to produce identical results.
"""

from .dinero import DineroResult, DineroSimulator, simulate_scop
from .hierarchy import CacheHierarchySimulator, CacheLevelConfig
from .lru import CacheStatistics, FullyAssociativeLRU, StackDistanceProfiler, simulate_fully_associative
from .set_assoc import ReplacementPolicy, SetAssociativeCache
from .trace import ArrayLayout, MemoryAccess, TraceGenerator

__all__ = [
    "ArrayLayout",
    "CacheHierarchySimulator",
    "CacheLevelConfig",
    "CacheStatistics",
    "DineroResult",
    "DineroSimulator",
    "FullyAssociativeLRU",
    "MemoryAccess",
    "ReplacementPolicy",
    "SetAssociativeCache",
    "StackDistanceProfiler",
    "TraceGenerator",
    "simulate_fully_associative",
    "simulate_scop",
]
