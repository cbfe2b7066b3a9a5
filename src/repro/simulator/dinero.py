"""A Dinero IV style trace-driven cache simulator facade.

This is the reproduction's substitute for the Dinero IV simulator the paper
benchmarks against: it enumerates the full memory trace of a SCoP and feeds
it through a configurable cache hierarchy.  Its execution time is
proportional to the number of memory accesses (Figure 1 / Figure 15b).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..isl.veceval import check_backend
from ..scop.scop import Scop
from .hierarchy import CacheHierarchySimulator, CacheLevelConfig
from .lru import CacheStatistics, StackDistanceProfiler
from .trace import TraceGenerator
from .vectorized import simulate_hierarchy_arrays, trace_arrays

__all__ = ["DineroResult", "DineroSimulator", "simulate_scop"]


@dataclass
class DineroResult:
    """Result of one simulation run."""

    kernel: str
    levels: List[CacheStatistics]
    accesses: int
    elapsed_seconds: float

    def level(self, index: int) -> CacheStatistics:
        return self.levels[index]

    def misses(self, index: int = 0) -> int:
        return self.levels[index].misses

    def as_dict(self) -> Dict:
        return {
            "kernel": self.kernel,
            "accesses": self.accesses,
            "elapsed_seconds": self.elapsed_seconds,
            "levels": [stats.as_dict() for stats in self.levels],
        }


class DineroSimulator:
    """Trace-driven simulation of a SCoP through a cache hierarchy.

    ``backend`` selects the concrete implementation: ``"numpy"`` (default)
    runs the whole pipeline as array operations, ``"python"`` keeps the
    per-access reference loop.  Every replacement policy vectorizes
    (tree-PLRU and FIFO via stable set grouping plus per-set replay); only
    prefetch-enabled levels always run on the reference simulator.
    """

    def __init__(
        self,
        levels: Sequence[CacheLevelConfig],
        *,
        padded_layout: bool = True,
        backend: str = "numpy",
    ) -> None:
        self.levels = list(levels)
        self.padded_layout = padded_layout
        self.backend = check_backend(backend)

    def _vectorizable(self) -> bool:
        """True when no level enables a prefetcher (so the vectorized pass
        will not fall back after generating the trace — the expensive half
        of a run).  All replacement policies are otherwise vectorizable."""
        return all(not getattr(config, "prefetch_degree", 0) for config in self.levels)

    def run(self, scop: Scop) -> DineroResult:
        start = time.perf_counter()
        line_size = self.levels[0].line_size
        stats = None
        if self.backend == "numpy" and self._vectorizable():
            trace = trace_arrays(scop, line_size=line_size, padded=self.padded_layout)
            stats = simulate_hierarchy_arrays(trace, self.levels)
            accesses = len(trace)
        if stats is None:
            generator = TraceGenerator(scop, line_size=line_size, padded=self.padded_layout)
            hierarchy = CacheHierarchySimulator(self.levels)
            accesses = 0
            for access in generator.accesses():
                accesses += 1
                hierarchy.access(access.address, is_write=access.is_write)
            hierarchy.flush()  # same write-back convention as the vectorized pass
            stats = hierarchy.statistics()
        elapsed = time.perf_counter() - start
        return DineroResult(
            kernel=scop.name,
            levels=stats,
            accesses=accesses,
            elapsed_seconds=elapsed,
        )

    def stack_distances(self, scop: Scop) -> List[Optional[int]]:
        """Exact per-access stack distances (profiling oracle)."""
        line_size = self.levels[0].line_size
        generator = TraceGenerator(scop, line_size=line_size, padded=self.padded_layout)
        profiler = StackDistanceProfiler()
        return profiler.profile(generator.line_trace())


def simulate_scop(
    scop: Scop,
    cache_sizes: Sequence[int],
    *,
    line_size: int = 64,
    associativity: Optional[int] = None,
    policy: str = "lru",
    prefetch_degree: int = 0,
) -> DineroResult:
    """Convenience helper: simulate ``scop`` against one or more cache sizes."""
    levels = [
        CacheLevelConfig(
            cache_size=size,
            line_size=line_size,
            associativity=associativity,
            policy=policy,
            prefetch_degree=prefetch_degree,
        )
        for size in cache_sizes
    ]
    return DineroSimulator(levels).run(scop)
