"""PolyCache surrogate baseline (per-cache-set analysis).

PolyCache (Bao et al., POPL 2017) is the analytical model the paper compares
against in Figure 15a.  It models *set-associative* caches by analysing every
cache set separately, which is precise but expensive: its cost grows with the
number of cache sets and the associativity.

The original implementation is not available, so this surrogate reproduces
its *cost structure* rather than its algorithm: the reference stack-distance
computation is partitioned by cache set and every set is processed
independently (optionally restricted to a subset of sets, mirroring the
published experiments that parallelise over 1024 sets).  The miss counts it
produces are exact for a set-associative LRU cache, so the baseline is also
used as an accuracy reference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..scop.scop import Scop
from ..simulator.lru import StackDistanceProfiler
from ..simulator.trace import TraceGenerator

__all__ = ["PolyCacheResult", "PolyCacheSurrogate"]


@dataclass
class PolyCacheResult:
    kernel: str
    cache_size: int
    associativity: int
    misses: int
    accesses: int
    elapsed_seconds: float
    sets_analyzed: int


class PolyCacheSurrogate:
    """Per-set LRU analysis of a set-associative cache."""

    def __init__(self, cache_size: int, line_size: int = 64, associativity: int = 4) -> None:
        if cache_size % (line_size * associativity):
            raise ValueError("cache size must be a multiple of line size * associativity")
        self.cache_size = cache_size
        self.line_size = line_size
        self.associativity = associativity
        self.num_sets = cache_size // (line_size * associativity)

    def analyze(self, scop: Scop, *, sets: Optional[Sequence[int]] = None) -> PolyCacheResult:
        """Analyse ``scop``; ``sets`` restricts the analysed cache sets."""
        start = time.perf_counter()
        selected = list(range(self.num_sets)) if sets is None else list(sets)
        selected_set = set(selected)

        generator = TraceGenerator(scop, line_size=self.line_size, padded=True)
        per_set_traces: Dict[int, List[int]] = {index: [] for index in selected}
        accesses = 0
        for line in generator.line_trace():
            accesses += 1
            set_index = line % self.num_sets
            if set_index in selected_set:
                per_set_traces[set_index].append(line)

        misses = 0
        profiler = StackDistanceProfiler()
        for set_index in selected:
            trace = per_set_traces[set_index]
            if not trace:
                continue
            compulsory, capacity = profiler.misses_for_capacity(trace, self.associativity)
            misses += compulsory + capacity
        elapsed = time.perf_counter() - start
        return PolyCacheResult(
            kernel=scop.name,
            cache_size=self.cache_size,
            associativity=self.associativity,
            misses=misses,
            accesses=accesses,
            elapsed_seconds=elapsed,
            sets_analyzed=len(selected),
        )
