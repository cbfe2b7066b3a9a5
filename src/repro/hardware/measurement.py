"""Surrogate for the paper's hardware measurements (PAPI on a Xeon Gold 6150).

The reproduction has no access to the paper's test system or to hardware
performance counters, so the "measured" cache misses of Figures 9 and 10 are
produced by a deterministic micro-architectural simulation that includes
exactly the effects the paper names as the sources of model-vs-hardware
error:

* set associativity (8-way L1, 16-way L2 instead of full associativity),
* a tree pseudo-LRU replacement policy instead of true LRU, and
* optional next-line prefetching (overfetch).

The surrogate is deterministic, so "measurement noise" is zero; the paper's
error metric (misses relative to total accesses) is computed the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..scop.scop import Scop
from ..simulator.lru import CacheStatistics
from ..simulator.set_assoc import ReplacementPolicy, SetAssociativeCache
from ..simulator.trace import TraceGenerator
from .prefetcher import NextLinePrefetcher

__all__ = ["HardwareLevelConfig", "HardwareSurrogate", "MeasurementResult"]


@dataclass(frozen=True)
class HardwareLevelConfig:
    """Geometry of one real cache level."""

    cache_size: int
    associativity: int
    line_size: int = 64
    policy: str = ReplacementPolicy.TREE_PLRU
    name: str = ""


@dataclass
class MeasurementResult:
    """Miss counts observed by the hardware surrogate."""

    kernel: str
    accesses: int
    levels: List[CacheStatistics]

    def misses(self, level: int = 0) -> int:
        return self.levels[level].misses

    def hits(self, level: int = 0) -> int:
        return self.levels[level].hits


class HardwareSurrogate:
    """Deterministic stand-in for PAPI measurements on the test system."""

    #: The paper's test system: 32KiB 8-way L1 and 1MiB 16-way L2 per core.
    XEON_GOLD_6150 = (
        HardwareLevelConfig(32 * 1024, 8, name="L1"),
        HardwareLevelConfig(1024 * 1024, 16, name="L2"),
    )

    def __init__(
        self,
        levels: Sequence[HardwareLevelConfig] = XEON_GOLD_6150,
        *,
        prefetch: bool = False,
        padded_layout: bool = False,
    ) -> None:
        self.levels = list(levels)
        self.prefetch = prefetch
        #: Real hardware does not pad array rows to cache lines; keeping the
        #: natural layout is one of the error sources the model tolerates.
        self.padded_layout = padded_layout

    def measure(self, scop: Scop) -> MeasurementResult:
        line_size = self.levels[0].line_size
        generator = TraceGenerator(scop, line_size=line_size, padded=self.padded_layout)
        caches = [
            SetAssociativeCache(cfg.cache_size, cfg.line_size, cfg.associativity, policy=cfg.policy)
            for cfg in self.levels
        ]
        prefetchers = [NextLinePrefetcher(cache) if self.prefetch else None for cache in caches]
        accesses = 0
        for access in generator.accesses():
            accesses += 1
            line = access.address // line_size
            for cache, prefetcher in zip(caches, prefetchers):
                hit = cache.access_line(line, is_write=access.is_write)
                if prefetcher is not None:
                    prefetcher.observe(line, hit)
        return MeasurementResult(kernel=scop.name, accesses=accesses, levels=[c.stats for c in caches])
