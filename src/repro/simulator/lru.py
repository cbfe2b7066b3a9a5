"""Fully associative LRU cache simulation and stack-distance profiling.

These are the reference implementations the analytical model is validated
against:

* :class:`FullyAssociativeLRU` simulates a single fully associative cache with
  LRU replacement, write-allocate and write-through semantics — exactly the
  hardware model of the paper (Section 2.1).
* :class:`StackDistanceProfiler` computes the exact backward stack (reuse)
  distance of every access with the classic Mattson/Bennett-Kruskal algorithm
  using a binary indexed tree, in ``O(n log n)``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "CacheStatistics",
    "FullyAssociativeLRU",
    "StackDistanceProfiler",
    "simulate_fully_associative",
]


@dataclass
class CacheStatistics:
    """Hit/miss counters of a simulated cache.

    ``writebacks`` counts dirty-line evictions (plus the end-of-run flush of
    a hierarchy run) — the write-back traffic a write-back/write-allocate
    cache would generate.  Miss accounting is unchanged by the write policy:
    under write-allocate a write misses exactly like a read.
    """

    accesses: int = 0
    hits: int = 0
    compulsory_misses: int = 0
    capacity_misses: int = 0
    conflict_misses: int = 0
    writebacks: int = 0

    @property
    def misses(self) -> int:
        return self.compulsory_misses + self.capacity_misses + self.conflict_misses

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def as_dict(self) -> Dict[str, int]:
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "compulsory_misses": self.compulsory_misses,
            "capacity_misses": self.capacity_misses,
            "conflict_misses": self.conflict_misses,
            "writebacks": self.writebacks,
            "misses": self.misses,
        }


class FullyAssociativeLRU:
    """A fully associative LRU cache of ``cache_size`` bytes.

    The cache distinguishes compulsory misses (first touch of a line) from
    capacity misses, which is what the analytical model predicts.  Writes
    allocate the line (write-allocate), so a write behaves exactly like a
    read for miss accounting; a per-line dirty bit additionally counts the
    write-back traffic (``stats.writebacks``) a write-back cache would emit
    — one write-back per dirty eviction, plus :meth:`flush` at end of run.
    """

    def __init__(self, cache_size: int, line_size: int = 64) -> None:
        if cache_size <= 0 or line_size <= 0:
            raise ValueError("cache and line size must be positive")
        if cache_size % line_size:
            raise ValueError("cache size must be a multiple of the line size")
        self.cache_size = cache_size
        self.line_size = line_size
        self.capacity_lines = cache_size // line_size
        self.stats = CacheStatistics()
        self._lines: "OrderedDict[int, None]" = OrderedDict()
        self._touched: set = set()
        self._dirty: set = set()

    def access(self, address: int, *, is_write: bool = False) -> bool:
        """Access one byte address; returns ``True`` on a hit."""
        return self.access_line(address // self.line_size, is_write=is_write)

    def access_line(self, line: int, *, is_write: bool = False) -> bool:
        self.stats.accesses += 1
        if line in self._lines:
            self._lines.move_to_end(line)
            if is_write:
                self._dirty.add(line)
            self.stats.hits += 1
            return True
        if line in self._touched:
            self.stats.capacity_misses += 1
        else:
            self.stats.compulsory_misses += 1
            self._touched.add(line)
        self._lines[line] = None
        if is_write:
            self._dirty.add(line)
        if len(self._lines) > self.capacity_lines:
            evicted, _ = self._lines.popitem(last=False)
            if evicted in self._dirty:
                self._dirty.discard(evicted)
                self.stats.writebacks += 1
        return False

    def flush(self) -> None:
        """Write back every resident dirty line (end-of-run convention)."""
        self.stats.writebacks += len(self._dirty)
        self._dirty.clear()

    def reset(self) -> None:
        self.stats = CacheStatistics()
        self._lines.clear()
        self._touched.clear()
        self._dirty.clear()


def simulate_fully_associative(
    line_trace: Iterable[int],
    cache_size: int,
    line_size: int = 64,
) -> CacheStatistics:
    """Simulate a trace of cache-line indices through a fully associative LRU."""
    cache = FullyAssociativeLRU(cache_size, line_size)
    for line in line_trace:
        cache.access_line(line)
    return cache.stats


class _BinaryIndexedTree:
    def __init__(self, size: int) -> None:
        self.size = size
        self.tree = [0] * (size + 1)

    def add(self, index: int, delta: int) -> None:
        index += 1
        while index <= self.size:
            self.tree[index] += delta
            index += index & (-index)

    def prefix_sum(self, index: int) -> int:
        index += 1
        total = 0
        while index > 0:
            total += self.tree[index]
            index -= index & (-index)
        return total

    def range_sum(self, low: int, high: int) -> int:
        if high < low:
            return 0
        return self.prefix_sum(high) - (self.prefix_sum(low - 1) if low > 0 else 0)


class StackDistanceProfiler:
    """Exact LRU stack distances via the Bennett-Kruskal algorithm.

    The *backward stack distance* of an access is the number of distinct cache
    lines referenced since the previous access to the same line, including the
    line itself — i.e. the quantity the paper's symbolic pipeline computes.
    The first access of a line has an undefined (infinite) distance.
    """

    def __init__(self) -> None:
        self._distances: List[Optional[int]] = []

    def profile(self, line_trace: Iterable[int]) -> List[Optional[int]]:
        trace = list(line_trace)
        n = len(trace)
        tree = _BinaryIndexedTree(n)
        last_seen: Dict[int, int] = {}
        distances: List[Optional[int]] = []
        for time, line in enumerate(trace):
            previous = last_seen.get(line)
            if previous is None:
                distances.append(None)
            else:
                # Distinct lines accessed in (previous, time) plus the line itself.
                distances.append(tree.range_sum(previous + 1, time - 1) + 1)
            if previous is not None:
                tree.add(previous, -1)
            tree.add(time, 1)
            last_seen[line] = time
        self._distances = distances
        return distances

    def histogram(self, line_trace: Iterable[int]) -> Dict[Optional[int], int]:
        """Stack distance histogram (``None`` bucket = compulsory misses)."""
        result: Dict[Optional[int], int] = {}
        for distance in self.profile(line_trace):
            result[distance] = result.get(distance, 0) + 1
        return result

    def misses_for_capacity(self, line_trace: Iterable[int], capacity_lines: int) -> Tuple[int, int]:
        """Return (compulsory, capacity) miss counts for a given capacity.

        An access hits a fully associative LRU cache of ``capacity_lines``
        lines iff its stack distance is defined and at most the capacity.
        """
        compulsory = 0
        capacity = 0
        for distance in self.profile(line_trace):
            if distance is None:
                compulsory += 1
            elif distance > capacity_lines:
                capacity += 1
        return compulsory, capacity
