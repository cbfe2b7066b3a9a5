"""NumPy-vectorized fast path for the concrete (trace-based) pipeline.

The reference implementations in :mod:`repro.simulator.trace`,
:mod:`repro.simulator.lru` and :mod:`repro.simulator.set_assoc` run one
Python-level iteration per memory access, which makes the trace fallback of
the analytical model, ``cross_check`` validation and the simulator baselines
the dominant wall-time cost of a run.  This module reimplements the same
pipeline on NumPy arrays:

* **trace generation** — iteration domains are enumerated as index arrays
  (bounding box from the rational bounds, then vectorized constraint
  filtering), schedule values become integer key matrices sorted with a
  stable lexsort, and the affine address math is evaluated as exact integer
  matrix operations;
* **stack-distance profiling** — the per-access binary-indexed-tree loop of
  the Bennett-Kruskal algorithm is replaced by an offline blocked count (no
  Python-level per-access iteration): the stack distance of access ``t``
  with previous occurrence ``p`` is ``(t - p) - #{s < t : prev[s] > p}``,
  the number of reuse edges nested inside ``(p, t)``.  Inside blocks of
  ``K`` accesses a bottom-up merge with batched ``searchsorted`` counts
  them (``log2 K`` levels); across block boundaries one prefix sum and one
  ``searchsorted`` into a sorted table of the edges crossing each boundary
  do, the table held to at most ``n / 4`` entries by the choice of ``K``;
* **hit/miss evaluation** — fully associative LRU statistics fall out of the
  distance array directly; set-associative LRU statistics reuse the same
  profiler on the trace grouped (stably) by set index; tree-PLRU and FIFO —
  which have no distance formulation — reuse the vectorized trace and the
  same stable set grouping, replaying each set's (much shorter) subsequence
  with a lean per-set loop (:func:`set_associative_policy_stats`);
* **write-back accounting** — the ``writebacks`` counter of the reference
  caches is recovered from the distance array by residency-period counting
  (each miss starts a period; a period containing a write emits exactly one
  write-back, at eviction or at the end-of-run flush).

Every function is bit-exact against its reference: the trace order matches
:meth:`TraceGenerator.accesses`, the distances match
:class:`StackDistanceProfiler`, and the statistics match
:class:`FullyAssociativeLRU` / :class:`SetAssociativeCache` under the
hierarchy's end-of-run flush convention.  Only prefetch-enabled levels
(:attr:`CacheLevelConfig.prefetch_degree`) stay on the reference
implementation — prefetches perturb replacement state mid-trace in a way no
offline pass expresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..isl.veceval import _np_full_like_any, eval_qpoly_arrays as _eval_qpoly
from ..scop.scop import Scop, Statement
from .lru import CacheStatistics
from .trace import ArrayLayout

__all__ = [
    "TraceArrays",
    "distance_histogram",
    "fully_associative_stats",
    "misses_for_capacity",
    "set_associative_policy_stats",
    "set_associative_stats",
    "simulate_hierarchy_arrays",
    "stack_distances",
    "trace_arrays",
    "trace_model_curve",
]


# ----------------------------------------------------------------------
# Vectorized domain enumeration and trace generation
# ----------------------------------------------------------------------
def _enumerate_statement(statement: Statement) -> Dict[str, "object"]:
    """Integer points of the iteration domain as parallel index arrays.

    The points come back in lexicographic order of ``statement.loop_vars``,
    which is exactly the order :meth:`Statement.enumerate_instances`
    produces, so downstream stable sorts preserve reference tie-breaking.
    """
    from ..isl.constraints import variable_range

    names = list(statement.loop_vars)
    domain = statement.domain
    if not names:
        if domain.has_trivially_false():
            return {}
        return {"__count": 1}
    axes = []
    for name in names:
        low, high = variable_range(domain, name, [n for n in domain.variables() if n != name])
        if high < low:
            return {name: np.empty(0, dtype=np.int64) for name in names}
        axes.append(np.arange(low, high + 1, dtype=np.int64))
    grids = np.meshgrid(*axes, indexing="ij")
    values = {name: grid.reshape(-1) for name, grid in zip(names, grids)}
    keep = None
    for constraint in domain.constraints:
        evaluated = _eval_qpoly(constraint.expr, values)
        ok = (evaluated == 0) if constraint.kind == "eq" else (evaluated >= 0)
        keep = ok if keep is None else (keep & ok)
    if keep is not None and not keep.all():
        values = {name: array[keep] for name, array in values.items()}
    return values


@dataclass
class TraceArrays:
    """The full memory trace of a SCoP as parallel NumPy arrays."""

    #: Byte addresses, one entry per dynamic access, in execution order.
    addresses: "object"
    #: Element sizes in bytes (parallel to ``addresses``).
    sizes: "object"
    #: Write flags (parallel to ``addresses``).
    is_write: "object"
    #: The array layout used to place the arrays (same as the reference).
    layout: ArrayLayout
    line_size: int

    def __len__(self) -> int:
        return int(self.addresses.shape[0])

    def line_indices(self, line_size: Optional[int] = None) -> "object":
        return np.floor_divide(self.addresses, line_size or self.line_size)


def trace_arrays(scop: Scop, *, line_size: int = 64, padded: bool = True) -> TraceArrays:
    """Vectorized equivalent of :meth:`TraceGenerator.accesses`.

    Returns the trace in exactly the reference execution order: statement
    instances sorted by their (zero-padded) schedule vectors with stable
    tie-breaking on statement order and lexicographic instance order, and one
    access per array reference in program order within each instance.
    """
    layout = ArrayLayout(scop, line_size=line_size, padded=padded)
    schedule_length = scop.schedule_length()

    per_statement: List[Tuple[Statement, Dict[str, "object"], int]] = []
    counts: List[int] = []
    for statement in scop.statements:
        values = _enumerate_statement(statement)
        if "__count" in values:
            count = values["__count"]
            values = {}
        else:
            count = int(next(iter(values.values())).shape[0]) if values else 0
        per_statement.append((statement, values, count))
        counts.append(count)

    total_instances = sum(counts)
    keys = np.zeros((total_instances, max(schedule_length, 1)), dtype=np.int64)
    stmt_of = np.zeros(total_instances, dtype=np.int64)
    row_of = np.zeros(total_instances, dtype=np.int64)
    offset = 0
    for stmt_index, (statement, values, count) in enumerate(per_statement):
        if not count:
            continue
        block = slice(offset, offset + count)
        stmt_of[block] = stmt_index
        row_of[block] = np.arange(count, dtype=np.int64)
        for position, expr in enumerate(statement.schedule_exprs(schedule_length)):
            if expr.is_constant():
                keys[block, position] = int(expr.constant_value())
            else:
                keys[block, position] = _eval_qpoly(expr, values)
        offset += count

    # Stable lexicographic sort on the schedule vectors: np.lexsort's last
    # key is primary, so feed the columns reversed.  Ties keep concatenation
    # order (statement order, then instance order), like the reference sort.
    order = np.lexsort(tuple(keys[:, position] for position in reversed(range(keys.shape[1]))))

    access_counts_by_stmt = np.asarray([len(s.accesses) for s, _, _ in per_statement], dtype=np.int64)
    per_instance_accesses = access_counts_by_stmt[stmt_of[order]]
    starts = np.concatenate(([0], np.cumsum(per_instance_accesses)))
    total_accesses = int(starts[-1])

    addresses = np.zeros(total_accesses, dtype=np.int64)
    sizes = np.zeros(total_accesses, dtype=np.int64)
    writes = np.zeros(total_accesses, dtype=bool)

    sorted_stmt = stmt_of[order]
    sorted_row = row_of[order]
    for stmt_index, (statement, values, count) in enumerate(per_statement):
        refs = statement.accesses
        if not count or not refs:
            continue
        positions = np.nonzero(sorted_stmt == stmt_index)[0]
        rows = sorted_row[positions]
        out_starts = starts[positions]
        for ref_index, ref in enumerate(refs):
            array = ref.array
            strides = layout.strides[array.name]
            offsets = None
            for dim, expr in enumerate(ref.indices):
                index = _eval_qpoly(expr, values) if values else _np_full_like_any(values, int(expr.constant_value()))
                _check_bounds(index, array, dim, statement.name)
                contribution = index * int(strides[dim])
                offsets = contribution if offsets is None else offsets + contribution
            if offsets is None:
                offsets = np.zeros(count, dtype=np.int64)
            element_addresses = layout.base[array.name] + offsets * array.element_size
            slots = out_starts + ref_index
            addresses[slots] = element_addresses[rows]
            sizes[slots] = array.element_size
            writes[slots] = ref.is_write
    return TraceArrays(addresses=addresses, sizes=sizes, is_write=writes, layout=layout, line_size=line_size)


def _check_bounds(index, array, dim: int, statement: str) -> None:
    extent = array.shape[dim]
    bad = (index < 0) | (index >= extent)
    if bad.any():
        offender = int(index[np.argmax(bad)])
        raise IndexError(
            f"statement {statement} accesses {array.name} at index {offender} in dimension "
            f"{dim} outside its shape {list(array.shape)}"
        )


# ----------------------------------------------------------------------
# Vectorized Bennett-Kruskal stack distances
# ----------------------------------------------------------------------
def _stable_order(values):
    """``np.argsort(values, kind="stable")`` of an integer array, faster.

    The sort runs on ``values - values.min()`` in the narrowest unsigned
    dtype that holds the span: the map is monotone, so the order is the
    same, and spans below 2^16 get NumPy's radix sort.
    """
    if not values.shape[0]:
        return np.empty(0, dtype=np.intp)
    low = int(values.min())
    keys = (values - low).astype(np.min_scalar_type(int(values.max()) - low))
    return np.argsort(keys, kind="stable")


def _previous_occurrence(lines):
    """``prev[t]`` = index of the previous access to ``lines[t]`` or ``-1``."""
    prev = np.empty(lines.shape[0], dtype=np.int64)
    if not prev.shape[0]:
        return prev
    order = _stable_order(lines)
    sorted_lines = lines[order]
    same = sorted_lines[1:] == sorted_lines[:-1]
    del sorted_lines
    prev[order[0]] = -1
    prev[order[1:]] = np.where(same, order[:-1], -1)
    return prev


def _nested_reuse_counts(prev):
    """``#{s < t : prev[s] > prev[t]}`` for every reuse ``t`` (``prev[t] >= 0``).

    Each access ``s`` with ``prev[s] >= 0`` closes the reuse edge
    ``(prev[s], s)``, so this counts the edges nested inside ``(p, t)``,
    ``p = prev[t]``.  The trace is cut into blocks of ``K`` accesses; with
    ``B`` the start of ``t``'s block the count splits into

    * ``#{s in [B, t) : prev[s] > p}``, an inversion count inside the
      block (:func:`_count_greater_within_blocks`, ``log2 K`` merge
      levels); and, when ``p < B``,
    * ``#{a in (p, B) : a has a next access}`` minus the edges ``(a, s)``
      with ``p < a < B <= s``: one prefix sum, plus one ``searchsorted``
      into the sorted table of the edges that cross each block boundary.

    ``K`` is the smallest power of two whose crossing table has at most
    ``n / 4`` entries; a trace without short reuse gets one block of the
    whole (padded) trace.  First touches get meaningless counts.
    """
    n = prev.shape[0]
    reuse = prev >= 0
    has_next = np.zeros(n, dtype=bool)
    has_next[prev[reuse]] = True
    # open_after[x - 1] = #{edges (a, s) : a < x <= s}, the crossing-table
    # entries of a boundary at x.  A block size's table size is the sum over
    # its boundaries, so each candidate costs n / K reads.
    open_after = np.cumsum(has_next.view(np.int8) - reuse.view(np.int8), dtype=np.int64)
    block = 1
    while block < n and int(open_after[block - 1 :: block].sum()) > n // 4:
        block *= 2
    # Table entries at boundaries <= j * block, at index j - 1.
    group_end = np.cumsum(open_after[block - 1 :: block])
    del open_after

    nested = _count_greater_within_blocks(prev, block)
    if not group_end.size or not group_end[-1]:
        return nested

    # The edges (p, t) that cross a block boundary, i.e. the reuses with p < B.
    bounds = np.arange(n, dtype=np.int64)
    bounds &= -block
    targets = np.flatnonzero(reuse & (prev < bounds))
    del bounds
    sources = prev[targets]
    last = targets // block
    # Table keys boundary * n + source, sorted: boundary-major, then source.
    # Edge e covers per_edge[e] boundaries up to ``last``; entry i (running
    # over all edges) sits at boundary last + 1 - ends[e] + i, where
    # ends = cumsum(per_edge).
    per_edge = last - sources // block
    table = np.repeat((last + 1 - np.cumsum(per_edge)) * n + sources, per_edge)
    table += np.arange(0, table.shape[0] * n, n, dtype=np.int64)
    table.sort()
    crossing = group_end[last - 1] - np.searchsorted(table, last * n + sources, side="right")
    # nexts[x] = #{a <= x : a has a next access}.
    nexts = np.cumsum(has_next)
    nested[targets] += nexts[last * block - 1] - nexts[sources] - crossing
    return nested


def _count_greater_within_blocks(values, block):
    """``out[t] = #{s in [B, t) : values[s] > values[t]}``, ``B = t // block * block``.

    Bottom-up merging inside each block of ``block`` (a power of two)
    accesses.  At half-width ``h`` every ``2h`` pair's right half counts the
    greater values of its left half: by ``h`` elementwise comparisons while
    ``h <= 4``, above that by one batched ``searchsorted`` of the right
    halves into the sorted left halves, pair-offset so one flat array holds
    every pair.  Each ordered pair (s, t) of a block is counted once, at the
    level where s and t first fall into sibling halves.
    """
    n = values.shape[0]
    size = -(-n // block) * block
    padded = np.full(size, -1, dtype=np.int64)
    padded[:n] = values
    span = n + 1  # values lie in [-1, n), so pair offsets keep pairs apart
    counts = np.zeros(size, dtype=np.int64)
    half = 1
    while half < block:
        pairs = size // (2 * half)
        rows = padded.reshape(pairs, 2 * half)
        targets = counts.reshape(pairs, 2 * half)[:, half:]
        if half <= 4:
            for column in range(half):
                targets += rows[:, column : column + 1] > rows[:, half:]
        else:
            offsets = np.arange(0, pairs * span, span, dtype=np.int64)[:, None]
            keys = np.sort(rows[:, :half], axis=1)
            keys += offsets
            queries = rows[:, half:] + offsets
            found = np.searchsorted(keys.reshape(-1), queries.reshape(-1), side="right")
            del keys, queries
            # #{left > query} = half - (found - pair * half).
            targets -= found.reshape(pairs, half)
            del found
            targets += np.arange(half, (pairs + 1) * half, half, dtype=np.int64)[:, None]
        half *= 2
    return counts[:n]


def stack_distances(lines) -> "object":
    """Backward stack distance of every access; ``-1`` for first touches.

    Matches :meth:`StackDistanceProfiler.profile` exactly (with ``-1``
    standing in for ``None``): the distance of access ``t`` with previous
    occurrence ``p`` is the number of distinct lines in ``(p, t)`` plus one,
    i.e. ``(t - p)`` minus the number of reuse edges fully inside ``(p, t)``
    (:func:`_nested_reuse_counts`).

    Cost, for ``n`` accesses and block size ``K``: one stable sort for the
    previous occurrences (radix when the lines span fewer than 2^16),
    ``O(n)`` to choose ``K``, ``log2 K`` merge levels of ``O(n log n)``
    each, and one sort and one search over the at most ``n / 4`` crossing
    entries.  Memory peaks during the merge levels at about five int64
    words per access besides ``lines``.  Measured numbers: the trace-fallback
    bullet of ``docs/PERFORMANCE.md``.
    """
    lines = np.asarray(lines, dtype=np.int64)
    n = lines.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    prev = _previous_occurrence(lines)
    distances = _nested_reuse_counts(prev)
    np.subtract(np.arange(n, dtype=np.int64), distances, out=distances)
    distances -= prev
    distances[prev < 0] = -1
    return distances


def distance_histogram(lines) -> Dict[Optional[int], int]:
    """Stack-distance histogram with the reference ``None`` bucket."""
    distances = stack_distances(lines)
    result: Dict[Optional[int], int] = {}
    values, counts = np.unique(distances, return_counts=True)
    for value, count in zip(values.tolist(), counts.tolist()):
        result[None if value < 0 else value] = count
    return result


def misses_for_capacity(lines, capacity_lines: int) -> Tuple[int, int]:
    """Vectorized (compulsory, capacity) miss counts for one cache size."""
    distances = stack_distances(lines)
    return _misses_from_distances(distances, capacity_lines)


def _misses_from_distances(distances, capacity_lines: int) -> Tuple[int, int]:
    compulsory = int((distances < 0).sum())
    capacity = int((distances > capacity_lines).sum())
    return compulsory, capacity


def _count_writebacks(lines, distances, is_write, capacity_lines: int) -> int:
    """LRU write-backs over this trace, end-of-run flush included.

    Every miss starts a new residency period of its line (the line was not
    in the cache, so any previous period ended with an eviction); a period
    containing at least one write leaves the line dirty and emits exactly
    one write-back — at its eviction, or at the final flush for the period
    still resident when the trace ends.  Grouping accesses stably by line
    makes periods contiguous runs, so one cumulative sum over the miss flags
    labels them and one ``unique`` over the written labels counts them.
    """
    is_write = np.asarray(is_write, dtype=bool)
    if not is_write.any():
        return 0
    miss = (distances < 0) | (distances > capacity_lines)
    order = _stable_order(lines)
    periods = np.cumsum(miss[order])
    return int(np.unique(periods[is_write[order]]).size)


def fully_associative_stats(
    lines, cache_size: int, line_size: int = 64, *, is_write=None
) -> CacheStatistics:
    """Statistics identical to :func:`simulate_fully_associative`.

    With ``is_write`` (a parallel bool array), ``writebacks`` is filled in
    under the hierarchy's end-of-run flush convention
    (:meth:`FullyAssociativeLRU.flush`); without it the counter stays zero.
    """
    if cache_size <= 0 or line_size <= 0:
        raise ValueError("cache and line size must be positive")
    if cache_size % line_size:
        raise ValueError("cache size must be a multiple of the line size")
    lines = np.asarray(lines, dtype=np.int64)
    distances = stack_distances(lines)
    stats = _stats_from_distances(distances, cache_size // line_size, conflict=False)
    if is_write is not None:
        stats.writebacks = _count_writebacks(lines, distances, is_write, cache_size // line_size)
    return stats


def set_associative_stats(
    lines,
    cache_size: int,
    line_size: int = 64,
    associativity: int = 8,
    *,
    is_write=None,
) -> CacheStatistics:
    """Statistics identical to :class:`SetAssociativeCache` with LRU.

    Each set observes the stable subsequence of lines mapping to it, so the
    per-set LRU stack distance decides hits; grouping the trace stably by set
    index lets one global profiling pass answer every set at once (lines of
    different sets never alias, and each group is contiguous after the stable
    sort, so no reuse window spans a foreign set).  ``is_write`` fills in
    ``writebacks`` exactly like :func:`fully_associative_stats`.
    """
    if cache_size % (line_size * associativity):
        raise ValueError("cache size must be a multiple of line size * associativity")
    lines = np.asarray(lines, dtype=np.int64)
    num_sets = cache_size // (line_size * associativity)
    order = _stable_order(lines % num_sets)
    grouped = lines[order]
    distances = stack_distances(grouped)
    stats = _stats_from_distances(distances, associativity, conflict=True)
    if is_write is not None:
        writes = np.asarray(is_write, dtype=bool)[order]
        stats.writebacks = _count_writebacks(grouped, distances, writes, associativity)
    return stats


def set_associative_policy_stats(
    lines,
    cache_size: int,
    line_size: int = 64,
    associativity: int = 8,
    *,
    policy: str,
    is_write=None,
) -> CacheStatistics:
    """Statistics identical to :class:`SetAssociativeCache` with FIFO/tree-PLRU.

    Neither policy is a stack algorithm, so there is no distance
    formulation; but sets never interact, so after the same stable
    set-grouping :func:`set_associative_stats` uses, each set's (short)
    subsequence is replayed by a lean per-set loop with exactly the
    reference's replacement structures.  The vectorized trace generation and
    grouping — the expensive part of a run — stay array operations.
    ``is_write`` fills in ``writebacks`` under the end-of-run flush
    convention, like the other statistics functions.
    """
    from collections import OrderedDict

    from .set_assoc import ReplacementPolicy, _TreePLRUSet

    if policy not in (ReplacementPolicy.FIFO, ReplacementPolicy.TREE_PLRU):
        raise ValueError(f"unsupported replacement policy {policy!r}")
    if cache_size % (line_size * associativity):
        raise ValueError("cache size must be a multiple of line size * associativity")
    lines = np.asarray(lines, dtype=np.int64)
    n = int(lines.shape[0])
    stats = CacheStatistics()
    stats.accesses = n
    if n == 0:
        return stats
    num_sets = cache_size // (line_size * associativity)
    sets = lines % num_sets
    order = _stable_order(sets)
    grouped = lines[order]
    grouped_sets = sets[order]
    writes = np.asarray(is_write, dtype=bool)[order] if is_write is not None else None
    boundaries = np.flatnonzero(grouped_sets[1:] != grouped_sets[:-1]) + 1
    starts = np.concatenate((np.zeros(1, dtype=np.int64), boundaries))
    ends = np.concatenate((boundaries, np.asarray([n], dtype=np.int64)))

    hits = compulsory = writebacks = 0
    for start, end in zip(starts.tolist(), ends.tolist()):
        sequence = grouped[start:end].tolist()
        written = writes[start:end].tolist() if writes is not None else None
        seen: set = set()
        dirty: set = set()
        if policy == ReplacementPolicy.TREE_PLRU:
            plru_set = _TreePLRUSet(associativity)
            for position, line in enumerate(sequence):
                way = plru_set.lookup(line)
                if way is not None:
                    plru_set.touch(way)
                    hits += 1
                else:
                    if line not in seen:
                        compulsory += 1
                        seen.add(line)
                    evicted = plru_set.insert(line)
                    if evicted is not None and evicted in dirty:
                        dirty.discard(evicted)
                        writebacks += 1
                if written is not None and written[position]:
                    dirty.add(line)
        else:  # FIFO: hits never reorder; misses enqueue and evict the oldest.
            fifo_set: "OrderedDict[int, None]" = OrderedDict()
            for position, line in enumerate(sequence):
                if line in fifo_set:
                    hits += 1
                else:
                    if line not in seen:
                        compulsory += 1
                        seen.add(line)
                    fifo_set[line] = None
                    if len(fifo_set) > associativity:
                        evicted, _ = fifo_set.popitem(last=False)
                        if evicted in dirty:
                            dirty.discard(evicted)
                            writebacks += 1
                if written is not None and written[position]:
                    dirty.add(line)
        writebacks += len(dirty)  # end-of-run flush

    stats.hits = hits
    stats.compulsory_misses = compulsory
    stats.conflict_misses = n - hits - compulsory
    stats.writebacks = writebacks
    return stats


def _stats_from_distances(distances, capacity_lines: int, *, conflict: bool) -> CacheStatistics:
    stats = CacheStatistics()
    stats.accesses = int(distances.shape[0])
    compulsory = int((distances < 0).sum())
    over = int((distances > capacity_lines).sum())
    stats.compulsory_misses = compulsory
    if conflict:
        stats.conflict_misses = over
    else:
        stats.capacity_misses = over
    stats.hits = stats.accesses - compulsory - over
    return stats


# ----------------------------------------------------------------------
# Hierarchy evaluation
# ----------------------------------------------------------------------
def simulate_hierarchy_arrays(trace: TraceArrays, configs: Sequence) -> Optional[List[CacheStatistics]]:
    """Per-level statistics for an inclusive hierarchy, from one trace pass.

    Every level observes the full trace (the inclusive model), so levels are
    independent.  Statistics — including ``writebacks`` — match
    :meth:`CacheHierarchySimulator.run` (which ends with a flush) for every
    replacement policy.  Returns ``None`` only when a level enables a
    prefetcher (``prefetch_degree > 0``): prefetches perturb replacement
    state mid-trace, which no offline pass expresses, so the caller falls
    back to the reference simulator.
    """
    from .set_assoc import ReplacementPolicy

    results: List[CacheStatistics] = []
    for config in configs:
        if getattr(config, "prefetch_degree", 0):
            return None
        lines = trace.line_indices(config.line_size)
        if config.associativity is None:
            results.append(
                fully_associative_stats(
                    lines, config.cache_size, config.line_size, is_write=trace.is_write
                )
            )
        elif config.policy == ReplacementPolicy.LRU:
            results.append(
                set_associative_stats(
                    lines,
                    config.cache_size,
                    config.line_size,
                    config.associativity,
                    is_write=trace.is_write,
                )
            )
        else:
            results.append(
                set_associative_policy_stats(
                    lines,
                    config.cache_size,
                    config.line_size,
                    config.associativity,
                    policy=config.policy,
                    is_write=trace.is_write,
                )
            )
    return results


def trace_model_curve(scop: Scop, *, line_size: int) -> Dict[Optional[int], int]:
    """Full stack-distance histogram of the exact trace (``None`` bucket =
    first touches), the concrete feedstock of
    :meth:`repro.core.curve.MissCurve.from_histogram` — the vectorized body
    of the analytical model's trace fallback.

    One trace generation plus one profiling pass answer *every* capacity: the
    histogram's suffix sums are the whole miss curve, so a 64-point sweep
    costs the same as a single fixed-capacity fallback analysis.
    """
    return distance_histogram(trace_arrays(scop, line_size=line_size, padded=True).line_indices())
