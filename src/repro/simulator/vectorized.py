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
  the Bennett-Kruskal algorithm is replaced by an offline merge-counting
  pass (``O(n log^2 n)`` NumPy work, no Python-level per-access iteration):
  the stack distance of access ``t`` with previous occurrence ``p`` is
  ``(t - p) - #{s < t : prev[s] > p}``, a dominance count evaluated with a
  bottom-up merge and batched ``searchsorted``;
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
def _previous_occurrence(lines):
    """``prev[t]`` = index of the previous access to ``lines[t]`` or ``-1``."""
    n = lines.shape[0]
    order = np.argsort(lines, kind="stable")
    sorted_lines = lines[order]
    prev = np.full(n, -1, dtype=np.int64)
    if n > 1:
        same = sorted_lines[1:] == sorted_lines[:-1]
        prev[order[1:][same]] = order[:-1][same]
    return prev


def _count_greater_before(values):
    """``out[t] = #{s < t : values[s] > values[t]}`` by bottom-up merging.

    A classic inversion count, evaluated level by level: at block size ``b``
    every (sorted) even block is merged against the queries of its odd
    sibling with one batched ``searchsorted`` over offset-disambiguated
    keys.  Each ordered pair (s, t) is counted exactly once — at the level
    where s and t first fall into sibling blocks.
    """
    n = values.shape[0]
    counts = np.zeros(n, dtype=np.int64)
    if n < 2:
        return counts
    size = 1
    while size < n:
        size *= 2
    low = int(values.min())
    padded = np.full(size, low - 1, dtype=np.int64)
    padded[:n] = values
    span = int(values.max()) - (low - 1) + 2
    block = 1
    while block < size:
        pair_count = size // (2 * block)
        pairs = padded.reshape(pair_count, 2 * block)
        left_sorted = np.sort(pairs[:, :block], axis=1)
        queries = pairs[:, block:]
        pair_ids = np.arange(pair_count, dtype=np.int64)[:, None]
        base = low - 1
        left_keys = ((left_sorted - base) + pair_ids * span).reshape(-1)
        query_keys = ((queries - base) + pair_ids * span).reshape(-1)
        positions = np.searchsorted(left_keys, query_keys, side="right")
        leq = positions - np.repeat(pair_ids.reshape(-1) * block, block)
        greater = block - leq
        targets = (np.arange(size, dtype=np.int64).reshape(pair_count, 2 * block)[:, block:]).reshape(-1)
        in_range = targets < n
        # Each access appears in exactly one right block per level, so the
        # target indices are unique and a fancy-indexed += is safe (and much
        # faster than np.add.at).
        counts[targets[in_range]] += greater[in_range]
        block *= 2
    return counts


def stack_distances(lines) -> "object":
    """Backward stack distance of every access; ``-1`` for first touches.

    Matches :meth:`StackDistanceProfiler.profile` exactly (with ``-1``
    standing in for ``None``): the distance of access ``t`` with previous
    occurrence ``p`` is the number of distinct lines in ``(p, t)`` plus one,
    i.e. ``(t - p)`` minus the number of reuse edges fully inside ``(p, t)``.
    """
    lines = np.asarray(lines, dtype=np.int64)
    n = lines.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    prev = _previous_occurrence(lines)
    inversions = _count_greater_before(prev)
    t = np.arange(n, dtype=np.int64)
    distances = (t - prev) - inversions
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
    order = np.argsort(lines, kind="stable")
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
    order = np.argsort(lines % num_sets, kind="stable")
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
    order = np.argsort(sets, kind="stable")
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
