"""NumPy-vectorized fast path for the concrete (trace-based) pipeline.

The reference implementations in :mod:`repro.simulator.trace`,
:mod:`repro.simulator.lru` and :mod:`repro.simulator.set_assoc` run one
Python-level iteration per memory access, which makes the trace fallback of
the analytical model, ``cross_check`` validation and the simulator baselines
the dominant wall-time cost of a run.  This module reimplements the same
pipeline on NumPy arrays:

* **trace generation** — iteration domains are enumerated as index arrays
  (bounding box from the rational bounds, then vectorized constraint
  filtering); each instance's schedule vector is packed, mixed-radix by the
  value range of each position, into as few ``uint64`` words as fit (one
  for every PolyBench kernel), which one stable ``lexsort`` orders; and the
  affine address math is evaluated as exact integer array operations;
* **stack-distance profiling** — the per-access binary-indexed-tree loop of
  the Bennett-Kruskal algorithm is replaced by an offline blocked count (no
  Python-level per-access iteration).  Accesses that repeat the line just
  before them have distance 1 and are dropped first (a sixth to a quarter
  of a PolyBench trace); removing them changes no other distance.  On the
  rest, the stack distance of access ``t`` with previous occurrence ``p``
  is ``(t - p) - #{s < t : prev[s] > p}``, the number of reuse edges
  nested inside ``(p, t)``.  Inside blocks of ``K`` accesses a bottom-up
  merge sort counts them (``log2 K`` levels, one stable merge each);
  across block boundaries one prefix sum and one ``searchsorted`` into a
  sorted table of the edges crossing each boundary do, the table held to
  at most ``n / 4`` entries by the choice of ``K``.  Both run in chunks
  on one process-wide thread pool (:func:`_run_all`), the chunks in flight
  together about 2^16 accesses whatever the number of threads, which
  bounds their temporaries;
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

import os
import threading
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

    per_statement: List[Tuple[Statement, Dict[str, "object"], int, list]] = []
    for statement in scop.statements:
        values = _enumerate_statement(statement)
        if "__count" in values:
            count = values["__count"]
            values = {}
        else:
            count = int(next(iter(values.values())).shape[0]) if values else 0
        per_statement.append((statement, values, count, _schedule_columns(statement, values, schedule_length)))

    # Each instance's schedule vector becomes a few mixed-radix sort words
    # (one for every PolyBench kernel), sized by the range of each position.
    present = [columns for _, _, count, columns in per_statement if count]
    ranges = [_value_range([columns[position] for columns in present]) for position in range(schedule_length)]
    packing, word_count = _key_packing(ranges if present else [])
    counts = [count for _, _, count, _ in per_statement]
    total_instances = sum(counts)
    words = np.zeros((word_count, total_instances), dtype=np.uint64)
    stmt_of = np.empty(total_instances, dtype=np.min_scalar_type(max(len(counts) - 1, 0)))
    row_of = np.empty(total_instances, dtype=np.min_scalar_type(max(max(counts, default=0) - 1, 0)))
    offset = 0
    for stmt_index, (_, _, count, columns) in enumerate(per_statement):
        if not count:
            continue
        block = slice(offset, offset + count)
        stmt_of[block] = stmt_index
        row_of[block] = np.arange(count)
        for place, column in zip(packing, columns):
            if place is not None:
                word, low, scale = place
                words[word, block] += _digits(column, low, scale)
        offset += count

    # Stable lexicographic sort on the words: np.lexsort's last key is
    # primary, so feed them reversed.  Ties keep concatenation order
    # (statement order, then instance order), like the reference sort.
    order = np.lexsort(words[::-1]) if word_count else np.arange(total_instances)
    del words
    sorted_stmt = stmt_of[order]
    sorted_row = row_of[order]
    del order, stmt_of, row_of

    access_counts_by_stmt = np.asarray([len(s.accesses) for s, _, _, _ in per_statement], dtype=np.int64)
    starts = np.zeros(total_instances + 1, dtype=np.int64)
    np.cumsum(access_counts_by_stmt[sorted_stmt], out=starts[1:])
    total_accesses = int(starts[-1])

    addresses = np.zeros(total_accesses, dtype=np.int64)
    writes = np.zeros(total_accesses, dtype=bool)
    for stmt_index, (statement, values, count, _) in enumerate(per_statement):
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
            writes[slots] = ref.is_write
    return TraceArrays(addresses=addresses, is_write=writes, layout=layout, line_size=line_size)


def _schedule_columns(statement: Statement, values: Dict[str, "object"], length: int) -> list:
    """The statement's schedule over its instances, zero-padded to ``length``:
    an ``int`` per static position, the loop variable's index array otherwise."""
    columns = [entry if isinstance(entry, int) else values[entry] for entry in statement.schedule]
    return columns + [0] * (length - len(columns))


def _value_range(columns) -> Tuple[int, int]:
    """Smallest and largest value of non-empty schedule columns."""
    arrays = [column for column in columns if isinstance(column, np.ndarray)]
    constants = [column for column in columns if not isinstance(column, np.ndarray)]
    return (
        min([int(array.min()) for array in arrays] + constants),
        max([int(array.max()) for array in arrays] + constants),
    )


#: Values a ``uint64`` sort word can tell apart.
_WORD_RANGE = 2**64


def _key_packing(ranges: Sequence[Tuple[int, int]]) -> Tuple[List[Optional[Tuple[int, int, int]]], int]:
    """Mixed-radix packing of key columns into as few ``uint64`` words as fit.

    Column ``p`` holds values in ``ranges[p] = (low, high)``.  Columns of
    one value order nothing and are left out; the others fill words in
    order, while the product of a word's spans stays within 2^64, and each
    adds the digit ``(value - low) * scale`` to its word, earlier columns
    more significant.  Comparing the words lexicographically then compares
    the columns lexicographically.  Returns ``(word, low, scale)`` or
    ``None`` per column, and the number of words.
    """
    spans = [high - low + 1 for low, high in ranges]
    groups: List[List[int]] = []
    room = 0  # how many values the last word still has room for
    for position, span in enumerate(spans):
        if span == 1:
            continue
        if span > room:
            groups.append([])
            room = _WORD_RANGE
        groups[-1].append(position)
        room //= span
    packing: List[Optional[Tuple[int, int, int]]] = [None] * len(spans)
    for word, group in enumerate(groups):
        scale = 1
        for position in reversed(group):
            packing[position] = (word, ranges[position][0], scale)
            scale *= spans[position]
    return packing, len(groups)


def _digits(column, low: int, scale: int):
    """``(column - low) * scale`` as ``uint64``: exact, as it is below 2^64,
    though the ``int64`` difference may wrap on the way."""
    if isinstance(column, np.ndarray):
        digits = (column - low).astype(np.uint64)
        digits *= np.uint64(scale)
        return digits
    return np.uint64((column - low) * scale)


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
#: Accesses the stack-distance count works on at once, over all its
#: threads: each thread's chunk is this divided by the threads, rounded to
#: whole blocks, so the chunks' temporaries do not grow with the CPU count.
_CHUNK = 2**16

_POOL = None
_POOL_LOCK = threading.Lock()


def _pool_size() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _forget_pool() -> None:
    """Drop the pool in a forked child, where its threads do not exist."""
    global _POOL, _POOL_LOCK
    _POOL = None
    _POOL_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _chunking(unit: int) -> Tuple[int, int]:
    """The chunk length, a multiple of ``unit``, and how many chunks may run
    at once: together at most ``_CHUNK`` items, or one unit when a unit is
    longer."""
    threads = _pool_size()
    chunk = max(_CHUNK // threads // unit, 1) * unit
    return chunk, min(threads, max(_CHUNK // chunk, 1))


def _run_all(function, items, workers: int) -> None:
    """``function(item)`` for every item of the range ``items``: in turn when
    ``workers`` or the items are fewer than two, else in ``workers`` strands
    (every ``workers``-th item) on the process's thread pool, made on first
    use with one thread per CPU.  NumPy's sorts, searches and elementwise
    kernels release the GIL, so the strands run side by side."""
    workers = min(workers, len(items))
    if workers < 2:
        for item in items:
            function(item)
        return
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            from concurrent.futures import ThreadPoolExecutor

            _POOL = ThreadPoolExecutor(max_workers=_pool_size(), thread_name_prefix="stack-distances")
        pool = _POOL

    def strand(first):
        for item in items[first::workers]:
            function(item)

    for _ in pool.map(strand, range(workers)):
        pass


def _stable_order(values):
    """``np.argsort(values, kind="stable")`` of an integer array, faster.

    The sort runs on ``values - values.min()`` in the narrowest unsigned
    dtype that holds the span: the map is monotone, so the order is the
    same, and spans below 2^16 get NumPy's radix sort.  The subtraction runs
    in that dtype, wrapping modulo its range, which is exact because every
    difference fits; no full-width copy of ``values`` is made.
    """
    if not values.shape[0]:
        return np.empty(0, dtype=np.intp)
    low = values.min()
    dtype = np.min_scalar_type(int(values.max()) - int(low))
    keys = np.subtract(values, low, dtype=dtype, casting="unsafe")
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
    whole (padded) trace.  The searches run in chunks on the thread pool,
    like the blocks (:func:`_chunking`).  First touches get meaningless
    counts.
    """
    n = prev.shape[0]
    reuse = prev >= 0
    has_next = np.zeros(n, dtype=bool)
    has_next[prev[reuse]] = True
    # open_after[x - 1] = #{edges (a, s) : a < x <= s}, the crossing-table
    # entries of a boundary at x.  A block size's table size is the sum over
    # its boundaries, so each candidate costs n / K reads.
    # The prefix sums run in place: np.cumsum of a bool or int8 array would
    # first make a full-width int64 copy of it.
    open_after = has_next.astype(np.int64)
    open_after -= reuse
    np.cumsum(open_after, out=open_after)
    block = 1
    while block < n and int(open_after[block - 1 :: block].sum()) > n // 4:
        block *= 2
    # Table entries at boundaries <= j * block, at index j - 1.
    group_end = np.cumsum(open_after[block - 1 :: block])
    del open_after

    nested = _count_greater_within_blocks(prev, block)
    if not group_end.size or not group_end[-1]:
        return nested

    # The edges (p, t) that cross a block boundary, i.e. the reuses with p < B,
    # found a chunk at a time.
    del reuse
    pieces = []
    for start in range(0, n, _CHUNK):
        bounds = np.arange(start, min(start + _CHUNK, n), dtype=np.int64)
        bounds &= -block
        piece = prev[start : start + _CHUNK]
        pieces.append(np.flatnonzero((piece >= 0) & (piece < bounds)) + start)
    targets = np.concatenate(pieces)
    del pieces
    sources = prev[targets]
    last = targets // block
    # Table keys boundary * n + source, sorted: boundary-major, then source.
    # Edge e covers per_edge[e] boundaries up to ``last``; entry i (running
    # over all edges) sits at boundary last + 1 - ends[e] + i, where
    # ends = cumsum(per_edge).
    per_edge = last - sources // block
    table = np.repeat((last + 1 - np.cumsum(per_edge)) * n + sources, per_edge)
    del per_edge
    table += np.arange(0, table.shape[0] * n, n, dtype=np.int64)
    table.sort()
    # nexts[x] = #{a <= x : a has a next access}.
    nexts = has_next.astype(np.int64)
    del has_next
    np.cumsum(nexts, out=nexts)

    chunk, workers = _chunking(1)

    def cross(start):
        edges = slice(start, start + chunk)
        before, source = last[edges], sources[edges]
        # The edges (a, s) with p < a < B <= s: group_end[before - 1] - found.
        found = np.searchsorted(table, before * n + source, side="right")
        found += nexts[before * block - 1] - nexts[source] - group_end[before - 1]
        nested[targets[edges]] += found

    _run_all(cross, range(0, targets.shape[0], chunk), workers)
    return nested


def _count_greater_within_blocks(values, block):
    """``out[t] = #{s in [B, t) : values[s] > values[t]}``, ``B = t // block * block``.

    The blocks (``block`` a power of two) are cut into chunks of whole
    blocks (:func:`_chunking`) that run their merge levels
    (:func:`_merge_levels`) on the thread pool (:func:`_run_all`) and write
    straight into the result, so every temporary is chunk-sized; only the
    tail block is padded.  A block longer than ``_CHUNK`` (a trace without
    short reuse) is a chunk of its own.
    """
    n = values.shape[0]
    counts = np.zeros(n, dtype=np.int64)
    chunk, workers = _chunking(block)

    def merge(start):
        stop = min(start + chunk, n)
        whole = stop - (stop - start) % block
        if whole > start:
            _merge_levels(values[start:whole], counts[start:whole], block)
        if whole < stop:
            # The padding comes after every access of the tail block, so it
            # counts for none of them.
            padded = np.full(block, -1, dtype=np.int64)
            padded[: stop - whole] = values[whole:stop]
            tail = np.zeros(block, dtype=np.int64)
            _merge_levels(padded, tail, block)
            counts[whole:stop] = tail[: stop - whole]

    _run_all(merge, range(0, n, chunk), workers)
    return counts


def _merge_levels(values, out, block):
    """Add ``#{s in [B, t) : values[s] > values[t]}`` to ``out[t]``,
    ``B = t // block * block`` (``block`` a power of two dividing the length).

    A bottom-up merge sort.  At half-width ``h`` every ``2h`` pair's right
    half counts the greater values of its left half: by ``h * h``
    column-against-column comparisons while ``h <= 4``; above that each
    value is keyed with its index, ``(value + 1) << bits | index``, so keys
    are distinct and a left value sorts before an equal right one.  With
    both halves of a pair sorted, one stable sort per level merges them
    (two runs), and a right key with rank ``j`` among the right keys of the
    level, at position ``P`` of pair ``r``, follows ``P - 2hr - (j - hr)``
    left keys, so it has ``h (r + 1) + j - P`` greater ones.  Each ordered
    pair (s, t) of a block is counted once, at the level where s and t
    first fall into sibling halves.
    """
    size = values.shape[0]
    half = 1
    while half < block and half <= 4:
        # Columns, not rows of h: long strided loops instead of short ones.
        rows = values.reshape(-1, 2 * half)
        targets = out.reshape(-1, 2 * half)
        for right in range(half, 2 * half):
            for left in range(half):
                targets[:, right] += rows[:, left] > rows[:, right]
        half *= 2
    if half >= block:
        return
    bits = (size - 1).bit_length()
    keys = values + 1  # values lie in [-1, n)
    keys <<= bits
    keys |= np.arange(size, dtype=np.int64)
    keys.reshape(-1, half).sort(axis=1)
    ranks = np.arange(size // 2, dtype=np.int64)
    while half < block:
        keys.reshape(-1, 2 * half).sort(axis=1, kind="stable")
        right = np.flatnonzero(keys & half)
        greater = right // (2 * half)
        greater += 1
        greater *= half
        greater += ranks
        greater -= right
        right = keys[right]
        right &= (1 << bits) - 1
        out[right] += greater
        half *= 2


def _drop_repeats(lines):
    """Split off the accesses that repeat the line of the access before them.

    Such an access has stack distance 1, and removing it changes no other
    distance: the window of any later reuse that holds it also holds the
    access before it, on the same line.  Returns the lines of the other
    accesses, in order, and the mask of where they sit in ``lines``.
    """
    keep = np.empty(lines.shape[0], dtype=bool)
    keep[:1] = True
    np.not_equal(lines[1:], lines[:-1], out=keep[1:])
    return lines[keep], keep


def _distances_from_previous(prev):
    """Stack distances (``-1`` for first touches) from the previous
    occurrences: ``(t - p)`` minus the reuse edges nested inside ``(p, t)``."""
    distances = _nested_reuse_counts(prev)
    np.subtract(np.arange(prev.shape[0], dtype=np.int64), distances, out=distances)
    distances -= prev
    distances[prev < 0] = -1
    return distances


def stack_distances(lines) -> "object":
    """Backward stack distance of every access; ``-1`` for first touches.

    Matches :meth:`StackDistanceProfiler.profile` exactly (with ``-1``
    standing in for ``None``): the distance of access ``t`` with previous
    occurrence ``p`` is the number of distinct lines in ``(p, t)`` plus one,
    i.e. ``(t - p)`` minus the number of reuse edges fully inside ``(p, t)``
    (:func:`_nested_reuse_counts`).  Accesses that repeat the line just
    before them get distance 1 and are left out of the count
    (:func:`_drop_repeats`); on PolyBench kernels at ``medium`` they are
    17-26% of the trace.

    Cost, for ``n`` accesses left after the repeats and block size ``K``:
    one stable sort for the previous occurrences (radix when the lines span
    fewer than 2^16), ``O(n)`` to choose ``K``, ``log2 K`` merge levels of
    ``O(n)`` each (a stable merge of two sorted runs, a scan and a
    scatter), and one sort and one search over the at most ``n / 4``
    crossing entries; the levels and the search run chunk by chunk on the
    thread pool.  Besides ``lines`` and the previous occurrences, memory
    peaks at about two int64 words per counted access (the counts and a
    prefix sum) plus a few words for each of the about 2^16 accesses in
    flight, however many threads run them (for each access of the block
    when one block is longer).
    Measured numbers: the trace-fallback bullet of ``docs/PERFORMANCE.md``.
    """
    lines = np.asarray(lines, dtype=np.int64)
    kept, keep = _drop_repeats(lines)
    counted = _distances_from_previous(_previous_occurrence(kept))
    if kept.shape[0] == lines.shape[0]:
        return counted
    distances = np.ones(lines.shape[0], dtype=np.int64)
    distances[keep] = counted
    return distances


def distance_histogram(lines) -> Dict[Optional[int], int]:
    """Stack-distance histogram with the reference ``None`` bucket."""
    lines = np.asarray(lines, dtype=np.int64)
    kept, _ = _drop_repeats(lines)
    return _histogram(_previous_occurrence(kept), lines.shape[0] - kept.shape[0])


def _histogram(prev, repeats: int) -> Dict[Optional[int], int]:
    """Histogram of the trace whose previous occurrences are ``prev`` (one
    without same-line repeats) plus ``repeats`` accesses of distance 1, in
    ascending distance order."""
    shifted = _distances_from_previous(prev)
    shifted += 1  # first touches at 0
    counts = np.bincount(shifted, minlength=3)
    del shifted
    counts[2] += repeats
    found = np.flatnonzero(counts)
    return {(None if value == 0 else value - 1): count for value, count in zip(found.tolist(), counts[found].tolist())}


def misses_for_capacity(lines, capacity_lines: int) -> Tuple[int, int]:
    """Vectorized (compulsory, capacity) miss counts for one cache size."""
    distances = stack_distances(lines)
    return _misses_from_distances(distances, capacity_lines)


def _misses_from_distances(distances, capacity_lines: int) -> Tuple[int, int]:
    compulsory = int((distances < 0).sum())
    capacity = int((distances > capacity_lines).sum())
    return compulsory, capacity


def _count_writebacks(lines, distances, is_write, capacity_lines: int, *, line_order=None) -> int:
    """LRU write-backs over this trace, end-of-run flush included.

    Every miss starts a new residency period of its line (the line was not
    in the cache, so any previous period ended with an eviction); a period
    containing at least one write leaves the line dirty and emits exactly
    one write-back — at its eviction, or at the final flush for the period
    still resident when the trace ends.  Grouping accesses stably by line
    makes periods contiguous runs, so one cumulative sum over the miss flags
    labels them and one ``unique`` over the written labels counts them.
    ``line_order`` passes ``_stable_order(lines)`` when the caller has it.
    """
    is_write = np.asarray(is_write, dtype=bool)
    if not is_write.any():
        return 0
    miss = (distances < 0) | (distances > capacity_lines)
    order = _stable_order(lines) if line_order is None else line_order
    periods = np.cumsum(miss[order])
    return int(np.unique(periods[is_write[order]]).size)


def fully_associative_stats(
    lines, cache_size: int, line_size: int = 64, *, is_write=None, distances=None, line_order=None
) -> CacheStatistics:
    """Statistics identical to :func:`simulate_fully_associative`.

    With ``is_write`` (a parallel bool array), ``writebacks`` is filled in
    under the hierarchy's end-of-run flush convention
    (:meth:`FullyAssociativeLRU.flush`); without it the counter stays zero.
    ``distances`` passes ``stack_distances(lines)`` and ``line_order`` the
    stable order of ``lines`` when the caller already has them (levels of
    one line size differ only in capacity).
    """
    if cache_size <= 0 or line_size <= 0:
        raise ValueError("cache and line size must be positive")
    if cache_size % line_size:
        raise ValueError("cache size must be a multiple of the line size")
    lines = np.asarray(lines, dtype=np.int64)
    if distances is None:
        distances = stack_distances(lines)
    stats = _stats_from_distances(distances, cache_size // line_size, conflict=False)
    if is_write is not None:
        stats.writebacks = _count_writebacks(
            lines, distances, is_write, cache_size // line_size, line_order=line_order
        )
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
    replacement policy.  Levels of one line size share its line indices;
    fully associative ones differ only in capacity, so they also share one
    :func:`stack_distances` pass and one stable line order for write-backs.
    Returns ``None`` only when a level enables a prefetcher
    (``prefetch_degree > 0``): prefetches perturb replacement state
    mid-trace, which no offline pass expresses, so the caller falls back to
    the reference simulator.
    """
    from .set_assoc import ReplacementPolicy

    if any(getattr(config, "prefetch_degree", 0) for config in configs):
        return None
    results: List[Optional[CacheStatistics]] = [None] * len(configs)
    by_line_size: Dict[int, List[int]] = {}
    for index, config in enumerate(configs):
        by_line_size.setdefault(config.line_size, []).append(index)
    for line_size, indices in by_line_size.items():
        lines = trace.line_indices(line_size)
        distances = line_order = None
        for index in indices:
            config = configs[index]
            if config.associativity is None:
                if distances is None:
                    distances = stack_distances(lines)
                    line_order = _stable_order(lines) if trace.is_write.any() else None
                results[index] = fully_associative_stats(
                    lines,
                    config.cache_size,
                    line_size,
                    is_write=trace.is_write,
                    distances=distances,
                    line_order=line_order,
                )
            elif config.policy == ReplacementPolicy.LRU:
                results[index] = set_associative_stats(
                    lines, config.cache_size, line_size, config.associativity, is_write=trace.is_write
                )
            else:
                results[index] = set_associative_policy_stats(
                    lines,
                    config.cache_size,
                    line_size,
                    config.associativity,
                    policy=config.policy,
                    is_write=trace.is_write,
                )
    return results


def trace_model_curve(scop: Scop, *, line_size: int) -> Dict[Optional[int], int]:
    """Full stack-distance histogram of the exact trace (``None`` bucket =
    first touches), the concrete feedstock of
    :meth:`repro.core.curve.MissCurve.from_histogram` — the vectorized body
    of the analytical model's trace fallback.

    One trace generation plus one profiling pass answer *every* capacity: the
    histogram's suffix sums are the whole miss curve, so a 64-point sweep
    costs the same as a single fixed-capacity fallback analysis.  The line
    indices are divided in place out of the trace's addresses (its write
    flags are dropped), the full-length lines are dropped as soon as the
    same-line repeats are split off, and the remaining lines as soon as
    their previous occurrences are known.
    """
    lines = trace_arrays(scop, line_size=line_size, padded=True).addresses
    np.floor_divide(lines, line_size, out=lines)
    kept, _ = _drop_repeats(lines)
    repeats = lines.shape[0] - kept.shape[0]
    del lines
    prev = _previous_occurrence(kept)
    del kept
    return _histogram(prev, repeats)
