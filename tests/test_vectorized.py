"""Cross-validation of the NumPy-vectorized backend against the references.

Every building block of :mod:`repro.simulator.vectorized` is checked
bit-for-bit against the per-access implementation it replaces: trace order,
stack distances, histograms, fully associative and set-associative (LRU)
statistics, and the hierarchy simulation behind :class:`DineroSimulator`.
"""

import sys
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api.registry import get_kernel
from repro.isl.veceval import check_backend
from repro.scop import ScopBuilder
from repro.scop.schedule import tile_scop
from repro.simulator import (
    CacheLevelConfig,
    DineroSimulator,
    FullyAssociativeLRU,
    ReplacementPolicy,
    SetAssociativeCache,
    StackDistanceProfiler,
    TraceGenerator,
    simulate_fully_associative,
)
from repro.simulator import vectorized
from repro.simulator.vectorized import (
    distance_histogram,
    fully_associative_stats,
    misses_for_capacity,
    set_associative_stats,
    stack_distances,
    trace_arrays,
    trace_model_curve,
)

line_traces = st.lists(st.integers(min_value=0, max_value=24), min_size=0, max_size=250)


# ----------------------------------------------------------------------
# Backend names
# ----------------------------------------------------------------------
def test_check_backend_rejects_unknown():
    assert check_backend("numpy") == "numpy"
    assert check_backend("python") == "python"
    for name in ("fortran", "auto", "NumPy", ""):
        with pytest.raises(ValueError, match=r"expected numpy\|python"):
            check_backend(name)
        with pytest.raises(ValueError):
            DineroSimulator([CacheLevelConfig(cache_size=1024, line_size=64)], backend=name)


# ----------------------------------------------------------------------
# Stack distances, histogram, misses
# ----------------------------------------------------------------------
@given(line_traces)
@settings(max_examples=80, deadline=None)
def test_vectorized_distances_match_reference(trace):
    reference = StackDistanceProfiler().profile(trace)
    vectorized = stack_distances(np.asarray(trace, dtype=np.int64)).tolist()
    assert vectorized == [-1 if d is None else d for d in reference]


@given(line_traces)
@settings(max_examples=40, deadline=None)
def test_vectorized_histogram_matches_reference(trace):
    assert distance_histogram(trace) == StackDistanceProfiler().histogram(trace)


@given(line_traces, st.integers(min_value=0, max_value=16))
@settings(max_examples=40, deadline=None)
def test_vectorized_misses_match_reference(trace, capacity):
    assert misses_for_capacity(trace, capacity) == StackDistanceProfiler().misses_for_capacity(trace, capacity)


def test_vectorized_profiler_edge_cases():
    assert stack_distances([]).tolist() == []
    assert distance_histogram([]) == {}
    assert misses_for_capacity([], 4) == (0, 0)
    assert stack_distances([5]).tolist() == [-1]
    assert distance_histogram([3, 3, 3]) == {None: 1, 1: 2}
    assert misses_for_capacity([0, 1, 0, 1], 0) == (2, 2)
    assert misses_for_capacity([0, 1, 0, 1], 2) == (2, 0)


#: Traces of runs of one line, each access of a run with its own write flag.
line_runs = st.lists(
    st.tuples(st.integers(min_value=0, max_value=15), st.lists(st.booleans(), min_size=1, max_size=12)),
    min_size=0,
    max_size=40,
)


@given(line_runs, st.sampled_from([(8, 2), (16, 4), (4, 1)]))
@settings(max_examples=60, deadline=None)
def test_same_line_runs_match_reference(runs, geometry):
    """Accesses repeating the line just before them are left out of the
    count; distances, histogram and statistics with write-backs must not
    notice."""
    accesses = [(line, is_write) for line, writes in runs for is_write in writes]
    trace = [line for line, _ in accesses]
    writes = [is_write for _, is_write in accesses]
    reference = StackDistanceProfiler().profile(trace)
    assert stack_distances(trace).tolist() == [-1 if d is None else d for d in reference]
    assert distance_histogram(trace) == StackDistanceProfiler().histogram(trace)

    lines, ways = geometry
    full = FullyAssociativeLRU(lines * 64, 64)
    cache = SetAssociativeCache(lines * 64, 64, ways, policy=ReplacementPolicy.LRU)
    for line, is_write in accesses:
        full.access_line(line, is_write=is_write)
        cache.access_line(line, is_write=is_write)
    full.flush()
    cache.flush()
    assert fully_associative_stats(trace, lines * 64, 64, is_write=writes).as_dict() == full.stats.as_dict()
    assert set_associative_stats(trace, lines * 64, 64, ways, is_write=writes).as_dict() == cache.stats.as_dict()


# ----------------------------------------------------------------------
# The blocked count behind stack_distances
# ----------------------------------------------------------------------
def _per_level_stack_distances(lines):
    """Stack distances by the per-level merge count over the whole trace.

    The algorithm the blocked count replaced, kept as its reference: the
    dominance count ``#{s < t : prev[s] > prev[t]}`` runs ``log2 n`` merge
    levels over the trace padded to a power of two.
    """
    lines = np.asarray(lines, dtype=np.int64)
    n = lines.shape[0]
    order = np.argsort(lines, kind="stable")
    sorted_lines = lines[order]
    prev = np.full(n, -1, dtype=np.int64)
    same = sorted_lines[1:] == sorted_lines[:-1]
    prev[order[1:][same]] = order[:-1][same]
    counts = np.zeros(n, dtype=np.int64)
    size = 1
    while size < n:
        size *= 2
    padded = np.full(size, -2, dtype=np.int64)
    padded[:n] = prev
    span = n + 2
    block = 1
    while block < size:
        pair_count = size // (2 * block)
        pairs = padded.reshape(pair_count, 2 * block)
        pair_ids = np.arange(pair_count, dtype=np.int64)[:, None]
        left_keys = (np.sort(pairs[:, :block], axis=1) + 2 + pair_ids * span).reshape(-1)
        query_keys = (pairs[:, block:] + 2 + pair_ids * span).reshape(-1)
        positions = np.searchsorted(left_keys, query_keys, side="right")
        greater = block - (positions - np.repeat(pair_ids.reshape(-1) * block, block))
        targets = np.arange(size, dtype=np.int64).reshape(pair_count, 2 * block)[:, block:].reshape(-1)
        in_range = targets < n
        counts[targets[in_range]] += greater[in_range]
        block *= 2
    distances = np.arange(n, dtype=np.int64) - prev - counts
    distances[prev < 0] = -1
    return distances


def _block_size_of(lines):
    """The block size :func:`stack_distances` chooses for ``lines``."""
    chosen = []
    count = vectorized._count_greater_within_blocks

    def recording(values, block):
        chosen.append(block)
        return count(values, block)

    with mock.patch.object(vectorized, "_count_greater_within_blocks", recording):
        stack_distances(lines)
    return chosen[0]


@contextmanager
def _threads(count):
    """Run the count on a pool of ``count`` threads of its own (none for 1)."""
    with mock.patch.object(vectorized, "_pool_size", lambda: count), mock.patch.object(vectorized, "_POOL", None):
        try:
            yield
        finally:
            if vectorized._POOL is not None:
                vectorized._POOL.shutdown()


def _assert_matches_profiler(lines):
    lines = list(lines)
    reference = StackDistanceProfiler().profile(lines)
    assert stack_distances(lines).tolist() == [-1 if d is None else d for d in reference]
    assert distance_histogram(lines) == StackDistanceProfiler().histogram(lines)


@given(
    st.integers(min_value=1_000, max_value=20_000),
    st.integers(min_value=1, max_value=64),
    st.sampled_from(["uniform", "sweep"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_blocked_count_matches_reference_on_long_traces(length, line_count, shape, seed):
    """Long traces over few lines: blocks far shorter than the trace, and many
    reuse edges crossing block boundaries."""
    rng = np.random.default_rng(seed)
    if shape == "uniform":
        lines = rng.integers(0, line_count, length)
    else:  # repeated sweeps with some noise
        lines = np.arange(length) % line_count
        noise = rng.random(length) < 0.1
        lines[noise] = rng.integers(0, line_count, int(noise.sum()))
    _assert_matches_profiler(lines.tolist())
    assert _block_size_of(lines) < length


def test_blocked_count_edge_cases():
    _assert_matches_profiler(range(3000))  # no reuse
    _assert_matches_profiler([7] * 3000)  # a single line
    rng = np.random.default_rng(5)
    for k in (10, 12):
        for length in (2**k - 1, 2**k, 2**k + 1):
            _assert_matches_profiler(rng.integers(0, 40, length).tolist())
            _assert_matches_profiler((np.arange(length) % 33).tolist())


def test_reuse_longer_than_half_the_trace_is_one_block():
    """n = 2048 and all 1000 reuse intervals are longer than n/2, so every
    reuse crosses the middle of the trace: no block size below n has a
    crossing table of at most n/4 entries, and the whole trace is one block."""
    lines = list(range(1000)) + list(range(1000, 1048)) + list(range(1000))
    _assert_matches_profiler(lines)
    assert _block_size_of(lines) >= len(lines)


@given(
    st.sampled_from([16, 64, 96]),
    st.integers(min_value=0, max_value=700),
    st.integers(min_value=1, max_value=40),
    st.sampled_from(["uniform", "sweep", "no short reuse"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_chunked_count_matches_reference_for_any_pool_size(chunk, length, line_count, shape, seed):
    """A small chunk (96 is not a power of two) and lengths on both sides of
    chunk, block and tail boundaries: one, two or three threads, the
    distances equal the profiler's.  Without short reuse the trace is one
    block longer than a chunk, counted as a chunk of its own."""
    rng = np.random.default_rng(seed)
    if shape == "uniform":
        lines = rng.integers(0, line_count, length)
    elif shape == "sweep":
        lines = np.arange(length) % line_count
    else:  # every line twice, in the same order: all reuses length // 2 apart
        lines = np.arange(length) % max(length // 2, 1)
    lines = lines.tolist()
    results = []
    with mock.patch.object(vectorized, "_CHUNK", chunk):
        for workers in (1, 2, 3):
            with _threads(workers):
                _assert_matches_profiler(lines)
                results.append(stack_distances(lines))
        if shape == "no short reuse" and length >= 4 * chunk:
            assert _block_size_of(lines) > chunk
    assert all(np.array_equal(results[0], result) for result in results[1:])


def _distances_in_child(lines, connection):
    connection.send(stack_distances(lines).tolist())
    connection.close()


def test_forked_child_counts_on_its_own_pool():
    """A forked child inherits the parent's pool object but not its threads:
    a count on it would wait forever.  The parent counts on its pool first,
    then a fork-context child counts again and must answer."""
    import multiprocessing

    lines = np.random.default_rng(7).integers(0, 50, 5000).tolist()
    with mock.patch.object(vectorized, "_CHUNK", 256), _threads(2):
        expected = stack_distances(lines).tolist()
        assert vectorized._POOL is not None
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)
        child = context.Process(target=_distances_in_child, args=(lines, send))
        child.start()
        send.close()
        try:
            answered = receive.poll(60)
            assert answered, "the forked child's count never returned"
            assert receive.recv() == expected
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
                child.join()
    assert child.exitcode == 0


def test_concurrent_histograms_match_sequential():
    """Eight threads share the pool, each counting its own multi-chunk trace."""
    import threading

    rng = np.random.default_rng(11)
    traces = [rng.integers(0, 30 + 10 * index, 3000 + 500 * index).tolist() for index in range(8)]
    with mock.patch.object(vectorized, "_CHUNK", 128), _threads(2):
        expected = [distance_histogram(trace) for trace in traces]
        results = [None] * len(traces)
        start = threading.Barrier(len(traces))

        def count(index):
            start.wait()
            results[index] = distance_histogram(traces[index])

        threads = [threading.Thread(target=count, args=(index,)) for index in range(len(traces))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == expected
    assert expected[0] == StackDistanceProfiler().histogram(traces[0])


def test_blocked_count_equals_per_level_count_on_gemm_medium():
    """gemm at ``medium``: 1.05 M accesses, blocks of 4096."""
    scop = get_kernel("gemm").build("medium")
    lines = trace_arrays(scop, line_size=64).line_indices()
    assert lines.shape[0] == 1_052_160
    assert np.array_equal(stack_distances(lines), _per_level_stack_distances(lines))


# ----------------------------------------------------------------------
# Cache statistics
# ----------------------------------------------------------------------
@given(line_traces, st.integers(min_value=1, max_value=12))
@settings(max_examples=40, deadline=None)
def test_vectorized_fully_associative_matches_reference(trace, capacity_lines):
    reference = simulate_fully_associative(trace, capacity_lines * 64, 64)
    vectorized = fully_associative_stats(trace, capacity_lines * 64, 64)
    assert vectorized.as_dict() == reference.as_dict()


@given(
    st.lists(st.integers(min_value=0, max_value=63), min_size=0, max_size=300),
    st.sampled_from([(8, 2), (16, 4), (8, 8), (4, 1)]),
)
@settings(max_examples=40, deadline=None)
def test_vectorized_set_associative_matches_reference(trace, geometry):
    lines, ways = geometry
    cache = SetAssociativeCache(lines * 64, 64, ways, policy=ReplacementPolicy.LRU)
    for line in trace:
        cache.access_line(line)
    vectorized = set_associative_stats(trace, lines * 64, 64, ways)
    assert vectorized.as_dict() == cache.stats.as_dict()


def test_vectorized_validates_geometry():
    with pytest.raises(ValueError):
        fully_associative_stats([0], 100, 64)
    with pytest.raises(ValueError):
        set_associative_stats([0], 100, 64, 4)


# ----------------------------------------------------------------------
# Trace generation
# ----------------------------------------------------------------------
def _gemm(n=5):
    builder = ScopBuilder("gemm", context={"N": n}, element_size=8)
    C = builder.array("C", (n, n))
    A = builder.array("A", (n, n))
    B = builder.array("B", (n, n))
    with builder.loop("i", 0, n):
        with builder.loop("j", 0, n):
            builder.stmt(reads=[C[builder.v("i"), builder.v("j")]], writes=[C[builder.v("i"), builder.v("j")]])
        with builder.loop("k", 0, n):
            with builder.loop("j2", 0, n):
                builder.stmt(
                    reads=[A[builder.v("i"), builder.v("k")], B[builder.v("k"), builder.v("j2")]],
                    writes=[C[builder.v("i"), builder.v("j2")]],
                )
    return builder.build()


def _triangular(n=7):
    builder = ScopBuilder("tri", context={"N": n}, element_size=8)
    A = builder.array("A", (n, n))
    s = builder.array("s", (n,))
    with builder.loop("i", 0, n):
        with builder.loop("j", 0, builder.v("i"), upper_inclusive=True):
            builder.stmt(reads=[A[builder.v("i"), builder.v("j")], s[builder.v("i")]], writes=[s[builder.v("i")]])
    return builder.build()


@pytest.mark.parametrize("builder", [_gemm, _triangular], ids=["gemm", "triangular"])
@pytest.mark.parametrize("line_size", [8, 64])
@pytest.mark.parametrize("padded", [True, False])
def test_trace_arrays_match_reference(builder, line_size, padded):
    scop = builder()
    reference = list(TraceGenerator(scop, line_size=line_size, padded=padded).accesses())
    arrays = trace_arrays(scop, line_size=line_size, padded=padded)
    assert arrays.addresses.tolist() == [access.address for access in reference]
    assert arrays.is_write.tolist() == [access.is_write for access in reference]
    lines = list(TraceGenerator(scop, line_size=line_size, padded=padded).line_trace())
    assert arrays.line_indices().tolist() == lines


def test_trace_arrays_match_reference_on_tiled_scop():
    """Tiling introduces div constraints in the domains; order must survive."""
    scop = tile_scop(_gemm(6), 4)
    reference = [a.address for a in TraceGenerator(scop, line_size=64).accesses()]
    assert trace_arrays(scop, line_size=64).addresses.tolist() == reference


def _packed_order(columns):
    """Sort order of the key ``columns`` (most significant first) through
    the packed words :func:`trace_arrays` sorts on."""
    packing, word_count = vectorized._key_packing([(int(column.min()), int(column.max())) for column in columns])
    words = np.zeros((word_count, columns[0].shape[0]), dtype=np.uint64)
    for place, column in zip(packing, columns):
        if place is not None:
            word, low, scale = place
            words[word] += vectorized._digits(column, low, scale)
    return np.lexsort(words[::-1]), packing, word_count


def test_key_packing_orders_like_lexsort_on_raw_columns():
    """Negative values, a constant column, and spans whose product is far
    above 2^64: the packed words must give np.lexsort's order on the raw
    columns, ties included."""
    rng = np.random.default_rng(3)
    size = 5000
    columns = [
        rng.integers(-5, 3, size),
        np.full(size, -7),
        rng.integers(-(2**40), 2**40, size),
        rng.integers(-3, 0, size),
        rng.integers(-(2**35), 2**35, size),
    ]
    order, packing, word_count = _packed_order(columns)
    assert word_count == 2
    assert packing[1] is None
    assert np.array_equal(order, np.lexsort(columns[::-1]))

    # Few distinct vectors, so most of them tie: the order must stay stable.
    small = [rng.integers(-2, 2, size), rng.integers(-4, -1, size), np.full(size, 9)]
    order, _, word_count = _packed_order(small)
    assert word_count == 1
    assert np.array_equal(order, np.lexsort(small[::-1]))

    # One column spanning all of int64 fills a word on its own.
    extreme = np.asarray([2**63 - 1, -(2**63), 0, -1, 1, 2**63 - 1, -(2**63)], dtype=np.int64)
    columns = [np.asarray([1, 0, 1, 0, 1, 0, 0]), extreme, np.asarray([3, 2, 1, 0, 3, 2, 1])]
    order, _, word_count = _packed_order(columns)
    assert word_count == 3
    assert np.array_equal(order, np.lexsort(columns[::-1]))


def test_trace_model_curve_peak_memory_per_access():
    """Memory guard on the trace fallback: 3mm at ``small`` (246,732
    accesses) measured 25.6 bytes per access at its tracemalloc peak (29.8
    before the chunked count, 52.0 with a schedule-key matrix and without
    dropping same-line repeats)."""
    scop = get_kernel("3mm").build("small")
    trace_model_curve(scop, line_size=64)  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        histogram = trace_model_curve(scop, line_size=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    accesses = sum(histogram.values())
    assert accesses == 246_732
    assert peak / accesses <= 32.8


def test_count_memory_does_not_grow_with_cpus():
    """The chunks in flight share one budget of ``_CHUNK`` accesses, so a
    host with eight CPUs holds no more temporaries than one with one."""
    lines = np.random.default_rng(5).integers(0, 3000, 300_000)
    stack_distances(lines)  # imports outside the measurement
    peaks = []
    for cpus in (1, 8):
        with _threads(cpus):
            tracemalloc.start()
            try:
                stack_distances(lines)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 64 * 1024


def test_trace_arrays_bounds_check():
    builder = ScopBuilder("oob", context={"N": 4}, element_size=8)
    A = builder.array("A", (4,))
    with builder.loop("i", 0, 4):
        builder.stmt(reads=[A[builder.v("i") + 1]])
    scop = builder.build()
    with pytest.raises(IndexError):
        trace_arrays(scop, line_size=64)
    with pytest.raises(IndexError):
        list(TraceGenerator(scop, line_size=64).accesses())


# ----------------------------------------------------------------------
# Hierarchy / DineroSimulator backends
# ----------------------------------------------------------------------
def _hierarchy_levels():
    return [
        CacheLevelConfig(cache_size=4 * 64, line_size=64, associativity=None),
        CacheLevelConfig(cache_size=16 * 64, line_size=64, associativity=4),
    ]


def test_dinero_backends_agree():
    scop = _gemm(6)
    python_result = DineroSimulator(_hierarchy_levels(), backend="python").run(scop)
    numpy_result = DineroSimulator(_hierarchy_levels(), backend="numpy").run(scop)
    assert python_result.accesses == numpy_result.accesses
    for reference, vectorized in zip(python_result.levels, numpy_result.levels):
        assert reference.as_dict() == vectorized.as_dict()


def test_fully_associative_levels_share_one_distance_pass(monkeypatch):
    """Three 64-byte-line fully associative levels differ only in capacity:
    one stack-distance pass serves all of them, writebacks included, with
    the statistics of three single-level runs and of the python backend."""
    scop = _gemm(6)
    levels = [CacheLevelConfig(cache_size=lines * 64, line_size=64, associativity=None) for lines in (2, 8, 32)]
    singles = [DineroSimulator([level]).run(scop).levels[0].as_dict() for level in levels]
    python_result = DineroSimulator(levels, backend="python").run(scop)

    calls = []

    def counting_stack_distances(lines):
        calls.append(len(lines))
        return stack_distances(lines)

    monkeypatch.setattr(vectorized, "stack_distances", counting_stack_distances)
    numpy_result = DineroSimulator(levels, backend="numpy").run(scop)
    assert len(calls) == 1
    stats = [level.as_dict() for level in numpy_result.levels]
    assert stats == singles
    assert stats == [level.as_dict() for level in python_result.levels]
    assert any(level["writebacks"] for level in stats)


def test_hierarchy_shares_line_indices_and_line_order(monkeypatch):
    """Levels of one line size share one line-index division, and fully
    associative ones one stable line order for write-backs: three of them
    sort no more often than one does."""
    scop = _gemm(6)
    set_associative = CacheLevelConfig(cache_size=16 * 64, line_size=64, associativity=4)
    one = [CacheLevelConfig(cache_size=8 * 64, line_size=64, associativity=None), set_associative]
    three = [CacheLevelConfig(cache_size=lines * 64, line_size=64, associativity=None) for lines in (2, 8, 32)]
    three.append(set_associative)

    divisions = []
    sorts = []
    line_indices = vectorized.TraceArrays.line_indices
    stable_order = vectorized._stable_order

    def counting_line_indices(self, line_size=None):
        divisions.append(line_size)
        return line_indices(self, line_size)

    def counting_stable_order(values):
        sorts.append(len(values))
        return stable_order(values)

    monkeypatch.setattr(vectorized.TraceArrays, "line_indices", counting_line_indices)
    monkeypatch.setattr(vectorized, "_stable_order", counting_stable_order)
    results = {}
    for name, levels in (("one", one), ("three", three)):
        divisions.clear()
        sorts.clear()
        stats = [level.as_dict() for level in DineroSimulator(levels, backend="numpy").run(scop).levels]
        assert divisions == [64]
        results[name] = len(sorts)
        python_stats = DineroSimulator(levels, backend="python").run(scop).levels
        assert stats == [level.as_dict() for level in python_stats]
        assert all(level["writebacks"] for level in stats)
    assert results["three"] == results["one"]


@pytest.mark.parametrize("policy", [ReplacementPolicy.TREE_PLRU, ReplacementPolicy.FIFO])
def test_dinero_backends_agree_for_non_stack_policies(policy):
    """Tree-PLRU and FIFO vectorize via stable set grouping + per-set
    replay; both backends must agree exactly, writebacks included."""
    levels = [CacheLevelConfig(cache_size=4 * 64, line_size=64, associativity=2, policy=policy)]
    python_result = DineroSimulator(levels, backend="python").run(_gemm(4))
    numpy_result = DineroSimulator(levels, backend="numpy").run(_gemm(4))
    assert python_result.levels[0].as_dict() == numpy_result.levels[0].as_dict()


def test_dinero_numpy_falls_back_for_prefetch():
    """Prefetch-enabled levels cannot vectorize (replacement state is
    perturbed mid-trace); the numpy backend must fall back and agree."""
    levels = [CacheLevelConfig(cache_size=4 * 64, line_size=64, associativity=2, prefetch_degree=1)]
    assert not DineroSimulator(levels, backend="numpy")._vectorizable()
    python_result = DineroSimulator(levels, backend="python").run(_gemm(4))
    numpy_result = DineroSimulator(levels, backend="numpy").run(_gemm(4))
    assert python_result.levels[0].as_dict() == numpy_result.levels[0].as_dict()


def test_prefetcher_changes_misses_but_not_accesses():
    """A next-line prefetcher perturbs replacement state (miss counts may
    move) without being charged demand accesses."""
    base = [CacheLevelConfig(cache_size=4 * 64, line_size=64, associativity=2)]
    prefetch = [CacheLevelConfig(cache_size=4 * 64, line_size=64, associativity=2, prefetch_degree=2)]
    scop = _gemm(5)
    without = DineroSimulator(base, backend="python").run(scop)
    with_pf = DineroSimulator(prefetch, backend="python").run(scop)
    assert with_pf.levels[0].accesses == without.levels[0].accesses
    assert with_pf.accesses == without.accesses
    assert with_pf.levels[0].misses != without.levels[0].misses


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=31), st.booleans()),
        min_size=0,
        max_size=250,
    ),
    st.sampled_from([(8, 2), (16, 4), (4, 1)]),
)
@settings(max_examples=40, deadline=None)
def test_vectorized_writebacks_match_reference(accesses, geometry):
    """Residency-period write-back counting equals the reference dirty-bit
    simulation (flush included) for fully associative and set-assoc LRU."""
    lines, ways = geometry
    trace = [line for line, _ in accesses]
    writes = [is_write for _, is_write in accesses]

    full = FullyAssociativeLRU(lines * 64, 64)
    for line, is_write in accesses:
        full.access_line(line, is_write=is_write)
    full.flush()
    vectorized = fully_associative_stats(trace, lines * 64, 64, is_write=writes)
    assert vectorized.as_dict() == full.stats.as_dict()

    cache = SetAssociativeCache(lines * 64, 64, ways, policy=ReplacementPolicy.LRU)
    for line, is_write in accesses:
        cache.access_line(line, is_write=is_write)
    cache.flush()
    grouped = set_associative_stats(trace, lines * 64, 64, ways, is_write=writes)
    assert grouped.as_dict() == cache.stats.as_dict()


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=31), st.booleans()),
        min_size=0,
        max_size=250,
    ),
    st.sampled_from([ReplacementPolicy.FIFO, ReplacementPolicy.TREE_PLRU]),
)
@settings(max_examples=40, deadline=None)
def test_vectorized_policy_stats_match_reference(accesses, policy):
    from repro.simulator.vectorized import set_associative_policy_stats

    cache = SetAssociativeCache(8 * 64, 64, 2, policy=policy)
    for line, is_write in accesses:
        cache.access_line(line, is_write=is_write)
    cache.flush()
    trace = [line for line, _ in accesses]
    writes = [is_write for _, is_write in accesses]
    stats = set_associative_policy_stats(trace, 8 * 64, 64, 2, policy=policy, is_write=writes)
    assert stats.as_dict() == cache.stats.as_dict()


def test_vectorized_agrees_with_lru_inclusion_property():
    """The vectorized stats satisfy the same inclusion property the
    reference does: a larger cache never misses more."""
    trace = [i % 9 for i in range(200)] + [i % 5 for i in range(100)]
    small = fully_associative_stats(trace, 2 * 64, 64)
    large = fully_associative_stats(trace, 8 * 64, 64)
    assert large.misses <= small.misses
    assert small.compulsory_misses == large.compulsory_misses
    cache = FullyAssociativeLRU(2 * 64, 64)
    for line in trace:
        cache.access_line(line)
    assert cache.stats.as_dict() == small.as_dict()
