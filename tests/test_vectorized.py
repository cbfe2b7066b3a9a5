"""Cross-validation of the NumPy-vectorized backend against the references.

Every building block of :mod:`repro.simulator.vectorized` is checked
bit-for-bit against the per-access implementation it replaces: trace order,
stack distances, histograms, fully associative and set-associative (LRU)
statistics, and the hierarchy simulation behind :class:`DineroSimulator`.
"""

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
    assert arrays.sizes.tolist() == [access.size for access in reference]
    assert arrays.is_write.tolist() == [access.is_write for access in reference]
    lines = list(TraceGenerator(scop, line_size=line_size, padded=padded).line_trace())
    assert arrays.line_indices().tolist() == lines


def test_trace_arrays_match_reference_on_tiled_scop():
    """Tiling introduces div constraints in the domains; order must survive."""
    scop = tile_scop(_gemm(6), 4)
    reference = [a.address for a in TraceGenerator(scop, line_size=64).accesses()]
    assert trace_arrays(scop, line_size=64).addresses.tolist() == reference


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
