"""Cross-validation of the NumPy-vectorized backend against the references.

Every building block of :mod:`repro.simulator.vectorized` is checked
bit-for-bit against the per-access implementation it replaces: trace order,
stack distances, histograms, fully associative and set-associative (LRU)
statistics, and the hierarchy simulation behind :class:`DineroSimulator`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
