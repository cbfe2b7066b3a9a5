"""Cross-validation: the analytical model must agree exactly with the
fully associative LRU reference (stack-distance profiler).

Most cases use an element size equal to the cache line size, which keeps the
symbolic pipeline free of floor divisions and therefore fast; dedicated cases
exercise the cache-line (8 elements per line) path on tiny kernels, and two
registered PolyBench kernels run with one 8-byte element per line.  Larger
line-grained kernels are marked ``slow``.
"""

import pytest

from repro.core import CacheLevelSpec, CacheModel, MachineModel, ModelOptions
from repro.scop import ScopBuilder
from repro.scop.polybench import build_kernel
from repro.simulator import StackDistanceProfiler, TraceGenerator

LINE = 64


def reference_counts(scop, cache_sizes, line_size):
    trace = list(TraceGenerator(scop, line_size=line_size).line_trace())
    distances = StackDistanceProfiler().profile(trace)
    results = []
    for size in cache_sizes:
        lines = size // line_size
        compulsory = sum(1 for d in distances if d is None)
        capacity = sum(1 for d in distances if d is not None and d > lines)
        results.append((compulsory, capacity))
    return results


def check_model_against_reference(scop, cache_sizes, line_size=LINE):
    machine = MachineModel(
        line_size=line_size,
        levels=tuple(CacheLevelSpec(size, f"L{i+1}") for i, size in enumerate(sorted(cache_sizes))),
    )
    model = CacheModel(machine, ModelOptions(fallback_to_simulation=False))
    result = model.analyze(scop)
    expected = reference_counts(scop, sorted(cache_sizes), line_size)
    for level, (compulsory, capacity) in enumerate(expected):
        assert result.compulsory(level) == compulsory, (
            f"{scop.name} level {level}: compulsory {result.compulsory(level)} != {compulsory}"
        )
        assert result.capacity(level) == capacity, (
            f"{scop.name} level {level}: capacity {result.capacity(level)} != {capacity}"
        )
    return result


def build_gemm(ni, nj, nk, element_size=LINE):
    b = ScopBuilder("gemm", context={"NI": ni, "NJ": nj, "NK": nk}, element_size=element_size)
    C = b.array("C", (ni, nj))
    A = b.array("A", (ni, nk))
    B = b.array("B", (nk, nj))
    with b.loop("i", 0, ni):
        with b.loop("j", 0, nj):
            b.stmt(reads=[C[b.v("i"), b.v("j")]], writes=[C[b.v("i"), b.v("j")]])
        with b.loop("k", 0, nk):
            with b.loop("j2", 0, nj):
                b.stmt(
                    reads=[A[b.v("i"), b.v("k")], B[b.v("k"), b.v("j2")], C[b.v("i"), b.v("j2")]],
                    writes=[C[b.v("i"), b.v("j2")]],
                )
    return b.build()


def build_copy_kernel(n, element_size=LINE):
    b = ScopBuilder("copy", element_size=element_size)
    A = b.array("A", (n,))
    B = b.array("B", (n,))
    with b.loop("i", 0, n):
        b.stmt(reads=[A[b.v("i")]], writes=[B[b.v("i")]])
    return b.build()


def build_transpose(n, m, element_size=LINE):
    b = ScopBuilder("transpose", element_size=element_size)
    A = b.array("A", (n, m))
    B = b.array("B", (m, n))
    with b.loop("i", 0, n):
        with b.loop("j", 0, m):
            b.stmt(reads=[A[b.v("i"), b.v("j")]], writes=[B[b.v("j"), b.v("i")]])
    return b.build()


def build_triangular_sum(n, element_size=LINE):
    b = ScopBuilder("trisum", element_size=element_size)
    A = b.array("A", (n, n))
    s = b.array("s", (n,))
    with b.loop("i", 0, n):
        with b.loop("j", 0, b.v("i"), upper_inclusive=True):
            b.stmt(reads=[A[b.v("i"), b.v("j")], s[b.v("i")]], writes=[s[b.v("i")]])
    return b.build()


def build_stencil_1d(n, element_size=LINE):
    b = ScopBuilder("stencil1d", element_size=element_size)
    A = b.array("A", (n,))
    B = b.array("B", (n,))
    with b.loop("i", 1, n - 1):
        b.stmt(reads=[A[b.v("i") - 1], A[b.v("i")], A[b.v("i") + 1]], writes=[B[b.v("i")]])
    return b.build()


# ----------------------------------------------------------------------
# Element-granularity cases (no floor divisions, fast symbolic path)
# ----------------------------------------------------------------------
def test_copy_kernel_exact():
    check_model_against_reference(build_copy_kernel(40), [4 * LINE, 16 * LINE])


def test_transpose_exact():
    check_model_against_reference(build_transpose(9, 7), [4 * LINE, 16 * LINE])


def test_triangular_exact():
    check_model_against_reference(build_triangular_sum(10), [4 * LINE, 16 * LINE])


def test_stencil_exact():
    check_model_against_reference(build_stencil_1d(24), [2 * LINE, 8 * LINE])


def test_gemm_tiny_exact():
    check_model_against_reference(build_gemm(6, 5, 4), [8 * LINE, 48 * LINE])


# ----------------------------------------------------------------------
# Cache-line granularity (8 elements per line): exercises the div paths
# ----------------------------------------------------------------------
def test_copy_kernel_line_granularity_exact():
    check_model_against_reference(build_copy_kernel(16, element_size=8), [2 * LINE, 4 * LINE])


@pytest.mark.slow
def test_gemm_line_granularity_exact():
    check_model_against_reference(build_gemm(6, 9, 5, element_size=8), [4 * LINE, 32 * LINE])


# ----------------------------------------------------------------------
# Registered PolyBench kernels: 8-byte elements, one element per line
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel", ("gemm", "atax", "bicg", "mvt", "trisolv", "jacobi-1d"))
def test_smoke_kernel_symbolic_equals_trace(kernel):
    scop = build_kernel(kernel, "mini")
    machine = MachineModel(line_size=8, levels=(CacheLevelSpec(64, "L1"), CacheLevelSpec(512, "L2")))
    model = CacheModel(machine, ModelOptions(fallback_to_simulation=False))
    symbolic = model.analyze(scop)
    trace = model.analyze_by_trace(scop)
    assert not symbolic.used_fallback
    for level in range(2):
        assert (symbolic.compulsory(level), symbolic.capacity(level)) == (
            trace.compulsory(level),
            trace.capacity(level),
        )
