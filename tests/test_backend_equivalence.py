"""Oracle tests: the NumPy engines against the pure-Python reference.

``backend="numpy"`` (the default) and ``backend="python"`` (the reference
loops) must agree on every registered kernel at ``mini``: the trace-derived
:class:`ModelResult` payload, miss curve included, is byte-identical on
every deterministic field (wall-clock ``*_seconds`` entries are the only
permitted difference, stripped by
:func:`repro.reporting.equivalence.normalize`), and the trace simulator
reports identical per-level statistics.
"""

import pytest

from repro.api import Session, registry
from repro.api.session import SessionConfigError
from repro.reporting.equivalence import diff_payloads, normalize, payloads_equal
from repro.simulator import CacheLevelConfig, DineroSimulator

KERNELS = registry.kernel_names()


@pytest.mark.parametrize("kernel", KERNELS)
def test_smoke_sweep_backends_byte_identical(kernel):
    """The trace-fallback payload of every registered kernel at ``mini``."""
    scop = registry.get_kernel(kernel).build("mini")
    python_payload, numpy_payload = (
        Session().backend(backend).no_store().cache_model().analyze_by_trace(scop).to_dict()
        for backend in ("python", "numpy")
    )
    assert python_payload["miss_curve"]["exact"]
    differences = diff_payloads(normalize(python_payload), normalize(numpy_payload))
    assert not differences, differences


@pytest.mark.parametrize("kernel", KERNELS)
def test_dinero_backends_identical(kernel):
    """An 8-way 32 KiB L1 over a fully associative 256 KiB L2."""
    scop = registry.get_kernel(kernel).build("mini")
    levels = [
        CacheLevelConfig(cache_size=32 * 1024, line_size=64, associativity=8),
        CacheLevelConfig(cache_size=256 * 1024, line_size=64, associativity=None),
    ]
    python_result, numpy_result = (
        DineroSimulator(levels, backend=backend).run(scop) for backend in ("python", "numpy")
    )
    assert python_result.accesses == numpy_result.accesses > 0
    assert [stats.as_dict() for stats in python_result.levels] == [
        stats.as_dict() for stats in numpy_result.levels
    ]


def _transpose_scop(n=10, m=9):
    from repro.scop import ScopBuilder

    builder = ScopBuilder("transpose", context={"N": n, "M": m}, element_size=64)
    A = builder.array("A", (n, m))
    B = builder.array("B", (m, n))
    with builder.loop("i", 0, n):
        with builder.loop("j", 0, m):
            builder.stmt(reads=[A[builder.v("i"), builder.v("j")]], writes=[B[builder.v("j"), builder.v("i")]])
    return builder.build()


def test_cross_check_runs_on_the_vectorized_reference():
    """cross_check compares the symbolic result against the backend's trace
    reference; with the numpy backend it must still pass (same counts)."""
    session = Session().machine((1024, 8192)).backend("numpy").options(cross_check=True).no_store()
    result = session.analyze(_transpose_scop())
    assert not result.used_fallback


def test_session_rejects_unknown_backend():
    for name in ("fortran", "auto"):
        with pytest.raises(SessionConfigError, match=r"expected numpy\|python"):
            Session().backend(name)


def test_session_backend_threads_into_options_and_specs():
    session = Session().backend("python")
    assert session.model_options().backend == "python"
    assert session.job_spec("gemm", "mini").backend == "python"
    assert "backend=python" in repr(session)


def test_backend_not_part_of_job_identity():
    """Both backends produce identical results, so they share memo keys and
    store digests; the backend is run configuration, not job identity."""
    from repro.engine.store import job_digest

    python_spec = Session().backend("python").job_spec("gemm", "mini")
    numpy_spec = Session().job_spec("gemm", "mini")
    assert python_spec.key() == numpy_spec.key()
    assert job_digest(python_spec) == job_digest(numpy_spec)


def test_normalize_strips_only_wall_clock_fields():
    payload = {
        "wall_seconds": 1.5,
        "timing": {"stack_distance_seconds": 0.2, "work_units_charged": 7},
        "jobs": [{"elapsed_seconds": 0.1, "misses": [3, 4]}],
    }
    assert normalize(payload) == {
        "timing": {"work_units_charged": 7},
        "jobs": [{"misses": [3, 4]}],
    }
    assert payloads_equal(payload, {**payload, "wall_seconds": 99.0})
    assert not payloads_equal(payload, {**payload, "jobs": [{"misses": [3, 5]}]})


def test_normalize_strips_wall_clock_derived_ratios():
    """Machine-dependent ratios computed *from* wall times (the bench
    ``speedup``, curve ``sweep_ratio``, ``normalized_wall``) must not fail a
    cross-run diff of bench/trace payloads; miss counts still must."""
    fast = {
        "trace": {"speedup": 44.5, "python_seconds": 0.6, "misses": [10, 2]},
        "curve": {"sweep_ratio": 1.04, "sweep_misses": [9, 7, 0], "counts_match": True},
        "normalized_wall": 12.0,
    }
    slow = {
        "trace": {"speedup": 17.2, "python_seconds": 2.4, "misses": [10, 2]},
        "curve": {"sweep_ratio": 1.71, "sweep_misses": [9, 7, 0], "counts_match": True},
        "normalized_wall": 31.0,
    }
    assert payloads_equal(fast, slow)
    drifted = {**slow, "curve": {**slow["curve"], "sweep_misses": [9, 8, 0]}}
    assert not payloads_equal(fast, drifted)


def test_diff_payloads_reports_paths():
    differences = diff_payloads({"a": [1, 2]}, {"a": [1, 3], "b": 0})
    assert "$.a[1]: 2 != 3" in differences
    assert "$.b: only in right" in differences

