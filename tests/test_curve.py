"""Miss-curve subsystem: one counting pass, every cache size.

Covers the :class:`~repro.core.MissCurve` container, the symbolic curve
builder (:meth:`~repro.core.CapacityCounter.count_curve` — parametric
capacity counting with per-capacity fallback), the trace-derived exact
curves of both concrete backends, and the Session/CLI/JobSpec threading.

The headline properties (hypothesis):

* ``misses_at`` is monotonically non-increasing in the capacity;
* at every built breakpoint the curve is byte-identical to a per-capacity
  :meth:`~repro.core.CapacityCounter.count_misses` run (symbolic path) and
  to the brute-force distance count (concrete path, both backends), for the
  PolyBench smoke kernels.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Session
from repro.api.session import SessionConfigError
from repro.cli import main
from repro.core import (
    CacheLevelSpec,
    CacheModel,
    CapacityCounter,
    MachineModel,
    MissCurve,
    ModelOptions,
)
from repro.core.distance import StackDistanceAnalysis
from repro.core.results import ModelResult
from repro.engine.cache import CardinalityCache
from repro.reporting.equivalence import diff_payloads, normalize
from repro.scop import ScopBuilder
from repro.scop.polybench import build_kernel
from repro.simulator import StackDistanceProfiler, TraceGenerator

SMOKE_KERNELS = ("gemm", "atax", "bicg", "mvt", "trisolv", "jacobi-1d")

#: Backends whose trace-derived curves must agree bit for bit.
BACKENDS = ("python", "numpy")


def _matvec(n=10):
    """Element size == line size keeps the symbolic pipeline fast and the
    curve non-trivial (three distinct reuse distances)."""
    builder = ScopBuilder("matvec", context={"N": n}, element_size=64)
    A = builder.array("A", (n, n))
    x = builder.array("x", (n,))
    y = builder.array("y", (n,))
    with builder.loop("i", 0, n):
        with builder.loop("j", 0, n):
            builder.stmt(
                reads=[A[builder.v("i"), builder.v("j")], y[builder.v("j")], x[builder.v("i")]],
                writes=[x[builder.v("i")]],
            )
    return builder.build()


def _machine(levels=(1024,), line_size=64):
    return MachineModel(
        line_size=line_size,
        levels=tuple(CacheLevelSpec(size, f"L{i + 1}") for i, size in enumerate(levels)),
    )


# ----------------------------------------------------------------------
# MissCurve container
# ----------------------------------------------------------------------
class TestMissCurve:
    def test_breakpoint_table_is_validated(self):
        with pytest.raises(ValueError):
            MissCurve(64, 10, 2, (1, 4), (5, 1))  # must start at 0
        with pytest.raises(ValueError):
            MissCurve(64, 10, 2, (0, 4, 4), (5, 3, 1))  # strictly ascending
        with pytest.raises(ValueError):
            MissCurve(64, 10, 2, (0, 4), (3, 5))  # counts must not rise
        with pytest.raises(ValueError):
            MissCurve(64, 10, 2, (0, 4), (5, -1))  # non-negative
        with pytest.raises(ValueError):
            MissCurve(64, 10, 2, (0, 4), (5,))  # parallel arrays
        with pytest.raises(ValueError):
            MissCurve(0, 10, 2, (0,), (5,))  # line size

    def test_misses_at_snaps_down_between_breakpoints(self):
        curve = MissCurve(64, 100, 10, (0, 8, 32), (90, 40, 0))
        assert curve.misses_at(0) == 90
        assert curve.misses_at(7) == 90  # snap down to breakpoint 0
        assert curve.misses_at(8) == 40
        assert curve.misses_at(31) == 40
        assert curve.misses_at(32) == 0
        assert curve.misses_at(10_000) == 0
        assert curve.total_misses_at(8) == 50
        assert curve.miss_ratio_at(8) == pytest.approx(0.5)
        assert curve.misses_at_bytes(8 * 64) == 40
        assert curve.misses_at_bytes(1) == 90  # sub-line sizes clamp to 1 line
        assert curve.is_breakpoint(8) and not curve.is_breakpoint(9)
        with pytest.raises(ValueError):
            curve.misses_at(-1)

    def test_round_trip_and_schema_guard(self):
        curve = MissCurve(64, 100, 10, (0, 8, 32), (90, 40, 0), exact=True)
        clone = MissCurve.from_dict(curve.to_dict())
        assert clone == curve
        newer = dict(curve.to_dict(), schema_version=99)
        with pytest.raises(ValueError):
            MissCurve.from_dict(newer)

    @given(
        histogram=st.dictionaries(
            st.integers(min_value=1, max_value=120), st.integers(min_value=1, max_value=40),
            max_size=16,
        ),
        compulsory=st.integers(min_value=0, max_value=10),
        capacity=st.integers(min_value=0, max_value=150),
    )
    @settings(max_examples=60, deadline=None)
    def test_histogram_curve_matches_brute_force(self, histogram, compulsory, capacity):
        full = dict(histogram)
        if compulsory:
            full[None] = compulsory
        curve = MissCurve.from_histogram(full, line_size=64)
        assert curve.accesses == compulsory + sum(histogram.values())
        assert curve.compulsory == compulsory
        assert curve.exact
        expected = sum(count for distance, count in histogram.items() if distance > capacity)
        assert curve.misses_at(capacity) == expected
        # Monotone non-increasing across the whole table.
        assert all(b <= a for a, b in zip(curve.counts, curve.counts[1:]))


# ----------------------------------------------------------------------
# Symbolic curve builder (count_curve)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def matvec_distances():
    scop = _matvec(10)
    return StackDistanceAnalysis(scop, line_size=64).analyze()


class TestCountCurve:
    def test_grid_is_validated(self, matvec_distances):
        counter = CapacityCounter(matvec_distances[0].access.statement.loop_vars)
        pieces = matvec_distances[0].pieces
        with pytest.raises(ValueError):
            counter.count_curve(pieces, [])
        with pytest.raises(ValueError):
            counter.count_curve(pieces, [4, 2])
        with pytest.raises(ValueError):
            counter.count_curve(pieces, [2, 2])
        with pytest.raises(ValueError):
            counter.count_curve(pieces, [-1, 2])

    @given(
        capacities=st.lists(
            st.integers(min_value=0, max_value=256), min_size=1, max_size=12, unique=True
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_curve_identical_to_per_capacity_counts(self, matvec_distances, capacities):
        grid = sorted(capacities)
        cache = CardinalityCache()
        for access_distances in matvec_distances:
            counter = CapacityCounter(
                access_distances.access.statement.loop_vars, cardinality_cache=cache
            )
            curve = counter.count_curve(access_distances.pieces, grid)
            reference = [
                counter.count_misses(access_distances.pieces, capacity) for capacity in grid
            ]
            assert curve == reference
            assert all(b <= a for a, b in zip(curve, curve[1:]))

    def test_free_parameter_degrades_to_fallback_like_count_misses(self):
        """A piece with a free variable outside loop_vars must raise
        ModelFallbackRequired from count_curve exactly like count_misses —
        never a raw KeyError out of the parametric chamber evaluation."""
        from repro.core.distance import DistancePiece
        from repro.core.prevmap import ModelFallbackRequired
        from repro.isl.constraints import ConstraintSystem, ge
        from repro.isl.qpoly import QPoly

        i = QPoly.variable("i")
        n = QPoly.variable("N")  # free parameter: not a loop variable
        domain = ConstraintSystem([ge(i, 0), ge(n - i - 1, 0)])
        piece = DistancePiece(domain, i + 1)
        counter = CapacityCounter(["i"])
        with pytest.raises(ModelFallbackRequired):
            counter.count_misses([piece], 4)
        with pytest.raises(ModelFallbackRequired):
            counter.count_curve([piece], [0, 4, 16])

    def test_bound_subpiece_chambers_are_not_memoized(self, matvec_distances):
        """Partial-enumeration bound pieces are fresh objects per replay, so
        memoizing their chambers would only pin memory (the review of the
        MAX_CACHED_ENUMERATION guard); memoize=False must skip the cache."""
        affine = [
            (access.access.statement.loop_vars, piece)
            for access in matvec_distances
            for piece in access.pieces
            if piece.polynomial.is_affine() and not piece.polynomial.is_constant()
        ]
        assert affine, "matvec must produce affine non-constant distance pieces"
        loop_vars, piece = affine[0]
        counter = CapacityCounter(loop_vars)
        chambers = counter._parametric_chambers(piece, memoize=False)
        assert chambers is not None
        assert counter._chamber_cache == {}
        assert counter._parametric_chambers(piece) is not None
        assert len(counter._chamber_cache) == 1

    def test_parametric_path_is_exercised(self, matvec_distances):
        """The one-count-per-piece parametric fast path must actually run
        (otherwise the curve silently degrades to per-capacity counting)."""
        parametric = 0
        for access_distances in matvec_distances:
            counter = CapacityCounter(access_distances.access.statement.loop_vars)
            counter.count_curve(access_distances.pieces, [0, 3, 9, 27, 81])
            parametric += counter.stats.parametric_pieces
        assert parametric > 0


# ----------------------------------------------------------------------
# Model integration: one pass feeds levels and curve on both pipelines
# ----------------------------------------------------------------------
class TestModelCurve:
    def test_symbolic_levels_are_curve_samples(self):
        scop = _matvec(10)
        machine = _machine((4 * 64, 64 * 64))
        sweep = tuple(64 * lines for lines in (1, 2, 3, 5, 9, 17, 33, 65))
        result = CacheModel(machine, ModelOptions(curve_capacities=sweep)).analyze(scop)
        assert not result.used_fallback
        curve = result.miss_curve
        assert curve is not None and not curve.exact
        assert curve.accesses == result.accesses
        assert curve.compulsory == result.level_results[0].compulsory
        for index, lines in enumerate(machine.capacities_in_lines()):
            assert curve.misses_at(lines) == result.level_results[index].capacity
        # Every breakpoint agrees with the exact trace-derived curve.
        reference = CacheModel(machine, ModelOptions(backend="python")).analyze_by_trace(scop)
        for capacity, count in curve:
            assert reference.miss_curve.misses_at(capacity) == count

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_trace_fallback_curve_is_exact_everywhere(self, backend):
        scop = _matvec(8)
        machine = _machine((4 * 64,))
        result = CacheModel(machine, ModelOptions(backend=backend)).analyze_by_trace(scop)
        curve = result.miss_curve
        assert curve is not None and curve.exact
        trace = list(TraceGenerator(scop, line_size=64, padded=True).line_trace())
        distances = StackDistanceProfiler().profile(trace)
        assert curve.accesses == len(trace)
        assert curve.compulsory == sum(1 for d in distances if d is None)
        for capacity in range(0, 70):
            expected = sum(1 for d in distances if d is not None and d > capacity)
            assert curve.misses_at(capacity) == expected

    def test_result_payload_round_trips_curve(self):
        result = CacheModel(_machine((1024,))).analyze(_matvec(6))
        clone = ModelResult.from_dict(result.to_dict())
        assert clone.miss_curve == result.miss_curve
        assert clone.to_dict() == result.to_dict()

    def test_older_payload_without_curve_still_loads(self):
        result = CacheModel(_machine((1024,))).analyze(_matvec(6))
        payload = result.to_dict()
        del payload["miss_curve"]
        payload["schema_version"] = 1
        clone = ModelResult.from_dict(payload)
        assert clone.miss_curve is None
        assert clone.misses() == result.misses()


# ----------------------------------------------------------------------
# The satellite property: PolyBench smoke kernels, both backends
# ----------------------------------------------------------------------
_KERNEL_DISTANCES = {}


def _smoke_distances(kernel):
    """Exact per-access stack distances of one smoke kernel (cached)."""
    if kernel not in _KERNEL_DISTANCES:
        scop = build_kernel(kernel, "mini")
        trace = list(TraceGenerator(scop, line_size=64, padded=True).line_trace())
        _KERNEL_DISTANCES[kernel] = StackDistanceProfiler().profile(trace)
    return _KERNEL_DISTANCES[kernel]


_FALLBACK_CURVES = {}


def _fallback_curve(kernel, backend):
    """Trace-fallback curve of one smoke kernel per backend (cached)."""
    key = (kernel, backend)
    if key not in _FALLBACK_CURVES:
        session = (
            Session().machine((32 * 1024, 256 * 1024)).budget(300).backend(backend).no_store()
        )
        result = session.analyze(kernel, "mini")
        assert result.used_fallback
        _FALLBACK_CURVES[key] = result.miss_curve
    return _FALLBACK_CURVES[key]


@pytest.mark.parametrize("kernel", SMOKE_KERNELS)
@given(capacity=st.integers(min_value=0, max_value=6000))
@settings(max_examples=30, deadline=None)
def test_smoke_kernel_curves_match_per_capacity_counts(kernel, capacity):
    """`misses_at` == the per-capacity count, and monotone, on every backend."""
    distances = _smoke_distances(kernel)
    expected = sum(1 for d in distances if d is not None and d > capacity)
    for backend in BACKENDS:
        curve = _fallback_curve(kernel, backend)
        assert curve.misses_at(capacity) == expected
        if capacity:
            assert curve.misses_at(capacity) <= curve.misses_at(capacity - 1)
    assert _fallback_curve(kernel, "python") == _fallback_curve(kernel, "numpy")


def test_64_point_sweep_byte_identical_across_backends():
    """The ``curve gemm --sweep 64:4M:64`` run: the miss curve rides inside
    the result payload, so a 64-point sweep on the trace-derived exact curve
    must produce the same payload under both backends."""
    payloads = {}
    for backend in BACKENDS:
        session = (
            Session().machine((32 * 1024,)).budget(2000).no_store().backend(backend)
            .sweep(capacities="64:4M:64")
        )
        result = session.analyze("gemm", "mini")
        assert result.used_fallback and result.miss_curve.exact
        payloads[backend] = normalize(result.to_dict())
    assert len(session.model_options().curve_capacities) == 64
    assert not diff_payloads(payloads["python"], payloads["numpy"])


@pytest.mark.parametrize("kernel", ("trisolv", "mvt"))
def test_smoke_kernel_symbolic_curve_matches_count_misses(kernel):
    """Full symbolic pipeline on real PolyBench kernels: the curve equals a
    per-capacity ``count_misses`` sweep breakpoint for breakpoint."""
    scop = build_kernel(kernel, "mini")
    distances = StackDistanceAnalysis(scop, line_size=8).analyze()
    grid = [0, 1, 2, 5, 13, 34, 89, 233, 610, 1597]
    cache = CardinalityCache()
    for access_distances in distances:
        counter = CapacityCounter(
            access_distances.access.statement.loop_vars, cardinality_cache=cache
        )
        curve = counter.count_curve(access_distances.pieces, grid)
        assert curve == [
            counter.count_misses(access_distances.pieces, capacity) for capacity in grid
        ]


# ----------------------------------------------------------------------
# Session and JobSpec threading
# ----------------------------------------------------------------------
class TestSessionCurve:
    def test_capacities_validation(self):
        with pytest.raises(SessionConfigError):
            Session().sweep(capacities=0)
        with pytest.raises(SessionConfigError):
            Session().sweep(capacities=-64)
        with pytest.raises(SessionConfigError):
            Session().sweep(capacities="huge")
        # Floats must be rejected, not silently truncated; bools are not sizes.
        with pytest.raises(SessionConfigError):
            Session().sweep(capacities=1000.5)
        with pytest.raises(SessionConfigError):
            Session().sweep(capacities=True)

    def test_capacities_flatten_sort_dedupe_and_clear(self):
        session = Session().sweep(capacities=(4096, [1024, 2048], 1024))
        assert session.model_options().curve_capacities == (1024, 2048, 4096)
        assert session.job_spec("gemm", "mini").curve_capacities == (1024, 2048, 4096)
        session.sweep(capacities=())
        assert session.model_options().curve_capacities is None
        assert session.job_spec("gemm", "mini").curve_capacities == ()

    def test_miss_curve_resolves_requested_capacities(self):
        curve = (
            Session()
            .machine((4 * 64,))
            .no_store()
            .miss_curve(_matvec(8), capacities=[64, 192, 640])
        )
        for size in (64, 192, 640):
            assert curve.is_breakpoint(max(1, size // 64))

    def test_curve_round_trips_through_the_store(self, tmp_path):
        session = Session().machine((4 * 64,)).store(str(tmp_path / "store"))
        scop = _matvec(8)
        first = session.analyze(scop)
        second = session.analyze(scop)
        assert first.miss_curve is not None
        assert second.miss_curve == first.miss_curve

    def test_sweep_grid_is_part_of_job_identity(self):
        from repro.engine.store import job_digest

        plain = Session().job_spec("gemm", "mini")
        swept = Session().sweep(capacities=4096).job_spec("gemm", "mini")
        assert plain.key() != swept.key()
        assert job_digest(plain) != job_digest(swept)

    def test_batch_jobs_carry_the_sweep(self):
        session = Session().machine((1024,)).no_store().sweep(capacities=(64, 128))
        batch = session.scops(_matvec(6)).run()
        (record,) = batch.records
        assert record.ok and not record.result.used_fallback
        curve = record.result.miss_curve
        assert curve.is_breakpoint(1) and curve.is_breakpoint(2)


# ----------------------------------------------------------------------
# CLI: the curve subcommand
# ----------------------------------------------------------------------
FAST = ["--budget", "200", "--no-store"]


class TestCurveCli:
    def test_curve_table(self, capsys):
        assert main(["curve", "gemm", "--dataset", "mini", "--sweep", "64:16K:8", *FAST]) == 0
        out = capsys.readouterr().out
        assert "miss curve over" in out
        assert "exact, from trace fallback" in out

    def test_curve_json_sweep_is_monotone(self, capsys):
        rc = main(
            ["curve", "gemm", "--dataset", "mini", "--json",
             "--capacities", "64,256,1K,4K", *FAST]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["curve"]["exact"] is True
        sweep = payload["sweep"]
        assert [point["capacity_bytes"] for point in sweep] == [64, 256, 1024, 4096]
        misses = [point["capacity_misses"] for point in sweep]
        assert misses == sorted(misses, reverse=True)

    def test_curve_bad_sweep_spec_exits_two(self, capsys):
        assert main(["curve", "gemm", "--sweep", "banana", *FAST]) == 2
        assert "MIN:MAX" in capsys.readouterr().err
        assert main(["curve", "gemm", "--sweep", "4K:1K", *FAST]) == 2
        assert main(["curve", "gemm", "--capacities", "0", *FAST]) == 2
