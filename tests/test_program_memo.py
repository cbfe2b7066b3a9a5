"""The per-process program memo of the analytical model.

A memo hit must give exactly what a fresh process gives — per-level misses,
miss curve, work units and payload — for every budget and capacity grid;
only the seconds fields may differ.  Every run here is budgeted or finishes
symbolically in well under a second.
"""

from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.core import CacheLevelSpec, CacheModel, MachineModel, ModelOptions
from repro.core.model import PROGRAM_MEMO, ProgramMemo
from repro.frontend import parser
from repro.isl.work import BudgetExhausted
from repro.scop import ScopBuilder, program_fingerprint
from repro.scop.polybench import build_kernel

KERNELS_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "kernels"

SMOKE_KERNELS = ("gemm", "atax", "bicg", "mvt", "trisolv", "jacobi-1d")

#: Stage 2-3 work units of the symbolic kernels at 64-byte lines.
STAGE3_UNITS = {("matvec", "n16"): 3298, ("stencil3", "n64"): 323, ("copylines", "n8"): 590}

#: Two capacity grids (bytes) for the same programs.
GRIDS = ((128, 640, 2048), (192, 4096, 16384, 65536))

SYMBOLIC_MACHINE = MachineModel(levels=(CacheLevelSpec(1024), CacheLevelSpec(8192)))


@pytest.fixture(autouse=True)
def _cold_memo():
    PROGRAM_MEMO.clear()
    yield
    PROGRAM_MEMO.clear()


def _strip_seconds(value):
    if isinstance(value, dict):
        return {k: _strip_seconds(v) for k, v in value.items() if not k.endswith("seconds")}
    if isinstance(value, list):
        return [_strip_seconds(v) for v in value]
    return value


def _payload(machine, scop, **options):
    return _strip_seconds(CacheModel(machine, ModelOptions(**options)).analyze(scop).to_dict())


def _knl_scop(name, dataset):
    program = parser.parse_kernel_path(KERNELS_DIR / f"{name}.knl")
    return program.instantiate(program.dataset_sizes(dataset))


def _check_hits_match_fresh(machine, scop, budgets):
    """Every (budget, grid) run in one warm process equals a fresh run."""
    fresh = {}
    for budget in budgets:
        for grid in GRIDS:
            PROGRAM_MEMO.clear()
            fresh[budget, grid] = _payload(machine, scop, symbolic_work_budget=budget, curve_capacities=grid)
    PROGRAM_MEMO.clear()
    for budget in budgets:
        for grid in GRIDS:
            warm = _payload(machine, scop, symbolic_work_budget=budget, curve_capacities=grid)
            assert warm == fresh[budget, grid], (budget, grid)
    return fresh


@pytest.mark.parametrize("kernel", SMOKE_KERNELS)
def test_smoke_kernel_hits_match_fresh(kernel):
    # 2000 first: the 150 runs then replay the recorded trip at 151 units.
    fresh = _check_hits_match_fresh(MachineModel(), build_kernel(kernel, "mini"), (2000, 150))
    for budget in (2000, 150):
        assert fresh[budget, GRIDS[0]]["timing"]["work_units_charged"] == budget + 1
        assert fresh[budget, GRIDS[0]]["used_fallback"]


@pytest.mark.parametrize("name, dataset", sorted(STAGE3_UNITS))
def test_symbolic_kernel_hits_match_fresh(name, dataset):
    scop = _knl_scop(name, dataset)
    units = STAGE3_UNITS[name, dataset]
    # U - 1 records a trip, None recomputes and finishes, U continues stage 4
    # from the recorded count, and the last U - 1 replays below a finished run.
    fresh = _check_hits_match_fresh(SYMBOLIC_MACHINE, scop, (units - 1, None, units, units - 1))
    outcome = PROGRAM_MEMO.get((program_fingerprint(scop), 64), "distances")
    assert outcome.need == units and outcome.distances is not None
    assert fresh[units - 1, GRIDS[0]]["timing"]["work_units_charged"] == units
    assert fresh[units, GRIDS[0]]["timing"]["work_units_charged"] == units + 1
    assert fresh[units, GRIDS[0]]["used_fallback"]
    assert not fresh[None, GRIDS[0]]["used_fallback"]


def test_replayed_failures_raise_like_fresh_ones():
    scop = build_kernel("mvt", "mini")
    model = CacheModel(MachineModel(), ModelOptions(symbolic_work_budget=150))
    fresh = model.symbolic_probe(scop)
    again = model.symbolic_probe(scop)
    assert (fresh.outcome, fresh.work_units) == (again.outcome, again.work_units) == ("budget", 151)
    strict = CacheModel(MachineModel(), ModelOptions(symbolic_work_budget=100, fallback_to_simulation=False))
    with pytest.raises(BudgetExhausted) as replayed:
        strict.analyze(scop)
    assert replayed.value.work_units_charged == 101
    assert str(replayed.value) == "symbolic work budget exhausted (101 > 100 units)"


def test_python_backend_generates_its_own_trace(monkeypatch):
    from repro.simulator import lru, vectorized

    calls = {"numpy": 0, "python": 0}
    numpy_curve = vectorized.trace_model_curve
    python_histogram = lru.StackDistanceProfiler.histogram

    def numpy_spy(*args, **kwargs):
        calls["numpy"] += 1
        return numpy_curve(*args, **kwargs)

    def python_spy(self, *args, **kwargs):
        calls["python"] += 1
        return python_histogram(self, *args, **kwargs)

    monkeypatch.setattr(vectorized, "trace_model_curve", numpy_spy)
    monkeypatch.setattr(lru.StackDistanceProfiler, "histogram", python_spy)
    scop = build_kernel("jacobi-1d", "mini")
    machine = MachineModel()
    numpy_runs = [_payload(machine, scop, symbolic_work_budget=150) for _ in range(2)]
    assert calls == {"numpy": 1, "python": 0}
    python_runs = [_payload(machine, scop, symbolic_work_budget=150, backend="python") for _ in range(2)]
    assert calls == {"numpy": 1, "python": 1}
    assert numpy_runs[0] == numpy_runs[1] == python_runs[0] == python_runs[1]


def _copy(n):
    b = ScopBuilder(f"copy{n}", context={"N": n}, element_size=64)
    A = b.array("A", (n,))
    B = b.array("B", (n,))
    with b.loop("i", 0, n):
        b.stmt(reads=[A[b.v("i")]], writes=[B[b.v("i")]])
    return b.build()


def test_oldest_program_is_evicted():
    machine = MachineModel.single_level(512)
    scops = [_copy(n) for n in range(1, PROGRAM_MEMO.capacity + 2)]
    keys = [(program_fingerprint(scop), 64) for scop in scops]
    for scop in scops:
        CacheModel(machine, ModelOptions(symbolic_work_budget=1)).analyze(scop)
    assert PROGRAM_MEMO.get(keys[0], ("trace", "numpy")) is None
    assert all(PROGRAM_MEMO.get(key, ("trace", "numpy")) is not None for key in keys[1:])


def test_lookup_refreshes_recency():
    memo = ProgramMemo(2)
    memo.put("a", "part", 1)
    memo.put("b", "part", 2)
    assert memo.get("a", "part") == 1
    memo.put("c", "part", 3)
    assert [memo.get(key, "part") for key in "abc"] == [1, None, 3]


def test_threads_mixing_programs_match_sequential_results():
    machine = SYMBOLIC_MACHINE
    programs = [
        (build_kernel("atax", "mini"), {"symbolic_work_budget": 150}),
        (build_kernel("trisolv", "mini"), {"symbolic_work_budget": 150}),
        (_knl_scop("stencil3", "n64"), {}),
        (_knl_scop("copylines", "n8"), {"curve_capacities": GRIDS[1]}),
    ]
    expected = []
    for scop, options in programs:
        PROGRAM_MEMO.clear()
        expected.append(_payload(machine, scop, **options))
    PROGRAM_MEMO.clear()

    def run(index):
        scop, options = programs[index]
        return _payload(machine, scop, **options)

    order = [index % len(programs) for index in range(16)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(run, order))
    for index, result in zip(order, results):
        assert result == expected[index]
