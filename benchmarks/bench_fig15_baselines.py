"""Figure 15: speedup of HayStack over PolyCache and Dinero IV.

The PolyCache surrogate analyses every cache set separately and the Dinero
surrogate enumerates the full memory trace; both are compared against the
analytical model on the scaled suite.  In the paper HayStack (backed by
isl/barvinok) is 21x / 370x faster; the pure-Python model is much slower in
absolute terms, so the assertions only check the cost *structure*, on
deterministic counts rather than millisecond timings: the baselines visit
every access (or every access per cache set), so their work grows with the
trace length, while the model's work units grow less than half as fast and
its piece count does not grow at all.
"""

import pytest

from helpers import L1_SIZE, LINE, model_session, run_simulator, smoke_mode, stencil_1d, timed, trisum
from repro.baselines import PolyCacheSurrogate
from repro.reporting import format_table


def _workloads():
    if smoke_mode():
        return [("stencil-1d", stencil_1d, 16, 48), ("trisum", trisum, 8, 12)]
    return [("stencil-1d", stencil_1d, 16, 128), ("trisum", trisum, 8, 20)]


def _experiment():
    rows = []
    for name, builder, small, large in _workloads():
        for size in (small, large):
            scop = builder(size)
            model, model_time = timed(model_session((L1_SIZE,)).analyze, scop)
            dinero = run_simulator(scop, (L1_SIZE,))
            polycache = PolyCacheSurrogate(L1_SIZE, LINE, associativity=4).analyze(scop)
            rows.append(
                (
                    name,
                    size,
                    scop.total_accesses(),
                    round(model_time, 2),
                    round(dinero.elapsed_seconds, 4),
                    round(polycache.elapsed_seconds, 4),
                    model.timing.work_units_charged,
                    model.piece_count,
                )
            )
    return rows


def test_fig15_baseline_comparison(benchmark):
    rows = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    print("\nFigure 15: HayStack vs. PolyCache vs. Dinero IV (execution time)")
    print(
        format_table(
            ["kernel", "size", "#accesses", "model [s]", "dinero [s]", "polycache [s]", "units", "pieces"],
            rows,
        )
    )
    by_kernel = {}
    for row in rows:
        by_kernel.setdefault(row[0], []).append(row)
    for name, series in by_kernel.items():
        small, large = series[0], series[-1]
        access_growth = large[2] / small[2]
        dinero_growth = large[4] / max(small[4], 1e-9)
        units_growth = large[6] / small[6]
        print(f"{name}: accesses x{access_growth:.1f}, dinero time x{dinero_growth:.1f}, units x{units_growth:.2f}")
        # The baselines' cost tracks the trace length; the model's does not.
        assert access_growth >= 2
        assert units_growth < access_growth / 2
        assert large[7] == small[7]
