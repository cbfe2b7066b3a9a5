"""Figure 1: scaling of the analytical model vs. trace-driven simulation.

The paper shows that Dinero IV's simulation time grows linearly with the
number of memory accesses while HayStack's execution time is (mostly)
problem-size independent.  This benchmark sweeps the problem size of the scaled
stencil and triangular kernels and reports both tools execution times.
The assertions check the *shape* on deterministic counts, not on
millisecond timings: the simulator visits every access, so its work grows
with the access count, while the model's work units must grow less than
half as fast and its piece count must not grow at all.
"""

import pytest

from helpers import model_session, run_simulator, stencil_1d, sweep, timed, trisum


STENCIL_SIZES = [24, 48, 96]
TRISUM_SIZES = [8, 12, 16]


def _row(kernel, scop, model_result, model_time, sim_result):
    return (
        kernel,
        scop.total_accesses(),
        model_time,
        sim_result.elapsed_seconds,
        model_result.timing.work_units_charged,
        model_result.piece_count,
    )


def _scaling_experiment():
    rows = []
    for size in sweep(STENCIL_SIZES):
        scop = stencil_1d(size)
        model_result, model_time = timed(model_session().analyze, scop)
        sim_result = run_simulator(scop)
        rows.append(_row("stencil-1d", scop, model_result, model_time, sim_result))
    for size in sweep(TRISUM_SIZES):
        scop = trisum(size)
        model_result, model_time = timed(model_session().analyze, scop)
        sim_result = run_simulator(scop)
        rows.append(_row("trisum", scop, model_result, model_time, sim_result))
    return rows


def test_fig01_model_vs_simulation_scaling(benchmark):
    rows = benchmark.pedantic(_scaling_experiment, rounds=1, iterations=1)
    print("\nFigure 1: execution time versus number of memory accesses")
    print(f"{'kernel':<10} {'#accesses':>10} {'model [s]':>12} {'simulation [s]':>15} {'units':>8} {'pieces':>7}")
    for kernel, accesses, model_time, sim_time, units, pieces in rows:
        print(f"{kernel:<10} {accesses:>10} {model_time:>12.3f} {sim_time:>15.4f} {units:>8} {pieces:>7}")

    for kernel in ("stencil-1d", "trisum"):
        series = [row for row in rows if row[0] == kernel]
        accesses_ratio = series[-1][1] / series[0][1]
        units_ratio = series[-1][4] / series[0][4]
        print(f"{kernel}: access ratio {accesses_ratio:.2f}x, model work-unit ratio {units_ratio:.2f}x")
        # The sweep must grow the trace, and with it the simulator's work
        # (it visits every access); the model's deterministic work must grow
        # much more slowly (the paper's Figure 1 shows flat model scaling)
        # and its pieces not at all.
        assert accesses_ratio >= 2
        assert units_ratio < accesses_ratio / 2
        assert len({row[5] for row in series}) == 1
