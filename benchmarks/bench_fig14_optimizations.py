"""Figure 14: speedup due to partial enumeration.

Partial enumeration only matters for kernels whose stack-distance
polynomials are non-affine; the benchmark uses the line-granularity
triangular workload (the smallest kernel that produces such polynomials)
and compares the capacity-miss counting with partial enumeration on
(only the dimensions that make a polynomial non-affine are enumerated) and
off (every loop dimension of a non-affine piece is enumerated).
"""

import pytest

from helpers import L1_SIZE, model_session, nonaffine_workloads, timed
from repro.core import ModelOptions
from repro.reporting import format_table

CONFIGS = [
    ("all optimisations", ModelOptions()),
    ("no partial enumeration", ModelOptions(partial_enumeration=False)),
]


def _experiment():
    rows = []
    reference_misses = {}
    for name, builder in nonaffine_workloads():
        scop = builder()
        for label, options in CONFIGS:
            options.fallback_to_simulation = False
            result, seconds = timed(model_session((L1_SIZE,), options).analyze, scop)
            rows.append(
                (name, label, round(seconds, 2), result.piece_count, result.enumerated_points, result.misses(0))
            )
            reference_misses.setdefault(name, result.misses(0))
            assert result.misses(0) == reference_misses[name], "optimisations must not change the result"
    return rows


def test_fig14_optimization_ablation(benchmark):
    rows = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    print("\nFigure 14: partial enumeration ablation")
    print(format_table(["kernel", "configuration", "time [s]", "#pieces", "#points", "L1 misses"], rows))
    # All configurations agree on the miss counts (asserted inside), and
    # partial enumeration never enumerates more points than binding every
    # loop dimension does.  On nested-tri it enumerates strictly fewer, at
    # the smoke size too (N=5: 58 against 59 points), so the assertion fails
    # if partial enumeration stops binding fewer loops.
    by_kernel = {}
    for name, label, seconds, pieces, points, misses in rows:
        by_kernel.setdefault(name, {})[label] = points
    for name, configs in by_kernel.items():
        assert configs["all optimisations"] <= configs["no partial enumeration"]
    assert by_kernel["nested-tri"]["all optimisations"] < by_kernel["nested-tri"]["no partial enumeration"]
