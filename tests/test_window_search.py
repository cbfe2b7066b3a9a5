"""The prefix-pruned reuse-window search against the flat loop it replaced.

``StackDistanceAnalysis._window_contributions`` checks each prefix of a
reuse-window system (target region with witness piece, then each lower and
each upper lex disjunct) before it builds the leaves under it.  Pruning may
only skip systems that are empty: the contributions handed to accumulation
must be the ones the flat lower × upper × first-touch loop produces, system
for system and in the same order.  That loop stays here as the reference.
"""

import pytest
from test_model_vs_simulator import build_copy_kernel, build_gemm, build_stencil_1d

from repro.core import regions
from repro.core.distance import COUNT_PREFIX, StackDistanceAnalysis
from repro.core.prevmap import ModelFallbackRequired
from repro.core.refs import rename_map
from repro.core.regions import feasible, lex_order_disjuncts
from repro.engine.store import stable_digest
from repro.isl.counting import CountingError, count_points
from repro.isl.work import charge


def _flat_window_contributions(analysis, region, window_start, window_end, prev_maps):
    """Every lower × upper × first-touch leaf built from scratch and checked on its own."""
    contributions = []
    for witness in analysis.prev_builder.accesses:
        rename = rename_map(witness.statement, COUNT_PREFIX)
        witness_vars = witness.loop_vars(COUNT_PREFIX)
        witness_domain = witness.domain(COUNT_PREFIX)
        witness_schedule = witness.schedule_exprs(analysis.schedule_length, COUNT_PREFIX)

        lower_disjuncts = lex_order_disjuncts(window_start, witness_schedule, strict=False)
        upper_disjuncts = lex_order_disjuncts(witness_schedule, window_end, strict=False)
        if not lower_disjuncts or not upper_disjuncts:
            continue

        for witness_region in prev_maps[witness.key]:
            witness_piece_domain = witness_region.domain.substitute(rename)
            if witness_region.is_first_touch:
                first_touch_disjuncts = [[]]
            else:
                witness_prev_schedule = tuple(
                    expr.substitute(rename) for expr in witness_region.candidate.schedule
                )
                first_touch_disjuncts = lex_order_disjuncts(witness_prev_schedule, window_start, strict=True)
                if not first_touch_disjuncts:
                    continue

            for lower in lower_disjuncts:
                for upper in upper_disjuncts:
                    for first_touch in first_touch_disjuncts:
                        charge()
                        system = region.domain.conjoin(witness_domain)
                        system = system.conjoin(witness_piece_domain)
                        for constraint in lower + upper + first_touch:
                            system.add(constraint)
                        if not feasible(system):
                            continue
                        try:
                            pieces = count_points(system, witness_vars)
                        except CountingError as exc:
                            raise ModelFallbackRequired(str(exc)) from exc
                        contributions.extend(pieces)
    return contributions


def _search(scop, monkeypatch, flat):
    """Digest of every reuse window's contributions, and the feasibility calls made finding them."""
    analysis = StackDistanceAnalysis(scop, line_size=64)
    prev_maps = analysis.prev_builder.all_prev_regions()
    witnesses = None if flat else analysis._witnesses(prev_maps)
    calls = []
    original = regions.feasible_rational
    monkeypatch.setattr(regions, "feasible_rational", lambda system: calls.append(1) or original(system))

    windows = []
    for access in analysis.prev_builder.accesses:
        window_end = access.schedule_exprs(analysis.schedule_length)
        for region in prev_maps[access.key]:
            if region.is_first_touch:
                continue
            window_start = region.candidate.schedule
            if flat:
                contributions = _flat_window_contributions(analysis, region, window_start, window_end, prev_maps)
            else:
                contributions = analysis._window_contributions(region, window_start, window_end, witnesses)
            windows.append(
                [
                    (tuple((c.kind, c.expr) for c in domain.constraints), polynomial)
                    for domain, polynomial in contributions
                ]
            )
    monkeypatch.setattr(regions, "feasible_rational", original)
    return stable_digest(windows), sum(len(window) for window in windows), len(calls)


KERNELS = {
    "copy-8B": lambda: build_copy_kernel(16, element_size=8),
    "stencil-1d": lambda: build_stencil_1d(24),
    "gemm-4x3x2-64B": lambda: build_gemm(4, 3, 2),
    "gemm-4x3x2-8B": lambda: build_gemm(4, 3, 2, element_size=8),
}


@pytest.mark.parametrize(
    "kernel",
    [
        "copy-8B",
        "stencil-1d",
        "gemm-4x3x2-64B",
        # The flat loop alone makes about 50,000 feasibility checks here
        # (over a minute on a 2-core box), so this case runs under --run-slow.
        pytest.param("gemm-4x3x2-8B", marks=pytest.mark.slow),
    ],
)
def test_pruned_search_returns_the_flat_loop_contributions(kernel, monkeypatch):
    pruned_digest, pruned_count, pruned_calls = _search(KERNELS[kernel](), monkeypatch, flat=False)
    flat_digest, flat_count, flat_calls = _search(KERNELS[kernel](), monkeypatch, flat=True)
    assert pruned_count > 0
    assert (pruned_digest, pruned_count) == (flat_digest, flat_count)
    if kernel.startswith("gemm"):
        assert pruned_calls < flat_calls
