"""Design-space explorer: Pareto invariants, axes, grid-vs-independent identity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.core import CacheLevelSpec, MachineModel
from repro.explore import (
    DesignSpace,
    DesignSpaceError,
    build_result,
    config_cost,
    dominates,
    pareto_front,
)
from repro.scop import ScopBuilder
from repro.scop.schedule import tile_scop

#: 2-D minimize-everything objective vectors, duplicates welcome.
objective_lists = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=0, max_size=24
)


class TestDominates:
    def test_strictly_better_dominates(self):
        assert dominates((1, 2), (2, 2))
        assert dominates((1, 1), (2, 2))

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates((3, 3), (3, 3))

    def test_tradeoffs_do_not_dominate(self):
        assert not dominates((1, 5), (5, 1))
        assert not dominates((5, 1), (1, 5))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            dominates((1,), (1, 2))


class TestParetoFront:
    @given(objective_lists)
    @settings(max_examples=200, deadline=None)
    def test_front_is_mutually_non_dominated(self, points):
        front = pareto_front(points)
        assert not any(
            dominates(a, b) for i, a in enumerate(front) for j, b in enumerate(front) if i != j
        )

    @given(objective_lists)
    @settings(max_examples=200, deadline=None)
    def test_every_excluded_point_is_dominated(self, points):
        front = pareto_front(points)
        remaining = list(points)
        for member in front:
            remaining.remove(member)
        assert all(any(dominates(member, point) for member in front) for point in remaining)

    @given(objective_lists)
    @settings(max_examples=200, deadline=None)
    def test_front_is_an_ordered_subsequence(self, points):
        front = pareto_front(points)
        indices = []
        cursor = 0
        for member in front:
            cursor = points.index(member, cursor)
            indices.append(cursor)
            cursor += 1
        assert indices == sorted(indices)

    def test_duplicate_optima_both_survive(self):
        assert pareto_front([(1, 1), (1, 1), (2, 2)]) == [(1, 1), (1, 1)]

    def test_key_maps_items_to_objectives(self):
        items = [{"m": 5, "c": 1}, {"m": 1, "c": 5}, {"m": 5, "c": 5}]
        front = pareto_front(items, key=lambda item: (item["m"], item["c"]))
        assert front == items[:2]


class TestDesignSpace:
    def test_from_specs_parses_sweep_spellings(self):
        space = DesignSpace.from_specs(
            tiles="1,2,4", capacities="1K:8K:4", line_sizes=[32, 64], associativities=8
        )
        assert space.tiles == (1, 2, 4)
        assert space.capacities == (1024, 2048, 4096, 8192)
        assert space.line_sizes == (32, 64)
        assert space.associativities == (8,)

    def test_defaults_are_untiled_fully_associative(self):
        space = DesignSpace.from_specs(capacities=[1024])
        assert space.tiles == (1,)
        assert space.associativities == (None,)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tiles": (0,)},
            {"capacities": (0,)},
            {"line_sizes": (-64,)},
            {"associativities": (0,)},
        ],
    )
    def test_invalid_axes_rejected(self, kwargs):
        with pytest.raises(DesignSpaceError):
            DesignSpace(**{"capacities": (1024,), **kwargs}).validate()

    def test_resolved_fills_axes_from_machine(self):
        machine = MachineModel(
            line_size=32,
            levels=(CacheLevelSpec(1024, "L1"), CacheLevelSpec(8192, "L2")),
        )
        space = DesignSpace(tiles=(1, 4)).resolved(machine)
        assert space.capacities == (1024, 8192)
        assert space.line_sizes == (32,)

    def test_hierarchy_preset_reads_the_machine(self):
        machine = MachineModel(
            levels=(CacheLevelSpec(32 * 1024, "L1"), CacheLevelSpec(256 * 1024, "L2"))
        )
        space = DesignSpace.hierarchy(machine, tiles="1,8")
        assert space.capacities == (32 * 1024, 256 * 1024)
        assert space.line_sizes == (machine.line_size,)
        assert space.tiles == (1, 8)

    def test_grid_and_analysis_counts(self):
        space = DesignSpace(
            tiles=(1, 2), capacities=(1024, 2048, 4096), line_sizes=(32, 64),
            associativities=(None, 4),
        )
        assert space.config_count() == 2 * 3 * 2 * 2
        assert space.analysis_count() == 2 * 2


class TestConfigCost:
    def test_fully_associative_charges_every_line(self):
        assert config_cost(1024, 16, 64, None) == 1024 + 64 * 16

    def test_ways_capped_at_capacity_lines(self):
        assert config_cost(1024, 16, 64, 4) == 1024 + 64 * 4
        assert config_cost(128, 2, 64, 8) == 128 + 64 * 2


def _sweep_scop(n=8, passes=2):
    """s += A[i] repeated ``passes`` times: real capacity structure, tiny trace."""
    builder = ScopBuilder("sweep", context={"N": n, "T": passes}, element_size=64)
    A = builder.array("A", (n,))
    s = builder.array("s", (1,))
    with builder.loop("t", 0, passes):
        with builder.loop("i", 0, n):
            builder.stmt(reads=[A[builder.v("i")], s[0]], writes=[s[0]])
    return builder.build()


#: Tile x capacity x line-size x associativity grid used by the identity
#: tests: 4 analyses answer 16 configurations.
SPACE = DesignSpace(
    tiles=(1, 2),
    capacities=(4 * 64, 16 * 64),
    line_sizes=(32, 64),
    associativities=(None, 4),
)


def _session(**_ignored):
    return Session().machine((max(SPACE.capacities),)).budget(500).no_store()


class TestExploreIdentity:
    """The tentpole claim: parametric axes match per-configuration analyses."""

    def test_grid_matches_per_config_analyses(self):
        scop = _sweep_scop()
        result = _session().explore(scop, space=SPACE)
        assert len(result.configs) == SPACE.config_count() == 16
        assert result.analyses == SPACE.analysis_count() == 4
        variants = {1: scop, 2: tile_scop(scop, 2)}
        for config in result.configs:
            machine = MachineModel(
                line_size=config.line_size,
                levels=(CacheLevelSpec(config.capacity_bytes, "L1"),),
            )
            independent = Session(machine).budget(500).no_store().analyze(variants[config.tile])
            assert config.misses == independent.level_results[0].misses
            assert config.accesses == independent.accesses

    def test_associativity_axis_never_moves_the_misses(self):
        # The model is fully associative: the ways axis exists for the cost
        # proxy only, so configs differing only in associativity agree.
        result = _session().explore(_sweep_scop(), space=SPACE)
        by_point = {}
        for config in result.configs:
            key = (config.tile, config.line_size, config.capacity_bytes)
            by_point.setdefault(key, set()).add(config.misses)
        assert all(len(misses) == 1 for misses in by_point.values())

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_table_identical_across_backends(self, backend):
        scop = _sweep_scop()
        reference = _session().explore(scop, space=SPACE).table_digest()
        assert _session().backend(backend).explore(scop, space=SPACE).table_digest() == reference

    def test_ranking_is_best_first_and_pareto_flagged(self):
        result = _session().explore(_sweep_scop(), space=SPACE)
        objectives = [config.objectives() for config in result.configs]
        assert objectives == sorted(objectives)
        expected = pareto_front(objectives)
        assert sorted(c.objectives() for c in result.front()) == sorted(expected)
        assert result.best() is result.configs[0]

    def test_table_digest_ignores_wall_time(self):
        result = _session().explore(_sweep_scop(), space=SPACE)
        digest = result.table_digest()
        result.elapsed_seconds = 123.0
        assert result.table_digest() == digest


class TestBuildResult:
    def test_empty_capacity_axis_rejected(self):
        with pytest.raises(DesignSpaceError, match="capacity axis is empty"):
            build_result(DesignSpace(), lambda tile, line: None, kernel="k")
