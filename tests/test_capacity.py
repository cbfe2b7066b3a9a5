"""Capacity counting under the Figure 14 toggle, partial enumeration.

A three-deep triangular nest with one element per cache line yields
non-affine stack distances, so its capacity misses go through partial
enumeration.  The counter reads the toggle from the model's
:class:`~repro.core.ModelOptions`; under either setting the symbolic counts
must equal the exact trace.
"""

import pytest

import repro.core.capacity as capacity
from repro.core import CacheLevelSpec, CacheModel, MachineModel, ModelOptions
from repro.scop import ScopBuilder

ALL_OFF = dict(partial_enumeration=False)


def _nested_triangular(n=5):
    """``acc[i] += A[j][k]`` over ``0 <= k <= j <= i < N``, 64-byte elements."""
    builder = ScopBuilder("nested-tri", context={"N": n}, element_size=64)
    A = builder.array("A", (n, n))
    acc = builder.array("acc", (n,))
    with builder.loop("i", 0, n) as i:
        with builder.loop("j", 0, i, upper_inclusive=True) as j:
            with builder.loop("k", 0, j, upper_inclusive=True) as k:
                builder.stmt(reads=[A[j, k], acc[i]], writes=[acc[i]])
    return builder.build()


@pytest.mark.parametrize("toggles", [{}, ALL_OFF], ids=["defaults", "all-off"])
def test_toggles_reach_the_counter_and_counts_equal_the_trace(monkeypatch, toggles):
    calls = {"enumerated_vars": []}

    def spy_enumerate(domain, variables):
        calls["enumerated_vars"].append(set(variables))
        return enumerate_points(domain, variables)

    enumerate_points = capacity.enumerate_points
    monkeypatch.setattr(capacity, "enumerate_points", spy_enumerate)

    scop = _nested_triangular()
    machine = MachineModel(line_size=64, levels=(CacheLevelSpec(4 * 64, "L1"), CacheLevelSpec(16 * 64, "L2")))
    model = CacheModel(machine, ModelOptions(fallback_to_simulation=False, **toggles))
    result = model.analyze(scop)

    assert not result.used_fallback
    assert result.nonaffine_pieces > 0
    assert result.enumerated_points > 0
    misses = [(level.compulsory, level.capacity) for level in result.level_results]
    reference = model.analyze_by_trace(scop).level_results
    assert misses == [(level.compulsory, level.capacity) for level in reference]

    assert calls["enumerated_vars"]
    if toggles:
        # Every point expansion binds all loops.
        assert all(names == {"i", "j", "k"} for names in calls["enumerated_vars"])
    else:
        # Partial enumeration leaves some dimensions symbolic.
        assert any(len(names) < 3 for names in calls["enumerated_vars"])
