"""The integer-row feasibility engine: soundness, pinned verdicts, and work charging.

``feasible_rational`` prunes pieces, so its one hard obligation is
soundness: ``False`` must mean integer-empty.  A ``True`` found by the dive
carries an integer point that satisfies every row, and a system keeps that
point through ``copy`` and ``add`` only while it stays valid.  Beyond that
the engine must refute every system the Fourier-Motzkin loop over ``QPoly``
constraints that the integer rows replaced refutes (bound propagation may
refute more), and the ranges ``variable_range`` hands to enumeration must
equal that loop's; the loop, with its div expansion, stays here as the
reference.  The pinned verdicts fix the engine's semantics (gcd tightening
of inequalities, integer-empty equalities, scaled equality substitution,
the variable cut-off) and the work-unit contract, and the pinned pieces hold
the whole stack-distance pipeline's output on two kernels byte for byte.
"""

import itertools
import math
import pickle
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st
from test_model_vs_simulator import build_copy_kernel, build_stencil_1d
from test_program_memo import SYMBOLIC_MACHINE, _knl_scop

from repro.core import CacheModel, ModelOptions
from repro.core.distance import StackDistanceAnalysis
from repro.core.model import PROGRAM_MEMO
from repro.engine.store import stable_digest
from repro.isl import constraints
from repro.isl.constraints import (
    EQ,
    INEQ,
    Constraint,
    ConstraintSystem,
    UnboundedSetError,
    eq,
    feasible_rational,
    ge,
    le,
    variable_range,
)
from repro.isl.qpoly import QPoly, floor_div
from repro.isl.work import WorkBudget, active_budget

x, y = QPoly.variable("x"), QPoly.variable("y")


# ----------------------------------------------------------------------
# Soundness against brute force
# ----------------------------------------------------------------------
coefficients = st.integers(min_value=-3, max_value=3)


@st.composite
def boxed_systems(draw):
    """A box over at most three variables, a few affine rows and one (maybe nested) floor div."""
    names = ["x", "y", "z"][: draw(st.integers(min_value=1, max_value=3))]
    box = {}
    rows = []
    for name in names:
        low = draw(st.integers(min_value=-3, max_value=3))
        box[name] = range(low, low + draw(st.integers(min_value=0, max_value=4)) + 1)
        rows += [ge(name, box[name].start), le(name, box[name].stop - 1)]

    def affine():
        expr = QPoly.constant(draw(st.integers(min_value=-5, max_value=5)))
        for name in names:
            expr = expr + QPoly.variable(name) * draw(coefficients)
        return expr

    argument = affine()
    if draw(st.booleans()):
        argument = argument + floor_div(affine(), draw(st.integers(min_value=2, max_value=5)))
    div = floor_div(argument, draw(st.integers(min_value=2, max_value=5)))
    for index in range(draw(st.integers(min_value=1, max_value=3))):
        expr = affine() + (div * draw(coefficients) if index == 0 else 0)
        rows.append(Constraint(expr, EQ if draw(st.booleans()) else INEQ))
    return ConstraintSystem(rows), box


def _satisfied(system, point):
    for constraint in system.constraints:
        value = constraint.expr.evaluate(point)
        if (value != 0) if constraint.kind == EQ else (value < 0):
            return False
    return True


@given(boxed_systems())
@settings(max_examples=300, deadline=None)
def test_false_only_when_brute_force_finds_no_point(case):
    system, box = case
    names = list(box)
    has_point = any(_satisfied(system, dict(zip(names, values))) for values in itertools.product(*box.values()))
    if has_point:
        assert feasible_rational(system)


# ----------------------------------------------------------------------
# The dive's integer point, carried by the system
# ----------------------------------------------------------------------
@given(boxed_systems())
@settings(max_examples=300, deadline=None)
def test_true_carries_a_valid_point_unless_fourier_motzkin_answered(case):
    system, box = case
    names = list(box)
    dives = []
    dive = constraints._dive

    def recording_dive(*args):
        dives.append(dive(*args))
        return dives[-1]

    with mock.patch.object(constraints, "_FEASIBILITY_CACHE", {}):
        with mock.patch.object(constraints, "_dive", recording_dive):
            verdict = feasible_rational(system)
    point = system._point
    if not verdict:
        assert point is None
        assert not any(_satisfied(system, dict(zip(names, values))) for values in itertools.product(*box.values()))
    elif point is None:
        # Only a failed dive leaves the verdict to Fourier-Motzkin's "maybe".
        assert dives == [None]
    else:
        # Every row holds, each div evaluated as a floor.
        assert set(point) == system.variables()
        assert _satisfied(system, point)


@given(
    boxed_systems(),
    st.lists(coefficients, min_size=2, max_size=2),
    st.integers(min_value=-4, max_value=4),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_add_keeps_the_point_only_where_the_new_row_holds(case, coeffs, const, is_eq):
    system, box = case
    names = list(box)
    if not feasible_rational(system) or system._point is None:
        return
    point = system._point
    expr = QPoly.variable(names[0]) * coeffs[0] + floor_div(QPoly.variable(names[-1]), 2) * coeffs[1] + const
    constraint = Constraint(expr, EQ if is_eq else INEQ)
    extended = system.copy()
    assert extended._point is point
    extended.add(constraint)
    assert extended._point is (point if _satisfied_one(constraint, point) else None)


def test_new_and_substituted_systems_start_without_a_point():
    system = ConstraintSystem([ge(x, 0), le(x, y), le(y, 5)])
    assert system._point is None
    assert feasible_rational(system) and _satisfied(system, system._point)
    assert system.substitute({"y": 3})._point is None
    assert ConstraintSystem(system.constraints)._point is None
    assert system.conjoin([le(x, 5)])._point is system._point


def test_a_pickled_system_keeps_a_valid_point():
    system = ConstraintSystem([ge(x, 1), le(x * 2, y), le(y, 9), eq(floor_div(y, 4), 1)])
    assert feasible_rational(system)
    clone = pickle.loads(pickle.dumps(system))
    assert clone._point == system._point
    assert _satisfied(clone, clone._point)
    budget = WorkBudget()
    with active_budget(budget), mock.patch.object(constraints, "_FEASIBILITY_CACHE", {}):
        assert feasible_rational(clone)
    assert budget.used == 1


# ----------------------------------------------------------------------
# Same verdicts and ranges as the QPoly reference
# ----------------------------------------------------------------------
def _replace_div(poly, div, replacement):
    result = QPoly()
    for monomial, coeff in poly.terms.items():
        factor = QPoly.constant(coeff)
        for sym, exp in monomial:
            base = replacement if sym == div else QPoly.variable(sym)
            for _ in range(exp):
                factor = factor * base
        result = result + factor
    return result


def _expand_divs(system, names):
    """Rename every div involving ``names`` to a fresh ``__q`` variable bounded by its two defining rows.

    Returns the rewritten system and the fresh names; a div nested in a
    renamed div's argument surfaces in the defining rows and is renamed next.
    """
    fresh = []
    targets = system.divs_involving(names)
    while targets:
        div = targets[0]
        var = QPoly.variable(f"__q{len(fresh)}")
        fresh.append(f"__q{len(fresh)}")
        rewritten = ConstraintSystem(Constraint(_replace_div(c.expr, div, var), c.kind) for c in system.constraints)
        rewritten.add(ge(div.argument() - var * div.denominator, 0))
        rewritten.add(le(div.argument() - var * div.denominator, div.denominator - 1))
        system = rewritten
        targets = system.divs_involving(list(names) + fresh)
    return system, fresh


def _reference_eliminate(system, name):
    lowers, uppers, equalities, rest = [], [], [], []
    for constraint in system.constraints:
        coeff = constraint.expr.coefficient(name)
        remainder = constraint.expr - QPoly.variable(name) * coeff
        if not coeff:
            rest.append(constraint)
        elif constraint.kind == EQ:
            equalities.append((constraint, remainder, coeff))
        elif coeff > 0:
            lowers.append((-remainder, coeff))
        else:
            uppers.append((remainder, -coeff))
    if equalities:
        pivot, remainder, coeff = equalities[0]
        value = {name: remainder * (Fraction(-1) / coeff)}
        return ConstraintSystem(c.substitute(value) for c in system.constraints if c is not pivot)
    out = ConstraintSystem(rest)
    for low, low_coeff in lowers:
        for up, up_coeff in uppers:
            out.add(ge(up * low_coeff - low * up_coeff, 0))
    return out


def _reference_feasible(system, max_vars=24):
    expanded, _ = _expand_divs(system, sorted(system.variables()))
    names = list(expanded.variables())
    if len(names) > max_vars:
        return True
    while names:
        occurrences = {n: sum(1 for c in expanded.constraints if c.expr.coefficient(n)) for n in names}
        name = min(names, key=lambda n: (occurrences[n], n))
        names.remove(name)
        expanded = _reference_eliminate(expanded, name)
        if expanded.has_trivially_false():
            return False
        if len(expanded) > 600:
            return True
    return True


def _reference_range(system, name, others):
    expanded, fresh = _expand_divs(system, list(others) + [name])
    for other in list(others) + fresh:
        expanded = _reference_eliminate(expanded, other)
    lower = upper = None
    for constraint in expanded.constraints:
        coeff = constraint.expr.coefficient(name)
        remainder = constraint.expr - QPoly.variable(name) * coeff
        if not coeff or not remainder.is_constant():
            continue
        value = -remainder.constant_value() / coeff
        if constraint.kind == EQ or coeff > 0:
            lower = value if lower is None else max(lower, value)
        if constraint.kind == EQ or coeff < 0:
            upper = value if upper is None else min(upper, value)
    if lower is None or upper is None:
        raise UnboundedSetError(name)
    return math.ceil(lower), math.floor(upper)


def _range_or_none(function, *args):
    try:
        return function(*args)
    except UnboundedSetError:
        return None


@given(boxed_systems(), st.integers(min_value=0, max_value=2), st.booleans())
@settings(max_examples=300, deadline=None)
def test_verdicts_and_ranges_match_the_qpoly_reference(case, which, keep_one):
    system, box = case
    names = list(box)
    verdict = feasible_rational(system)
    # Bound propagation is stronger than the rational reference, so the
    # verdict is pinned from both sides: never False on a system with an
    # integer point, always False where the reference proves emptiness.
    if any(_satisfied(system, dict(zip(names, values))) for values in itertools.product(*box.values())):
        assert verdict
    if not _reference_feasible(system):
        assert not verdict
    name = names[which % len(names)]
    # Keeping a variable keeps the divs that mention only it as parameters.
    others = [n for n in names if n != name][: -1 if keep_one else None]
    assert _range_or_none(variable_range, system, name, others) == _range_or_none(
        _reference_range, system, name, others
    )


# ----------------------------------------------------------------------
# Substitution on integer rows
# ----------------------------------------------------------------------
@st.composite
def substitutions(draw):
    """Affine rows with (maybe nested) divs, and replacement values of every kind."""
    names = ["x", "y", "z"]

    def affine(over=names):
        expr = QPoly.constant(draw(st.integers(min_value=-5, max_value=5)))
        for name in over:
            expr = expr + QPoly.variable(name) * draw(coefficients)
        return expr

    def div():
        argument = affine()
        if draw(st.booleans()):
            argument = argument + floor_div(affine(), draw(st.integers(min_value=2, max_value=4)))
        return floor_div(argument, draw(st.integers(min_value=2, max_value=5)))

    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        expr = affine() + (div() * draw(coefficients) if draw(st.booleans()) else 0)
        rows.append(Constraint(expr, EQ if draw(st.booleans()) else INEQ))
    values = {
        "int": lambda: draw(st.integers(min_value=-4, max_value=4)),
        "fraction": lambda: Fraction(draw(st.integers(min_value=-4, max_value=4)), draw(st.integers(1, 3))),
        "affine": lambda: affine(names + ["w"]),
        "scaled": lambda: affine(["w", "x"]) * Fraction(1, draw(st.integers(min_value=2, max_value=3))),
        "div": lambda: affine(["w"]) + div(),
        "non-affine": lambda: QPoly.variable("w") * QPoly.variable("x"),
    }
    assignment = {}
    for name in draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True)):
        assignment[name] = values[draw(st.sampled_from(sorted(values)))]()
    return ConstraintSystem(rows), assignment


def _substituted(substitute, system, assignment):
    try:
        result = substitute(system, assignment)
    except ValueError:
        return "non-affine"
    return [c.row for c in result.constraints], list(result.constraints), result.has_trivially_false()


@given(substitutions())
@settings(max_examples=400, deadline=None)
# A div whose substituted argument is non-affine but whose floor cancels
# against the rest of the row: both paths must give the trivial constraint.
@example(
    (
        ConstraintSystem([Constraint(-y + floor_div(-x + 3 * y, 2), INEQ)]),
        {"x": QPoly.variable("w") * x, "y": QPoly.variable("w") * x},
    )
)
def test_row_substitution_matches_the_qpoly_path(case):
    system, assignment = case

    def per_constraint(system, assignment):
        return ConstraintSystem(c.substitute(assignment) for c in system.constraints)

    assert _substituted(ConstraintSystem.substitute, system, assignment) == _substituted(
        per_constraint, system, assignment
    )


@given(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=3, max_size=3),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_normalized_keeps_exactly_the_integer_points(values, is_eq):
    a, b, c = values
    constraint = Constraint(x * a + y * b + c, EQ if is_eq else INEQ)
    normalized = constraint.normalized()
    for point in itertools.product(range(-4, 5), repeat=2):
        assignment = dict(zip("xy", point))
        assert _satisfied_one(normalized, assignment) == _satisfied_one(constraint, assignment)
    # Integral, and its own normal form.
    assert all(v.denominator == 1 for v in normalized.expr.terms.values())
    assert normalized.normalized() is normalized


def _satisfied_one(constraint, point):
    value = constraint.expr.evaluate(point)
    return value == 0 if constraint.kind == EQ else value >= 0


# ----------------------------------------------------------------------
# Pinned verdicts
# ----------------------------------------------------------------------
def test_odd_equality_is_integer_empty_when_added():
    # x = 1/2 is a rational point, but 2x == 1 has no integer one: adding
    # the equality marks the system false, so the check costs no unit.
    system = ConstraintSystem([eq(x * 2, 1), ge(x, 0), le(x, 5)])
    assert system.has_trivially_false()
    budget = WorkBudget()
    with active_budget(budget):
        assert not feasible_rational(system)
    assert budget.used == 0
    assert not ConstraintSystem([eq(x * 2 + y * 4, 2)]).has_trivially_false()


def test_inequality_constant_is_tightened():
    # 2x >= 1 tightens to x >= 1 and 2x <= 1 to x <= 0: empty without
    # eliminating anything, although x = 1/2 satisfies both rationally.
    assert not feasible_rational(ConstraintSystem([ge(x * 2, 1), le(x * 2, 1)]))


def test_non_unit_equality_substitution():
    # 3x == 2y + 1 with x >= 3 forces y >= 4.
    rows = [eq(x * 3, y * 2 + 1), ge(x, 3)]
    assert not feasible_rational(ConstraintSystem(rows + [le(y, 3)]))
    assert feasible_rational(ConstraintSystem(rows + [le(y, 4)]))


def test_derived_integer_empty_equality_is_refuted():
    # Eliminating x from x == 2y and x + 2z == 1 derives 2y + 2z == 1: no
    # integer point, though the box is too wide for propagation to see it.
    z = QPoly.variable("z")
    rows = [eq(x - y * 2, 0), eq(x + z * 2, 1), ge(y, 0), le(y, 100), ge(z, -100), le(z, 100)]
    assert not feasible_rational(ConstraintSystem(rows))
    assert feasible_rational(ConstraintSystem(rows[:1] + [eq(x + z * 2, 2)] + rows[2:]))


def test_more_than_24_variables_skip_elimination_not_propagation():
    # Propagation is linear in the rows, so it runs before the cut-off and
    # still refutes a contradictory box over 25 variables.
    names = [f"v{k:02d}" for k in range(25)]
    rows = [ge(name, 0) for name in names] + [le(name, 1) for name in names]
    assert not feasible_rational(ConstraintSystem(rows + [ge(QPoly.variable("v00"), 2)]))
    # An unbounded cycle (v00 >= v01 + 1, v01 >= v00) gives propagation no
    # bound to start from; elimination refutes it, but only below the cut-off.
    cycle = [ge(QPoly.variable("v00"), QPoly.variable("v01") + 1), ge("v01", "v00")]
    assert not feasible_rational(ConstraintSystem(cycle))
    assert feasible_rational(ConstraintSystem(cycle + [ge(name, 0) for name in names]))


def test_trivially_false_is_free():
    budget = WorkBudget()
    with active_budget(budget):
        assert not feasible_rational(ConstraintSystem([ge(x, 0), ge(0, 1)]))
    assert budget.used == 0


def test_memo_hit_still_charges_one_unit():
    system = ConstraintSystem([ge("memo_a", 0), le("memo_a", "memo_b"), le("memo_b", 7)])
    budget = WorkBudget()
    with active_budget(budget):
        assert feasible_rational(system)
        cached = len(constraints._FEASIBILITY_CACHE)
        assert feasible_rational(system)
    assert len(constraints._FEASIBILITY_CACHE) == cached
    assert budget.used == 2


def test_div_columns_bound_variable_range():
    # floor(x/4) == 2 pins x to 8..11 once the div becomes a column.
    system = ConstraintSystem([eq(floor_div(x, 4), 2), ge(x, 0), le(x, y), le(y, 40)])
    assert variable_range(system, "x", ["y"]) == (8, 11)
    assert feasible_rational(system)
    assert not feasible_rational(system.conjoin([le(y, 7)]))


# ----------------------------------------------------------------------
# Pinned pieces
# ----------------------------------------------------------------------
def _pieces(scop):
    budget = WorkBudget()
    with active_budget(budget):
        distances = StackDistanceAnalysis(scop, line_size=64).analyze()

    def domain(system):
        return frozenset((c.kind, c.expr) for c in system.constraints)

    payload = [
        (
            entry.access.key,
            [(domain(piece.domain), piece.polynomial) for piece in entry.pieces],
            [domain(region) for region in entry.first_touch_domains],
        )
        for entry in distances
    ]
    return sum(entry.piece_count() for entry in distances), budget.used, stable_digest(payload)


def test_copy_kernel_8_byte_pieces_are_pinned():
    assert _pieces(build_copy_kernel(16, element_size=8)) == (
        28,
        1171,
        "b08fd60dd04a044c4d863fab2def4f4dfc417dc4611cca398f8da14da3105e30",
    )


def test_stencil_1d_pieces_are_pinned():
    assert _pieces(build_stencil_1d(24)) == (
        7,
        323,
        "bcd2b332c331efa292b3c6d152fab40de031882188c3c6e9f2a0f317728bd9ac",
    )


# ----------------------------------------------------------------------
# Work gate: integer points keep Fourier-Motzkin off almost every system
# ----------------------------------------------------------------------
#: ``_eliminate`` calls made from feasibility checks in one cold symbolic
#: analysis (two levels of 1 KiB and 8 KiB, no budget, no fallback) when
#: Fourier-Motzkin ran on every system propagation did not refute.  Since
#: the dive decides feasibility by integer points, they are 12 and 0.
WORK_COUNTS = {("matvec", "n16"): 2433, ("copylines", "n8"): 408}


@pytest.mark.parametrize("name, dataset", sorted(WORK_COUNTS))
def test_fourier_motzkin_work_is_gated(name, dataset, monkeypatch):
    counts = {"eliminate": 0}
    checking = []
    uncached, eliminate = constraints._feasible_rational_uncached, constraints._eliminate

    def counting_uncached(system):
        checking.append(system)
        try:
            return uncached(system)
        finally:
            checking.pop()

    def counting_eliminate(*args, **kwargs):
        counts["eliminate"] += bool(checking)
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(constraints, "_feasible_rational_uncached", counting_uncached)
    monkeypatch.setattr(constraints, "_eliminate", counting_eliminate)
    monkeypatch.setattr(constraints, "_FEASIBILITY_CACHE", {})
    PROGRAM_MEMO.clear()
    try:
        options = ModelOptions(symbolic_work_budget=None, fallback_to_simulation=False)
        result = CacheModel(SYMBOLIC_MACHINE, options).analyze(_knl_scop(name, dataset))
    finally:
        PROGRAM_MEMO.clear()
    assert not result.used_fallback
    # At least 90% fewer eliminations than before the dive.
    assert counts["eliminate"] * 10 <= WORK_COUNTS[name, dataset], counts
