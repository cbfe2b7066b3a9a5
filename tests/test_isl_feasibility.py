"""The integer-row feasibility engine: soundness, pinned verdicts, and work charging.

``feasible_rational`` prunes pieces, so its one hard obligation is
soundness: ``False`` must mean integer-empty.  Beyond that its verdicts, and
the ranges ``variable_range`` hands to enumeration, must equal those of the
Fourier-Motzkin loop over ``QPoly`` constraints that the integer rows
replaced, because verdicts decide pieces and work units; that loop, with its
div expansion, stays here as the reference.  The pinned verdicts fix the engine's rational
semantics (gcd tightening of inequalities, scaled equality substitution, the
variable cut-off) and the work-unit contract, and the pinned pieces hold the
whole stack-distance pipeline's output on two kernels byte for byte.
"""

import itertools
import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st
from test_model_vs_simulator import build_copy_kernel, build_stencil_1d

from repro.core.distance import StackDistanceAnalysis
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
    assert feasible_rational(system) == _reference_feasible(system)
    names = list(box)
    name = names[which % len(names)]
    # Keeping a variable keeps the divs that mention only it as parameters.
    others = [n for n in names if n != name][: -1 if keep_one else None]
    assert _range_or_none(variable_range, system, name, others) == _range_or_none(
        _reference_range, system, name, others
    )


# ----------------------------------------------------------------------
# Pinned verdicts
# ----------------------------------------------------------------------
def test_odd_equality_is_rationally_feasible():
    # x = 1/2 is a rational point; the test is rational with inequality
    # tightening only, so an integer-empty equality alone stays "maybe".
    assert feasible_rational(ConstraintSystem([eq(x * 2, 1), ge(x, 0), le(x, 5)]))


def test_inequality_constant_is_tightened():
    # 2x >= 1 tightens to x >= 1 and 2x <= 1 to x <= 0: empty without
    # eliminating anything, although x = 1/2 satisfies both rationally.
    assert not feasible_rational(ConstraintSystem([ge(x * 2, 1), le(x * 2, 1)]))


def test_non_unit_equality_substitution():
    # 3x == 2y + 1 with x >= 3 forces y >= 4.
    rows = [eq(x * 3, y * 2 + 1), ge(x, 3)]
    assert not feasible_rational(ConstraintSystem(rows + [le(y, 3)]))
    assert feasible_rational(ConstraintSystem(rows + [le(y, 4)]))


def test_more_than_24_variables_answers_true():
    names = [f"v{k:02d}" for k in range(25)]
    rows = [ge(name, 0) for name in names] + [le(name, 1) for name in names]
    rows.append(ge(QPoly.variable("v00"), 2))
    system = ConstraintSystem(rows)
    assert feasible_rational(system)
    assert not feasible_rational(ConstraintSystem(rows[:1] + rows[25:26] + rows[-1:]))


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
        1276,
        "b08fd60dd04a044c4d863fab2def4f4dfc417dc4611cca398f8da14da3105e30",
    )


def test_stencil_1d_pieces_are_pinned():
    assert _pieces(build_stencil_1d(24)) == (
        7,
        332,
        "bcd2b332c331efa292b3c6d152fab40de031882188c3c6e9f2a0f317728bd9ac",
    )
