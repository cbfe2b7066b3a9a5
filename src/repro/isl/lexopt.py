"""Parametric lexicographic optimisation over affine constraint systems.

The paper's implementation relies on isl's ``lexmin`` operator (Feautrier's
parametric integer programming) to compute, for every memory access, the
previous access to the same cache line.  This module provides the equivalent
operation for the constraint systems the cache model produces: a *greedy
per-dimension* parametric optimisation with chamber splitting.

For every optimised dimension the inner dimensions are projected away on
the system's integer rows, with the same Fourier-Motzkin engine that decides
feasibility; each elimination is only accepted when it is certifiably exact
(unit-coefficient condition), otherwise :class:`LexOptError` is raised and
the caller falls back to a different strategy (per the hybrid design of the
model).  On PolyBench-style programs, whose loop bounds and access functions
have unit coefficients, the exact path always applies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .constraints import (
    ConstraintSystem,
    UnboundedSetError,
    _eliminate,
    _integer_rows,
    _normalized_constraint,
    bounds_for,
    feasible_rational,
    ge,
)
from .qpoly import QPoly

__all__ = ["LexOptError", "LexPiece", "lexmax", "lexmin"]


class LexOptError(Exception):
    """Raised when the greedy parametric optimisation cannot be certified."""


#: A piece of a parametric lexicographic optimum: the context is a constraint
#: system over the parameters; the values are quasi-affine expressions (one
#: per optimised variable) valid on that context.
LexPiece = Tuple[ConstraintSystem, Tuple[QPoly, ...]]


def lexmax(system: ConstraintSystem, opt_vars: Sequence[str]) -> List[LexPiece]:
    """Parametric lexicographic maximum of ``opt_vars`` over ``system``.

    Every free variable that is not in ``opt_vars`` is a parameter.  The
    returned pieces have pairwise disjoint contexts whose union is exactly the
    set of parameter values for which ``system`` is non-empty.
    """
    return _lex_opt(system, list(opt_vars), maximize=True)


def lexmin(system: ConstraintSystem, opt_vars: Sequence[str]) -> List[LexPiece]:
    """Parametric lexicographic minimum of ``opt_vars`` over ``system``."""
    return _lex_opt(system, list(opt_vars), maximize=False)


def _lex_opt(system: ConstraintSystem, opt_vars: List[str], *, maximize: bool) -> List[LexPiece]:
    if system.has_trivially_false() or not feasible_rational(system):
        return []
    if not opt_vars:
        return [(system, ())]
    head, tail = opt_vars[0], opt_vars[1:]

    projected = _project_inner(system, head, tail)
    if projected is None:
        return []
    try:
        lowers, uppers, rest = bounds_for(projected, head)
    except ValueError as exc:
        raise LexOptError(str(exc)) from exc
    primary = uppers if maximize else lowers
    secondary = lowers if maximize else uppers
    if not primary:
        raise UnboundedSetError(f"variable {head} has no {'upper' if maximize else 'lower'} bound")

    primary_values = [b.value() for b in primary]
    secondary_values = [b.value() for b in secondary]

    pieces: List[LexPiece] = []
    for index, value in enumerate(primary_values):
        case = ConstraintSystem(rest)
        _constrain_extremal(case, value, index, primary_values, minimum=maximize)
        for other in secondary_values:
            # The chosen optimum must lie within every opposite bound,
            # otherwise the candidate set is empty for those parameters.
            case.add(ge(value - other, 0) if maximize else ge(other - value, 0))
        if case.has_trivially_false() or not feasible_rational(case):
            continue
        fixed = system.substitute({head: value})
        for sub_context, sub_values in _lex_opt(fixed, tail, maximize=maximize):
            context = case.conjoin(sub_context)
            if context.has_trivially_false() or not feasible_rational(context):
                continue
            pieces.append((context, (value,) + sub_values))
    return pieces


def _project_inner(system: ConstraintSystem, head: str, tail: List[str]) -> Optional[ConstraintSystem]:
    """Project the system onto ``head`` and the parameters, exactly.

    Works on the system's integer rows, where every div that mentions an
    optimised variable is a fresh column.  Unit-coefficient equalities (the
    common cache-line-equality pattern) substitute inner columns away first:
    the first equality row with a unit coefficient pivots, on the first such
    column in a fixed order (div columns, then ``tail``).  Fourier-Motzkin
    then eliminates the remaining columns innermost first.  Returns ``None``
    when elimination derives a contradiction, i.e. the set is empty.
    """
    columns, rows, fresh = _integer_rows(system, [head] + tail)
    index = {col: j for j, col in enumerate(columns)}
    inner = [index[name] for name in tail + fresh if name in index]
    # A div column's two defining rows bound it from both sides by its
    # denominator, so only an equality removes it exactly: try it first.
    candidates = [index[name] for name in fresh + tail if name in index]
    while True:
        pivot = next(
            ((row, j) for row in rows if row[0] for j in candidates if row[1][j] in (1, -1)),
            None,
        )
        if pivot is None:
            break
        row, j = pivot
        candidates.remove(j)
        rows = _eliminate(rows, j, pivot=row)
        if rows is None:
            return None
    for j in reversed(inner):
        # Exact when every lower or every upper bound has a unit coefficient;
        # an equality bounds from both sides.
        lowers = [abs(row[1][j]) for row in rows if row[1][j] > 0 or (row[0] and row[1][j])]
        uppers = [abs(row[1][j]) for row in rows if row[1][j] < 0 or (row[0] and row[1][j])]
        if not lowers and not uppers:
            continue
        if any(a != 1 for a in lowers) and any(a != 1 for a in uppers):
            raise LexOptError(f"cannot exactly project {columns[j]}")
        rows = _eliminate(rows, j)
        if rows is None:
            return None
    projected = ConstraintSystem()
    for is_eq, coeffs, const in rows:
        projected.add(_normalized_constraint(is_eq, dict(zip(columns, coeffs)), const), pre_normalized=True)
    return projected


def _constrain_extremal(
    case: ConstraintSystem,
    chosen: QPoly,
    index: int,
    values: List[QPoly],
    *,
    minimum: bool,
) -> None:
    """Constrain ``chosen`` to be the tight bound (disjoint tie-breaking).

    When maximising the variable we select the *minimum* upper bound
    (``minimum=True``); when minimising we select the maximum lower bound.
    """
    for other_index, other in enumerate(values):
        if other_index == index:
            continue
        if minimum:
            if other_index < index:
                case.add(ge(other - chosen - 1, 0))
            else:
                case.add(ge(other - chosen, 0))
        else:
            if other_index < index:
                case.add(ge(chosen - other - 1, 0))
            else:
                case.add(ge(chosen - other, 0))


# ----------------------------------------------------------------------
# Brute-force oracle (used by the test-suite)
# ----------------------------------------------------------------------
def lexmax_explicit(
    system: ConstraintSystem,
    opt_vars: Sequence[str],
    param_values: Dict[str, int],
) -> Tuple[int, ...]:
    """Explicit lexicographic maximum for fixed parameter values.

    Returns ``None`` if the set is empty.  Only used as a test oracle.
    """
    from .constraints import enumerate_points

    fixed = system.substitute(param_values)
    best = None
    for point in enumerate_points(fixed, list(opt_vars)):
        candidate = tuple(point[v] for v in opt_vars)
        if best is None or candidate > best:
            best = candidate
    return best


def evaluate_pieces(pieces: List[LexPiece], opt_count: int, param_values: Dict[str, int]):
    """Evaluate a piecewise lexicographic optimum at a parameter point.

    Returns the tuple of integer values, or ``None`` when no piece covers the
    parameter point (i.e. the underlying set is empty there).
    """
    for context, values in pieces:
        if _holds(context, param_values):
            return tuple(int(v.evaluate(param_values)) for v in values)
    return None


def _holds(system: ConstraintSystem, values: Dict[str, int]) -> bool:
    for constraint in system.constraints:
        value = constraint.expr.evaluate(values)
        if constraint.kind == "eq":
            if value != 0:
                return False
        elif value < 0:
            return False
    return True
