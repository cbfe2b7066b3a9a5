"""Utilities for manipulating disjoint unions of constraint-system regions.

The cache model splits iteration domains into *pieces* (regions with an
attached payload such as a previous-access candidate or a partially
accumulated stack-distance polynomial).  This module provides the three
operations the pipeline needs:

* :func:`subtract` — relative complement of a conjunctive region and another
  conjunctive region, returned as a disjoint union,
* :func:`lex_compare_exprs` — piecewise lexicographic comparison of two
  schedule-value expression tuples, and
* :func:`lex_order_disjuncts` — the disjuncts of ``a (<|<=) b`` used to build
  the reuse-window constraints.

All functions prune regions that are (rationally) infeasible.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..isl.constraints import Constraint, ConstraintSystem, eq, feasible_rational, ge
from ..isl.qpoly import QPoly

__all__ = [
    "feasible",
    "lex_compare_exprs",
    "lex_order_disjuncts",
    "subtract",
]


def feasible(system: ConstraintSystem) -> bool:
    """Cheap emptiness pruning (rational relaxation)."""
    if system.has_trivially_false():
        return False
    return feasible_rational(system)


def subtract(region: ConstraintSystem, removed: ConstraintSystem) -> List[ConstraintSystem]:
    """Return ``region \\ removed`` as a list of disjoint conjunctive regions.

    The classic decomposition is used: for constraints ``c1 .. cn`` of the
    subtrahend the difference is the disjoint union of
    ``region & !c1``, ``region & c1 & !c2``, ...  Equalities negate into two
    branches (``< / >``), handled by :meth:`Constraint.negate`.
    """
    pieces: List[ConstraintSystem] = []
    accumulated = region
    for constraint in removed.constraints:
        for negated in constraint.negate():
            candidate = accumulated.conjoin([negated])
            if feasible(candidate):
                pieces.append(candidate)
        accumulated = accumulated.conjoin([constraint])
        if not feasible(accumulated):
            break
    return pieces


def lex_compare_exprs(
    a: Sequence[QPoly],
    b: Sequence[QPoly],
    domain: ConstraintSystem,
) -> Tuple[List[ConstraintSystem], List[ConstraintSystem]]:
    """Split ``domain`` into the regions where ``a > b`` and where ``a < b``.

    ``a`` and ``b`` are schedule-value expression tuples of equal length.  The
    region where the tuples are equal is not returned (for schedules of
    distinct accesses it is empty).  The returned regions are pairwise
    disjoint.
    """
    a_wins: List[ConstraintSystem] = []
    b_wins: List[ConstraintSystem] = []
    prefix = domain
    for expr_a, expr_b in zip(a, b):
        difference = expr_a - expr_b
        if difference.is_constant():
            value = difference.constant_value()
            if value > 0:
                if feasible(prefix):
                    a_wins.append(prefix)
                return a_wins, b_wins
            if value < 0:
                if feasible(prefix):
                    b_wins.append(prefix)
                return a_wins, b_wins
            continue
        gt_region = prefix.conjoin([ge(difference - 1, 0)])
        if feasible(gt_region):
            a_wins.append(gt_region)
        lt_region = prefix.conjoin([ge(-difference - 1, 0)])
        if feasible(lt_region):
            b_wins.append(lt_region)
        prefix = prefix.conjoin([eq(difference, 0)])
        if not feasible(prefix):
            return a_wins, b_wins
    return a_wins, b_wins


def lex_order_disjuncts(
    a: Sequence[QPoly],
    b: Sequence[QPoly],
    *,
    strict: bool,
) -> List[List[Constraint]]:
    """Constraint lists whose union describes ``a < b`` (or ``a <= b``).

    Each disjunct asserts equality on a prefix and strict inequality at the
    first differing position; for the non-strict comparison an "all equal"
    disjunct is appended.  Disjuncts that are statically impossible (two
    different constants) are dropped, which keeps the number of pieces the
    cache-miss counting has to handle small.  The constraints are
    normalized, so callers add them with ``pre_normalized=True``.
    """
    disjuncts: List[List[Constraint]] = []
    prefix: List[Constraint] = []
    prefix_alive = True
    for expr_a, expr_b in zip(a, b):
        difference = expr_b - expr_a
        if difference.is_constant():
            value = difference.constant_value()
            if value > 0:
                # a < b decided here; the rest of the prefix must only be equal.
                disjuncts.append(list(prefix))
                prefix_alive = False
                break
            if value < 0:
                prefix_alive = False
                break
            continue
        disjuncts.append(prefix + [ge(difference - 1, 0).normalized()])
        prefix = prefix + [eq(difference, 0).normalized()]
    if not strict and prefix_alive:
        disjuncts.append(prefix)
    return disjuncts
