"""Static well-formedness checks over a :class:`~repro.scop.Scop`.

All checks run on the polyhedral representation alone — no cache model, no
trace — using the same decision procedures the model itself is built on
(:func:`repro.isl.constraints.feasible_rational`,
:func:`repro.isl.constraints.enumerate_points`).  Every feasibility query is
issued under a *detached* work budget so a check can never charge (or trip)
the budget of an enclosing analysis.

Proof obligations are discharged in the sound direction:

* ``OOB`` reports an **error** only with a concrete witness instance; a
  rationally-feasible violation without an integer witness is a warning.
* ``DEAD`` and the absence of ``SCHED`` findings rely on
  ``feasible_rational`` returning ``False`` — a proof of integer emptiness.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.refs import rename_map, renamed_vars
from ..isl.constraints import (
    Constraint,
    ConstraintSystem,
    UnboundedSetError,
    enumerate_points,
    eq,
    feasible_rational,
    ge,
    gt,
    le,
)
from ..isl.qpoly import QPoly
from ..isl.work import BudgetExhausted, WorkBudget, active_budget
from ..scop.scop import AccessRef, Scop, SourceLoc, Statement
from .diagnostics import Diagnostic

__all__ = ["check_scop", "WITNESS_BUDGET"]

#: Work-unit cap for each integer-witness search.  Witness searches only
#: upgrade a rationally-feasible violation to a confirmed one; giving up
#: merely downgrades the finding to a warning, so the cap can be small.
WITNESS_BUDGET = 500

#: Loop-variable rename prefix for the second statement of a schedule
#: collision system (same convention as ``cnt$`` in :mod:`repro.core.distance`).
_SCHED_PREFIX = "sched$"


def check_scop(scop: Scop) -> List[Diagnostic]:
    """All static findings for ``scop``, in discovery order (unsorted)."""
    findings: List[Diagnostic] = []
    # Detach from any enclosing analysis budget: verification work is never
    # charged against the model's symbolic budget.
    with active_budget(None):
        findings.extend(_check_bounds(scop))
        findings.extend(_check_dead(scop))
        findings.extend(_check_schedule(scop))
        findings.extend(_check_dataflow(scop))
        findings.extend(_check_affine(scop))
    return findings


# ----------------------------------------------------------------------
# OOB: access image vs. array extents
# ----------------------------------------------------------------------
def _check_bounds(scop: Scop) -> Iterator[Diagnostic]:
    for statement, position, ref in scop.all_accesses():
        for dimension, index in enumerate(ref.indices):
            if not index.is_affine():
                continue  # reported by the NONAFF check instead
            extent = ref.array.shape[dimension]
            yield from _bounds_violation(
                statement, position, ref, dimension, index, extent
            )


def _bounds_violation(
    statement: Statement,
    position: int,
    ref: AccessRef,
    dimension: int,
    index: QPoly,
    extent: int,
) -> Iterator[Diagnostic]:
    kind = "write" if ref.is_write else "read"
    for side, system in (
        ("below", _conjoin(statement.domain, le(index, -1))),
        ("above", _conjoin(statement.domain, ge(index, extent))),
    ):
        if not feasible_rational(system):
            continue  # proven in-bounds on this side
        witness = _find_witness(system, statement.loop_vars)
        bound = "< 0" if side == "below" else f">= extent {extent}"
        where = (
            f" (e.g. at {_render_point(witness, statement.loop_vars)})"
            if witness is not None
            else ""
        )
        yield Diagnostic(
            code="OOB",
            severity="error" if witness is not None else "warning",
            message=(
                f"{kind} access {ref.array.name}[...] goes out of bounds: "
                f"index {dimension} ({index}) can be {bound}{where}"
            ),
            statement=statement.name,
            array=ref.array.name,
            access_position=position,
            location=ref.location,
        )


# ----------------------------------------------------------------------
# DEAD: provably empty iteration domains
# ----------------------------------------------------------------------
def _check_dead(scop: Scop) -> Iterator[Diagnostic]:
    for statement in scop.statements:
        if feasible_rational(statement.domain):
            continue
        yield Diagnostic(
            code="DEAD",
            severity="warning",
            message=(
                f"statement {statement.name} never executes: its iteration "
                "domain is empty under this dataset"
            ),
            statement=statement.name,
            location=statement.location,
        )


# ----------------------------------------------------------------------
# SCHED: schedule collisions (non-injective execution order)
# ----------------------------------------------------------------------
def _check_schedule(scop: Scop) -> Iterator[Diagnostic]:
    length = scop.schedule_length()
    statements = scop.statements
    for first_index, first in enumerate(statements):
        for second in statements[first_index:]:
            yield from _schedule_collision(first, second, length)


def _schedule_collision(
    first: Statement, second: Statement, length: int
) -> Iterator[Diagnostic]:
    mapping = rename_map(second, _SCHED_PREFIX)
    base = first.domain.conjoin(second.domain.substitute(mapping))
    for expr_a, expr_b in zip(
        first.schedule_exprs(length),
        (e.substitute(mapping) for e in second.schedule_exprs(length)),
    ):
        base.add(eq(expr_a, expr_b))
    if base.has_trivially_false():
        return

    names = list(first.loop_vars) + renamed_vars(second, _SCHED_PREFIX)
    if first is second:
        # A statement collides with itself only when two *distinct*
        # instances share a timestamp: add "some loop variable differs" as
        # a disjunction of strict branches.
        if not first.loop_vars:
            return
        branches = []
        for var in first.loop_vars:
            delta = QPoly.variable(var) - QPoly.variable(_SCHED_PREFIX + var)
            branches.append(_conjoin(base, gt(delta, 0)))
            branches.append(_conjoin(base, gt(-delta, 0)))
    else:
        branches = [base]

    for branch in branches:
        if not feasible_rational(branch):
            continue
        witness = _find_witness(branch, names)
        detail = ""
        if witness is not None:
            left = _render_point(witness, first.loop_vars)
            right = _render_point(
                {
                    var: witness[_SCHED_PREFIX + var]
                    for var in second.loop_vars
                    if _SCHED_PREFIX + var in witness
                },
                second.loop_vars,
            )
            detail = f": instances {first.name}{left} and {second.name}{right} coincide"
        yield Diagnostic(
            code="SCHED",
            severity="error",
            message=(
                f"schedule is not injective: statements {first.name} and "
                f"{second.name} map two distinct instances to the same "
                f"timestamp{detail}"
            ),
            statement=first.name,
            location=second.location or first.location,
        )
        return  # one collision finding per statement pair is enough


# ----------------------------------------------------------------------
# UNUSED / WRITE-NEVER-READ: array dataflow over the access lists
# ----------------------------------------------------------------------
def _check_dataflow(scop: Scop) -> Iterator[Diagnostic]:
    read: Dict[str, bool] = {name: False for name in scop.arrays}
    written: Dict[str, Optional[SourceLoc]] = {}
    touched: Dict[str, bool] = {name: False for name in scop.arrays}
    for _statement, _position, ref in scop.all_accesses():
        touched[ref.array.name] = True
        if ref.is_write:
            written.setdefault(ref.array.name, ref.location)
        else:
            read[ref.array.name] = True
    for name, array in scop.arrays.items():
        if not touched[name]:
            yield Diagnostic(
                code="UNUSED",
                severity="warning",
                message=f"array {name} is declared but never accessed",
                array=name,
                location=array.location,
            )
        elif name in written and not read[name]:
            yield Diagnostic(
                code="WRITE-NEVER-READ",
                severity="info",
                message=(
                    f"array {name} is written but never read "
                    "(pure output, or a dead store)"
                ),
                array=name,
                location=written[name],
            )


# ----------------------------------------------------------------------
# NONAFF: access expressions outside the affine fragment
# ----------------------------------------------------------------------
def _check_affine(scop: Scop) -> Iterator[Diagnostic]:
    for statement, position, ref in scop.all_accesses():
        for dimension, index in enumerate(ref.indices):
            if index.is_affine():
                continue
            yield Diagnostic(
                code="NONAFF",
                severity="warning",
                message=(
                    f"index {dimension} of access to {ref.array.name} "
                    f"({index}) is not affine; counting will fall back to "
                    "partial enumeration or the trace"
                ),
                statement=statement.name,
                array=ref.array.name,
                access_position=position,
                location=ref.location,
            )


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _conjoin(system: ConstraintSystem, constraint: Constraint) -> ConstraintSystem:
    out = system.copy()
    out.add(constraint)
    return out


def _find_witness(
    system: ConstraintSystem, names: Sequence[str]
) -> Optional[Dict[str, int]]:
    """First integer point of ``system``, or ``None`` if none is found.

    The search runs under its own small :data:`WITNESS_BUDGET`; running out
    of budget (or an unbounded system) simply means "unconfirmed".
    """
    try:
        with active_budget(WorkBudget(WITNESS_BUDGET)):
            for point in islice(enumerate_points(system, list(names)), 1):
                return point
    except (BudgetExhausted, UnboundedSetError):
        return None
    return None


def _render_point(point: Optional[Dict[str, int]], names: Tuple[str, ...]) -> str:
    if point is None:
        return "()"
    return "(" + ", ".join(f"{name}={point.get(name, 0)}" for name in names) + ")"
