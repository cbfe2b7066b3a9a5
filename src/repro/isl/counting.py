"""Symbolic counting of integer points in parametric polyhedra.

This is the reproduction's stand-in for the Barvinok algorithm used by the
paper.  Points are counted by *recursive symbolic summation*: the innermost
count variable is summed away with Faulhaber's formula, splitting the outer
domain into *chambers* where a unique pair of lower/upper bounds is tight, and
splitting variables into residue classes when floor divisions (cache-line
indices, strides) depend on them.  The result is a list of pieces
``(domain over the parameters, quasi-polynomial)`` exactly analogous to the
pieces isl/barvinok produce.

Where the paper's model would hand a piece to barvinok, this engine produces
the same piecewise quasi-polynomials (up to the decomposition into pieces);
where the structure is too irregular the caller falls back to partial or
explicit enumeration, mirroring the paper's own hybrid counting strategy
(Algorithm 1).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .constraints import (
    Bound,
    ConstraintSystem,
    UnboundedSetError,
    bounds_for,
    count_points_explicit,
    feasible_rational,
    ge,
)
from .qpoly import QPoly
from .work import charge as _charge_work

__all__ = [
    "CountingError",
    "Piece",
    "cardinality",
    "count_points",
    "piecewise_total",
    "piecewise_values",
]


class CountingError(Exception):
    """Raised when the symbolic counter cannot handle a set."""


Piece = Tuple[ConstraintSystem, QPoly]


def count_points(
    system: ConstraintSystem,
    count_vars: Sequence[str],
    *,
    weight: Optional[QPoly] = None,
    max_pieces: int = 4096,
) -> List[Piece]:
    """Count the integer points of ``system`` over ``count_vars``.

    ``count_vars`` are ordered outermost first; every other free variable of
    the system is treated as a parameter.  The result is a list of disjoint
    pieces ``(parameter domain, quasi-polynomial)``; parameter valuations not
    covered by any piece have count zero.  ``weight`` (default 1) allows
    summing a quasi-polynomial over the set instead of plain counting.
    """
    poly = weight if weight is not None else QPoly.constant(1)
    state = _CountState(max_pieces=max_pieces)
    pieces = state.count(system, list(count_vars), poly)
    return pieces


class _CountState:
    def __init__(self, max_pieces: int) -> None:
        self.max_pieces = max_pieces
        self.pieces_emitted = 0
        self.fresh_counter = 0

    def fresh_name(self, base: str) -> str:
        self.fresh_counter += 1
        return f"{base}__s{self.fresh_counter}"

    def count(self, system: ConstraintSystem, count_vars: List[str], poly: QPoly) -> List[Piece]:
        # One unit per recursion step (chambers, residue classes): the
        # dominant cost driver of the symbolic counter.
        _charge_work()
        if system.has_trivially_false():
            return []
        if not feasible_rational(system):
            return []
        if not count_vars:
            self.pieces_emitted += 1
            if self.pieces_emitted > self.max_pieces:
                raise CountingError("piece explosion during symbolic counting")
            return [(system, poly)]
        inner = count_vars[-1]
        outer = count_vars[:-1]

        # Residue-split if any div depends on the summation variable, either in
        # the constraints or in the accumulated polynomial.  Identical
        # denominators are deduplicated before the LCM so repeated moduli do
        # not cost extra gcd work (and the modulus stays deterministic).
        denominators = {d.denominator for d in system.divs_involving([inner])}
        denominators |= {d.denominator for d in poly.divs() if inner in d.argument().free_variables()}
        if denominators:
            modulus = 1
            for d in sorted(denominators):
                modulus = modulus * d // math.gcd(modulus, d)
            return self._residue_split(system, outer, inner, poly, modulus)

        try:
            lowers, uppers, rest = bounds_for(system, inner)
        except ValueError as exc:  # pragma: no cover - defensive
            raise CountingError(str(exc)) from exc
        lowers = _dedupe_bounds(lowers)
        uppers = _dedupe_bounds(uppers)
        if not lowers or not uppers:
            raise UnboundedSetError(f"count variable {inner} is unbounded")

        # Bound expressions are interned once up front: ``Bound.value`` builds
        # a fresh quasi-polynomial (possibly a new div) on every call, and the
        # chamber decomposition below would otherwise rebuild each one
        # O(|lowers| x |uppers|) times.
        lower_values = [b.value() for b in lowers]
        upper_values = [b.value() for b in uppers]

        results: List[Piece] = []
        for li, low_value in enumerate(lower_values):
            for ui, up_value in enumerate(upper_values):
                case = ConstraintSystem(rest)
                _add_extremal_constraints(case, low_value, li, lower_values, is_lower=True)
                _add_extremal_constraints(case, up_value, ui, upper_values, is_lower=False)
                case.add(ge(up_value - low_value, 0))
                if case.has_trivially_false():
                    continue
                summed = poly.sum_over(inner, low_value, up_value)
                results.extend(self.count(case, list(outer), summed))
        return results

    def _residue_split(
        self,
        system: ConstraintSystem,
        outer: List[str],
        inner: str,
        poly: QPoly,
        modulus: int,
    ) -> List[Piece]:
        results: List[Piece] = []
        fresh = self.fresh_name(inner)
        for residue in range(modulus):
            replacement = QPoly.variable(fresh) * modulus + residue
            sub = {inner: replacement}
            sub_system = system.substitute(sub)
            sub_poly = poly.substitute(sub)
            results.extend(self.count(sub_system, list(outer) + [fresh], sub_poly))
        return results


def _dedupe_bounds(bounds: List[Bound]) -> List[Bound]:
    seen = []
    values = set()
    for bound in bounds:
        key = (bound.value(), bound.is_lower)
        if key in values:
            continue
        values.add(key)
        seen.append(bound)
    return seen


def _add_extremal_constraints(
    case: ConstraintSystem,
    chosen: QPoly,
    index: int,
    all_values: List[QPoly],
    *,
    is_lower: bool,
) -> None:
    """Constrain ``chosen`` to be the tight bound with disjoint tie-breaking.

    For lower bounds ``chosen`` must be the maximum (ties resolved towards the
    smallest index); for upper bounds the minimum.
    """
    for other_index, other in enumerate(all_values):
        if other_index == index:
            continue
        if is_lower:
            if other_index < index:
                case.add(ge(chosen - other - 1, 0))
            else:
                case.add(ge(chosen - other, 0))
        else:
            if other_index < index:
                case.add(ge(other - chosen - 1, 0))
            else:
                case.add(ge(other - chosen, 0))


# ----------------------------------------------------------------------
# Aggregation helpers
# ----------------------------------------------------------------------
def piecewise_total(pieces: Sequence[Piece]) -> Fraction:
    """Sum the (necessarily constant) polynomials of parameter-free pieces."""
    total = Fraction(0)
    for domain, poly in pieces:
        if domain.variables():
            raise CountingError("piecewise_total requires parameter-free pieces")
        if domain.has_trivially_false():
            continue
        if not poly.is_constant():
            raise CountingError(f"piece polynomial is not constant: {poly}")
        total += poly.constant_value()
    return total


def piecewise_values(
    pieces: Sequence[Piece],
    values,
    *,
    backend: str = "numpy",
) -> Optional[List[int]]:
    """Evaluate a parametric count at a batch of parameter points.

    ``pieces`` is the result of :func:`count_points`; ``values`` maps each
    parameter name to an equal-length sequence of integers.  Returns the
    per-point totals (chambers tested in exact rational arithmetic, counts
    summed where they contain the point), or ``None`` when any containing
    chamber fails to evaluate — the caller's cue to fall back to exact
    per-point counting.  The NumPy backend (``backend="numpy"``, default)
    evaluates each polynomial over the whole grid in a few scaled-int64
    array ops and is byte-identical to the pure-Python reference; see
    :func:`repro.isl.veceval.evaluate_pieces`.  Charges no work units.
    """
    from .veceval import evaluate_pieces

    return evaluate_pieces(pieces, values, backend=backend)


def cardinality(
    system: ConstraintSystem,
    count_vars: Sequence[str],
    *,
    cross_check: bool = False,
) -> int:
    """Number of integer points of a non-parametric set.

    With ``cross_check=True`` the symbolic result is validated against
    explicit enumeration (used in the test-suite on small sets).
    """
    pieces = count_points(system, count_vars)
    total = piecewise_total(pieces)
    if total.denominator != 1:
        raise CountingError(f"non-integral cardinality {total}")
    value = int(total)
    if value < 0:
        raise CountingError(f"negative cardinality {value}")
    if cross_check:
        explicit = count_points_explicit(system, count_vars)
        if explicit != value:
            raise CountingError(f"symbolic count {value} != explicit count {explicit}")
    return value
