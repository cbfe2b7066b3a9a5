"""Affine constraint systems over named integer variables.

A :class:`Constraint` is a quasi-affine expression compared against zero
(``expr == 0`` or ``expr >= 0``).  A :class:`ConstraintSystem` is a
conjunction of constraints; unions of systems are represented as plain Python
lists of systems by the higher layers.

The module provides the operations the cache model pipeline needs:

* normalisation to integer coefficients,
* substitution, as a column update on each constraint's integer row,
* integer rows with interval propagation, a dive for an integer point and
  one Fourier-Motzkin engine on them.  The feasibility checks that prune
  empty pieces use all three: propagation proves emptiness, the dive proves
  non-emptiness with a point that the system then carries through
  :meth:`ConstraintSystem.copy` and :meth:`ConstraintSystem.add`, and
  Fourier-Motzkin (with the gcd tightening of each row) decides only what
  the dive leaves open.  The same elimination gives enumeration ranges and
  the exact projection of the parametric lexicographic optimisation,
* bound extraction for a variable (used by symbolic counting and by the
  parametric lexicographic optimisation), and
* explicit enumeration of integer points (test oracle and partial-enumeration
  fallback).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from .qpoly import Div, QPoly, Symbol, _symbol_sort_key, floor_div
from .work import charge as _charge_work

__all__ = [
    "Constraint",
    "ConstraintSystem",
    "UnboundedSetError",
    "eq",
    "ge",
    "le",
    "gt",
    "lt",
]


class UnboundedSetError(Exception):
    """Raised when a variable that must be bounded has no finite bound."""


EQ = "eq"
INEQ = "ineq"

#: A constraint as ``(is_eq, ((symbol, coefficient), ...), constant)``, all
#: integers, symbols in canonical order: the key under which systems
#: deduplicate constraints and memoise feasibility.
ConstraintRow = Tuple[bool, Tuple[Tuple[Symbol, int], ...], int]


class Constraint:
    """``expr == 0`` (kind ``eq``) or ``expr >= 0`` (kind ``ineq``).

    Instances are immutable by convention.  The normalized form, the
    integer row and the hash are computed on first use and cached; pickling
    carries only ``expr`` and ``kind``, so a cached hash never crosses into a
    process with a different hash seed.
    """

    __slots__ = ("expr", "kind", "_normalized", "_row", "_hash")

    def __init__(self, expr: QPoly, kind: str) -> None:
        if kind not in (EQ, INEQ):
            raise ValueError(f"unknown constraint kind {kind!r}")
        if not expr.is_affine():
            raise ValueError(f"constraint expression must be (quasi-)affine: {expr}")
        self.expr = expr
        self.kind = kind
        self._normalized: Optional[Constraint] = None
        self._row: Optional[ConstraintRow] = None
        self._hash: Optional[int] = None

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Constraint):
            return NotImplemented
        return self.kind == other.kind and self.expr == other.expr

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash((self.expr, self.kind))
        return value

    def __reduce__(self):
        return (Constraint, (self.expr, self.kind))

    @property
    def row(self) -> ConstraintRow:
        """``(is_eq, ((symbol, coefficient), ...), constant)`` in canonical order.

        Defined only for integral constraints (normalized ones are): raises
        ``ValueError`` on a fractional coefficient or constant, since two
        different rational constraints would otherwise share one row.
        """
        row = self._row
        if row is None:
            coeffs = []
            const = 0
            for monomial, value in self.expr._canonical_items():
                if value.denominator != 1:
                    raise ValueError(f"integer row of a non-integral constraint: {self!r}")
                if monomial:
                    coeffs.append((monomial[0][0], value.numerator))
                else:
                    const = value.numerator
            row = self._row = (self.kind == EQ, tuple(coeffs), const)
        return row

    @staticmethod
    def _from_row(row: ConstraintRow) -> "Constraint":
        """The normalized constraint whose integer row is ``row``, built without a ``QPoly`` pass."""
        is_eq, coeffs, const = row
        items = tuple((((sym, 1),), Fraction(c)) for sym, c in coeffs)
        if const:
            items = (((), Fraction(const)),) + items
        constraint = Constraint.__new__(Constraint)
        constraint.expr = QPoly.from_canonical(items)
        constraint.kind = EQ if is_eq else INEQ
        constraint._normalized = constraint
        constraint._row = row
        constraint._hash = None
        return constraint

    def substitute(self, assignment: Mapping[str, Union[QPoly, int, Fraction]]) -> "Constraint":
        return Constraint(self.expr.substitute(assignment), self.kind)

    def negate(self) -> List["Constraint"]:
        """Return normalized constraints describing the integer complement.

        ``expr >= 0`` negates to ``-expr - 1 >= 0``.  ``expr == 0`` negates to
        the *disjunction* ``expr >= 1 or -expr >= 1``; the two branches are
        returned as a list and it is the caller's responsibility to build the
        union.  Works on the normalized integer row.
        """
        is_eq, coeffs, const = self.normalized().row
        negated = {sym: -a for sym, a in coeffs}
        below = _normalized_constraint(False, negated, -const - 1)
        if not is_eq:
            return [below]
        return [_normalized_constraint(False, dict(coeffs), const - 1), below]

    def normalized(self) -> "Constraint":
        """Scale to coprime integer coefficients (and tighten inequalities).

        For inequalities the constant term may be tightened to
        ``floor(const / g)`` after dividing by the gcd ``g`` of the variable
        coefficients, which is valid over the integers.  The result is
        computed once and is its own normalized form.
        """
        result = self._normalized
        if result is None:
            result = self._normalized = self._normalize()
            result._normalized = result
        return result

    def _normalize(self) -> "Constraint":
        coeffs, const = self.expr.affine_coefficients()
        if not coeffs:
            if const.denominator == 1:
                return self
            # A constant keeps its truth value scaled to an integer.
            return Constraint(QPoly.constant(const.numerator), self.kind)
        lcm = math.lcm(const.denominator, *(c.denominator for c in coeffs.values()))
        scaled = {sym: c.numerator * (lcm // c.denominator) for sym, c in coeffs.items()}
        return _normalized_constraint(self.kind == EQ, scaled, const.numerator * (lcm // const.denominator))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        op = "=" if self.kind == EQ else ">="
        return f"{self.expr} {op} 0"


# ----------------------------------------------------------------------
# Convenience constructors
# ----------------------------------------------------------------------
def _as_poly(value: Union[QPoly, int, Fraction, str]) -> QPoly:
    if isinstance(value, QPoly):
        return value
    if isinstance(value, str):
        return QPoly.variable(value)
    return QPoly.constant(value)


def ge(lhs, rhs) -> Constraint:
    """Constraint ``lhs >= rhs``."""
    return Constraint(_as_poly(lhs) - _as_poly(rhs), INEQ)


def le(lhs, rhs) -> Constraint:
    """Constraint ``lhs <= rhs``."""
    return Constraint(_as_poly(rhs) - _as_poly(lhs), INEQ)


def gt(lhs, rhs) -> Constraint:
    """Strict integer constraint ``lhs > rhs`` i.e. ``lhs >= rhs + 1``."""
    return Constraint(_as_poly(lhs) - _as_poly(rhs) - 1, INEQ)


def lt(lhs, rhs) -> Constraint:
    """Strict integer constraint ``lhs < rhs`` i.e. ``lhs <= rhs - 1``."""
    return Constraint(_as_poly(rhs) - _as_poly(lhs) - 1, INEQ)


def eq(lhs, rhs) -> Constraint:
    """Constraint ``lhs == rhs``."""
    return Constraint(_as_poly(lhs) - _as_poly(rhs), EQ)


# ----------------------------------------------------------------------
# Constraint systems
# ----------------------------------------------------------------------
class ConstraintSystem:
    """A conjunction of quasi-affine constraints.

    The system does not distinguish between set variables and parameters;
    callers pass the relevant variable lists to the operations that need the
    distinction (counting, lexicographic optimisation, enumeration).
    """

    __slots__ = ("constraints", "_keys", "_ineq_by_coeffs", "_false", "_row_set", "_point")

    def __init__(self, constraints: Optional[Iterable[Constraint]] = None) -> None:
        self.constraints: List[Constraint] = []
        #: Rows of every constraint ever kept, including replaced ones.
        self._keys: set = set()
        #: For inequalities: coefficient part of the row -> index into
        #: ``constraints``; used to keep only the tightest bound per direction.
        self._ineq_by_coeffs: Dict[Tuple, int] = {}
        #: Whether some constraint is a false constant or an integer-empty equality.
        self._false = False
        self._row_set: Optional[frozenset] = None
        #: An integer point of the system, by variable name, once one is known
        #: (:func:`feasible_rational`); kept by :meth:`add` while every row
        #: added holds at it.
        self._point: Optional[Point] = None
        if constraints:
            for constraint in constraints:
                self.add(constraint)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def add(self, constraint: Constraint, *, pre_normalized: bool = False) -> None:
        normalized = constraint if pre_normalized else constraint.normalized()
        row = normalized.row
        if row in self._keys:
            return
        is_eq, coeffs, const = row
        if not coeffs and (const == 0 if is_eq else const >= 0):
            # Trivially true: normalizing a constant keeps its truth value.
            return
        if coeffs and not is_eq:
            # Keep only the tightest inequality per coefficient direction:
            # a.x + c1 >= 0 subsumes a.x + c2 >= 0 whenever c1 <= c2.
            existing_index = self._ineq_by_coeffs.get(coeffs)
            if existing_index is None:
                self._ineq_by_coeffs[coeffs] = len(self.constraints)
                self.constraints.append(normalized)
            elif self.constraints[existing_index].row[2] <= const:
                return
            else:
                self.constraints[existing_index] = normalized
        else:
            if not coeffs or const % math.gcd(*(c for _, c in coeffs)):
                # A constant that is not trivially true is false, and so is an
                # equality whose coefficient gcd does not divide its constant
                # (the Omega test's normalization): it has no integer point.
                self._false = True
            self.constraints.append(normalized)
        self._keys.add(row)
        self._row_set = None
        if self._point is not None and not _holds(row, self._point):
            self._point = None

    def copy(self) -> "ConstraintSystem":
        clone = ConstraintSystem()
        clone.constraints = list(self.constraints)
        clone._keys = set(self._keys)
        clone._ineq_by_coeffs = dict(self._ineq_by_coeffs)
        clone._false = self._false
        clone._row_set = self._row_set
        clone._point = self._point
        return clone

    def conjoin(
        self,
        other: Union["ConstraintSystem", Iterable[Constraint]],
        *,
        pre_normalized: bool = False,
    ) -> "ConstraintSystem":
        clone = self.copy()
        if isinstance(other, ConstraintSystem):
            # Constraints stored in a system are already normalised.
            other, pre_normalized = other.constraints, True
        for constraint in other:
            clone.add(constraint, pre_normalized=pre_normalized)
        return clone

    def substitute(self, assignment: Mapping[str, Union[QPoly, int, Fraction]]) -> "ConstraintSystem":
        """The system with variables replaced simultaneously by values.

        Gives the same constraints, in the same order, as substituting each
        constraint's ``QPoly`` and normalising it.  A constraint that mentions
        no replaced variable is kept as it is.  Otherwise the values are
        applied to its integer row as a column update over one common
        denominator, and the row is normalised like
        :meth:`Constraint.normalized`.  A div whose argument mentions a
        replaced variable is a column too, its floor re-simplified once per
        call (``floor_div`` of the substituted argument).  Only a constraint
        that meets a non-affine value goes through ``QPoly``, which rejects it.
        """
        names = frozenset(assignment)
        columns, denominator = _integer_replacements(assignment)
        out = ConstraintSystem()
        for constraint in self.constraints:
            row = constraint.row
            touched = rebuild = False
            for sym, _ in row[1]:
                if sym not in columns and not isinstance(sym, str) and not names.isdisjoint(sym.free_variables()):
                    value = floor_div(sym.argument().substitute(assignment), sym.denominator)
                    columns[sym] = _column(*value.affine_coefficients(), denominator) if value.is_affine() else None
                if sym in columns:
                    touched = True
                    rebuild = rebuild or columns[sym] is None
            if rebuild:
                out.add(constraint.substitute(assignment))
            elif touched:
                out.add(_column_update(row, columns, denominator), pre_normalized=True)
            else:
                out.add(constraint, pre_normalized=True)
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def variables(self) -> set:
        names: set = set()
        for constraint in self.constraints:
            names |= constraint.expr.free_variables()
        return names

    def has_trivially_false(self) -> bool:
        return self._false

    def row_set(self) -> frozenset:
        """The constraints' integer rows as a frozenset: the system's canonical key.

        Stored constraints are normalized and deduplicated, so two systems
        describing the same conjunction in any order share this key.
        """
        rows = self._row_set
        if rows is None:
            rows = self._row_set = frozenset(c.row for c in self.constraints)
        return rows

    def involves(self, name: str) -> bool:
        return any(c.expr.involves(name) for c in self.constraints)

    def divs_involving(self, names: Sequence[str]) -> List[Div]:
        """Divs whose argument mentions any of ``names`` (recursively)."""
        name_set = set(names)
        found: List[Div] = []
        seen = set()
        for constraint in self.constraints:
            for div in constraint.expr.divs():
                if div in seen:
                    continue
                seen.add(div)
                if not name_set.isdisjoint(div.free_variables()):
                    found.append(div)
        return found

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "{ " + " and ".join(repr(c) for c in self.constraints) + " }"

    def __len__(self) -> int:
        return len(self.constraints)


#: A replacement value as integer ``((symbol, coefficient), ...)`` and
#: constant, over the common denominator of the whole assignment; ``None``
#: for a non-affine value.
_Column = Optional[Tuple[Tuple[Tuple[Symbol, int], ...], int]]


def _integer_replacements(assignment: Mapping[str, Union[QPoly, int, Fraction]]) -> Tuple[Dict[Symbol, _Column], int]:
    """Every replacement value of ``assignment`` as a column, and their common denominator."""
    affine: Dict[str, Tuple[Dict[Symbol, Fraction], Fraction]] = {}
    columns: Dict[Symbol, _Column] = {}
    for name, value in assignment.items():
        poly = value if isinstance(value, QPoly) else QPoly.constant(value)
        if poly.is_affine():
            affine[name] = poly.affine_coefficients()
        else:
            columns[name] = None
    denominator = math.lcm(1, *(c.denominator for coeffs, const in affine.values() for c in (const, *coeffs.values())))
    for name, (coeffs, const) in affine.items():
        columns[name] = _column(coeffs, const, denominator)
    return columns, denominator


def _column(coeffs: Mapping[Symbol, Fraction], const: Fraction, denominator: int) -> _Column:
    """``denominator`` times an affine value, as integers (``denominator`` must clear it)."""
    return tuple((sym, (c * denominator).numerator) for sym, c in coeffs.items()), (const * denominator).numerator


def _column_update(row: ConstraintRow, columns: Dict[Symbol, _Column], denominator: int) -> Constraint:
    """The normalized constraint of ``row`` with the columns of its replaced symbols substituted.

    With every value scaled by ``denominator`` the update is plain integer
    arithmetic on ``denominator`` times the substituted expression.
    """
    is_eq, coeffs, const = row
    const *= denominator
    merged: Dict[Symbol, int] = {}
    for sym, a in coeffs:
        column = columns.get(sym)
        if column is None:
            merged[sym] = merged.get(sym, 0) + a * denominator
            continue
        for other, b in column[0]:
            merged[other] = merged.get(other, 0) + a * b
        const += a * column[1]
    return _normalized_constraint(is_eq, merged, const, denominator)


def _normalized_constraint(is_eq: bool, coeffs: Mapping[Symbol, int], const: int, scale: int = 1) -> Constraint:
    """The normalized constraint of ``(coeffs . x + const) / scale`` compared against zero.

    Normalizes like :meth:`Constraint.normalized`: an inequality is divided
    by the gcd ``g`` of its coefficients with its constant floored, an
    equality by ``g`` when ``g`` divides its constant; otherwise the row
    becomes the smallest integral multiple of the expression.  Built straight
    from the integer row, without a ``QPoly`` pass.
    """
    coeffs = {sym: c for sym, c in coeffs.items() if c}
    g = math.gcd(*coeffs.values())
    divisor = g if g and (not is_eq or const % g == 0) else math.gcd(scale, g, const)
    if divisor > 1:
        coeffs = {sym: c // divisor for sym, c in coeffs.items()}
        const //= divisor
    ordered = tuple(sorted(coeffs.items(), key=lambda item: _symbol_sort_key(item[0])))
    return Constraint._from_row((is_eq, ordered, const))


# ----------------------------------------------------------------------
# Bounds
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Bound:
    """A lower or upper bound on a variable.

    For a lower bound the originating constraint is ``coeff * v >= expr`` and
    the implied quasi-affine bound is ``v >= ceil(expr / coeff)``; for an
    upper bound it is ``coeff * v <= expr`` implying ``v <= floor(expr / coeff)``.
    ``coeff`` is always positive.
    """

    expr: QPoly
    coeff: int
    is_lower: bool

    def value(self) -> QPoly:
        if self.coeff == 1:
            return self.expr
        if self.is_lower:
            return floor_div(self.expr + (self.coeff - 1), self.coeff)
        return floor_div(self.expr, self.coeff)


def bounds_for(system: ConstraintSystem, name: str) -> Tuple[List[Bound], List[Bound], List[Constraint]]:
    """Split the system into lower bounds, upper bounds and the rest.

    Equalities involving ``name`` contribute both a lower and an upper bound.
    Constraints whose expression mentions ``name`` inside a div argument are
    not supported here; callers must residue-split those first.
    """
    lowers: List[Bound] = []
    uppers: List[Bound] = []
    rest: List[Constraint] = []
    for constraint in system.constraints:
        expr = constraint.expr
        if expr.degree_in_divs(name):
            raise ValueError(f"variable {name} occurs inside a div argument; residue-split first")
        coeff = expr.coefficient(name)
        if not coeff:
            rest.append(constraint)
            continue
        if coeff.denominator != 1:
            raise ValueError("constraints must be normalised to integer coefficients")
        a = coeff.numerator
        remainder = expr - QPoly.variable(name) * coeff
        if constraint.kind == EQ:
            # a*v + r == 0  ->  v >= ceil(-r/a) and v <= floor(-r/a) (a > 0)
            if a > 0:
                lowers.append(Bound(-remainder, a, True))
                uppers.append(Bound(-remainder, a, False))
            else:
                lowers.append(Bound(remainder, -a, True))
                uppers.append(Bound(remainder, -a, False))
        else:
            if a > 0:
                lowers.append(Bound(-remainder, a, True))
            else:
                uppers.append(Bound(remainder, -a, False))
    return lowers, uppers, rest


# ----------------------------------------------------------------------
# Feasibility
# ----------------------------------------------------------------------
#: An integer point as ``{variable name: value}``; divs take their floors.
Point = Dict[str, int]

#: Verdicts by row set: ``False``, an integer point, or ``True`` where only
#: Fourier-Motzkin could not refute the system.
_FEASIBILITY_CACHE: Dict[frozenset, Union[bool, Point]] = {}

#: Fourier-Motzkin gives up (answers "maybe feasible") past this many rows
#: or variables.
_MAX_ROWS = 600
_MAX_VARS = 24


def feasible_rational(system: ConstraintSystem) -> bool:
    """Emptiness pruning: ``False`` means integer-empty, ``True`` nearly always an integer point.

    Every div is renamed to a fresh variable bounded by its two defining
    rows and the system becomes integer rows.  Interval propagation over
    those rows runs first (:func:`_propagate`); it rounds every bound to an
    integer, so ``False`` from it proves integer emptiness.  Otherwise a dive
    (:func:`_dive`) fixes one column at a time inside the propagated bounds
    and checks the integer point it reaches against every row.  A point
    found is stored on the system, whose :meth:`~ConstraintSystem.copy` and
    :meth:`~ConstraintSystem.add` keep it while each added row holds at it,
    so an extension of a checked system is often decided by its parent's
    point alone.

    Only when the dive fails does Fourier-Motzkin eliminate every variable,
    substituting equalities first.  Each derived inequality is divided by
    the gcd of its variable coefficients with its constant floored, and a
    derived equality whose gcd does not divide its constant refutes the
    system; both keep every integer point, so its ``False`` is a proof of
    integer emptiness too, but its ``True`` may be an integer-empty system:
    the safe direction for pruning pieces.  Systems with more than
    ``_MAX_VARS`` variables skip the elimination, and those whose
    elimination grows past ``_MAX_ROWS`` rows stop it; both answer ``True``.

    A system marked false as it was built answers ``False`` without a unit;
    every other call charges one, a system that carries a point included.
    Verdicts are memoised on the system's integer rows
    (:meth:`ConstraintSystem.row_set`), never on constraint objects.
    """
    if system.has_trivially_false():
        return False
    # Charged before the memo lookup: the unit count then only depends on the
    # call sequence (deterministic per job), not on cross-job cache warmth.
    _charge_work()
    if system._point is not None:
        return True
    cache_key = system.row_set()
    verdict = _FEASIBILITY_CACHE.get(cache_key)
    if verdict is None:
        verdict = _feasible_rational_uncached(system)
        if len(_FEASIBILITY_CACHE) < 200_000:
            _FEASIBILITY_CACHE[cache_key] = verdict
    if isinstance(verdict, dict):
        system._point = verdict
        return True
    return verdict


def _feasible_rational_uncached(system: ConstraintSystem) -> Union[bool, Point]:
    columns, rows, fresh = _integer_rows(system)
    inequalities = _inequalities(rows)
    lower: List[Optional[int]] = [None] * len(columns)
    upper: List[Optional[int]] = [None] * len(columns)
    if not _propagate(inequalities, lower, upper):
        return False
    values = _dive(inequalities, lower, upper)
    if values is not None:
        return {col: value for col, value in zip(columns, values) if isinstance(col, str) and col not in fresh}
    remaining = [j for j, col in enumerate(columns) if isinstance(col, str)]
    if len(remaining) > _MAX_VARS:
        return True
    while remaining and rows:
        # Greedy minimum-degree ordering keeps the Fourier-Motzkin blow-up low;
        # columns are sorted by name, so the index breaks ties by name.
        occurrences = [len(rows) - column.count(0) for column in zip(*(row[1] for row in rows))]
        j = min(remaining, key=lambda j: (occurrences[j], j))
        remaining.remove(j)
        eliminated = _eliminate(rows, j)
        # A derived equality whose coefficient gcd does not divide its
        # constant has no integer point, as in ConstraintSystem.add.
        if eliminated is None or any(is_eq and const % math.gcd(*coeffs) for is_eq, coeffs, const in eliminated):
            return False
        rows = eliminated
        if len(rows) > _MAX_ROWS:
            return True
    return True


#: Rounds of interval propagation per call of :func:`_propagate`.
_PROPAGATION_ROUNDS = 8

#: A row ``sum(a * x[j] for j, a in terms) + constant >= 0`` over column indices.
Inequality = Tuple[List[Tuple[int, int]], int]


def _inequalities(rows: List[Row]) -> List[Inequality]:
    """``rows`` as sparse inequalities, an equality as two of them."""
    inequalities: List[Inequality] = []
    for is_eq, coeffs, const in rows:
        terms = [(j, a) for j, a in enumerate(coeffs) if a]
        inequalities.append((terms, const))
        if is_eq:
            inequalities.append(([(j, -a) for j, a in terms], -const))
    return inequalities


def _propagate(inequalities: List[Inequality], lower: List[Optional[int]], upper: List[Optional[int]]) -> bool:
    """Tighten the integer bounds ``lower``/``upper`` in place; ``False`` if they prove the rows empty.

    Each row bounds each column by the other columns' bounds, rounded inward
    since every column is an integer, for up to ``_PROPAGATION_ROUNDS``
    rounds.  Emptiness is proved by a column whose lower bound passes its
    upper bound, or by a row whose maximum over the bounds' box is negative.
    """
    for _ in range(_PROPAGATION_ROUNDS):
        changed = False
        for terms, const in inequalities:
            # The row's maximum over the box, with at most one unbounded term.
            total = const
            unbounded = None
            for term in terms:
                j, a = term
                bound = upper[j] if a > 0 else lower[j]
                if bound is not None:
                    total += a * bound
                elif unbounded is None:
                    unbounded = term
                else:
                    break
            else:
                if unbounded is None:
                    if total < 0:
                        return False
                    derived = terms
                else:
                    derived = (unbounded,)
                for j, a in derived:
                    # a * x_j >= -rest, where rest is the others' maximum.
                    if unbounded is None:
                        rest = total - a * (upper[j] if a > 0 else lower[j])
                    else:
                        rest = total
                    if a > 0:
                        bound = -(rest // a)
                        if lower[j] is None or bound > lower[j]:
                            lower[j] = bound
                            changed = True
                    else:
                        bound = rest // -a
                        if upper[j] is None or bound < upper[j]:
                            upper[j] = bound
                            changed = True
                    if lower[j] is not None and upper[j] is not None and lower[j] > upper[j]:
                        return False
        if not changed:
            break
    return True


def _dive(
    inequalities: List[Inequality], lower: List[Optional[int]], upper: List[Optional[int]]
) -> Optional[List[int]]:
    """An integer point inside the propagated bounds, or ``None`` if the dive finds none.

    Fixes each column in turn to its lower bound, else its upper bound, else
    0, and propagates after each fix; the point reached is then checked
    against every row.  ``None`` proves nothing: another choice might have
    found a point.  Consumes ``lower`` and ``upper``.
    """
    for j, low in enumerate(lower):
        value = low if low is not None else upper[j] if upper[j] is not None else 0
        if low == value == upper[j]:
            continue
        lower[j] = upper[j] = value
        if not _propagate(inequalities, lower, upper):
            return None
    point: List[int] = lower  # type: ignore[assignment]
    for terms, const in inequalities:
        if const + sum(a * point[j] for j, a in terms) < 0:
            return None
    return point


def _holds(row: ConstraintRow, point: Point) -> bool:
    """Whether the constraint ``row`` holds at ``point`` (``False`` if it names a variable the point lacks)."""
    is_eq, coeffs, const = row
    total = const
    for sym, a in coeffs:
        value = _value_at(sym, point)
        if value is None:
            return False
        total += a * value
    return total == 0 if is_eq else total >= 0


def _value_at(sym: Symbol, point: Point) -> Optional[int]:
    """A variable's value at ``point``, or a div's floor there; ``None`` if a variable is missing."""
    if isinstance(sym, str):
        return point.get(sym)
    coeffs, total, m = sym.integer_argument()
    for inner, a in coeffs:
        value = _value_at(inner, point)
        if value is None:
            return None
        total += a * value
    return total // (m * sym.denominator)


# ----------------------------------------------------------------------
# Integer rows
# ----------------------------------------------------------------------
#: ``(is_eq, coefficients, constant)``: ``coefficients . columns + constant``
#: compared against zero (``== 0`` or ``>= 0``), all plain ints.
Row = Tuple[bool, Tuple[int, ...], int]


class _RowSet:
    """Rows in insertion order, normalised and deduplicated like :meth:`ConstraintSystem.add`.

    An inequality is divided by the gcd of its variable coefficients with its
    constant floored, and only the tightest inequality per coefficient
    direction is kept, in the position of the first one.  An equality is
    divided by that gcd when the gcd divides its constant; otherwise it keeps
    the smallest integral multiple of the rational row it stands for.
    """

    __slots__ = ("rows", "_ineqs", "_eqs")

    def __init__(self) -> None:
        self.rows: List[Row] = []
        self._ineqs: Dict[Tuple[int, ...], int] = {}
        self._eqs: set = set()

    def add(self, is_eq: bool, coeffs: Tuple[int, ...], const: int, scale: int = 1) -> bool:
        """Add ``coeffs . x + const`` (``scale`` times the rational row); ``False`` if it contradicts."""
        g = math.gcd(*coeffs)
        if not g:
            return const == 0 if is_eq else const >= 0
        if is_eq:
            if const % g:
                # Integer-empty but rationally satisfiable.  Like
                # :meth:`Constraint.normalized`, keep the smallest integral
                # multiple of the rational row: divide out only ``scale``.
                g = math.gcd(g, const, scale)
            if g > 1:
                coeffs = tuple(c // g for c in coeffs)
                const //= g
            key = (coeffs, const)
            if key not in self._eqs:
                self._eqs.add(key)
                self.rows.append((True, coeffs, const))
            return True
        if g > 1:
            coeffs = tuple(c // g for c in coeffs)
            const //= g
        index = self._ineqs.get(coeffs)
        if index is None:
            self._ineqs[coeffs] = len(self.rows)
            self.rows.append((False, coeffs, const))
        elif self.rows[index][2] > const:
            self.rows[index] = (False, coeffs, const)
        return True


def _eliminate(
    rows: List[Row], j: int, *, pivot: Optional[Row] = None, drop_contradictions: bool = False
) -> Optional[List[Row]]:
    """Rational Fourier-Motzkin elimination of column ``j``.

    An equality mentioning the column (``pivot``, by default the first one)
    is substituted into every other row; without one, every lower bound is
    paired with every upper bound.  Returns ``None`` as soon as a row reduces
    to a false constant, unless ``drop_contradictions`` asks to skip such rows
    and go on.
    """
    out = _RowSet()
    if pivot is None:
        pivot = next((row for row in rows if row[0] and row[1][j]), None)
    if pivot is not None:
        _, pivot_coeffs, pivot_const = pivot
        c = pivot_coeffs[j]
        scale = abs(c)
        for row in rows:
            if row is pivot:
                continue
            is_eq, coeffs, const = row
            a = coeffs[j]
            if a:
                # scale * (row - a/c * pivot): integral, column j cancels.
                f = a if c > 0 else -a
                coeffs = tuple(scale * x - f * y for x, y in zip(coeffs, pivot_coeffs))
                const = scale * const - f * pivot_const
                ok = out.add(is_eq, coeffs, const, scale)
            else:
                ok = out.add(is_eq, coeffs, const)
            if not ok and not drop_contradictions:
                return None
        return out.rows
    lowers: List[Row] = []
    uppers: List[Row] = []
    for row in rows:
        a = row[1][j]
        if not a:
            out.add(*row)
        elif a > 0:
            lowers.append(row)
        else:
            uppers.append(row)
    for _, low, low_const in lowers:
        a = low[j]
        for _, up, up_const in uppers:
            b = -up[j]
            coeffs = tuple(a * x + b * y for x, y in zip(up, low))
            if not out.add(False, coeffs, a * up_const + b * low_const) and not drop_contradictions:
                return None
    return out.rows


def _integer_rows(
    system: ConstraintSystem, names: Optional[Iterable[str]] = None
) -> Tuple[List[Symbol], List[Row], List[str]]:
    """The system as integer rows over a fixed column order.

    Every div whose argument mentions one of ``names`` (any variable when
    ``names`` is ``None``) becomes a fresh column ``__q0, __q1, ...``, in the
    order the rows first mention the divs, bounded by its two defining rows;
    the div is linear in its row, so that is a rename.  Columns are the
    variables sorted by name, then each div left in place.  Returns the
    columns, the rows and the fresh names.
    """
    name_set = None if names is None else set(names)
    # Ordered {column: coefficient} rows, from each constraint's cached row;
    # a div is its own key until it is renamed.  Renaming replaces every
    # occurrence, so a copy of the same div surfacing later (nested in
    # another div's argument) is a new div.
    sparse: List[Tuple[bool, Dict[Symbol, int], int]] = [
        (is_eq, dict(coeffs), const) for is_eq, coeffs, const in (constraint.row for constraint in system.constraints)
    ]
    fresh: List[str] = []
    kept: set = set()
    while True:
        div = next(
            (k for _, coeffs, _ in sparse for k in coeffs if not isinstance(k, str) and k not in kept),
            None,
        )
        if div is None:
            break
        variables = div.free_variables()
        if not variables or (name_set is not None and name_set.isdisjoint(variables)):
            kept.add(div)
            continue
        var = f"__q{len(fresh)}"
        fresh.append(var)
        # Only the renamed rows and the defining rows mention ``var``.
        renamed = []
        for index, (_, coeffs, _) in enumerate(sparse):
            if div in coeffs:
                coeffs[var] = coeffs.pop(div)
                renamed.append(index)
        # argument - d*var >= 0 and d - 1 - argument + d*var >= 0, scaled to
        # integers; divs nested in the argument surface here.
        arg_coeffs, low_const, lcm = div.integer_argument()
        d = div.denominator
        low = dict(arg_coeffs)
        low[var] = -d * lcm
        high = {k: -c for k, c in low.items()}
        for coeffs, const in ((low, low_const), (high, (d - 1) * lcm - low_const)):
            g = math.gcd(*coeffs.values())
            if g > 1:
                coeffs = {k: c // g for k, c in coeffs.items()}
                const //= g
            index = next((i for i in renamed if not sparse[i][0] and sparse[i][1] == coeffs), None)
            if index is None:
                renamed.append(len(sparse))
                sparse.append((False, coeffs, const))
            elif sparse[index][2] > const:
                sparse[index] = (False, coeffs, const)
    used = dict.fromkeys(k for _, coeffs, _ in sparse for k in coeffs)
    columns: List[Symbol] = sorted(k for k in used if isinstance(k, str))
    columns += [k for k in used if not isinstance(k, str)]
    zeros = itertools.repeat(0)
    rows = [(is_eq, tuple(map(coeffs.get, columns, zeros)), const) for is_eq, coeffs, const in sparse]
    return columns, rows, fresh


# ----------------------------------------------------------------------
# Explicit enumeration
# ----------------------------------------------------------------------
def variable_range(system: ConstraintSystem, name: str, others: Sequence[str]) -> Tuple[int, int]:
    """Integer range of ``name`` after rationally eliminating ``others``.

    The range over-approximates the true projection; callers must re-check
    constraints for each candidate point.  Raises :class:`UnboundedSetError`
    if no finite bound exists.
    """
    columns, rows, fresh = _integer_rows(system, list(others) + [name])
    index = {col: j for j, col in enumerate(columns)}
    for other in list(others) + fresh:
        if other in index:
            rows = _eliminate(rows, index[other], drop_contradictions=True)
    lower: Optional[int] = None
    upper: Optional[int] = None
    j = index.get(name)
    for is_eq, coeffs, const in rows:
        # Only rows a*name + const (== or >=) 0 bound ``name`` by a number.
        a = coeffs[j] if j is not None else 0
        if not a or coeffs.count(0) != len(coeffs) - 1:
            continue
        if is_eq and a < 0:
            a, const = -a, -const
        if a > 0:
            low = -(const // a)
            lower = low if lower is None else max(lower, low)
        if is_eq or a < 0:
            high = -const // a if a > 0 else const // -a
            upper = high if upper is None else min(upper, high)
    if lower is None or upper is None:
        raise UnboundedSetError(f"variable {name} is not bounded")
    return lower, upper


def enumerate_points(system: ConstraintSystem, names: Sequence[str]) -> Iterator[Dict[str, int]]:
    """Enumerate all integer points of the projection onto ``names``.

    The system may mention additional variables; those are treated as
    existentially quantified and checked only rationally, which can produce
    points outside the exact projection.  For the cache model this is used
    either on systems without extra variables (exact) or as the
    partial-enumeration driver, where spurious points only cost time (their
    symbolic count is zero).
    """
    names = list(names)
    yield from _enumerate_recursive(system, names, {})


def _enumerate_recursive(system: ConstraintSystem, names: List[str], partial: Dict[str, int]) -> Iterator[Dict[str, int]]:
    if not names:
        if _check_point_rational(system):
            yield dict(partial)
        return
    name = names[0]
    rest = names[1:]
    low, high = variable_range(system, name, [n for n in system.variables() if n != name and isinstance(n, str)])
    for value in range(low, high + 1):
        substituted = system.substitute({name: value})
        if substituted.has_trivially_false():
            continue
        if not feasible_rational(substituted):
            continue
        partial[name] = value
        yield from _enumerate_recursive(substituted, rest, partial)
        del partial[name]


def _check_point_rational(system: ConstraintSystem) -> bool:
    remaining = sorted(n for n in system.variables())
    if not remaining:
        return not system.has_trivially_false()
    return feasible_rational(system)


def count_points_explicit(system: ConstraintSystem, names: Sequence[str]) -> int:
    """Count integer points of a fully-specified system by enumeration."""
    return sum(1 for _ in enumerate_points(system, names))
