"""Exact bulk evaluation of quasi-polynomials over grids of integer points.

The symbolic pipeline produces :class:`~repro.isl.qpoly.QPoly` values (and
piecewise collections of them, guarded by
:class:`~repro.isl.constraints.ConstraintSystem` chambers) that downstream
stages evaluate at *many* integer parameter points: the miss-curve path
evaluates every parametric capacity chamber at every cache size of the grid,
and the vectorized simulator evaluates address and schedule polynomials at
every point of an iteration domain.  Doing that one Python ``Fraction`` at a
time is the wall-time floor of the analytical model; this module is the
shared NumPy fast path.

Exactness contract
    Both entry points (:func:`evaluate_poly`, :func:`evaluate_pieces`) are
    **bit-exact** against the scalar reference (``QPoly.evaluate_int`` /
    ``QPoly.evaluate`` driven point by point): same values, and ``None`` /
    raised errors in exactly the same cases.  The NumPy path achieves this
    with scaled integer arithmetic — the polynomial is multiplied by the LCM
    of its coefficient denominators so every intermediate is an ``int64``,
    then divided back with an exactness check (:func:`eval_qpoly_arrays`).
    A conservative magnitude pre-check (:func:`_peak_bound`) falls back to
    the pure-Python path whenever an intermediate could reach ``2**62``, so
    ``int64`` overflow can never silently wrap.

Backends
    The ``backend`` option accepts ``"numpy"`` (the default) or
    ``"python"``, the scalar reference oracle that tests and bench gates
    compare against (see :data:`BACKENDS`, :func:`check_backend`).  This
    module is the one home of that rule; the concrete simulator pipeline
    uses the same names.

Budget charging
    Evaluation charges **no** work units: the deterministic work budget
    (:mod:`repro.isl.work`) meters symbolic reasoning (feasibility checks,
    counting recursion), not numeric evaluation, so switching backends can
    never change when a budgeted analysis trips.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .constraints import ConstraintSystem
from .qpoly import Div, QPoly

__all__ = [
    "BACKENDS",
    "check_backend",
    "eval_qpoly_arrays",
    "evaluate_pieces",
    "evaluate_poly",
]

#: Accepted values of the ``backend`` option: the NumPy default and the
#: pure-Python reference oracle.
BACKENDS = ("numpy", "python")

#: Conservative ceiling for any intermediate of the scaled evaluation; above
#: this the NumPy path silently defers to the pure-Python reference.
_INT64_LIMIT = 2**62


def check_backend(backend: str) -> str:
    """Return ``backend`` if it names a backend; raise :class:`ValueError` otherwise."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r} (expected {'|'.join(BACKENDS)})")
    return backend


_gcd = math.gcd


# ----------------------------------------------------------------------
# Exact integer evaluation of quasi-polynomials on index arrays
# ----------------------------------------------------------------------
def _coefficient_scale(poly: QPoly) -> int:
    scale = 1
    for coeff in poly.terms.values():
        scale = scale * coeff.denominator // _gcd(scale, coeff.denominator)
    return scale


def _eval_scaled(poly: QPoly, values: Dict[str, "object"]) -> Tuple["object", int]:
    """``(scale * poly)`` on integer arrays, as ``(int64 array, scale)``.

    The scale is the (positive) LCM of the coefficient denominators, so the
    sign of the scaled value equals the sign of the exact rational value —
    which is all a constraint test needs, with no division at all.
    """
    scale = _coefficient_scale(poly)
    total = None
    for monomial, coeff in poly.terms.items():
        term = _np_full_like_any(values, coeff.numerator * (scale // coeff.denominator))
        for sym, exp in monomial:
            base = _eval_symbol(sym, values)
            for _ in range(exp):
                term = term * base
        total = term if total is None else total + term
    if total is None:
        total = _np_full_like_any(values, 0)
    return total, scale


def eval_qpoly_arrays(poly: QPoly, values: Dict[str, "object"]):
    """Evaluate ``poly`` elementwise on integer arrays, exactly.

    Coefficients are Fractions; the whole polynomial is scaled by the LCM of
    the coefficient denominators so all arithmetic happens in int64, then
    divided back (the division must be exact — raises :class:`ValueError`
    otherwise, like ``QPoly.evaluate_int``).  Div symbols evaluate their
    argument the same way and use ``floor(A / (L * d)) == floor((A / L) / d)``.
    Unknown variables raise :class:`KeyError`, like the scalar path.

    This is the low-level building block: it assumes the inputs fit int64
    (callers guard with a magnitude pre-check).
    """
    total, scale = _eval_scaled(poly, values)
    if scale != 1:
        quotient, remainder = np.divmod(total, scale)
        if remainder.any():
            raise ValueError(f"expected integral values evaluating {poly}")
        return quotient
    return total


def _eval_symbol(sym, values: Dict[str, "object"]):
    if isinstance(sym, Div):
        argument = sym.argument()
        scale = _coefficient_scale(argument)
        scaled, _ = _eval_scaled(argument * scale, values)
        return np.floor_divide(scaled, scale * sym.denominator)
    try:
        return values[sym]
    except KeyError:
        raise KeyError(f"no value for variable {sym!r}") from None


def _np_full_like_any(values: Dict[str, "object"], fill: int):
    for array in values.values():
        return np.full_like(array, fill)
    return np.asarray([fill], dtype=np.int64)


# ----------------------------------------------------------------------
# int64 overflow guard
# ----------------------------------------------------------------------
def _peak_bound(poly: QPoly, max_abs: Mapping[str, int]) -> int:
    """Upper bound on ``|any intermediate|`` of the scaled evaluation.

    Computed in unbounded Python ints from the per-variable magnitude bounds;
    conservative (Div bounds use the scaled argument's bound).  Unknown
    variables raise :class:`KeyError` — the evaluation would too, so the
    caller treats that as "safe to attempt".
    """
    scale = _coefficient_scale(poly)
    total = 0
    peak = 0
    for monomial, coeff in poly.terms.items():
        term = abs(coeff.numerator) * (scale // coeff.denominator)
        for sym, exp in monomial:
            if isinstance(sym, Div):
                base = _peak_bound(sym.argument(), max_abs)
                peak = max(peak, base)
            else:
                base = max_abs[sym]
            term *= max(base, 1) ** exp
        total += term
        peak = max(peak, term, total)
    return peak


def _fits_int64(polys: Iterable[QPoly], max_abs: Mapping[str, int]) -> bool:
    for poly in polys:
        try:
            if _peak_bound(poly, max_abs) >= _INT64_LIMIT:
                return False
        except KeyError:
            continue  # evaluation raises KeyError on either backend
    return True


# ----------------------------------------------------------------------
# Public grid evaluation
# ----------------------------------------------------------------------
def _check_grid(values: Mapping[str, Sequence[int]]) -> int:
    if not values:
        raise ValueError("evaluation grid must bind at least one variable")
    lengths = {len(seq) for seq in values.values()}
    if len(lengths) != 1:
        raise ValueError(f"evaluation grid sequences have mismatched lengths {sorted(lengths)}")
    return lengths.pop()


def evaluate_poly(
    poly: QPoly,
    values: Mapping[str, Sequence[int]],
    *,
    backend: str = "numpy",
) -> List[int]:
    """Evaluate one polynomial at a batch of integer points.

    ``values`` binds each variable name to a sequence of integers; all
    sequences must have the same length ``n`` and the result is the list of
    ``n`` integer values, identical to calling ``poly.evaluate_int`` at each
    point in order.  Raises :class:`KeyError` for unbound variables and
    :class:`ValueError` for non-integral values, exactly like the scalar
    reference; charges no work units.
    """
    check_backend(backend)
    length = _check_grid(values)
    if backend == "numpy":
        max_abs = {name: max((abs(int(v)) for v in seq), default=0) for name, seq in values.items()}
        if _fits_int64([poly], max_abs):
            arrays = {name: np.asarray(list(seq), dtype=np.int64) for name, seq in values.items()}
            return [int(v) for v in eval_qpoly_arrays(poly, arrays)]
    return [poly.evaluate_int({name: seq[k] for name, seq in values.items()}) for k in range(length)]


Piece = Tuple[ConstraintSystem, QPoly]


def evaluate_pieces(
    pieces: Sequence[Piece],
    values: Mapping[str, Sequence[int]],
    *,
    backend: str = "numpy",
) -> Optional[List[int]]:
    """Sum a piecewise quasi-polynomial at a batch of integer points.

    ``pieces`` is a sequence of ``(chamber, polynomial)`` pairs as produced
    by :func:`repro.isl.counting.count_points`; ``values`` binds parameters
    to equal-length integer sequences.  For each point the chambers are
    tested (``eq`` constraints must be 0, ``ineq`` constraints >= 0, in exact
    rational arithmetic) and the polynomials of the containing chambers are
    summed.  Returns the per-point totals, or ``None`` as soon as any
    containing chamber's polynomial fails to evaluate to an integer or any
    expression references an unbound variable — the same "give up and let
    the caller fall back" contract as the scalar chamber walk in
    :mod:`repro.core.capacity`.

    The result is byte-identical across backends: the NumPy path tests
    chamber membership on scaled integers (no division), verifies
    integrality only at member points, and defers to the pure-Python
    reference whenever int64 could overflow or an unbound variable makes the
    outcome order-dependent.  Charges no work units.
    """
    check_backend(backend)
    length = _check_grid(values)
    if backend == "numpy":
        result = _evaluate_pieces_numpy(pieces, values, length)
        if result is not _DEFER:
            return result
    return _evaluate_pieces_python(pieces, values, length)


#: Sentinel: the NumPy path cannot decide and the reference must run.
_DEFER = object()


def _evaluate_pieces_python(
    pieces: Sequence[Piece],
    values: Mapping[str, Sequence[int]],
    length: int,
) -> Optional[List[int]]:
    totals: List[int] = []
    for position in range(length):
        point = {name: seq[position] for name, seq in values.items()}
        total = 0
        for domain, polynomial in pieces:
            try:
                if not _domain_contains(domain, point):
                    continue
                total += polynomial.evaluate_int(point)
            except (KeyError, ValueError):
                return None
        totals.append(total)
    return totals


def _domain_contains(domain: ConstraintSystem, point: Mapping[str, int]) -> bool:
    for constraint in domain.constraints:
        value = constraint.expr.evaluate(point)
        if constraint.kind == "eq":
            if value != 0:
                return False
        elif value < 0:
            return False
    return True


def _evaluate_pieces_numpy(
    pieces: Sequence[Piece],
    values: Mapping[str, Sequence[int]],
    length: int,
):
    max_abs = {name: max((abs(int(v)) for v in seq), default=0) for name, seq in values.items()}
    guarded: List[QPoly] = []
    for domain, polynomial in pieces:
        guarded.append(polynomial)
        guarded.extend(constraint.expr for constraint in domain.constraints)
    if not _fits_int64(guarded, max_abs):
        return _DEFER
    arrays = {name: np.asarray(list(seq), dtype=np.int64) for name, seq in values.items()}
    totals = np.zeros(length, dtype=np.int64)
    try:
        for domain, polynomial in pieces:
            mask = np.ones(length, dtype=bool)
            for constraint in domain.constraints:
                scaled, _ = _eval_scaled(constraint.expr, arrays)
                ok = (scaled == 0) if constraint.kind == "eq" else (scaled >= 0)
                mask &= ok
            if not mask.any():
                continue
            scaled, scale = _eval_scaled(polynomial, arrays)
            quotient, remainder = np.divmod(scaled, scale)
            if remainder[mask].any():
                # A containing chamber's polynomial is non-integral at a
                # member point: the scalar walk reaches that same point and
                # raises ValueError, so the answer is None either way.
                return None
            totals[mask] += quotient[mask]
    except KeyError:
        # An unbound variable: whether the scalar walk raises depends on its
        # point-major short-circuit order, so let the reference decide.
        return _DEFER
    return [int(v) for v in totals]
