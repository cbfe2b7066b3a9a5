"""Elimination of non-affine floor terms: equalization and rasterization.

Stack-distance polynomials frequently contain products of floor expressions
with loop variables (the cache-line structure of the accesses).  The paper
introduces two rewrite strategies (Section 3.3) that specialise the
polynomials per cache-line offset so that they become affine and can be
counted symbolically:

* **equalization** — two floors whose arguments differ by a constant offset
  are equal on most of the cache line and differ by one on the remainder;
  the piece is split into those two regions.
* **rasterization** — a floor is specialised for every individual cache-line
  offset (``denominator`` regions), turning ``e - m*floor(e/m)`` patterns into
  constants.

Both rewrites are only kept when they actually reduce the degree of the
polynomial, exactly as in the paper.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..isl.constraints import ConstraintSystem, eq, ge, le
from ..isl.qpoly import Div, QPoly
from .distance import DistancePiece
from .regions import feasible

__all__ = ["equalize", "rasterize"]


def _replace_div(poly: QPoly, div: Div, replacement: QPoly) -> QPoly:
    """``poly`` with every top-level occurrence of ``div`` replaced."""
    result = QPoly()
    for monomial, coeff in poly.terms.items():
        factor = QPoly.constant(coeff)
        for sym, exp in monomial:
            base = replacement if sym == div else QPoly.variable(sym)
            for _ in range(exp):
                factor = factor * base
        result = result + factor
    return result


def _nonaffine_divs(poly: QPoly) -> List[Div]:
    """Divs that occur in monomials of total degree greater than one."""
    found: List[Div] = []
    for monomial in poly.terms:
        degree = sum(exp for _, exp in monomial)
        if degree <= 1:
            continue
        for sym, _ in monomial:
            if isinstance(sym, Div) and sym not in found:
                found.append(sym)
    return found


def equalize(piece: DistancePiece) -> Optional[List[DistancePiece]]:
    """Split ``piece`` so that two offset-shifted floors coincide.

    Searches for a pair of divs ``floor((e + c)/m)`` and ``floor(e/m)`` with
    ``0 < c < m``; on the sub-domain where ``e mod m < m - c`` the two floors
    are equal, on the rest they differ by one.  Returns ``None`` when no such
    pair exists or when the rewrite does not reduce the polynomial degree.
    """
    divs = _nonaffine_divs(piece.polynomial)
    original_degree = piece.polynomial.degree()
    for first in divs:
        for second in piece.polynomial.divs():
            if first == second or first.denominator != second.denominator:
                continue
            offset = first.argument() - second.argument()
            if not offset.is_constant():
                continue
            shift = offset.constant_value()
            if shift.denominator != 1 or not (0 < shift < first.denominator):
                continue
            modulus = first.denominator
            base = second  # the "lower" floor floor(e/m)
            remainder = second.argument() - QPoly.variable(base) * modulus
            equal_domain = piece.domain.conjoin([le(remainder, modulus - int(shift) - 1)])
            bigger_domain = piece.domain.conjoin([ge(remainder, modulus - int(shift))])
            equal_poly = _replace_div(piece.polynomial, first, QPoly.variable(base))
            bigger_poly = _replace_div(piece.polynomial, first, QPoly.variable(base) + 1)
            if min(equal_poly.degree(), bigger_poly.degree()) >= original_degree:
                continue
            pieces = []
            if feasible(equal_domain):
                pieces.append(DistancePiece(equal_domain, equal_poly))
            if feasible(bigger_domain):
                pieces.append(DistancePiece(bigger_domain, bigger_poly))
            return pieces
    return None


def rasterize(piece: DistancePiece) -> Optional[List[DistancePiece]]:
    """Specialise a non-affine floor for every cache-line offset.

    For a div ``floor(e/m)`` appearing in a non-affine monomial, the domain is
    split into ``m`` residue classes ``e ≡ r (mod m)``; in each class the div
    is replaced by the affine expression ``(e - r)/m``.  Patterns of the form
    ``e - m*floor(e/m)`` collapse to the constant ``r``, which is what reduces
    the degree.  Returns ``None`` if no div qualifies or the degree does not
    decrease for any resulting piece.
    """
    divs = _nonaffine_divs(piece.polynomial)
    original_degree = piece.polynomial.degree()
    for div in divs:
        modulus = div.denominator
        argument = div.argument()
        pieces: List[DistancePiece] = []
        improved = False
        for residue in range(modulus):
            replacement = (argument - residue) * _fraction(1, modulus)
            new_poly = _replace_div(piece.polynomial, div, replacement)
            residue_constraint = eq(argument - QPoly.variable(div) * modulus, residue)
            new_domain = piece.domain.conjoin([residue_constraint])
            if not feasible(new_domain):
                continue
            if new_poly.degree() < original_degree:
                improved = True
            pieces.append(DistancePiece(new_domain, new_poly))
        if improved:
            return pieces
    return None


def _fraction(numerator: int, denominator: int):
    from fractions import Fraction

    return Fraction(numerator, denominator)
