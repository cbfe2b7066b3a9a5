"""Pure-Python polyhedral substrate ("polylite").

This subpackage replaces the isl + barvinok C libraries the paper's
implementation builds on.  It provides quasi-polynomials, affine constraint
systems, named integer sets and maps, parametric lexicographic optimisation,
and symbolic point counting.
"""

from .qpoly import Div, QPoly, affine_expr, constant, floor_div, variable
from .constraints import (
    Constraint,
    ConstraintSystem,
    UnboundedSetError,
    eq,
    ge,
    gt,
    le,
    lt,
)
from .counting import CountingError, cardinality, count_points, piecewise_total, piecewise_values

__all__ = [
    "Constraint",
    "ConstraintSystem",
    "CountingError",
    "Div",
    "QPoly",
    "UnboundedSetError",
    "affine_expr",
    "cardinality",
    "constant",
    "count_points",
    "eq",
    "floor_div",
    "ge",
    "gt",
    "le",
    "lt",
    "piecewise_total",
    "piecewise_values",
    "variable",
]
