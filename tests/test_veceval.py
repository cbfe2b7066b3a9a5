"""Cross-validation of the bulk grid evaluator against the scalar reference.

:mod:`repro.isl.veceval` promises byte-identical results to driving
``QPoly.evaluate_int`` / the scalar chamber walk point by point — including
the error cases (non-integral values, unbound variables) and the silent
fallback when int64 could overflow.  Hypothesis generates the polynomials
(negative coefficients, ``floor_div`` terms and all) and grids; every
property is checked under both backends.
"""

from fractions import Fraction

import pytest

from hypothesis import given, settings, strategies as st

from repro.isl import ConstraintSystem, count_points, eq, floor_div, ge, variable
from repro.isl.qpoly import QPoly
from repro.isl.veceval import (
    BACKENDS,
    _INT64_LIMIT,
    _fits_int64,
    _peak_bound,
    evaluate_pieces,
    evaluate_poly,
)

VARS = ("i", "j")

coords = st.integers(min_value=-50, max_value=50)
grids = st.lists(st.tuples(coords, coords), min_size=1, max_size=40).map(
    lambda pts: {"i": [p[0] for p in pts], "j": [p[1] for p in pts]}
)


@st.composite
def int_polys(draw):
    """Integer-coefficient quasi-polynomials over ``i``/``j``.

    Integer coefficients keep every value integral by construction, so the
    comparison can use ``evaluate_int`` without filtering; ``floor_div``
    terms (with possibly fractional arguments) exercise the div/mod path.
    """
    poly = QPoly.constant(draw(st.integers(min_value=-9, max_value=9)))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        coeff = draw(st.integers(min_value=-9, max_value=9))
        base = variable(draw(st.sampled_from(VARS)))
        kind = draw(st.sampled_from(["linear", "square", "cross", "div"]))
        if kind == "square":
            term = base * base
        elif kind == "cross":
            term = variable("i") * variable("j")
        elif kind == "div":
            numerator = draw(st.integers(min_value=-3, max_value=3))
            denominator = draw(st.integers(min_value=2, max_value=5))
            term = floor_div(base * numerator + variable("j"), denominator)
        else:
            term = base
        poly = poly + term * coeff
    return poly


def scalar_values(poly, values):
    length = len(values["i"])
    return [
        poly.evaluate_int({name: seq[k] for name, seq in values.items()})
        for k in range(length)
    ]


class TestEvaluatePoly:
    @given(int_polys(), grids)
    @settings(max_examples=120, deadline=None)
    def test_numpy_matches_scalar_reference(self, poly, values):
        expected = scalar_values(poly, values)
        assert evaluate_poly(poly, values, backend="numpy") == expected
        assert evaluate_poly(poly, values, backend="python") == expected

    def test_triangular_fractional_coefficients_are_exact(self):
        # i*(i+1)/2: fractional coefficients, integral values — the scaled
        # divide-back must be exact at every point, negatives included.
        i = variable("i")
        poly = (i * i + i) * Fraction(1, 2)
        grid = {"i": list(range(-20, 21))}
        expected = [n * (n + 1) // 2 for n in range(-20, 21)]
        for backend in BACKENDS:
            assert evaluate_poly(poly, grid, backend=backend) == expected

    def test_non_integral_value_raises_on_both_backends(self):
        poly = variable("i") * Fraction(1, 2)
        for backend in BACKENDS:
            with pytest.raises(ValueError):
                evaluate_poly(poly, {"i": [2, 3]}, backend=backend)

    def test_unbound_variable_raises_on_both_backends(self):
        poly = variable("i") + variable("missing")
        for backend in BACKENDS:
            with pytest.raises(KeyError):
                evaluate_poly(poly, {"i": [1]}, backend=backend)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            evaluate_poly(variable("i"), {}, backend="python")
        with pytest.raises(ValueError):
            evaluate_poly(variable("i"), {"i": [1, 2], "j": [1]}, backend="python")

    def test_overflow_defers_to_python_and_stays_exact(self):
        # i**4 at |i| ~ 2**16 would overflow the scaled int64 product chain's
        # conservative bound; the numpy backend must fall back and still
        # return the exact unbounded-int answer.
        i = variable("i")
        poly = i * i * i * i
        big = 2**40
        assert not _fits_int64([poly], {"i": big})
        assert _peak_bound(poly, {"i": big}) >= _INT64_LIMIT
        assert evaluate_poly(poly, {"i": [big, -big]}, backend="numpy") == [
            big**4,
            big**4,
        ]

    def test_small_magnitudes_use_int64(self):
        assert _fits_int64([variable("i") * variable("j")], {"i": 10**6, "j": 10**6})


@st.composite
def chamber_pieces(draw):
    """Random piecewise counts: a few (chamber, polynomial) pairs over i/j."""
    pieces = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        constraints = []
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            a = draw(st.integers(min_value=-3, max_value=3))
            b = draw(st.integers(min_value=-3, max_value=3))
            c = draw(st.integers(min_value=-30, max_value=30))
            expr = variable("i") * a + variable("j") * b + c
            constraints.append(
                eq(expr, 0) if draw(st.booleans()) else ge(expr, 0)
            )
        pieces.append((ConstraintSystem(constraints), draw(int_polys())))
    return pieces


class TestEvaluatePieces:
    @given(chamber_pieces(), grids)
    @settings(max_examples=120, deadline=None)
    def test_numpy_matches_python_walk(self, pieces, values):
        reference = evaluate_pieces(pieces, values, backend="python")
        assert evaluate_pieces(pieces, values, backend="numpy") == reference

    def test_empty_pieces_sum_to_zero(self):
        for backend in BACKENDS:
            assert evaluate_pieces([], {"n": [1, 5, 9]}, backend=backend) == [0, 0, 0]

    def test_non_integral_member_polynomial_returns_none(self):
        # The chamber contains the point and its polynomial is non-integral
        # there: both backends must give up identically.
        pieces = [(ConstraintSystem([ge(variable("n"), 0)]), variable("n") * Fraction(1, 2))]
        for backend in BACKENDS:
            assert evaluate_pieces(pieces, {"n": [2, 3]}, backend=backend) is None

    def test_parametric_count_points_round_trip(self):
        # |{i : 0 <= i < n}| counted parametrically, then bulk-evaluated at
        # concrete n — must equal max(n, 0) pointwise on both backends.
        system = ConstraintSystem([ge(variable("i"), 0), ge(variable("n") - variable("i") - 1, 0)])
        chambers = count_points(system, ["i"])
        grid = {"n": list(range(0, 30))}
        expected = list(range(0, 30))
        for backend in BACKENDS:
            assert evaluate_pieces(chambers, grid, backend=backend) == expected
