"""Property-based tests (hypothesis) for the polyhedral substrate."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.isl.constraints import ConstraintSystem, count_points_explicit, eq, ge, le
from repro.isl.counting import cardinality, count_points
from repro.isl.lexopt import evaluate_pieces, lexmax, lexmax_explicit
from repro.isl.qpoly import QPoly, floor_div, power_sum_poly


small_ints = st.integers(min_value=-6, max_value=12)


@given(small_ints, small_ints, small_ints, small_ints)
@settings(max_examples=40, deadline=None)
def test_box_cardinality_matches_enumeration(a, b, c, d):
    cs = ConstraintSystem([ge("i", a), le("i", b), ge("j", c), le("j", d)])
    assert cardinality(cs, ["i", "j"]) == count_points_explicit(cs, ["i", "j"])


@given(small_ints, small_ints, st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_triangle_with_stride_matches_enumeration(lo, hi, stride):
    i, j = QPoly.variable("i"), QPoly.variable("j")
    cs = ConstraintSystem([ge("i", lo), le("i", hi), ge("j", 0), le(j * stride, i)])
    assert cardinality(cs, ["i", "j"]) == count_points_explicit(cs, ["i", "j"])


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=2, max_value=9))
@settings(max_examples=40, deadline=None)
def test_div_constraint_cardinality(n, divisor):
    i = QPoly.variable("i")
    cs = ConstraintSystem([ge("i", 0), le("i", n), eq(floor_div(i, divisor), 1)])
    assert cardinality(cs, ["i"]) == count_points_explicit(cs, ["i"])


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=-8, max_value=8), st.integers(min_value=-8, max_value=8))
@settings(max_examples=60, deadline=None)
def test_faulhaber_telescopes(power, lo, hi):
    if lo > hi:
        lo, hi = hi, lo
    poly = power_sum_poly(power)
    expected = sum(v ** power for v in range(lo, hi + 1))
    assert poly.evaluate({"n": hi}) - poly.evaluate({"n": lo - 1}) == expected


@given(small_ints, small_ints)
@settings(max_examples=30, deadline=None)
def test_parametric_count_evaluates_correctly(bound, offset):
    """count_{j} {0 <= j <= i, j >= offset} evaluated at i == brute force."""
    j = QPoly.variable("j")
    cs = ConstraintSystem([ge("j", offset), ge("j", 0), le(j, QPoly.variable("i"))])
    pieces = count_points(cs, ["j"])
    i_value = bound
    total = 0
    for domain, poly in pieces:
        holds = True
        for constraint in domain.constraints:
            value = constraint.expr.evaluate({"i": i_value})
            if constraint.kind == "eq":
                holds = holds and value == 0
            else:
                holds = holds and value >= 0
        if holds:
            total += int(poly.evaluate({"i": i_value}))
    expected = len([v for v in range(0, i_value + 1) if v >= offset]) if i_value >= 0 else 0
    assert total == expected


@given(small_ints, small_ints)
@settings(max_examples=30, deadline=None)
def test_lexmax_matches_bruteforce(i_value, n_value):
    """Parametric lexmax of a two-bound set equals the explicit optimum."""
    j = QPoly.variable("j")
    cs = ConstraintSystem([ge("j", 0), le(j, QPoly.variable("i")), le(j, QPoly.variable("n"))])
    pieces = lexmax(cs, ["j"])
    params = {"i": i_value, "n": n_value}
    expected = lexmax_explicit(cs, ["j"], params)
    assert evaluate_pieces(pieces, 1, params) == expected


# ----------------------------------------------------------------------
# QPoly arithmetic builds its results without re-checking coefficients
# ----------------------------------------------------------------------
small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def qpolys(draw):
    """Small polynomials over two variables and a div, coefficients that may cancel."""
    i, j = QPoly.variable("i"), QPoly.variable("j")
    monomials = [QPoly.constant(1), i, j, i * j, i * i, floor_div(i + j * 2, 4), floor_div(i, 3) * j]
    poly = QPoly()
    for monomial in draw(st.lists(st.sampled_from(monomials), max_size=5)):
        poly = poly + monomial * draw(small_fractions)
    return poly


def _rebuilt_alike(result):
    rebuilt = QPoly(result.terms)
    assert result.terms == rebuilt.terms
    assert result._canonical_items() == rebuilt._canonical_items()
    assert hash(result) == hash(rebuilt)
    assert all(isinstance(c, Fraction) and c for c in result.terms.values())


@given(qpolys(), st.one_of(qpolys(), small_fractions, st.integers(min_value=-3, max_value=3)))
@settings(max_examples=300, deadline=None)
def test_arithmetic_results_equal_the_public_constructor(a, b):
    for result in (a + b, b + a, a - b, b - a, -a, a * b, b * a, a - a, a * 0):
        _rebuilt_alike(result)
    b_poly = b if isinstance(b, QPoly) else QPoly.constant(b)
    assert a - b == a + (-b_poly)
    assert (a - b) + b == a
