"""Cached canonical forms: quasi-polynomials, divs, constraints and systems.

A ``QPoly`` caches its canonical items and hash, a ``Div`` its hash and sort
key, a ``Constraint`` its normalized form, integer row and hash, and a
``ConstraintSystem`` its "trivially false" flag and row set.  These tests
pin what the caches must not change: equality and hashing of equal objects
built separately, idempotent normalization, rows only from integral
constraints, and hashes that never travel through pickle into a process with
another hash seed.
"""

import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from repro.isl import constraints
from repro.isl.constraints import INEQ, Constraint, ConstraintSystem, eq, feasible_rational, ge, le
from repro.isl.qpoly import Div, QPoly, floor_div

ROOT = Path(__file__).resolve().parent.parent

#: Builds the same objects in the test process and in a subprocess.
BUILD = """
from repro.isl.constraints import ConstraintSystem, ge, le
from repro.isl.qpoly import QPoly, floor_div

x, y = QPoly.variable("x"), QPoly.variable("y")
inner = floor_div(x + 3, 4)
nested = floor_div(x + inner * 2 + 1, 3)
constraint = ge(nested + y - 2, 0).normalized()
system = ConstraintSystem([constraint, le(x, 9), ge(y, 0)])
"""

LOAD = """
import pickle, sys
loaded, loaded_system = pickle.load(open(sys.argv[1], "rb"))
fresh_div = next(s for s, _ in constraint.expr._canonical_items()[1][0])
loaded_div = next(s for s, _ in loaded.expr._canonical_items()[1][0])
assert hash(loaded) == hash(constraint)
assert loaded in {constraint}
assert hash(loaded.expr) == hash(constraint.expr) and loaded.expr in {constraint.expr}
assert hash(loaded_div) == hash(fresh_div) and loaded_div in {fresh_div}
assert loaded.row == constraint.row and loaded.row in {constraint.row}
assert loaded_system.row_set() == system.row_set()
assert set(loaded_system.constraints) == set(system.constraints)
before = len(loaded_system)
loaded_system.add(constraint)
assert len(loaded_system) == before
print("ok")
"""

x, y = QPoly.variable("x"), QPoly.variable("y")


def test_cached_hashes_do_not_cross_processes(tmp_path):
    namespace: dict = {}
    exec(BUILD, namespace)
    constraint, system = namespace["constraint"], namespace["system"]
    divs = [s for s in constraint.expr.symbols() if isinstance(s, Div)]
    assert any(isinstance(t, Div) for div in divs for t in div.symbols()), "no nested div"
    # Fill every cache before pickling.
    hash(constraint)
    constraint.row
    for symbol in constraint.expr.symbols(recurse_divs=True):
        if isinstance(symbol, Div):
            hash(symbol)
            symbol.sort_key()
    system.row_set()
    feasible_rational(system)
    path = tmp_path / "constraint.pkl"
    path.write_bytes(pickle.dumps((constraint, system)))
    # Two seeds, so at least one differs from this process's seed.
    for seed in ("0", "12345"):
        result = subprocess.run(
            [sys.executable, "-c", BUILD + LOAD, str(path)],
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
            cwd=str(ROOT),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ok"


def test_normalized_is_computed_once_and_is_its_own_normal_form():
    constraint = ge(x * 4 + y * 6, 3)
    normal = constraint.normalized()
    assert normal is constraint.normalized()
    assert normal.normalized() is normal
    assert normal.row == (False, (("x", 2), ("y", 3)), -2)


def test_integer_row_requires_an_integral_constraint():
    half = Constraint(x * Fraction(1, 2), INEQ)
    third = Constraint(x * Fraction(1, 3), INEQ)
    # Normalized, both are x >= 0 and rightly share one row; unnormalized
    # they would collide in any row-keyed memo, so no row is built.
    assert half.normalized().row == third.normalized().row
    for constraint in (half, third):
        with pytest.raises(ValueError):
            constraint.row


def test_non_integral_system_raises_and_caches_no_verdict():
    cached = len(constraints._FEASIBILITY_CACHE)
    system = ConstraintSystem([ge("nonint_x", 0), le("nonint_x", 5)])
    rows = system.row_set()
    with pytest.raises(ValueError):
        system.add(Constraint(QPoly.variable("nonint_x") * Fraction(1, 2) - 1, INEQ), pre_normalized=True)
    assert system.row_set() == rows
    forged = system.copy()
    forged.constraints.append(Constraint(QPoly.variable("nonint_x") * Fraction(1, 3) - 1, INEQ))
    forged._row_set = None
    with pytest.raises(ValueError):
        feasible_rational(forged)
    assert len(constraints._FEASIBILITY_CACHE) == cached


def test_trivially_false_flag_follows_add_and_copy():
    system = ConstraintSystem([ge(x, 0), le(x, 5)])
    assert not system.has_trivially_false()
    clone = system.copy()
    clone.add(ge(0, 1))
    assert clone.has_trivially_false() and not system.has_trivially_false()
    assert clone.copy().has_trivially_false()
    assert system.conjoin(clone).has_trivially_false()
    assert ConstraintSystem([eq(3, 2)]).has_trivially_false()
    assert not ConstraintSystem([eq(3, 3), ge(2, 1)]).has_trivially_false()
    # A fractional constant normalizes to an integral one of the same sign.
    half = Constraint(QPoly.constant(Fraction(-1, 2)), INEQ)
    assert half.normalized().row == (False, (), -1)
    assert ConstraintSystem([half]).has_trivially_false()


def test_row_set_is_order_insensitive_and_tracks_tightening():
    a = ConstraintSystem([ge(x, 0), le(x, y), le(y, 7)])
    b = ConstraintSystem([le(y, 7), le(x, y), ge(x, 0)])
    assert a.row_set() == b.row_set()
    before = a.row_set()
    a.add(le(y, 5))
    assert a.row_set() != before
    assert (False, (("y", -1),), 5) in a.row_set()
    assert (False, (("y", -1),), 7) not in a.row_set()
