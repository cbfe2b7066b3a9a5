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


def _the_div(expr: QPoly) -> Div:
    return next(symbol for symbol in expr.symbols() if isinstance(symbol, Div))


@pytest.fixture
def fresh_divs(monkeypatch):
    """An empty div intern table: the process-wide one, filled by earlier
    tests, may reach its bound and be emptied in the middle of a test."""
    from repro.isl import qpoly

    monkeypatch.setattr(qpoly, "_DIVS", {})


def test_floor_div_and_unpickling_intern_divs(fresh_divs):
    """Equal floors are one object, however they were built, so dicts keyed
    by divs hit on identity; unequal floors stay apart."""
    div = _the_div(floor_div(x + 3, 4))
    assert _the_div(floor_div(QPoly.constant(3) + x, 4)) is div
    assert _the_div(floor_div(x * 2 + 6, 8)) is div  # reduced by the gcd first
    assert pickle.loads(pickle.dumps(div)) is div
    assert _the_div(floor_div(x + 3, 5)) is not div
    assert _the_div(floor_div(x + 2, 4)) is not div
    fractional = _the_div(floor_div(x * Fraction(1, 2) + Fraction(1, 3), 5))
    assert _the_div(floor_div(x * Fraction(1, 2) + Fraction(1, 3), 5)) is fractional
    assert _the_div(floor_div(x * Fraction(1, 2) + Fraction(2, 3), 5)) is not fractional
    nested = _the_div(floor_div(x + floor_div(y + 1, 2) * 3, 7))
    assert pickle.loads(pickle.dumps(nested)) is nested


def test_div_hash_separates_arguments_cpython_hashes_alike():
    """CPython hashes -1, -2 and ``Fraction(-1)`` alike, so a hash over the
    argument's coefficients gave these two floors one hash and every dict or
    set lookup between them a ``Div.__eq__`` call."""
    assert hash(-1) == hash(-2) == hash(Fraction(-1))
    minus_one, minus_two = _the_div(floor_div(x - 1, 8)), _the_div(floor_div(x - 2, 8))
    assert minus_one != minus_two
    assert hash(minus_one) != hash(minus_two)
    assert hash(minus_one) == hash(pickle.loads(pickle.dumps(minus_one)))


def test_div_intern_table_is_bounded():
    from unittest import mock

    from repro.isl import qpoly

    with mock.patch.object(qpoly, "_DIVS", {}), mock.patch.object(qpoly, "_DIVS_LIMIT", 4):
        divs = [_the_div(floor_div(x + offset, 9)) for offset in range(1, 11)]
        assert len(qpoly._DIVS) <= 4
        assert _the_div(floor_div(x + 10, 9)) is divs[-1]
        again = [_the_div(floor_div(x + offset, 9)) for offset in range(1, 11)]
        assert len(qpoly._DIVS) <= 4
    assert again == divs  # equal, though most were interned anew


def test_threads_get_one_div_per_floor(fresh_divs):
    import random
    import threading

    offsets = list(range(300))
    seen = [None] * 8

    def build(index):
        order = offsets[:]
        random.Random(index).shuffle(order)
        seen[index] = {offset: _the_div(floor_div(y * 5 + offset + 1000, 11)) for offset in order}

    threads = [threading.Thread(target=build, args=(index,)) for index in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for offset in offsets:
        assert len({id(found[offset]) for found in seen}) == 1
