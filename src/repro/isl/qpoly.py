"""Quasi-polynomials over named integer variables.

This module is the arithmetic backbone of the polyhedral layer.  A
:class:`QPoly` is a polynomial with :class:`fractions.Fraction` coefficients
whose *symbols* are either plain variable names (strings) or :class:`Div`
objects, i.e. floors of quasi-affine expressions.  Quasi-polynomials are what
the Barvinok algorithm produces when counting parametric polytopes and what
the HayStack cache model manipulates as symbolic stack distances.

The module also provides Faulhaber summation (:func:`power_sum_poly` and
:meth:`QPoly.sum_over`) which is the engine behind the symbolic point counting
in :mod:`repro.isl.counting`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "Div",
    "QPoly",
    "Symbol",
    "affine_expr",
    "bernoulli_numbers",
    "constant",
    "power_sum_poly",
    "variable",
]


Number = Union[int, Fraction]


def _to_fraction(value: Number) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


class Div:
    """A floor division ``floor(expr / denominator)`` used as a symbol.

    ``expr`` is stored in a canonical hashable form: a tuple of
    ``(monomial, coefficient)`` pairs plus the constant term, exactly as
    produced by :meth:`QPoly._canonical_items`.  ``denominator`` is a positive
    integer.  Divs may be nested (the argument may itself contain divs).

    Instances are immutable by convention.  The hash and the sort key (the
    ``repr``) are computed once and cached; pickling rebuilds a div from
    ``items`` and ``denominator`` only, so a cached string hash never
    crosses into a process with a different hash seed.
    """

    __slots__ = ("items", "denominator", "_hash", "_sort_key")

    def __init__(self, items: Tuple[Tuple["Monomial", Fraction], ...], denominator: int) -> None:
        self.items = items
        self.denominator = denominator
        self._hash: Optional[int] = None
        self._sort_key: Optional[str] = None

    def argument(self) -> "QPoly":
        """Return the argument of the floor as a :class:`QPoly`."""
        return QPoly(dict(self.items))

    def symbols(self) -> set:
        return self.argument().symbols()

    def sort_key(self) -> str:
        """The ``repr``, which orders divs among the symbols of a monomial."""
        key = self._sort_key
        if key is None:
            key = self._sort_key = repr(self)
        return key

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Div):
            return NotImplemented
        return self.denominator == other.denominator and self.items == other.items

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash((self.items, self.denominator))
        return value

    def __reduce__(self):
        return (Div, (self.items, self.denominator))

    def __repr__(self) -> str:
        return f"floor(({self.argument()})/{self.denominator})"


Symbol = Union[str, Div]
Monomial = Tuple[Tuple[Symbol, int], ...]


def _symbol_sort_key(symbol: Symbol) -> Tuple[int, str]:
    if isinstance(symbol, str):
        return (0, symbol)
    return (1, symbol.sort_key())


def _term_sort_key(term: Tuple[Monomial, Fraction]) -> Tuple[int, list]:
    monomial = term[0]
    return (len(monomial), [(_symbol_sort_key(s), e) for s, e in monomial])


def _monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    powers: Dict[Symbol, int] = {}
    for sym, exp in a:
        powers[sym] = powers.get(sym, 0) + exp
    for sym, exp in b:
        powers[sym] = powers.get(sym, 0) + exp
    return tuple(sorted(((s, e) for s, e in powers.items() if e), key=lambda it: _symbol_sort_key(it[0])))


class QPoly:
    """A quasi-polynomial: mapping from monomials to rational coefficients.

    The empty monomial ``()`` holds the constant term; a monomial is a
    sorted tuple of ``(symbol, exponent)`` pairs where a symbol is either a
    variable name or a :class:`Div` (a nested floor-division term, which is
    what makes the polynomial "quasi").  Instances are immutable by
    convention; all operations return new objects.  The canonical form
    (:meth:`_canonical_items`) and the hash are computed on first use and
    cached; pickling carries only ``terms``, so a cached hash never crosses
    into a process with a different hash seed.

    **Exactness contract.**  Coefficients are ``fractions.Fraction``s and
    every operation — arithmetic, substitution, evaluation — is exact
    rational arithmetic; nothing in this class ever rounds.
    :meth:`evaluate` returns the exact ``Fraction`` value at a point and
    :meth:`evaluate_int` additionally asserts integrality (counting results
    are cardinalities, so a non-integer value signals a logic error, not a
    rounding problem).  The NumPy bulk evaluator
    (:mod:`repro.isl.veceval`) preserves this contract by scaling to
    integers and checking divisions, deferring to the scalar path whenever
    exactness in int64 is not provable.

    **Cost contract.**  Construction and evaluation charge **no** symbolic
    work units; only the counting/solving machinery built on top
    (:mod:`repro.isl.counting`, :mod:`repro.isl.lexopt`) charges the
    active :class:`~repro.isl.work.WorkBudget`.
    """

    __slots__ = ("terms", "_items", "_hash")

    def __init__(self, terms: Optional[Mapping[Monomial, Number]] = None) -> None:
        clean: Dict[Monomial, Fraction] = {}
        if terms:
            for monomial, coeff in terms.items():
                frac = _to_fraction(coeff)
                if frac:
                    clean[monomial] = frac
        self.terms: Dict[Monomial, Fraction] = clean
        self._items: Optional[Tuple[Tuple[Monomial, Fraction], ...]] = None
        self._hash: Optional[int] = None

    def __reduce__(self):
        return (QPoly, (self.terms,))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def constant(value: Number) -> "QPoly":
        return QPoly({(): _to_fraction(value)})

    @staticmethod
    def variable(name: Symbol) -> "QPoly":
        return QPoly({((name, 1),): Fraction(1)})

    @staticmethod
    def from_affine(coeffs: Mapping[Symbol, Number], const: Number = 0) -> "QPoly":
        terms: Dict[Monomial, Fraction] = {}
        for sym, coeff in coeffs.items():
            frac = _to_fraction(coeff)
            if frac:
                terms[((sym, 1),)] = frac
        const_frac = _to_fraction(const)
        if const_frac:
            terms[()] = const_frac
        return QPoly(terms)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _canonical_items(self) -> Tuple[Tuple[Monomial, Fraction], ...]:
        items = self._items
        if items is None:
            items = self._items = tuple(sorted(self.terms.items(), key=_term_sort_key))
        return items

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(monomial == () for monomial in self.terms)

    def constant_value(self) -> Fraction:
        return self.terms.get((), Fraction(0))

    def degree(self) -> int:
        """Total degree; every div symbol counts as degree one."""
        best = 0
        for monomial in self.terms:
            deg = sum(exp for _, exp in monomial)
            best = max(best, deg)
        return best

    def is_affine(self) -> bool:
        """True if every monomial has total degree <= 1 (divs count as deg 1).

        This matches the paper's notion: a piece is "affine" when its stack
        distance polynomial has degree zero or one, in which case the cache
        miss set can be counted symbolically.
        """
        return self.degree() <= 1

    def symbols(self, *, recurse_divs: bool = False) -> set:
        result: set = set()
        for monomial in self.terms:
            for sym, _ in monomial:
                result.add(sym)
                if recurse_divs and isinstance(sym, Div):
                    result |= sym.symbols()
        return result

    def divs(self) -> List[Div]:
        out: List[Div] = []
        seen = set()
        for monomial in self.terms:
            for sym, _ in monomial:
                if isinstance(sym, Div) and sym not in seen:
                    seen.add(sym)
                    out.append(sym)
        return out

    def free_variables(self) -> set:
        """All string variables appearing directly or inside (nested) divs."""
        result: set = set()
        stack: List[Symbol] = list(self.symbols())
        while stack:
            sym = stack.pop()
            if isinstance(sym, str):
                result.add(sym)
            else:
                stack.extend(sym.argument().symbols())
        return result

    def involves(self, name: str) -> bool:
        """True if ``name`` occurs directly or inside any div argument."""
        for monomial in self.terms:
            for sym, _ in monomial:
                if sym == name:
                    return True
                if isinstance(sym, Div) and _div_involves(sym, name):
                    return True
        return False

    def coefficient(self, name: Symbol) -> Fraction:
        """Coefficient of the degree-one monomial of ``name``."""
        return self.terms.get(((name, 1),), Fraction(0))

    def affine_coefficients(self) -> Tuple[Dict[Symbol, Fraction], Fraction]:
        """Decompose an affine quasi-polynomial into coefficients + constant.

        Raises ``ValueError`` if the polynomial is not affine.
        """
        if not self.is_affine():
            raise ValueError(f"not an affine expression: {self}")
        coeffs: Dict[Symbol, Fraction] = {}
        const = Fraction(0)
        for monomial, coeff in self.terms.items():
            if monomial == ():
                const = coeff
            else:
                sym, exp = monomial[0]
                assert exp == 1
                coeffs[sym] = coeff
        return coeffs, const

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: Union["QPoly", Number]) -> "QPoly":
        other_poly = other if isinstance(other, QPoly) else QPoly.constant(other)
        terms = dict(self.terms)
        for monomial, coeff in other_poly.terms.items():
            new = terms.get(monomial, Fraction(0)) + coeff
            if new:
                terms[monomial] = new
            elif monomial in terms:
                del terms[monomial]
        return QPoly(terms)

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly({monomial: -coeff for monomial, coeff in self.terms.items()})

    def __sub__(self, other: Union["QPoly", Number]) -> "QPoly":
        other_poly = other if isinstance(other, QPoly) else QPoly.constant(other)
        return self + (-other_poly)

    def __rsub__(self, other: Number) -> "QPoly":
        return QPoly.constant(other) - self

    def __mul__(self, other: Union["QPoly", Number]) -> "QPoly":
        if not isinstance(other, QPoly):
            factor = _to_fraction(other)
            if not factor:
                return QPoly()
            return QPoly({monomial: coeff * factor for monomial, coeff in self.terms.items()})
        result: Dict[Monomial, Fraction] = {}
        for mono_a, coeff_a in self.terms.items():
            for mono_b, coeff_b in other.terms.items():
                monomial = _monomial_mul(mono_a, mono_b)
                new = result.get(monomial, Fraction(0)) + coeff_a * coeff_b
                if new:
                    result[monomial] = new
                elif monomial in result:
                    del result[monomial]
        return QPoly(result)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QPoly.constant(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash(self._canonical_items())
        return value

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for monomial, coeff in self._canonical_items():
            if monomial == ():
                parts.append(str(coeff))
                continue
            factors = []
            for sym, exp in monomial:
                text = sym if isinstance(sym, str) else repr(sym)
                factors.append(text if exp == 1 else f"{text}^{exp}")
            body = "*".join(factors)
            if coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff}*{body}")
        return " + ".join(parts).replace("+ -", "- ")

    # ------------------------------------------------------------------
    # Substitution and evaluation
    # ------------------------------------------------------------------
    def substitute(self, assignment: Mapping[str, Union["QPoly", Number]]) -> "QPoly":
        """Substitute variables by quasi-polynomials (or numbers).

        Divs whose arguments mention substituted variables are rebuilt (and
        simplified) after substitution.
        """
        if not assignment:
            return self
        result = QPoly()
        for monomial, coeff in self.terms.items():
            factor = QPoly.constant(coeff)
            for sym, exp in monomial:
                replacement = _substitute_symbol(sym, assignment)
                for _ in range(exp):
                    factor = factor * replacement
            result = result + factor
        return result

    def evaluate(self, assignment: Mapping[str, int]) -> Fraction:
        """Evaluate at an integer point.  Divs are evaluated with floor."""
        total = Fraction(0)
        for monomial, coeff in self.terms.items():
            value = coeff
            for sym, exp in monomial:
                value *= Fraction(_evaluate_symbol(sym, assignment)) ** exp
            total += value
        return total

    def evaluate_int(self, assignment: Mapping[str, int]) -> int:
        value = self.evaluate(assignment)
        if value.denominator != 1:
            raise ValueError(f"expected integral value, got {value} for {self} at {assignment}")
        return int(value)

    # ------------------------------------------------------------------
    # Symbolic summation (Faulhaber)
    # ------------------------------------------------------------------
    def sum_over(self, name: str, lower: "QPoly", upper: "QPoly") -> "QPoly":
        """Return ``sum_{name=lower}^{upper} self`` as a quasi-polynomial.

        ``self`` must be a polynomial in ``name`` (the variable must not occur
        inside div arguments); the caller is responsible for residue-splitting
        divs beforehand.  The result is valid whenever ``lower <= upper``.
        """
        if self.degree_in_divs(name):
            raise ValueError(f"cannot sum over {name}: it occurs inside a div argument")
        by_power: Dict[int, QPoly] = {}
        for monomial, coeff in self.terms.items():
            power = 0
            rest: List[Tuple[Symbol, int]] = []
            for sym, exp in monomial:
                if sym == name:
                    power = exp
                else:
                    rest.append((sym, exp))
            rest_mono = tuple(rest)
            partial = by_power.setdefault(power, QPoly())
            by_power[power] = partial + QPoly({rest_mono: coeff})
        total = QPoly()
        for power, factor in by_power.items():
            prefix_upper = power_sum_poly(power).substitute({"n": upper})
            prefix_lower = power_sum_poly(power).substitute({"n": lower - 1})
            total = total + factor * (prefix_upper - prefix_lower)
        return total

    def degree_in_divs(self, name: str) -> bool:
        for monomial in self.terms:
            for sym, _ in monomial:
                if isinstance(sym, Div) and _div_involves(sym, name):
                    return True
        return False


def _div_involves(div: Div, name: str) -> bool:
    for monomial, _ in div.items:
        for sym, _exp in monomial:
            if sym == name:
                return True
            if isinstance(sym, Div) and _div_involves(sym, name):
                return True
    return False


def _substitute_symbol(sym: Symbol, assignment: Mapping[str, Union[QPoly, Number]]) -> QPoly:
    if isinstance(sym, str):
        if sym in assignment:
            value = assignment[sym]
            return value if isinstance(value, QPoly) else QPoly.constant(value)
        return QPoly.variable(sym)
    argument = sym.argument().substitute(assignment)
    return floor_div(argument, sym.denominator)


def _evaluate_symbol(sym: Symbol, assignment: Mapping[str, int]) -> int:
    if isinstance(sym, str):
        if sym not in assignment:
            raise KeyError(f"no value for variable {sym!r}")
        return assignment[sym]
    value = sym.argument().evaluate(assignment)
    return _floor_fraction(value, sym.denominator)


def _floor_fraction(value: Fraction, denominator: int) -> int:
    scaled = value / denominator
    return scaled.numerator // scaled.denominator


def floor_div(argument: QPoly, denominator: int) -> QPoly:
    """Construct ``floor(argument / denominator)`` with light simplification.

    * constant arguments are folded;
    * integer multiples of the denominator are pulled out of the floor
      (``floor((d*q + r)/d) == q + floor(r/d)``), which keeps div arguments
      small and maximises sharing between accesses to the same cache line.
    """
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    if denominator == 1:
        return argument
    if argument.is_constant():
        value = argument.constant_value()
        return QPoly.constant(_floor_fraction(value, denominator))
    pulled = QPoly()
    remainder = QPoly()
    for monomial, coeff in argument.terms.items():
        if coeff.denominator == 1 and coeff.numerator % denominator == 0:
            pulled = pulled + QPoly({monomial: Fraction(coeff.numerator // denominator)})
        else:
            remainder = remainder + QPoly({monomial: coeff})
    if remainder.is_zero():
        return pulled
    if remainder.is_constant():
        return pulled + QPoly.constant(_floor_fraction(remainder.constant_value(), denominator))
    # Reduce by the gcd of the coefficients and the denominator so that the
    # smallest possible modulus is used (e.g. floor(8*i/64) becomes
    # floor(i/8)); this keeps residue splits during counting small.
    gcd = denominator
    integral = True
    for coeff in remainder.terms.values():
        if coeff.denominator != 1:
            integral = False
            break
        gcd = _gcd_int(gcd, abs(coeff.numerator))
    if integral and gcd > 1:
        remainder = remainder * Fraction(1, gcd)
        denominator //= gcd
        if denominator == 1:
            return pulled + remainder
    div = Div(remainder._canonical_items(), denominator)
    return pulled + QPoly.variable(div)


#: ``math.gcd`` is C-implemented; ``floor_div`` runs once per floor built by
#: the stack-distance pipeline, which makes this a measurable hot path.
_gcd_int = math.gcd


# ----------------------------------------------------------------------
# Faulhaber / Bernoulli machinery
# ----------------------------------------------------------------------
_BERNOULLI_CACHE: List[Fraction] = []
_POWER_SUM_CACHE: Dict[int, QPoly] = {}


def bernoulli_numbers(count: int) -> List[Fraction]:
    """First ``count`` Bernoulli numbers in the standard B1 = -1/2 convention."""
    global _BERNOULLI_CACHE
    while len(_BERNOULLI_CACHE) < count:
        m = len(_BERNOULLI_CACHE)
        if m == 0:
            _BERNOULLI_CACHE.append(Fraction(1))
            continue
        total = Fraction(0)
        for k in range(m):
            total += Fraction(_binomial(m + 1, k)) * _BERNOULLI_CACHE[k]
        _BERNOULLI_CACHE.append(-total / (m + 1))
    return _BERNOULLI_CACHE[:count]


def _binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    result = 1
    for i in range(min(k, n - k)):
        result = result * (n - i) // (i + 1)
    return result


def power_sum_poly(power: int) -> QPoly:
    """Polynomial ``F_k(n) = sum_{v=1}^{n} v^k`` in the variable ``n``.

    The polynomial identity extends to all integers ``n`` (for ``n <= 0`` it
    equals the signed analytic continuation), so differences
    ``F_k(U) - F_k(L-1)`` telescope correctly for every integer range.
    """
    if power < 0:
        raise ValueError("power must be non-negative")
    if power in _POWER_SUM_CACHE:
        return _POWER_SUM_CACHE[power]
    n = QPoly.variable("n")
    bernoullis = bernoulli_numbers(power + 1)
    total = QPoly()
    for j in range(power + 1):
        # Faulhaber's formula for sum_{v=1}^{n} v^k needs the B1 = +1/2
        # convention; the cache stores the standard B1 = -1/2, so flip j == 1.
        bern = -bernoullis[j] if j == 1 else bernoullis[j]
        coeff = Fraction(_binomial(power + 1, j)) * bern
        total = total + QPoly.constant(coeff) * _poly_power(n, power + 1 - j)
    result = total * Fraction(1, power + 1)
    _POWER_SUM_CACHE[power] = result
    return result


def _poly_power(poly: QPoly, exponent: int) -> QPoly:
    result = QPoly.constant(1)
    for _ in range(exponent):
        result = result * poly
    return result


# ----------------------------------------------------------------------
# Small convenience constructors used throughout the code base
# ----------------------------------------------------------------------
def constant(value: Number) -> QPoly:
    return QPoly.constant(value)


def variable(name: Symbol) -> QPoly:
    return QPoly.variable(name)


def affine_expr(coeffs: Mapping[Symbol, Number], const: Number = 0) -> QPoly:
    return QPoly.from_affine(coeffs, const)
