"""Counting the capacity misses (Algorithm 1 of the paper).

Given the distance pieces of an access, the capacity misses for a cache of
``C`` lines are the iteration-domain points whose stack distance exceeds
``C``.  Affine (degree <= 1) pieces are counted symbolically; non-affine
pieces first go through the floor-elimination rewrites (equalization,
rasterization) and finally through *partial enumeration*: only the dimensions
that make the polynomial non-affine are enumerated explicitly while the
remaining dimensions are still counted symbolically.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from ..isl.constraints import ConstraintSystem, enumerate_points, ge
from ..isl.counting import CountingError, Piece, cardinality, count_points, piecewise_values
from ..isl.qpoly import Div, QPoly
from ..isl.veceval import check_backend
from ..isl.work import charge
from .distance import DistancePiece
from .elimination import equalize, rasterize
from .prevmap import ModelFallbackRequired
from .regions import feasible

__all__ = ["CAPACITY_PARAM", "CapacityCounter", "CapacityCountStats", "CounterOptions"]

#: Fresh parameter name standing for the cache capacity (in lines) in the
#: parametric miss counts behind :meth:`CapacityCounter.count_curve`.  The
#: ``$`` keeps it disjoint from loop variables, like ``cnt$`` in
#: :mod:`repro.core.distance`.
CAPACITY_PARAM = "cap$"


@dataclass
class CounterOptions:
    """Feature toggles for the ablation study of Figure 14."""

    equalization: bool = True
    rasterization: bool = True
    partial_enumeration: bool = True
    #: Hard limit on the number of explicitly enumerated points before the
    #: counter gives up and requests a model-level fallback.
    max_enumerated_points: int = 2_000_000


@dataclass
class CapacityCountStats:
    """Statistics of one counting run (pieces, splits, enumerated points)."""

    pieces_counted: int = 0
    affine_pieces: int = 0
    nonaffine_pieces: int = 0
    equalized_pieces: int = 0
    rasterized_pieces: int = 0
    enumerated_points: int = 0
    #: Curve building: pieces whose full capacity axis was covered by one
    #: parametric count, and pieces that fell back to per-capacity counting.
    parametric_pieces: int = 0
    parametric_fallbacks: int = 0
    #: For every non-affine polynomial encountered: the number of dimensions
    #: that could still be counted symbolically (Table 1 of the paper).
    nonaffine_affine_dims: List[int] = field(default_factory=list)

    def merge(self, other: "CapacityCountStats") -> None:
        self.pieces_counted += other.pieces_counted
        self.affine_pieces += other.affine_pieces
        self.nonaffine_pieces += other.nonaffine_pieces
        self.equalized_pieces += other.equalized_pieces
        self.rasterized_pieces += other.rasterized_pieces
        self.enumerated_points += other.enumerated_points
        self.parametric_pieces += other.parametric_pieces
        self.parametric_fallbacks += other.parametric_fallbacks
        self.nonaffine_affine_dims.extend(other.nonaffine_affine_dims)


class CapacityCounter:
    """Counts cache misses of distance pieces against a cache capacity.

    Results are **exact**: every public method returns the precise number of
    iteration-domain points whose stack distance exceeds the capacity, or
    raises :class:`~repro.core.prevmap.ModelFallbackRequired` when the
    symbolic machinery cannot produce it — the counter never approximates.

    ``cardinality_cache`` (see :class:`repro.engine.cache.CardinalityCache`)
    memoizes the symbolic counts; sharing one cache across the hierarchy
    levels of an access means e.g. a constant-distance piece whose domain is
    counted for L1 is served from the cache for L2 and L3.  The counter also
    memoizes per-piece rewrites, partial-enumeration expansions and
    parametric chambers internally (keyed by piece identity), so asking for
    several capacities or grids reuses the capacity-independent work.

    Every piece visited by :meth:`count_misses`/:meth:`count_curve` charges
    one unit to the active work budget (:func:`repro.isl.work.charge`), as
    do the symbolic primitives underneath (feasibility checks, counting
    recursion).  The budget is scoped to the calling thread or task context.
    Charges depend only on the pieces and options — never on cache warmth or
    the ``backend``.

    ``backend`` (``"numpy"|"python"``, see
    :func:`repro.isl.veceval.check_backend`) selects how parametric
    chamber counts are evaluated over capacity grids; both backends produce
    byte-identical results, NumPy just does it in bulk array ops.
    """

    #: Partial-enumeration expansions above this many points are not memoized
    #: across hierarchy levels (memory guard; they are recomputed instead).
    MAX_CACHED_ENUMERATION = 100_000

    def __init__(
        self,
        loop_vars: Sequence[str],
        options: Optional[CounterOptions] = None,
        *,
        cardinality_cache=None,
        backend: str = "numpy",
    ) -> None:
        self.loop_vars = list(loop_vars)
        self.options = options or CounterOptions()
        self.stats = CapacityCountStats()
        self.cardinality_cache = cardinality_cache
        #: Evaluation backend for parametric chamber grids.
        self.backend = check_backend(backend)
        # The same distance pieces are counted once per hierarchy level, but
        # the floor-elimination rewrites and the partial-enumeration point
        # expansion do not depend on the capacity — memoize them per piece
        # object so L2/L3 reuse the work done for L1.  Keyed by id() with the
        # piece kept in the value so identity cannot be recycled.
        self._rewrite_cache: Dict[int, tuple] = {}
        self._enumeration_cache: Dict[int, tuple] = {}
        #: Memoized parametric miss counts per affine piece (the chambers of
        #: the capacity axis); ``None`` records a failed parametric attempt
        #: so later grids go straight to the per-capacity fallback.
        self._chamber_cache: Dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def count_misses(self, pieces: Sequence[DistancePiece], capacity_lines: int) -> int:
        """Total number of accesses whose stack distance exceeds the capacity."""
        total = 0
        for piece in pieces:
            total += self._count_piece(piece, capacity_lines)
        return total

    def count_curve(self, pieces: Sequence[DistancePiece], capacities: Sequence[int]) -> List[int]:
        """Miss counts for *every* capacity of a sorted grid in one pass.

        This is the symbolic half of the miss-curve layer (see
        :mod:`repro.core.curve`): instead of re-walking the pieces once per
        capacity, every piece is partitioned along the capacity axis exactly
        once —

        * a **constant** piece of value ``v`` misses all capacities below
          ``v``; one (memoized) domain cardinality covers the whole grid;
        * an **affine** piece is counted *parametrically*: the capacity
          becomes a fresh parameter (:data:`CAPACITY_PARAM`) and one
          :func:`~repro.isl.counting.count_points` call yields the chambers
          of the capacity axis with a count polynomial each, evaluated at
          every grid point by plain arithmetic.  If the parametric count
          fails (or produces a non-monotone artefact) the piece degrades to
          exact per-capacity counting;
        * a **non-affine** piece goes through the same memoized
          equalization/rasterization rewrites and partial-enumeration point
          expansion as :meth:`count_misses`, with the bound sub-pieces
          handled as above.

        Returns one miss count per entry of ``capacities`` — identical to
        ``[count_misses(pieces, c) for c in capacities]``, at a cost that is
        nearly independent of the grid size.
        """
        grid = list(capacities)
        if not grid:
            raise ValueError("count_curve needs at least one capacity")
        if grid[0] < 0:
            raise ValueError(f"capacities must be >= 0 lines, got {grid[0]}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"capacities must be strictly ascending: {grid}")
        totals = [0] * len(grid)
        for piece in pieces:
            self._curve_piece(piece, grid, totals)
        return totals

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def _count_piece(self, piece: DistancePiece, capacity_lines: int) -> int:
        charge()
        self.stats.pieces_counted += 1
        polynomial = piece.polynomial
        if polynomial.is_constant():
            self.stats.affine_pieces += 1
            if polynomial.constant_value() > capacity_lines:
                return self._cardinality(piece.domain)
            return 0
        if polynomial.is_affine():
            self.stats.affine_pieces += 1
            return self._count_affine(piece, capacity_lines)

        # Non-affine piece: try the floor-elimination rewrites first.  The
        # rewrite result is capacity-independent and memoized, so only the
        # first hierarchy level pays for it; the statistics still count one
        # (cached) rewrite per level, exactly like the uncached code did.
        kind, rewritten = self._nonaffine_rewrite(piece)
        if kind == "equalized":
            self.stats.equalized_pieces += 1
            return sum(self._count_piece(sub, capacity_lines) for sub in rewritten)
        if kind == "rasterized":
            self.stats.rasterized_pieces += 1
            return sum(self._count_piece(sub, capacity_lines) for sub in rewritten)

        self.stats.nonaffine_pieces += 1
        return self._count_partial_enumeration(piece, capacity_lines)

    def _nonaffine_rewrite(self, piece: DistancePiece):
        """Memoized equalization/rasterization of one non-affine piece.

        Returns ``(kind, sub_pieces)`` with ``kind`` in ``"equalized"``,
        ``"rasterized"`` or ``None`` (no rewrite applies).  Caching the sub
        pieces also makes their *own* nested rewrites cache hits on later
        levels, because the recursion sees the identical objects again.
        """
        cached = self._rewrite_cache.get(id(piece))
        if cached is not None and cached[0] is piece:
            return cached[1], cached[2]
        kind = None
        rewritten = None
        if self.options.equalization:
            rewritten = equalize(piece)
            if rewritten is not None:
                kind = "equalized"
        if kind is None and self.options.rasterization:
            rewritten = rasterize(piece)
            if rewritten is not None:
                kind = "rasterized"
        self._rewrite_cache[id(piece)] = (piece, kind, rewritten)
        return kind, rewritten

    # ------------------------------------------------------------------
    # Curve construction (Algorithm 1 along the whole capacity axis)
    # ------------------------------------------------------------------
    def _curve_piece(self, piece: DistancePiece, grid: List[int], totals: List[int]) -> None:
        charge()
        self.stats.pieces_counted += 1
        polynomial = piece.polynomial
        if polynomial.is_constant():
            self.stats.affine_pieces += 1
            self._curve_constant(piece, grid, totals)
            return
        if polynomial.is_affine():
            self.stats.affine_pieces += 1
            self._curve_affine(piece, grid, totals)
            return
        kind, rewritten = self._nonaffine_rewrite(piece)
        if kind == "equalized":
            self.stats.equalized_pieces += 1
            for sub in rewritten:
                self._curve_piece(sub, grid, totals)
            return
        if kind == "rasterized":
            self.stats.rasterized_pieces += 1
            for sub in rewritten:
                self._curve_piece(sub, grid, totals)
            return
        self.stats.nonaffine_pieces += 1
        self._curve_partial_enumeration(piece, grid, totals)

    def _curve_constant(self, piece: DistancePiece, grid: List[int], totals: List[int]) -> None:
        """A constant distance ``v`` misses exactly the capacities below ``v``."""
        value = piece.polynomial.constant_value()
        split = bisect_left(grid, value)
        if split == 0:
            return
        count = self._cardinality(piece.domain)
        for index in range(split):
            totals[index] += count

    def _curve_affine(
        self, piece: DistancePiece, grid: List[int], totals: List[int], *, memoize: bool = True
    ) -> None:
        """One parametric count covers the grid; per-capacity on failure."""
        chambers = self._parametric_chambers(piece, memoize=memoize)
        if chambers is not None:
            values = piecewise_values(chambers, {CAPACITY_PARAM: grid}, backend=self.backend)
            # Exactness guard: the true per-piece curve is non-negative and
            # non-increasing, so any parametric artefact (however unlikely)
            # degrades to the exact per-capacity path instead of corrupting
            # the result.
            if values is not None and _is_monotone_curve(values):
                self.stats.parametric_pieces += 1
                for index, value in enumerate(values):
                    totals[index] += value
                return
        self.stats.parametric_fallbacks += 1
        for index, capacity_lines in enumerate(grid):
            totals[index] += self._count_affine(piece, capacity_lines)

    def _parametric_chambers(
        self, piece: DistancePiece, *, memoize: bool = True
    ) -> Optional[List[Piece]]:
        """Chambers of ``|{x in domain : poly(x) > C}|`` over the capacity C.

        Memoized per piece object (like the rewrite and enumeration caches);
        a failed attempt is memoized as ``None`` so later grids skip straight
        to the per-capacity fallback.  Partial-enumeration bound sub-pieces
        pass ``memoize=False``: they are fresh objects per expansion replay
        (never cache hits) and there can be up to ``max_enumerated_points``
        of them, so pinning their chambers would defeat the
        :attr:`MAX_CACHED_ENUMERATION` memory guard.

        Chambers that still involve a variable other than the capacity (a
        free parameter the per-capacity path maps to a model fallback) are
        rejected here, so evaluation stays pure arithmetic over ``cap$``.
        """
        if memoize:
            cached = self._chamber_cache.get(id(piece))
            if cached is not None and cached[0] is piece:
                return cached[1]
        capacity = QPoly.variable(CAPACITY_PARAM)
        system = piece.domain.conjoin(
            [ge(piece.polynomial - capacity - 1, 0), ge(capacity, 0)]
        )
        count_vars = [v for v in self.loop_vars if system.involves(v)]
        chambers: Optional[List[Piece]]
        try:
            chambers = count_points(system, count_vars)
        except CountingError:
            chambers = None
        if chambers is not None and any(
            (domain.variables() | polynomial.free_variables()) - {CAPACITY_PARAM}
            for domain, polynomial in chambers
        ):
            chambers = None
        if memoize:
            self._chamber_cache[id(piece)] = (piece, chambers)
        return chambers

    def _curve_partial_enumeration(
        self, piece: DistancePiece, grid: List[int], totals: List[int]
    ) -> None:
        """Point expansion once, then every bound sub-piece covers the grid."""
        enumeration_vars = self._enumeration_variables(piece.polynomial)
        symbolic_dims = len([v for v in self.loop_vars if v not in enumeration_vars])
        self.stats.nonaffine_affine_dims.append(symbolic_dims)
        if not self.options.partial_enumeration:
            enumeration_vars = [
                v for v in self.loop_vars if piece.domain.involves(v) or piece.polynomial.involves(v)
            ]
        if not enumeration_vars:
            raise ModelFallbackRequired("non-affine piece without enumerable dimensions")
        for bound_piece in self._bound_pieces(piece, enumeration_vars):
            self.stats.enumerated_points += 1
            if self.stats.enumerated_points > self.options.max_enumerated_points:
                raise ModelFallbackRequired("partial enumeration exceeded the point budget")
            bound_poly = bound_piece.polynomial
            if bound_poly.is_constant():
                self._curve_constant(bound_piece, grid, totals)
            elif bound_poly.is_affine():
                self._curve_affine(bound_piece, grid, totals, memoize=False)
            else:
                raise ModelFallbackRequired("partial enumeration left a non-affine polynomial")

    def _count_affine(self, piece: DistancePiece, capacity_lines: int) -> int:
        miss_set = piece.domain.conjoin([ge(piece.polynomial - (capacity_lines + 1), 0)])
        if not feasible(miss_set):
            return 0
        return self._cardinality(miss_set)

    def _count_partial_enumeration(self, piece: DistancePiece, capacity_lines: int) -> int:
        """Enumerate the non-affine dimensions, count the rest symbolically."""
        enumeration_vars = self._enumeration_variables(piece.polynomial)
        symbolic_dims = len([v for v in self.loop_vars if v not in enumeration_vars])
        self.stats.nonaffine_affine_dims.append(symbolic_dims)
        if not self.options.partial_enumeration:
            # Explicit enumeration of all dimensions (the Figure 14 baseline).
            enumeration_vars = [v for v in self.loop_vars if piece.domain.involves(v) or piece.polynomial.involves(v)]
        if not enumeration_vars:
            raise ModelFallbackRequired("non-affine piece without enumerable dimensions")
        total = 0
        for bound_piece in self._bound_pieces(piece, enumeration_vars):
            self.stats.enumerated_points += 1
            if self.stats.enumerated_points > self.options.max_enumerated_points:
                raise ModelFallbackRequired("partial enumeration exceeded the point budget")
            bound_poly = bound_piece.polynomial
            if bound_poly.is_affine():
                if bound_poly.is_constant():
                    if bound_poly.constant_value() > capacity_lines:
                        total += self._cardinality(bound_piece.domain)
                else:
                    total += self._count_affine(bound_piece, capacity_lines)
            else:
                # Should not happen: binding the selected dimensions makes the
                # polynomial affine by construction; guard for safety.
                raise ModelFallbackRequired("partial enumeration left a non-affine polynomial")
        return total

    def _bound_pieces(self, piece: DistancePiece, enumeration_vars: List[str]):
        """Capacity-independent point expansion of a non-affine piece.

        Enumerating the selected dimensions and substituting each point into
        domain and polynomial is the expensive half of partial enumeration
        and does not depend on the cache size, so the expanded sub-pieces are
        memoized per piece and replayed for the remaining hierarchy levels
        (subject to a size guard — gigantic expansions are recomputed rather
        than held in memory).
        """
        cached = self._enumeration_cache.get(id(piece))
        if cached is not None and cached[0] is piece and cached[1] == enumeration_vars:
            yield from cached[2]
            return
        collected: Optional[List[DistancePiece]] = []
        for point in enumerate_points(piece.domain, enumeration_vars):
            bound = DistancePiece(piece.domain.substitute(point), piece.polynomial.substitute(point))
            if collected is not None:
                collected.append(bound)
                if len(collected) > self.MAX_CACHED_ENUMERATION:
                    collected = None
            yield bound
        if collected is not None:
            self._enumeration_cache[id(piece)] = (piece, list(enumeration_vars), collected)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _cardinality(self, domain: ConstraintSystem) -> int:
        count_vars = [v for v in self.loop_vars if domain.involves(v)]
        try:
            if self.cardinality_cache is not None:
                return self.cardinality_cache.cardinality(domain, count_vars)
            return cardinality(domain, count_vars)
        except CountingError as exc:
            raise ModelFallbackRequired(f"symbolic cardinality failed: {exc}") from exc

    def _enumeration_variables(self, polynomial: QPoly) -> List[str]:
        """Greedy choice of dimensions whose binding makes the poly affine."""
        selected: List[str] = []
        while not _is_affine_given(polynomial, set(selected)):
            counts: Dict[str, int] = {}
            for monomial in polynomial.terms:
                if _monomial_degree_given(monomial, set(selected)) <= 1:
                    continue
                for name in _monomial_variables(monomial):
                    if name not in selected:
                        counts[name] = counts.get(name, 0) + 1
            if not counts:
                break
            best = max(sorted(counts), key=lambda name: counts[name])
            selected.append(best)
        return selected


def _is_monotone_curve(values: Sequence[int]) -> bool:
    """Non-negative and non-increasing — every true per-piece curve is."""
    return all(value >= 0 for value in values) and all(
        later <= earlier for earlier, later in zip(values, values[1:])
    )


def _monomial_variables(monomial) -> Set[str]:
    names: Set[str] = set()
    for sym, _ in monomial:
        if isinstance(sym, Div):
            names |= {v for v in sym.argument().free_variables()}
        else:
            names.add(sym)
    return names


def _monomial_degree_given(monomial, fixed: Set[str]) -> int:
    degree = 0
    for sym, exp in monomial:
        if isinstance(sym, Div):
            free = sym.argument().free_variables()
            if free and free.issubset(fixed):
                continue
        elif sym in fixed:
            continue
        degree += exp
    return degree


def _is_affine_given(polynomial: QPoly, fixed: Set[str]) -> bool:
    return all(_monomial_degree_given(monomial, fixed) <= 1 for monomial in polynomial.terms)
