"""Memoizing cache around :func:`repro.isl.counting.cardinality`.

The analytical model counts the same polyhedral sets repeatedly: the domain
of a constant-distance piece is counted once per cache level, and identical
references of different statements produce structurally equal first-touch
domains and miss sets.  The symbolic counter re-derives every count from
scratch, so memoizing on a canonical form of ``(domain, count_vars)`` removes
real work from the hot path.

Constraint systems store their constraints normalized (coprime integer
coefficients, tightest bound per direction), so the canonical key is simply
the unordered set of the constraints' integer rows
(:meth:`~repro.isl.constraints.ConstraintSystem.row_set`); two systems that
describe the same conjunction in a different order or construction history
hash to the same key.

A cache instance is created per analysis job (see
:meth:`repro.core.model.CacheModel.analyze`) and its hit/miss statistics are
surfaced in :class:`repro.core.results.TimingBreakdown`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from ..isl.constraints import ConstraintSystem
from ..isl.counting import cardinality as _cardinality

__all__ = ["CardinalityCache", "CardinalityCacheStats", "canonical_key"]


def canonical_key(system: ConstraintSystem, count_vars: Sequence[str]) -> Tuple:
    """Hashable canonical form of a counting problem.

    The constraint set is order-insensitive (a frozenset) because
    :meth:`ConstraintSystem.add` already normalizes and deduplicates
    constraints; the count variables stay ordered because the summation
    order is part of the problem statement.
    """
    return (system.row_set(), tuple(count_vars))


@dataclass
class CardinalityCacheStats:
    """Hit/miss counters of one cache instance."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "CardinalityCacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses


class CardinalityCache:
    """Memoizes integer-point counts of non-parametric sets.

    The cache stores plain integers, so sharing one instance across the
    levels and accesses of a job is always sound: two counting problems with
    the same canonical key have the same cardinality by construction.
    """

    def __init__(self) -> None:
        self._store: Dict[Tuple, int] = {}
        self.stats = CardinalityCacheStats()

    def __len__(self) -> int:
        return len(self._store)

    def cardinality(self, system: ConstraintSystem, count_vars: Sequence[str]) -> int:
        """Cached equivalent of :func:`repro.isl.counting.cardinality`.

        Errors are not cached: a :class:`CountingError` propagates to the
        caller (which typically requests a model-level fallback), and the
        next lookup of the same key recomputes.
        """
        key = canonical_key(system, count_vars)
        try:
            value = self._store[key]
        except KeyError:
            self.stats.misses += 1
            value = _cardinality(system, count_vars)
            self._store[key] = value
            return value
        self.stats.hits += 1
        return value

    def clear(self) -> None:
        self._store.clear()
        self.stats = CardinalityCacheStats()
