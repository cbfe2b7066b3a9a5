"""Deterministic work accounting for the symbolic kernel primitives.

The polyhedral substrate can blow up combinatorially (residue splits,
Fourier-Motzkin pair products, chamber decompositions).  :class:`WorkBudget`
bounds that work with a *deterministic* unit count instead of wall-clock
time.  The direct charge points are rational feasibility checks
(:func:`repro.isl.constraints.feasible_rational`, charged before the memo
lookup) and counting recursion steps
(:meth:`repro.isl.counting._CountState.count`); lexicographic optimisation
and point enumeration charge indirectly through the feasibility checks they
issue per candidate.  All of these are invocation counts that depend only on
the analyzed program — not on cache warmth, machine speed, or worker
scheduling.  A budgeted analysis
therefore trips at exactly the same point on every run and on every worker
of a batch, which keeps parallel results byte-identical to sequential ones.

The budget is activated per analysis job via :func:`active_budget`; the
primitives call the module-level :func:`charge`, which is a no-op when no
budget is active (the default, and the library behaviour).  The active
budget lives in a :class:`contextvars.ContextVar`, so it is scoped to the
calling thread or task context: analyses running at the same time in
different threads (``asyncio.to_thread`` copies the caller's context) each
charge only their own budget.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

__all__ = ["BudgetExhausted", "WorkBudget", "active_budget", "charge"]


class BudgetExhausted(Exception):
    """Raised when a symbolic analysis exceeds its deterministic work budget."""


class WorkBudget:
    """Counts abstract work units and trips once the limit is exceeded."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: Optional[int] = None) -> None:
        if limit is not None and limit <= 0:
            raise ValueError(f"work budget must be positive or None, got {limit}")
        self.limit = limit
        self.used = 0

    def charge(self, amount: int = 1) -> None:
        """Consume ``amount`` units; raise :class:`BudgetExhausted` when spent."""
        self.used += amount
        if self.limit is not None and self.used > self.limit:
            raise BudgetExhausted(
                f"symbolic work budget exhausted ({self.used} > {self.limit} units)"
            )

    @property
    def exhausted(self) -> bool:
        return self.limit is not None and self.used > self.limit

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"WorkBudget(used={self.used}, limit={self.limit})"


_ACTIVE: ContextVar[Optional[WorkBudget]] = ContextVar("repro_work_budget", default=None)


def charge(amount: int = 1) -> None:
    """Charge the active budget, if any (hot path: cheap no-op otherwise)."""
    budget = _ACTIVE.get()
    if budget is not None:
        budget.charge(amount)


@contextmanager
def active_budget(budget: Optional[WorkBudget]) -> Iterator[Optional[WorkBudget]]:
    """Make ``budget`` the active budget of this context for the block."""
    token = _ACTIVE.set(budget)
    try:
        yield budget
    finally:
        _ACTIVE.reset(token)
