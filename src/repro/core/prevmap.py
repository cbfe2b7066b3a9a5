"""Computation of the previous-access map (the paper's ``next map`` N^-1).

For every access instance (statement instance + array reference) the
*previous access* is the schedule-latest earlier access that touches the same
cache line.  The paper obtains it as ``lexmin(L< ∩ E)`` with isl; here it is
computed per candidate source reference with the parametric lexicographic
optimisation of :mod:`repro.isl.lexopt` and the candidates are combined into
a disjoint piecewise map by comparing their schedule values.

The regions where no previous access exists are exactly the compulsory
misses (paper Section 3.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..isl.constraints import ConstraintSystem, UnboundedSetError, eq
from ..isl.lexopt import LexOptError, lexmax
from ..isl.qpoly import QPoly
from ..isl.work import charge
from ..scop.scop import Scop
from .refs import AccessInstance, all_access_instances
from .regions import feasible, lex_compare_exprs, lex_order_disjuncts, subtract

__all__ = ["ModelFallbackRequired", "PrevCandidate", "PrevRegion", "PrevMapBuilder"]

SOURCE_PREFIX = "src$"


class ModelFallbackRequired(Exception):
    """Raised when the symbolic pipeline cannot handle a program exactly.

    The top-level model catches this and falls back to the trace-based
    reference computation, mirroring the paper's philosophy of degrading to
    (partial) enumeration rather than approximating.
    """


@dataclass
class PrevCandidate:
    """One candidate previous access, valid on ``domain``."""

    domain: ConstraintSystem
    source: AccessInstance
    #: Source iteration vector as expressions over the target's loop variables.
    source_values: Tuple[QPoly, ...]
    #: Schedule value of the candidate access over the target's loop variables.
    schedule: Tuple[QPoly, ...]


@dataclass
class PrevRegion:
    """A region of the target's domain with its previous access (or none)."""

    domain: ConstraintSystem
    candidate: Optional[PrevCandidate]

    @property
    def is_first_touch(self) -> bool:
        return self.candidate is None


class PrevMapBuilder:
    """Builds and caches previous-access maps for all accesses of a SCoP.

    Charges the active work budget (:func:`repro.isl.work.charge`, scoped to
    the calling thread or task context) per candidate disjunct and per
    region merge, so runaway kernels trip a deterministic fallback instead of
    running unbounded.
    """

    def __init__(self, scop: Scop, *, line_size: int = 64) -> None:
        self.scop = scop
        self.line_size = line_size
        self.schedule_length = scop.schedule_length()
        self.accesses = all_access_instances(scop)
        self._cache: Dict[Tuple[str, int], List[PrevRegion]] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def prev_regions(self, target: AccessInstance) -> List[PrevRegion]:
        if target.key not in self._cache:
            self._cache[target.key] = self._compute(target)
        return self._cache[target.key]

    def all_prev_regions(self) -> Dict[Tuple[str, int], List[PrevRegion]]:
        for access in self.accesses:
            self.prev_regions(access)
        return dict(self._cache)

    # ------------------------------------------------------------------
    # Candidate generation
    # ------------------------------------------------------------------
    def _compute(self, target: AccessInstance) -> List[PrevRegion]:
        candidates: List[PrevCandidate] = []
        for source in self.accesses:
            if source.ref.array.name != target.ref.array.name:
                continue
            candidates.extend(self._candidates_from_source(target, source))
        return self._combine(target, candidates)

    def _candidates_from_source(self, target: AccessInstance, source: AccessInstance) -> List[PrevCandidate]:
        length = self.schedule_length
        src_vars = source.loop_vars(SOURCE_PREFIX)
        base = target.domain().conjoin(source.domain(SOURCE_PREFIX))
        target_lines = target.line_exprs(self.line_size)
        source_lines = source.line_exprs(self.line_size, SOURCE_PREFIX)
        for target_expr, source_expr in zip(target_lines, source_lines):
            base.add(eq(source_expr, target_expr))
        if not feasible(base):
            return []

        source_schedule = source.schedule_exprs(length, SOURCE_PREFIX)
        target_schedule = target.schedule_exprs(length)
        candidates: List[PrevCandidate] = []
        for disjunct in lex_order_disjuncts(source_schedule, target_schedule, strict=True):
            charge()
            system = base.conjoin(disjunct, pre_normalized=True)
            if not feasible(system):
                continue
            try:
                pieces = lexmax(system, src_vars)
            except (LexOptError, UnboundedSetError) as exc:
                raise ModelFallbackRequired(
                    f"previous-access map of {target!r} from {source!r} is not exactly computable: {exc}"
                ) from exc
            for context, values in pieces:
                assignment = dict(zip(src_vars, values))
                schedule = tuple(expr.substitute(assignment) for expr in source_schedule)
                candidates.append(
                    PrevCandidate(
                        domain=context,
                        source=source,
                        source_values=tuple(values),
                        schedule=schedule,
                    )
                )
        return candidates

    # ------------------------------------------------------------------
    # Combination
    # ------------------------------------------------------------------
    def _combine(self, target: AccessInstance, candidates: List[PrevCandidate]) -> List[PrevRegion]:
        regions: List[PrevRegion] = [PrevRegion(target.domain(), None)]
        for candidate in candidates:
            regions = self._merge_candidate(regions, candidate)
        return [region for region in regions if feasible(region.domain)]

    def _merge_candidate(self, regions: List[PrevRegion], candidate: PrevCandidate) -> List[PrevRegion]:
        updated: List[PrevRegion] = []
        for region in regions:
            charge()
            overlap = region.domain.conjoin(candidate.domain)
            if not feasible(overlap):
                updated.append(region)
                continue
            for piece in subtract(region.domain, candidate.domain):
                updated.append(PrevRegion(piece, region.candidate))
            if region.candidate is None:
                updated.append(PrevRegion(overlap, candidate))
                continue
            old_wins, new_wins = lex_compare_exprs(region.candidate.schedule, candidate.schedule, overlap)
            for domain in old_wins:
                updated.append(PrevRegion(domain, region.candidate))
            for domain in new_wins:
                updated.append(PrevRegion(domain, candidate))
        return updated
