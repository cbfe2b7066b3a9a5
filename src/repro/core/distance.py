"""Symbolic backward stack distances for every access of a SCoP.

For a target access ``x`` with previous same-line access ``p(x)`` the backward
stack distance is the number of *distinct cache lines* touched in the reuse
window ``[p(x), x]`` (inclusive on both ends, exactly the quantity of the
paper's running example).  The reproduction counts it with the *first-touch*
identity::

    distance(x) = #{ accesses k in the window | k is the first access of its
                     cache line inside the window }

An access ``k`` is the first access of its line inside the window iff it has
no previous access at all or its previous access lies before the window
start.  Both conditions are affine once the previous-access map is available,
so each contribution is a parametric point count handled by
:mod:`repro.isl.counting`.  This formulation is mathematically identical to
the paper's ``|A ∘ (F ∩ B)|`` image count but avoids counting the points of
a projection, which :mod:`repro.isl.counting` does not support.

The result for every access is a list of disjoint pieces ``(domain,
quasi-polynomial)`` over the statement's loop variables — the paper's
*distance set* D — plus the first-touch (compulsory) regions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..isl.constraints import Constraint, ConstraintSystem
from ..isl.counting import CountingError, count_points
from ..isl.qpoly import QPoly
from ..isl.work import charge
from ..scop.scop import Scop
from .prevmap import ModelFallbackRequired, PrevMapBuilder, PrevRegion
from .refs import AccessInstance, rename_map
from .regions import feasible, lex_order_disjuncts, subtract

__all__ = ["AccessDistances", "DistancePiece", "StackDistanceAnalysis"]

COUNT_PREFIX = "cnt$"


@dataclass
class DistancePiece:
    """Backward stack distance on a sub-domain of the target's iterations."""

    domain: ConstraintSystem
    polynomial: QPoly

    def is_affine(self) -> bool:
        return self.polynomial.is_affine()


@dataclass
class AccessDistances:
    """Distance information for one access instance."""

    access: AccessInstance
    #: Pieces with a defined backward stack distance.
    pieces: List[DistancePiece] = field(default_factory=list)
    #: Regions whose accesses touch their cache line for the first time.
    first_touch_domains: List[ConstraintSystem] = field(default_factory=list)

    def piece_count(self) -> int:
        return len(self.pieces)


@dataclass
class _WitnessPiece:
    """One previous-access region of a witness, renamed to count variables."""

    domain: ConstraintSystem
    #: Schedule of the witness's previous access; ``None`` on a first touch.
    prev_schedule: Optional[Tuple[QPoly, ...]]


@dataclass
class _Witness:
    """An access whose first touches are counted inside reuse windows."""

    access: AccessInstance
    loop_vars: List[str]
    domain: ConstraintSystem
    schedule: Tuple[QPoly, ...]
    pieces: List[_WitnessPiece]


class StackDistanceAnalysis:
    """Computes the symbolic stack distances of every access of a SCoP.

    Charges the active work budget (:func:`repro.isl.work.charge`, scoped to
    the calling thread or task context) one unit per reuse-window system
    that reaches its leaf and one per accumulation step, so heavy kernels
    trip a deterministic fallback.  The reuse-window search checks each
    prefix of a system (target region with witness piece, then each lower
    and each upper lex disjunct) before building anything under it; every
    such check is a feasibility call and costs its unit there, and a leaf
    under an empty prefix is never built, charged or checked.
    """

    def __init__(self, scop: Scop, *, line_size: int = 64) -> None:
        self.scop = scop
        self.line_size = line_size
        self.prev_builder = PrevMapBuilder(scop, line_size=line_size)
        self.schedule_length = scop.schedule_length()
        #: Wall-clock seconds spent in the stack-distance phase (Figure 11).
        self.elapsed_seconds: float = 0.0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def analyze(self) -> List[AccessDistances]:
        start = time.perf_counter()
        prev_maps = self.prev_builder.all_prev_regions()
        witnesses = self._witnesses(prev_maps)
        results = []
        for access in self.prev_builder.accesses:
            results.append(self._distances_for(access, prev_maps, witnesses))
        self.elapsed_seconds = time.perf_counter() - start
        return results

    # ------------------------------------------------------------------
    # Per-access computation
    # ------------------------------------------------------------------
    def _witnesses(self, prev_maps: Dict[Tuple[str, int], List[PrevRegion]]) -> List[_Witness]:
        """Every access with its domain, schedule and regions over count variables."""
        witnesses = []
        for access in self.prev_builder.accesses:
            rename = rename_map(access.statement, COUNT_PREFIX)
            pieces = []
            for region in prev_maps[access.key]:
                prev_schedule = None
                if not region.is_first_touch:
                    prev_schedule = tuple(expr.substitute(rename) for expr in region.candidate.schedule)
                pieces.append(_WitnessPiece(region.domain.substitute(rename), prev_schedule))
            witnesses.append(
                _Witness(
                    access=access,
                    loop_vars=access.loop_vars(COUNT_PREFIX),
                    domain=access.domain(COUNT_PREFIX),
                    schedule=access.schedule_exprs(self.schedule_length, COUNT_PREFIX),
                    pieces=pieces,
                )
            )
        return witnesses

    def _distances_for(
        self,
        target: AccessInstance,
        prev_maps: Dict[Tuple[str, int], List[PrevRegion]],
        witnesses: List[_Witness],
    ) -> AccessDistances:
        result = AccessDistances(access=target)
        target_schedule = target.schedule_exprs(self.schedule_length)
        for region in prev_maps[target.key]:
            if region.is_first_touch:
                result.first_touch_domains.append(region.domain)
                continue
            window_start = region.candidate.schedule
            contributions = self._window_contributions(region, window_start, target_schedule, witnesses)
            result.pieces.extend(self._accumulate(region.domain, contributions))
        return result

    def _window_contributions(
        self,
        region: PrevRegion,
        window_start: Sequence[QPoly],
        window_end: Sequence[QPoly],
        witnesses: List[_Witness],
    ) -> List[Tuple[ConstraintSystem, QPoly]]:
        """First-touch counts contributed by every access of the program.

        A leaf system is region ∧ witness domain ∧ witness piece ∧ one lower,
        one upper and one first-touch lex disjunct, built in that order.  Each
        prefix is checked once and shared by every leaf under it.
        """
        contributions: List[Tuple[ConstraintSystem, QPoly]] = []
        for witness in witnesses:
            lower_disjuncts = lex_order_disjuncts(window_start, witness.schedule, strict=False)
            upper_disjuncts = lex_order_disjuncts(witness.schedule, window_end, strict=False)
            if not lower_disjuncts or not upper_disjuncts:
                continue
            with_witness = region.domain.conjoin(witness.domain)

            for piece in witness.pieces:
                if piece.prev_schedule is None:
                    first_touch_disjuncts: List[List[Constraint]] = [[]]
                else:
                    first_touch_disjuncts = lex_order_disjuncts(piece.prev_schedule, window_start, strict=True)
                    if not first_touch_disjuncts:
                        continue
                base = with_witness.conjoin(piece.domain)
                if not feasible(base):
                    continue

                for lower in lower_disjuncts:
                    after_lower = _extend(base, lower)
                    if after_lower is None:
                        continue
                    for upper in upper_disjuncts:
                        after_upper = _extend(after_lower, upper)
                        if after_upper is None:
                            continue
                        for first_touch in first_touch_disjuncts:
                            charge()
                            system = _extend(after_upper, first_touch)
                            if system is None:
                                continue
                            try:
                                pieces = count_points(system, witness.loop_vars)
                            except CountingError as exc:
                                raise ModelFallbackRequired(
                                    f"cannot count reuse window of {witness.access!r}: {exc}"
                                ) from exc
                            contributions.extend(pieces)
        return contributions

    # ------------------------------------------------------------------
    # Piecewise accumulation
    # ------------------------------------------------------------------
    def _accumulate(
        self,
        base_domain: ConstraintSystem,
        contributions: List[Tuple[ConstraintSystem, QPoly]],
    ) -> List[DistancePiece]:
        """Sum overlapping contribution pieces into a disjoint partition."""
        grouped = self._group_by_domain(contributions)
        pieces: List[Tuple[ConstraintSystem, QPoly]] = [(base_domain, QPoly())]
        base_rows = base_domain.row_set()
        for domain, polynomial in grouped:
            extra = [c for c in domain.constraints if c.row not in base_rows]
            updated: List[Tuple[ConstraintSystem, QPoly]] = []
            for piece_domain, piece_poly in pieces:
                charge()
                if not extra:
                    updated.append((piece_domain, piece_poly + polynomial))
                    continue
                piece_rows = piece_domain.row_set()
                novel = [c for c in extra if c.row not in piece_rows]
                if not novel:
                    updated.append((piece_domain, piece_poly + polynomial))
                    continue
                restriction = ConstraintSystem(novel)
                overlap = piece_domain.conjoin(restriction)
                if not feasible(overlap):
                    updated.append((piece_domain, piece_poly))
                    continue
                for part in subtract(piece_domain, restriction):
                    updated.append((part, piece_poly))
                updated.append((overlap, piece_poly + polynomial))
            pieces = updated
        return [DistancePiece(domain, poly) for domain, poly in pieces if feasible(domain)]

    @staticmethod
    def _group_by_domain(
        contributions: List[Tuple[ConstraintSystem, QPoly]],
    ) -> List[Tuple[ConstraintSystem, QPoly]]:
        """Merge contributions with syntactically identical domains."""
        merged: Dict[frozenset, Tuple[ConstraintSystem, QPoly]] = {}
        for domain, polynomial in contributions:
            key = domain.row_set()
            if key in merged:
                existing_domain, existing_poly = merged[key]
                merged[key] = (existing_domain, existing_poly + polynomial)
            else:
                merged[key] = (domain, polynomial)
        return list(merged.values())


def _extend(checked: ConstraintSystem, constraints: List[Constraint]) -> Optional[ConstraintSystem]:
    """``checked`` (known feasible) ∧ pre-normalized ``constraints``, or ``None`` if empty.

    An extension that leaves the system unchanged is not checked again.
    """
    system = checked.conjoin(constraints, pre_normalized=True)
    if system.constraints == checked.constraints or feasible(system):
        return system
    return None
