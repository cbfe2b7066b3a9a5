"""Symbolic-cost prediction: will a work budget trip before analysis ends?

The cache model's symbolic work is metered in deterministic units
(:mod:`repro.isl.work`): feasibility checks and counting-recursion steps
whose count depends only on the analyzed program — never on wall clock,
cache warmth or backend.  :func:`estimate_cost` exploits that determinism:
it replays the chamber/piece derivation (stack distances + capacity
counting structure) under an **isolated metering budget** equal to the one
being predicted, via :meth:`repro.core.model.CacheModel.symbolic_probe`.

* The probe's wall-clock cost is bounded by the budget itself (it stops the
  moment the meter trips) — it never runs the minutes-long trace fallback,
  which is exactly the cliff the prediction exists to warn about.
* Because charges are deterministic, the probe's trip/no-trip outcome *is*
  the outcome the real analysis will see under the same options — the
  prediction cannot diverge from reality.
* The metering budget is private to the probe: it is scoped to the calling
  thread or task context (:func:`repro.isl.work.active_budget`), so
  estimating cost never charges an enclosing analysis or a probe running
  in another thread.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional

from ..core.config import MachineModel
from ..core.model import CacheModel, ModelOptions
from ..scop.scop import Scop
from .diagnostics import Diagnostic

__all__ = ["CostReport", "DEFAULT_VERIFY_BUDGET", "cost_diagnostics", "estimate_cost"]

#: Default work budget predicted against — the CLI's default
#: ``--budget`` (`repro.cli:DEFAULT_WORK_BUDGET`).
DEFAULT_VERIFY_BUDGET = 10_000


@dataclass(frozen=True)
class CostReport:
    """Prediction of the symbolic pipeline's deterministic cost.

    ``outcome`` is ``"fits"`` (completes within the budget), ``"budget"``
    (the budget trips) or ``"fallback"`` (a non-affine/inexact construct
    forces the trace fallback regardless of budget).
    """

    outcome: str
    #: Work units charged up to completion or the trip point.
    work_units: int
    #: The budget predicted against (``None`` = unlimited).
    budget: Optional[int]
    #: Distance pieces counted by the completed probe (``"fits"`` only).
    piece_count: int = 0
    #: Pieces that needed partial enumeration.
    nonaffine_pieces: int = 0
    #: Grid points visited by partial enumeration.
    enumerated_points: int = 0
    #: Human-readable reason for a ``"fallback"`` outcome.
    reason: str = ""

    @property
    def trips(self) -> bool:
        """Will the real analysis abandon the symbolic result?"""
        return self.outcome != "fits"

    def to_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "outcome": self.outcome,
            "work_units": self.work_units,
            "budget": self.budget,
            "trips": self.trips,
        }
        if self.outcome == "fits":
            payload["piece_count"] = self.piece_count
            payload["nonaffine_pieces"] = self.nonaffine_pieces
            payload["enumerated_points"] = self.enumerated_points
        if self.reason:
            payload["reason"] = self.reason
        return payload


def estimate_cost(
    scop: Scop,
    machine: Optional[MachineModel] = None,
    *,
    budget: Optional[int] = DEFAULT_VERIFY_BUDGET,
    options: Optional[ModelOptions] = None,
) -> CostReport:
    """Predict whether ``budget`` trips before the symbolic analysis ends.

    ``options`` (minus budget/fallback/verify, which the probe owns) should
    match the analysis being predicted; the default matches the CLI's.
    """
    probe_options = replace(
        options or ModelOptions(),
        symbolic_work_budget=budget,
        fallback_to_simulation=False,
        cross_check=False,
        store_path=None,
        verify="off",
    )
    probe = CacheModel(machine, probe_options).symbolic_probe(scop)
    if probe.outcome == "ok" and probe.result is not None:
        return CostReport(
            outcome="fits",
            work_units=probe.work_units,
            budget=budget,
            piece_count=probe.result.piece_count,
            nonaffine_pieces=probe.result.nonaffine_pieces,
            enumerated_points=probe.result.enumerated_points,
        )
    outcome = "budget" if probe.outcome == "budget" else "fallback"
    return CostReport(
        outcome=outcome,
        work_units=probe.work_units,
        budget=budget,
        reason=probe.reason,
    )


def cost_diagnostics(report: CostReport) -> List[Diagnostic]:
    """COST (and piece-level NONAFF) findings for a cost report."""
    findings: List[Diagnostic] = []
    if report.outcome == "budget":
        findings.append(
            Diagnostic(
                code="COST",
                severity="warning",
                message=(
                    f"symbolic work budget of {report.budget} units will trip "
                    f"(charged {report.work_units} before giving up); the "
                    "analysis will fall back to trace simulation — raise "
                    "--budget or simplify the kernel"
                ),
            )
        )
    elif report.outcome == "fallback":
        findings.append(
            Diagnostic(
                code="COST",
                severity="warning",
                message=(
                    "symbolic analysis cannot handle this program exactly "
                    f"({report.reason}); it will fall back to trace simulation"
                ),
            )
        )
    else:
        budget_text = str(report.budget) if report.budget is not None else "unlimited"
        findings.append(
            Diagnostic(
                code="COST",
                severity="info",
                message=(
                    f"symbolic analysis fits the budget: {report.work_units} "
                    f"of {budget_text} work units "
                    f"({report.piece_count} distance pieces)"
                ),
            )
        )
        if report.nonaffine_pieces:
            findings.append(
                Diagnostic(
                    code="NONAFF",
                    severity="info",
                    message=(
                        f"{report.nonaffine_pieces} of {report.piece_count} "
                        "distance pieces are non-affine and were counted by "
                        "partial enumeration "
                        f"({report.enumerated_points} points enumerated)"
                    ),
                )
            )
    return findings
