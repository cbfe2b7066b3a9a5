"""Diagnostic objects emitted by the static kernel verifier.

Every finding is a :class:`Diagnostic` with a **stable code** (the contract
surface for tooling: CI gates grep for codes, tests pin them), a severity,
a human-readable message, and — when the scop came out of the kernel
frontend — a precise ``file:line:col`` :class:`~repro.scop.scop.SourceLoc`.

Codes
-----
``OOB``
    An access can index outside its array's declared extents.
``DEAD``
    A statement's iteration domain is provably empty under the chosen
    dataset: the statement never executes.
``SCHED``
    Two distinct statement instances share a schedule timestamp, so the
    execution order (and therefore every reuse distance) is ill-defined.
``UNUSED``
    An array is declared but never accessed by any statement.
``WRITE-NEVER-READ``
    An array is written but its values are never read back.
``NONAFF``
    A non-affine access expression (or a non-affine distance piece found by
    the cost probe) that forces partial enumeration or the trace fallback.
``COST``
    The symbolic-cost prediction: whether the configured work budget will
    trip before the symbolic analysis completes.

The JSON payload shape is versioned like
:class:`repro.core.results.ModelResult` so downstream consumers can detect
schema changes (`DIAGNOSTICS_SCHEMA_VERSION`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..scop.scop import SourceLoc

__all__ = [
    "DIAGNOSTIC_CODES",
    "DIAGNOSTICS_SCHEMA_VERSION",
    "Diagnostic",
    "SEVERITIES",
    "VerificationError",
    "VerificationWarning",
    "count_severities",
    "sort_diagnostics",
]

#: Version of the diagnostics JSON payload (CLI ``--json`` and
#: ``POST /v1/lint`` responses).
DIAGNOSTICS_SCHEMA_VERSION = 1

#: Every code the verifier can emit, in report order.
DIAGNOSTIC_CODES: Tuple[str, ...] = (
    "OOB",
    "DEAD",
    "SCHED",
    "UNUSED",
    "WRITE-NEVER-READ",
    "NONAFF",
    "COST",
)

#: Severities from most to least severe; the order is the sort key.
SEVERITIES: Tuple[str, ...] = ("error", "warning", "info")

_SEVERITY_RANK: Dict[str, int] = {name: rank for rank, name in enumerate(SEVERITIES)}


@dataclass(frozen=True)
class Diagnostic:
    """One verifier finding with a stable code and optional source location."""

    code: str
    severity: str
    message: str
    #: Statement the finding is anchored to, if any.
    statement: Optional[str] = None
    #: Array the finding is anchored to, if any.
    array: Optional[str] = None
    #: Position of the offending access in the statement's access list.
    access_position: Optional[int] = None
    #: ``file:line:col`` of the offending source text (frontend scops only).
    location: Optional[SourceLoc] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.code not in DIAGNOSTIC_CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")
        if self.severity not in _SEVERITY_RANK:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def location_str(self) -> str:
        """``file:line:col`` when located, else the empty string."""
        return str(self.location) if self.location is not None else ""

    def render(self) -> str:
        """One-line compiler-style rendering of the finding."""
        prefix = f"{self.location}: " if self.location is not None else ""
        anchors: List[str] = []
        if self.location is None and self.statement:
            anchors.append(f"statement {self.statement}")
        if self.location is None and self.array:
            anchors.append(f"array {self.array}")
        suffix = f" [{', '.join(anchors)}]" if anchors else ""
        return f"{prefix}{self.severity}[{self.code}]: {self.message}{suffix}"

    def to_payload(self) -> Dict[str, Any]:
        """JSON-serialisable dict (schema: `DIAGNOSTICS_SCHEMA_VERSION`)."""
        payload: Dict[str, Any] = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
        }
        if self.statement is not None:
            payload["statement"] = self.statement
        if self.array is not None:
            payload["array"] = self.array
        if self.access_position is not None:
            payload["access_position"] = self.access_position
        if self.location is not None:
            payload["location"] = {
                "file": self.location.filename,
                "line": self.location.line,
                "col": self.location.col,
            }
        return payload


def sort_diagnostics(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    """Stable report order: severity, then source position, then code."""

    def key(diag: Diagnostic) -> Tuple[int, str, int, int, str]:
        loc = diag.location
        return (
            _SEVERITY_RANK[diag.severity],
            loc.filename if loc is not None else "",
            loc.line if loc is not None else 0,
            loc.col if loc is not None else 0,
            diag.code,
        )

    return sorted(diagnostics, key=key)


def count_severities(diagnostics: Iterable[Diagnostic]) -> Dict[str, int]:
    """``{"error": n, "warning": n, "info": n}`` for a finding list."""
    counts = {name: 0 for name in SEVERITIES}
    for diag in diagnostics:
        counts[diag.severity] += 1
    return counts


class VerificationWarning(UserWarning):
    """Warning category used by the ``verify="warn"`` model pre-flight."""


class VerificationError(ValueError):
    """Raised by the ``verify="error"`` pre-flight on error-severity findings.

    Carries the full finding list so callers can format or serialise it.
    """

    def __init__(self, diagnostics: Sequence[Diagnostic]) -> None:
        self.diagnostics: List[Diagnostic] = sort_diagnostics(diagnostics)
        errors = [diag for diag in self.diagnostics if diag.severity == "error"]
        lines = "; ".join(diag.render() for diag in errors[:3])
        more = f" (+{len(errors) - 3} more)" if len(errors) > 3 else ""
        super().__init__(
            f"kernel verification failed with {len(errors)} error(s): {lines}{more}"
        )
