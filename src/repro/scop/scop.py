"""Static control program (SCoP) representation.

A SCoP consists of statements with

* an **iteration domain**: a conjunction of affine constraints over the
  statement's loop variables,
* a **schedule**: a ``2d+1``-style vector of interleaved static positions and
  loop variables defining the global execution order, and
* an ordered list of **array accesses** with affine index expressions.

This mirrors the iteration domain / schedule / access map triple of the paper
(Section 2.4) with concrete (non-parametric) loop bounds, which is also how
the evaluation of the paper runs (PolyBench has fixed problem sizes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..isl.constraints import ConstraintSystem, enumerate_points
from ..isl.counting import cardinality
from ..isl.qpoly import QPoly

__all__ = ["AccessRef", "Array", "Scop", "SourceLoc", "Statement", "ScheduleEntry", "program_fingerprint"]


#: A schedule entry is either a static position (int) or a loop variable name.
ScheduleEntry = Union[int, str]


@dataclass(frozen=True)
class SourceLoc:
    """Source position (``file:line:col``) of a statement or access.

    Attached by the kernel frontend when a scop is instantiated from a
    ``.knl`` file so that downstream diagnostics (:mod:`repro.verify`) can
    point back at the offending source text.  Programs built through
    :class:`~repro.scop.builder.ScopBuilder` carry no locations.  The field
    is deliberately excluded from equality: two scops that describe the same
    program compare (and digest, see
    :meth:`repro.engine.jobs.JobSpec.key`) identically regardless of where
    their text lived.
    """

    filename: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.col}"


@dataclass(frozen=True)
class Array:
    """A (multi-dimensional) array with a fixed element size in bytes."""

    name: str
    shape: Tuple[int, ...]
    element_size: int = 8
    #: Source position of the declaration in the originating ``.knl`` file,
    #: if any.  Not part of the array identity (see :class:`SourceLoc`).
    location: Optional[SourceLoc] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.shape:
            raise ValueError("arrays must have at least one dimension")
        if any(extent <= 0 for extent in self.shape):
            raise ValueError(f"array {self.name} has non-positive extent {self.shape}")
        if self.element_size <= 0:
            raise ValueError("element size must be positive")

    @property
    def rank(self) -> int:
        return len(self.shape)

    def padded_shape(self, line_size: int) -> Tuple[int, ...]:
        """Shape with the innermost dimension padded to full cache lines.

        The paper assumes the innermost dimension is cache-line aligned and
        padded to an integer multiple of the cache line size (Section 3.1);
        the trace generator uses the same layout so that the simulator and
        the analytical model describe the same machine.
        """
        elements_per_line = max(1, line_size // self.element_size)
        inner = self.shape[-1]
        padded_inner = ((inner + elements_per_line - 1) // elements_per_line) * elements_per_line
        return self.shape[:-1] + (padded_inner,)


@dataclass(frozen=True)
class AccessRef:
    """A single array reference of a statement.

    ``indices`` are quasi-affine expressions over the statement's loop
    variables, one per array dimension (outermost first).
    """

    array: Array
    indices: Tuple[QPoly, ...]
    is_write: bool = False
    #: Source position of the reference in the originating ``.knl`` file,
    #: if any.  Not part of the access identity (see :class:`SourceLoc`).
    location: Optional[SourceLoc] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if len(self.indices) != self.array.rank:
            raise ValueError(
                f"access to {self.array.name} has {len(self.indices)} indices, expected {self.array.rank}"
            )

    def rename(self, mapping: Mapping[str, QPoly]) -> "AccessRef":
        return AccessRef(
            self.array,
            tuple(expr.substitute(mapping) for expr in self.indices),
            self.is_write,
            location=self.location,
        )


@dataclass
class Statement:
    """A statement instance set with its schedule and ordered accesses."""

    name: str
    loop_vars: Tuple[str, ...]
    domain: ConstraintSystem
    schedule: Tuple[ScheduleEntry, ...]
    accesses: List[AccessRef] = field(default_factory=list)
    #: Source position of the statement in the originating ``.knl`` file,
    #: if any.  Not part of the statement identity (see :class:`SourceLoc`).
    location: Optional[SourceLoc] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if len(set(self.loop_vars)) != len(self.loop_vars):
            raise ValueError(f"statement {self.name} has duplicate loop variables")

    # ------------------------------------------------------------------
    # Schedule handling
    # ------------------------------------------------------------------
    def schedule_exprs(self, length: int) -> Tuple[QPoly, ...]:
        """Schedule as quasi-affine expressions, zero-padded to ``length``."""
        exprs: List[QPoly] = []
        for entry in self.schedule:
            if isinstance(entry, int):
                exprs.append(QPoly.constant(entry))
            else:
                exprs.append(QPoly.variable(entry))
        while len(exprs) < length:
            exprs.append(QPoly.constant(0))
        return tuple(exprs)

    def instance_count(self) -> int:
        """Number of statement instances (cardinality of the domain)."""
        return cardinality(self.domain, list(self.loop_vars))

    def enumerate_instances(self) -> Iterator[Dict[str, int]]:
        """Enumerate the integer points of the iteration domain."""
        yield from enumerate_points(self.domain, list(self.loop_vars))

    def reads(self) -> List[AccessRef]:
        return [ref for ref in self.accesses if not ref.is_write]

    def writes(self) -> List[AccessRef]:
        return [ref for ref in self.accesses if ref.is_write]


class Scop:
    """A static control program: arrays plus scheduled statements."""

    def __init__(self, name: str, *, context: Optional[Mapping[str, int]] = None) -> None:
        self.name = name
        self.arrays: Dict[str, Array] = {}
        self.statements: List[Statement] = []
        #: Problem-size parameters used to build the kernel (documentation
        #: only; all loop bounds are already concrete).
        self.context: Dict[str, int] = dict(context or {})

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_array(self, array: Array) -> Array:
        if array.name in self.arrays:
            raise ValueError(f"duplicate array {array.name}")
        self.arrays[array.name] = array
        return array

    def add_statement(self, statement: Statement) -> Statement:
        if any(existing.name == statement.name for existing in self.statements):
            raise ValueError(f"duplicate statement {statement.name}")
        for ref in statement.accesses:
            if ref.array.name not in self.arrays:
                self.add_array(ref.array)
        self.statements.append(statement)
        return statement

    def statement(self, name: str) -> Statement:
        for statement in self.statements:
            if statement.name == name:
                return statement
        raise KeyError(f"no statement named {name}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def schedule_length(self) -> int:
        """Common schedule length (statement schedules are zero-padded)."""
        return max((len(s.schedule) for s in self.statements), default=0)

    def all_accesses(self) -> List[Tuple[Statement, int, AccessRef]]:
        """All (statement, access position, reference) triples in order."""
        out: List[Tuple[Statement, int, AccessRef]] = []
        for statement in self.statements:
            for position, ref in enumerate(statement.accesses):
                out.append((statement, position, ref))
        return out

    def total_accesses(self) -> int:
        """Total number of dynamic memory accesses of the program."""
        total = 0
        for statement in self.statements:
            if not statement.accesses:
                continue
            total += statement.instance_count() * len(statement.accesses)
        return total

    def total_instances(self) -> int:
        return sum(statement.instance_count() for statement in self.statements)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Scop({self.name!r}, {len(self.statements)} statements, {len(self.arrays)} arrays)"


def program_fingerprint(scop: Scop) -> Tuple:
    """Hashable structural identity of the program a scop describes.

    Holds the size context, the arrays (shape and element size) and, per
    statement, its name, loop variables, iteration-domain constraints,
    schedule and access expressions: everything that decides the trace and
    therefore every miss count.  The scop's name and source locations are
    left out, so two scops compare equal exactly when they describe the same
    program.  :meth:`repro.engine.jobs.JobSpec.key` and the per-process
    program memo of :mod:`repro.core.model` both key on it.
    """
    return (
        tuple(sorted(scop.context.items())),
        tuple(
            (array.name, array.shape, array.element_size)
            for array in sorted(scop.arrays.values(), key=lambda a: a.name)
        ),
        tuple(
            (
                statement.name,
                statement.loop_vars,
                frozenset((c.kind, c.expr._canonical_items()) for c in statement.domain.constraints),
                statement.schedule,
                tuple((ref.array.name, ref.is_write, ref.indices) for ref in statement.accesses),
            )
            for statement in scop.statements
        ),
    )
