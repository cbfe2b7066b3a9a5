"""Job matrix descriptions for the batch analysis engine.

A :class:`JobSpec` is a picklable, declarative description of one analytical
model run: which program (a PolyBench kernel name + dataset, or a pre-built
:class:`~repro.scop.Scop`), which machine model, and which model options.
:func:`expand_matrix` builds the full cross product the CLI and the benchmark
harness fan out over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..scop import Scop, program_fingerprint

__all__ = ["JobSpec", "expand_matrix"]


@dataclass(frozen=True)
class JobSpec:
    """One unit of work: analyze one program against one machine model.

    Exactly one of two program sources is used: when ``scop`` is set it is
    analyzed directly (the benchmark harness ships its scaled kernels this
    way); otherwise ``kernel``/``dataset`` name a PolyBench kernel that the
    worker instantiates via :func:`repro.scop.polybench.build_kernel`.
    Building in the worker keeps the pickled payload small for registry jobs.
    """

    kernel: str
    dataset: str = "mini"
    scop: Optional[Scop] = field(default=None, repr=False, compare=False)
    line_size: int = 64
    #: Cache sizes in bytes, innermost level first (L1, L2, ...).
    levels: Tuple[int, ...] = (32 * 1024,)
    fallback: bool = True
    partial_enumeration: bool = True
    #: Deterministic symbolic work budget (``None`` = unlimited); identical
    #: on every worker, so budgeted fallback decisions are reproducible.
    symbolic_work_budget: Optional[int] = None
    #: Validate the symbolic result against the trace-based reference
    #: (slow; test/benchmark use).
    cross_check: bool = False
    #: Numeric backend (``"numpy"``, default, or the ``"python"`` oracle).  A
    #: run configuration like the store path, not part of the job identity:
    #: both backends produce identical results, so store entries and memo
    #: keys are shared across them (and the store never masks a backend
    #: divergence because the oracle tests run store-less).
    backend: str = field(default="numpy", compare=False)
    #: Extra miss-curve breakpoints in bytes (see
    #: :attr:`repro.core.model.ModelOptions.curve_capacities`).  Part of the
    #: job identity: the curve rides inside the result payload, so runs with
    #: different sweep grids must not alias one store entry.
    curve_capacities: Tuple[int, ...] = ()

    def key(self) -> Tuple:
        """Hashable identity used for result memoization.

        For scop-backed jobs the key holds the scop's full structural
        fingerprint (:func:`repro.scop.program_fingerprint`: size context,
        arrays, and per statement the loop variables, iteration domain,
        schedule and access expressions), so two same-named scops never
        alias unless they describe the same program.
        """
        scop_identity = program_fingerprint(self.scop) if self.scop is not None else ()
        return (
            self.kernel,
            self.dataset if self.scop is None else None,
            scop_identity,
            self.line_size,
            self.levels,
            self.fallback,
            self.partial_enumeration,
            self.symbolic_work_budget,
            self.cross_check,
            self.curve_capacities,
        )

    def describe(self) -> str:
        levels = "+".join(str(size) for size in self.levels)
        source = self.kernel if self.scop is not None else f"{self.kernel}/{self.dataset}"
        return f"{source} @ {levels}"


def expand_matrix(
    kernels: Sequence[str],
    datasets: Sequence[str] = ("mini",),
    level_sets: Sequence[Tuple[int, ...]] = ((32 * 1024,),),
    *,
    line_size: int = 64,
    fallback: bool = True,
    symbolic_work_budget: Optional[int] = None,
    options: Optional[Dict[str, bool]] = None,
) -> List[JobSpec]:
    """Cross product kernel x dataset x machine levels, in deterministic order.

    The order is row-major over the argument order (kernels outermost), so a
    batch run enumerates jobs the same way regardless of worker count.
    """
    toggles = {"partial_enumeration": True}
    if options:
        unknown = set(options) - set(toggles)
        if unknown:
            raise ValueError(f"unknown model options: {', '.join(sorted(unknown))}")
        toggles.update(options)
    jobs: List[JobSpec] = []
    for kernel in kernels:
        for dataset in datasets:
            for levels in level_sets:
                jobs.append(
                    JobSpec(
                        kernel=kernel,
                        dataset=dataset,
                        line_size=line_size,
                        levels=tuple(levels),
                        fallback=fallback,
                        symbolic_work_budget=symbolic_work_budget,
                        **toggles,
                    )
                )
    return jobs
