"""Static control program representation, builder DSL and kernels."""

from .builder import ArrayHandle, ScopBuilder, affine
from .scop import AccessRef, Array, Scop, SourceLoc, Statement, program_fingerprint

__all__ = [
    "AccessRef",
    "Array",
    "ArrayHandle",
    "Scop",
    "ScopBuilder",
    "SourceLoc",
    "Statement",
    "affine",
    "program_fingerprint",
]
