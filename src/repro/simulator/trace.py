"""Memory trace generation for static control programs.

The trace generator enumerates all statement instances of a SCoP in schedule
order and emits one :class:`MemoryAccess` per array reference, exactly like
the QEMU + Dinero IV tool-chain the paper uses to obtain simulation results.
Its cost is proportional to the number of memory accesses, which is the
behaviour the analytical model is compared against in Figure 1.

This is the pure-Python *reference*: one Python-level iteration per access.
:func:`repro.simulator.vectorized.trace_arrays` is its batched twin — the
iteration domains become index arrays and the affine address math becomes
integer matrix operations — and is guaranteed to emit the same accesses in
the same order; the ``backend`` option decides which one runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..scop.scop import AccessRef, Array, Scop, Statement

__all__ = ["MemoryAccess", "TraceGenerator", "ArrayLayout"]


@dataclass(frozen=True)
class MemoryAccess:
    """One dynamic memory access of the program."""

    address: int
    size: int
    is_write: bool
    statement: str
    array: str


class ArrayLayout:
    """Row-major array layout with cache-line padded innermost dimension.

    Each array starts at a cache-line aligned base address and its innermost
    dimension is padded to an integer multiple of the line size, matching the
    layout assumption of the analytical model (paper Section 3.1).  With the
    padded layout, accesses to different arrays or different rows never share
    a cache line, so the simulator and the model describe the same machine.
    """

    def __init__(self, scop: Scop, *, line_size: int = 64, padded: bool = True) -> None:
        self.line_size = line_size
        self.padded = padded
        self.base: Dict[str, int] = {}
        self.strides: Dict[str, Tuple[int, ...]] = {}
        cursor = 0
        for array in scop.arrays.values():
            cursor = _align(cursor, line_size)
            self.base[array.name] = cursor
            shape = array.padded_shape(line_size) if padded else array.shape
            strides = _row_major_strides(shape)
            self.strides[array.name] = strides
            cursor += _product(shape) * array.element_size

    def address(self, array: Array, indices: Tuple[int, ...]) -> int:
        strides = self.strides[array.name]
        offset = sum(index * stride for index, stride in zip(indices, strides))
        return self.base[array.name] + offset * array.element_size


def _align(value: int, alignment: int) -> int:
    return ((value + alignment - 1) // alignment) * alignment


def _product(values: Tuple[int, ...]) -> int:
    result = 1
    for value in values:
        result *= value
    return result


def _row_major_strides(shape: Tuple[int, ...]) -> Tuple[int, ...]:
    strides: List[int] = []
    running = 1
    for extent in reversed(shape):
        strides.append(running)
        running *= extent
    return tuple(reversed(strides))


class TraceGenerator:
    """Enumerates the memory accesses of a SCoP in schedule order."""

    def __init__(self, scop: Scop, *, line_size: int = 64, padded: bool = True) -> None:
        self.scop = scop
        self.layout = ArrayLayout(scop, line_size=line_size, padded=padded)

    def instances_in_order(self) -> List[Tuple[Tuple[int, ...], Statement, Dict[str, int]]]:
        """All statement instances sorted by their schedule value."""
        length = self.scop.schedule_length()
        instances: List[Tuple[Tuple[int, ...], Statement, Dict[str, int]]] = []
        for statement in self.scop.statements:
            exprs = statement.schedule_exprs(length)
            for point in statement.enumerate_instances():
                value = tuple(int(expr.evaluate(point)) for expr in exprs)
                instances.append((value, statement, dict(point)))
        instances.sort(key=lambda item: item[0])
        return instances

    def __iter__(self) -> Iterator[MemoryAccess]:
        return self.accesses()

    def accesses(self) -> Iterator[MemoryAccess]:
        """Yield the full memory trace in execution order."""
        for _, statement, point in self.instances_in_order():
            for ref in statement.accesses:
                indices = tuple(int(expr.evaluate(point)) for expr in ref.indices)
                _check_in_bounds(ref.array, indices, statement.name)
                yield MemoryAccess(
                    address=self.layout.address(ref.array, indices),
                    size=ref.array.element_size,
                    is_write=ref.is_write,
                    statement=statement.name,
                    array=ref.array.name,
                )

    def line_trace(self) -> Iterator[int]:
        """Yield the accessed cache-line index for every access."""
        line = self.layout.line_size
        for access in self.accesses():
            yield access.address // line


def _check_in_bounds(array: Array, indices: Tuple[int, ...], statement: str) -> None:
    for index, extent in zip(indices, array.shape):
        if index < 0 or index >= extent:
            raise IndexError(
                f"statement {statement} accesses {array.name}{list(indices)} outside its shape {list(array.shape)}"
            )
