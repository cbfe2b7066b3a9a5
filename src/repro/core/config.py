"""Cache hierarchy configuration for the analytical model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

__all__ = ["CacheLevelSpec", "MachineModel", "KIB", "MIB"]

KIB = 1024
MIB = 1024 * KIB


@dataclass(frozen=True)
class CacheLevelSpec:
    """One cache level as the fully associative LRU model sees it."""

    size: int
    name: str = ""
    #: Associativity is only used by the simulator-based comparisons (the
    #: analytical model is fully associative by design).
    associativity: Optional[int] = None

    def label(self, index: int) -> str:
        return self.name or f"L{index + 1}"

    def capacity_lines(self, line_size: int) -> int:
        return max(1, self.size // line_size)


@dataclass(frozen=True)
class MachineModel:
    """Cache line size and hierarchy levels of the modelled machine."""

    line_size: int = 64
    levels: Tuple[CacheLevelSpec, ...] = (
        CacheLevelSpec(32 * KIB, "L1", 8),
        CacheLevelSpec(1 * MIB, "L2", 16),
    )

    def __post_init__(self) -> None:
        if self.line_size <= 0:
            raise ValueError("line size must be positive")
        if not self.levels:
            raise ValueError("at least one cache level is required")
        sizes = [level.size for level in self.levels]
        if sizes != sorted(sizes):
            raise ValueError("cache levels must be ordered from smallest to largest")

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @staticmethod
    def xeon_gold_6150(num_levels: int = 2) -> "MachineModel":
        """The paper's test system: 32KiB L1, 1MiB L2, 24.75MiB shared L3."""
        levels = (
            CacheLevelSpec(32 * KIB, "L1", 8),
            CacheLevelSpec(1 * MIB, "L2", 16),
            CacheLevelSpec(int(18 * 1.375 * MIB), "L3", 11),
        )[:num_levels]
        return MachineModel(line_size=64, levels=levels)

    @staticmethod
    def polycache_reference() -> "MachineModel":
        """Cache sizes used for the PolyCache comparison (Section 4.4)."""
        return MachineModel(
            line_size=64,
            levels=(CacheLevelSpec(32 * KIB, "L1", 4), CacheLevelSpec(256 * KIB, "L2", 4)),
        )

    @staticmethod
    def single_level(size: int, line_size: int = 64) -> "MachineModel":
        return MachineModel(line_size=line_size, levels=(CacheLevelSpec(size, "L1"),))

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def capacities_in_lines(self) -> List[int]:
        return [level.capacity_lines(self.line_size) for level in self.levels]

    def level_labels(self) -> List[str]:
        return [level.label(index) for index, level in enumerate(self.levels)]
