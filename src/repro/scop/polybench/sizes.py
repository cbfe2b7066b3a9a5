"""Problem-size presets for the PolyBench kernel suite.

PolyBench defines MINI/SMALL/MEDIUM/LARGE/EXTRALARGE datasets; the paper's
evaluation uses LARGE (Figures 9-11, 13-16) and MEDIUM/LARGE/EXTRALARGE for
the problem-size scaling study (Figure 12).  A pure-Python trace simulator
cannot enumerate the ~10^9 accesses of the original LARGE configuration, so
the presets below are scaled down while preserving the ratios between the
classes (roughly one order of magnitude more work per step), which keeps the
shape of the scaling experiments intact.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["DATASETS", "kernel_sizes", "dataset_names"]

#: Scaled problem sizes per dataset class.  Keys follow the PolyBench
#: parameter names of each kernel.
DATASETS: Dict[str, Dict[str, Dict[str, int]]] = {
    "mini": {
        "default": {"N": 12, "M": 14, "NI": 10, "NJ": 12, "NK": 14, "NL": 16, "NM": 18,
                    "NQ": 6, "NR": 6, "NP": 8, "TSTEPS": 4, "TMAX": 4, "NX": 12, "NY": 14, "W": 12, "H": 14},
    },
    "small": {
        "default": {"N": 28, "M": 32, "NI": 24, "NJ": 26, "NK": 28, "NL": 30, "NM": 32,
                    "NQ": 10, "NR": 10, "NP": 12, "TSTEPS": 8, "TMAX": 8, "NX": 28, "NY": 32, "W": 28, "H": 32},
    },
    "medium": {
        "default": {"N": 72, "M": 80, "NI": 60, "NJ": 64, "NK": 68, "NL": 72, "NM": 76,
                    "NQ": 20, "NR": 20, "NP": 24, "TSTEPS": 16, "TMAX": 16, "NX": 72, "NY": 80, "W": 72, "H": 80},
    },
    "large": {
        "default": {"N": 200, "M": 220, "NI": 180, "NJ": 190, "NK": 200, "NL": 210, "NM": 220,
                    "NQ": 40, "NR": 40, "NP": 50, "TSTEPS": 40, "TMAX": 40, "NX": 200, "NY": 220, "W": 200, "H": 220},
    },
    "extralarge": {
        "default": {"N": 600, "M": 640, "NI": 560, "NJ": 580, "NK": 600, "NL": 620, "NM": 640,
                    "NQ": 80, "NR": 80, "NP": 100, "TSTEPS": 100, "TMAX": 100, "NX": 600, "NY": 640, "W": 600, "H": 640},
    },
}


def dataset_names() -> list:
    return list(DATASETS.keys())


def kernel_sizes(dataset: str, kernel: str = "default") -> Dict[str, int]:
    """Return the size parameters of ``kernel`` for the given dataset class."""
    if dataset not in DATASETS:
        raise KeyError(f"unknown dataset {dataset!r}; choose from {sorted(DATASETS)}")
    table = DATASETS[dataset]
    return dict(table.get(kernel, table["default"]))
