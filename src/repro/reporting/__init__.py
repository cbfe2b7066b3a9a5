"""Experiment drivers and table rendering for the paper's evaluation."""

from .batch import format_batch_summary
from .bench import compare_reports, format_bench_summary, run_suite, suite_names
from .equivalence import diff_payloads, normalize, payloads_equal
from .tables import (
    format_diagnostics,
    format_miss_curve,
    format_series,
    format_table,
    geometric_mean,
)

__all__ = [
    "compare_reports",
    "diff_payloads",
    "format_batch_summary",
    "format_bench_summary",
    "format_diagnostics",
    "format_miss_curve",
    "format_series",
    "format_table",
    "geometric_mean",
    "normalize",
    "payloads_equal",
    "run_suite",
    "suite_names",
]
