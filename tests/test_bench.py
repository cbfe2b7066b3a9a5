"""Bench harness: suite runs, baseline comparison semantics, CLI exit codes."""

import copy
import json
import math

import pytest

from repro.cli import main
from repro.reporting import bench
from repro.reporting.bench import compare_reports, load_report, run_suite, write_report

#: A one-job suite so harness tests run in milliseconds; the tiny budget
#: trips immediately and the job degrades to the fast exact fallback.
TINY_SUITE = {
    "kernels": ["jacobi-1d"],
    "datasets": ["mini"],
    "levels": [(32 * 1024,)],
    "budget": 200,
}


#: A clean entry per optional workload; each test perturbs a copy.
CLEAN_ENTRIES = {
    "trace": {
        "kernel": "bench-trace-gemm",
        "accesses": 11368,
        "misses": [100, 50],
        "python_seconds": 0.5,
        "numpy_seconds": 0.01,
        "speedup": 50.0,
        "results_match": True,
        "min_speedup": 10.0,
    },
    "curve": {
        "kernel": "bench-curve-matvec",
        "accesses": 4096,
        "points": 64,
        "single_seconds": 0.9,
        "sweep_seconds": 1.0,
        "sweep_ratio": 1.1,
        "counts_match": True,
        "used_fallback": False,
        "sweep_misses": [3000, 2000, 500, 0],
        "max_ratio": 2.0,
    },
    "symbolic": {
        "kernel": "bench-curve-matvec",
        "chamber_sets": 47,
        "points": 1024,
        "python_seconds": 0.7,
        "totals_sha256": "abc123",
        "numpy_seconds": 0.02,
        "speedup": 35.0,
        "results_match": True,
        "min_speedup": 3.0,
    },
    "serve": {
        "kernels": ["gemm"],
        "requests": 207,
        "unique_specs": 7,
        "dedup": 200,
        "workers": 2,
        "clients": 8,
        "probe_ok": True,
        "probe_coalesced": 2,
        "shed_ok": True,
        "errors": 0,
        "engine_jobs": 7,
        "coalesced": 25,
        "cached": 175,
        "payloads_identical": True,
        "misses": {"gemm": [68, 68]},
        "store_hits": 175,
        "store_misses": 7,
        "store_hit_rate": 0.96,
        "wall_seconds": 14.0,
        "p50_seconds": 0.008,
        "p95_seconds": 5.0,
    },
    "explore": {
        "kernel": "bench-curve-matvec",
        "tiles": [1, 2, 4, 8],
        "capacity_points": 16,
        "grid_size": 64,
        "pareto_size": 9,
        "analyses": 4,
        "independent_analyses": 64,
        "grid_seconds": 1.0,
        "independent_seconds": 15.0,
        "cost_ratio": 1.0 / 15.0,
        "max_cost_ratio": 0.25,
        "table_digest": "abc123",
        "backends_match": True,
    },
}


@pytest.fixture(autouse=True)
def _tiny_suite(monkeypatch):
    monkeypatch.setitem(bench.SUITES, "tiny", TINY_SUITE)
    # Keep calibration cheap for the test suite.
    monkeypatch.setattr(bench, "_CALIBRATION_ROUNDS", 1)


class TestRunSuite:
    def test_report_shape(self, tmp_path):
        report = run_suite("tiny", store_path=str(tmp_path))
        assert report["suite"] == "tiny"
        assert report["totals"]["jobs"] == 1 and report["totals"]["errors"] == 0
        assert report["calibration_seconds"] > 0
        (job,) = report["jobs"]
        assert job["kernel"] == "jacobi-1d" and job["status"] == "ok"
        assert job["misses"] and job["accesses"] > 0
        assert job["work_units"] > 0
        assert "stack_distance_seconds" in job["phases"]

    def test_warm_store_rerun_is_cached(self, tmp_path):
        cold = run_suite("tiny", store_path=str(tmp_path))
        warm = run_suite("tiny", store_path=str(tmp_path))
        assert cold["totals"]["cached"] == 0
        assert warm["totals"]["cached"] == warm["totals"]["jobs"] == 1
        assert warm["jobs"][0]["misses"] == cold["jobs"][0]["misses"]

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("no-such-suite")

    def test_report_round_trip(self, tmp_path):
        report = run_suite("tiny", store_path=None)
        path = tmp_path / "BENCH_tiny.json"
        write_report(report, path)
        assert load_report(path) == json.loads(json.dumps(report))


class TestCompareReports:
    def _report(self, **overrides):
        report = {
            "schema_version": 1,
            "suite": "tiny",
            "wall_seconds": 10.0,
            "calibration_seconds": 0.1,
            "jobs": [
                {
                    "kernel": "jacobi-1d",
                    "dataset": "mini",
                    "levels": [32768],
                    "status": "ok",
                    "misses": [4],
                    "accesses": 100,
                }
            ],
            "totals": {"work_units": 1000},
        }
        report.update(overrides)
        return report

    def test_identical_reports_clean(self):
        assert compare_reports(self._report(), self._report()) == []

    def test_miss_count_change_is_accuracy_regression(self):
        current = self._report()
        current["jobs"][0]["misses"] = [5]
        (regression,) = compare_reports(current, self._report())
        assert regression.startswith("accuracy:")

    def test_job_error_is_accuracy_regression(self):
        current = self._report()
        current["jobs"][0]["status"] = "error"
        (regression,) = compare_reports(current, self._report())
        assert "now fails" in regression

    def test_missing_job_is_accuracy_regression(self):
        current = self._report(jobs=[])
        (regression,) = compare_reports(current, self._report())
        assert "missing" in regression

    def test_wall_time_regression_is_normalized(self):
        # 3x the wall time on a 3x slower machine is NOT a regression.
        current = self._report(wall_seconds=30.0, calibration_seconds=0.3)
        assert compare_reports(current, self._report()) == []
        # 3x the wall time at identical machine speed IS one.
        current = self._report(wall_seconds=30.0)
        (regression,) = compare_reports(current, self._report())
        assert "wall time" in regression

    def test_wall_check_can_be_disabled(self):
        current = self._report(wall_seconds=30.0)
        assert compare_reports(current, self._report(), check_wall=False) == []

    def test_work_unit_regression_respects_tolerance(self):
        current = self._report(totals={"work_units": 1150})
        assert compare_reports(current, self._report(), check_wall=False) == []
        current = self._report(totals={"work_units": 1300})
        (regression,) = compare_reports(current, self._report(), check_wall=False)
        assert "work units" in regression

    def test_suite_mismatch_rejected(self):
        (regression,) = compare_reports(self._report(suite="other"), self._report())
        assert "suite mismatch" in regression

    def test_failing_job_absent_from_baseline_is_regression(self):
        current = self._report()
        current["jobs"].append(
            {"kernel": "new-kernel", "dataset": "mini", "levels": [1024], "status": "error"}
        )
        (regression,) = compare_reports(current, self._report())
        assert "not in baseline" in regression and "fails" in regression

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -0.1])
    def test_non_finite_or_negative_tolerance_is_rejected(self, tolerance):
        # A NaN or infinite tolerance would pass a 100x rise in work units and
        # wall time; a negative one would flag identical reports.
        current = self._report(wall_seconds=1000.0, totals={"work_units": 100_000})
        with pytest.raises(ValueError, match="tolerance"):
            compare_reports(current, self._report(), tolerance=tolerance)

    def test_healthy_job_absent_from_baseline_is_not_regression(self):
        current = self._report()
        current["jobs"].append(
            {"kernel": "new-kernel", "dataset": "mini", "levels": [1024], "status": "ok",
             "misses": [1], "accesses": 10}
        )
        assert compare_reports(current, self._report()) == []


class TestTraceWorkload:
    def _trace_entry(self, **overrides):
        return dict(copy.deepcopy(CLEAN_ENTRIES['trace']), **overrides)

    def _report(self, trace):
        return {
            "suite": "tiny",
            "wall_seconds": 1.0,
            "calibration_seconds": 0.1,
            "jobs": [],
            "totals": {"work_units": 0},
            "trace": trace,
        }

    def test_run_suite_records_trace_workload(self, monkeypatch):
        monkeypatch.setitem(
            bench.SUITES,
            "tiny",
            dict(TINY_SUITE, trace={"size": 4, "rounds": 1, "min_speedup": 10.0}),
        )
        report = run_suite("tiny", store_path=None)
        trace = report["trace"]
        assert trace["kernel"] == "bench-trace-gemm"
        assert trace["accesses"] > 0 and len(trace["misses"]) == 2
        assert trace["python_seconds"] > 0
        assert trace["results_match"] is True
        assert trace["numpy_seconds"] > 0 and trace["speedup"] > 0

    def test_clean_trace_workload_passes(self):
        report = self._report(self._trace_entry())
        assert compare_reports(report, self._report(self._trace_entry()), check_wall=False) == []

    def test_backend_disagreement_is_accuracy_regression(self):
        current = self._report(self._trace_entry(results_match=False, numpy_misses=[101, 50]))
        regressions = compare_reports(current, self._report(self._trace_entry()), check_wall=False)
        assert any("backends disagree" in r for r in regressions)

    def test_trace_miss_drift_is_accuracy_regression(self):
        current = self._report(self._trace_entry(misses=[101, 50]))
        regressions = compare_reports(current, self._report(self._trace_entry()), check_wall=False)
        assert any("miss counts changed" in r for r in regressions)

    def test_speedup_below_floor_is_performance_regression(self):
        current = self._report(self._trace_entry(speedup=8.0))
        regressions = compare_reports(current, self._report(self._trace_entry()), check_wall=False)
        assert any("below the suite floor" in r for r in regressions)

    def test_speedup_collapse_against_baseline_is_regression(self):
        current = self._report(self._trace_entry(speedup=11.0))
        baseline = self._report(self._trace_entry(speedup=60.0))
        regressions = compare_reports(current, baseline, check_wall=False)
        assert any("collapsed" in r for r in regressions)

    def test_missing_trace_workload_is_flagged(self):
        current = self._report(None)
        current.pop("trace")
        regressions = compare_reports(current, self._report(self._trace_entry()), check_wall=False)
        assert any("trace workload missing" in r for r in regressions)

    def test_committed_smoke_baseline_records_the_speedup_claim(self):
        from pathlib import Path

        repo_root = Path(__file__).resolve().parent.parent
        report = load_report(repo_root / "benchmarks" / "baselines" / "BENCH_smoke.json")
        trace = report["trace"]
        assert trace["results_match"] is True
        assert trace["min_speedup"] >= 10.0
        assert trace["speedup"] >= 10.0


class TestCurveWorkload:
    def _curve_entry(self, **overrides):
        return dict(copy.deepcopy(CLEAN_ENTRIES['curve']), **overrides)

    def _report(self, curve):
        return {
            "suite": "tiny",
            "wall_seconds": 1.0,
            "calibration_seconds": 0.1,
            "jobs": [],
            "totals": {"work_units": 0},
            "curve": curve,
        }

    def test_run_suite_records_curve_workload(self, monkeypatch):
        monkeypatch.setitem(
            bench.SUITES,
            "tiny",
            dict(TINY_SUITE, curve={"size": 8, "points": 16, "max_ratio": 2.0}),
        )
        report = run_suite("tiny", store_path=None)
        curve = report["curve"]
        assert curve["kernel"] == "bench-curve-matvec"
        assert curve["counts_match"] is True and not curve["used_fallback"]
        assert curve["points"] == 16 and len(curve["sweep_misses"]) == 16
        assert curve["single_seconds"] > 0 and curve["sweep_seconds"] > 0

    def test_clean_curve_workload_passes(self):
        report = self._report(self._curve_entry())
        assert compare_reports(report, self._report(self._curve_entry()), check_wall=False) == []

    def test_reference_disagreement_is_accuracy_regression(self):
        current = self._report(self._curve_entry(counts_match=False))
        regressions = compare_reports(current, self._report(self._curve_entry()), check_wall=False)
        assert any("disagree with the exact trace reference" in r for r in regressions)

    def test_sweep_count_drift_is_accuracy_regression(self):
        current = self._report(self._curve_entry(sweep_misses=[3000, 2001, 500, 0]))
        regressions = compare_reports(current, self._report(self._curve_entry()), check_wall=False)
        assert any("sweep counts changed" in r for r in regressions)

    def test_fallback_sweep_is_a_regression(self):
        current = self._report(self._curve_entry(used_fallback=True))
        regressions = compare_reports(current, self._report(self._curve_entry()), check_wall=False)
        assert any("fell back" in r for r in regressions)

    def test_ratio_over_ceiling_is_performance_regression(self):
        current = self._report(self._curve_entry(sweep_ratio=2.5))
        regressions = compare_reports(current, self._report(self._curve_entry()))
        assert any("curve sweep costs" in r for r in regressions)
        # The ratio is a wall-clock metric: --no-wall disables the gate.
        assert compare_reports(current, self._report(self._curve_entry()), check_wall=False) == []

    def test_missing_curve_workload_is_flagged(self):
        current = self._report(None)
        regressions = compare_reports(current, self._report(self._curve_entry()), check_wall=False)
        assert any("curve workload missing" in r for r in regressions)

    def test_committed_smoke_baseline_records_the_sweep_claim(self):
        from pathlib import Path

        repo_root = Path(__file__).resolve().parent.parent
        report = load_report(repo_root / "benchmarks" / "baselines" / "BENCH_smoke.json")
        curve = report["curve"]
        assert curve["counts_match"] is True and not curve["used_fallback"]
        assert curve["max_ratio"] <= 2.0
        assert curve["sweep_ratio"] <= curve["max_ratio"]


class TestSymbolicWorkload:
    def _symbolic_entry(self, **overrides):
        return dict(copy.deepcopy(CLEAN_ENTRIES['symbolic']), **overrides)

    def _report(self, symbolic):
        return {
            "suite": "tiny",
            "wall_seconds": 1.0,
            "calibration_seconds": 0.1,
            "jobs": [],
            "totals": {"work_units": 0},
            "symbolic": symbolic,
        }

    def test_run_suite_records_symbolic_workload(self, monkeypatch):
        monkeypatch.setitem(
            bench.SUITES,
            "tiny",
            dict(TINY_SUITE, symbolic={"size": 8, "points": 64, "rounds": 1, "min_speedup": 3.0}),
        )
        report = run_suite("tiny", store_path=None)
        symbolic = report["symbolic"]
        assert symbolic["kernel"] == "bench-curve-matvec"
        assert symbolic["chamber_sets"] > 0 and symbolic["points"] == 64
        assert symbolic["python_seconds"] > 0
        assert symbolic["results_match"] is True
        assert symbolic["totals_sha256"]
        assert symbolic["numpy_seconds"] > 0 and symbolic["speedup"] > 0

    def test_clean_symbolic_workload_passes(self):
        report = self._report(self._symbolic_entry())
        assert compare_reports(report, self._report(self._symbolic_entry()), check_wall=False) == []

    def test_backend_disagreement_is_accuracy_regression(self):
        current = self._report(self._symbolic_entry(results_match=False))
        regressions = compare_reports(current, self._report(self._symbolic_entry()), check_wall=False)
        assert any("evaluation backends disagree" in r for r in regressions)

    def test_totals_drift_is_accuracy_regression(self):
        current = self._report(self._symbolic_entry(totals_sha256="def456"))
        regressions = compare_reports(current, self._report(self._symbolic_entry()), check_wall=False)
        assert any("per-capacity totals changed" in r for r in regressions)

    def test_speedup_below_floor_is_performance_regression(self):
        current = self._report(self._symbolic_entry(speedup=2.0))
        regressions = compare_reports(current, self._report(self._symbolic_entry()), check_wall=False)
        assert any("below the suite floor" in r for r in regressions)

    def test_speedup_collapse_against_baseline_is_regression(self):
        current = self._report(self._symbolic_entry(speedup=5.0))
        baseline = self._report(self._symbolic_entry(speedup=40.0))
        regressions = compare_reports(current, baseline, check_wall=False)
        assert any("collapsed" in r for r in regressions)

    def test_missing_symbolic_workload_is_flagged(self):
        current = self._report(None)
        current.pop("symbolic")
        regressions = compare_reports(current, self._report(self._symbolic_entry()), check_wall=False)
        assert any("symbolic workload missing" in r for r in regressions)

    def test_committed_smoke_baseline_records_the_speedup_claim(self):
        from pathlib import Path

        repo_root = Path(__file__).resolve().parent.parent
        report = load_report(repo_root / "benchmarks" / "baselines" / "BENCH_smoke.json")
        symbolic = report["symbolic"]
        assert symbolic["results_match"] is True
        assert symbolic["min_speedup"] >= 3.0
        assert symbolic["speedup"] >= 3.0
        assert symbolic["totals_sha256"]


class TestServeWorkload:
    def _serve_entry(self, **overrides):
        return dict(copy.deepcopy(CLEAN_ENTRIES['serve']), **overrides)

    def _report(self, serve):
        return {
            "suite": "tiny",
            "wall_seconds": 1.0,
            "calibration_seconds": 0.1,
            "jobs": [],
            "totals": {"work_units": 0},
            "serve": serve,
        }

    def test_run_suite_records_serve_workload(self, monkeypatch):
        monkeypatch.setitem(
            bench.SUITES,
            "tiny",
            dict(
                TINY_SUITE,
                serve={
                    "kernels": ["jacobi-1d"],
                    "budget": 200,
                    "repeats": 2,
                    "clients": 2,
                    "workers": 1,
                },
            ),
        )
        report = run_suite("tiny", store_path=None)
        serve = report["serve"]
        assert serve["errors"] == 0
        assert serve["probe_ok"] is True and serve["probe_coalesced"] == 2
        assert serve["shed_ok"] is True
        # One engine job per unique spec: jacobi-1d plus the probe source.
        assert serve["engine_jobs"] == serve["unique_specs"] == 2
        assert serve["coalesced"] + serve["cached"] == serve["dedup"]
        assert serve["payloads_identical"] is True
        assert serve["misses"]["jacobi-1d"]
        assert serve["p50_seconds"] > 0 and serve["p95_seconds"] > 0

    def test_clean_serve_workload_passes(self):
        report = self._report(self._serve_entry())
        assert compare_reports(report, self._report(self._serve_entry()), check_wall=False) == []

    def test_request_errors_are_flagged(self):
        current = self._report(self._serve_entry(errors=3))
        regressions = compare_reports(current, self._report(self._serve_entry()), check_wall=False)
        assert any("failed request" in r for r in regressions)

    def test_failed_coalesce_probe_is_regression(self):
        current = self._report(self._serve_entry(probe_coalesced=0))
        regressions = compare_reports(current, self._report(self._serve_entry()), check_wall=False)
        assert any("failed to coalesce" in r for r in regressions)

    def test_unshed_unlimited_budget_is_regression(self):
        current = self._report(self._serve_entry(shed_ok=False))
        regressions = compare_reports(current, self._report(self._serve_entry()), check_wall=False)
        assert any("not shed" in r for r in regressions)

    def test_excess_engine_jobs_is_regression(self):
        current = self._report(self._serve_entry(engine_jobs=9))
        regressions = compare_reports(current, self._report(self._serve_entry()), check_wall=False)
        assert any("engine jobs for" in r for r in regressions)

    def test_unaccounted_duplicates_is_regression(self):
        current = self._report(self._serve_entry(cached=100))
        regressions = compare_reports(current, self._report(self._serve_entry()), check_wall=False)
        assert any("dedup accounting" in r for r in regressions)

    def test_zero_store_hits_is_regression(self):
        current = self._report(self._serve_entry(cached=0, coalesced=200))
        regressions = compare_reports(current, self._report(self._serve_entry()), check_wall=False)
        assert any("store served no duplicate" in r for r in regressions)

    def test_payload_divergence_is_accuracy_regression(self):
        current = self._report(self._serve_entry(payloads_identical=False))
        regressions = compare_reports(current, self._report(self._serve_entry()), check_wall=False)
        assert any("not byte-identical" in r for r in regressions)

    def test_miss_drift_is_accuracy_regression(self):
        current = self._report(self._serve_entry(misses={"gemm": [69, 68]}))
        regressions = compare_reports(current, self._report(self._serve_entry()), check_wall=False)
        assert any("miss counts changed" in r for r in regressions)

    def test_latency_collapse_is_gated_by_wall_check(self):
        current = self._report(self._serve_entry(p95_seconds=25.0))
        regressions = compare_reports(current, self._report(self._serve_entry()))
        assert any("p95 request latency" in r for r in regressions)
        # Latency is a wall-clock metric: --no-wall disables the gate.
        assert compare_reports(current, self._report(self._serve_entry()), check_wall=False) == []

    def test_missing_serve_workload_is_flagged(self):
        current = self._report(None)
        current.pop("serve")
        regressions = compare_reports(current, self._report(self._serve_entry()), check_wall=False)
        assert any("serve workload missing" in r for r in regressions)

    def test_committed_smoke_baseline_records_the_service_guarantees(self):
        from pathlib import Path

        repo_root = Path(__file__).resolve().parent.parent
        report = load_report(repo_root / "benchmarks" / "baselines" / "BENCH_smoke.json")
        serve = report["serve"]
        assert serve["errors"] == 0
        assert serve["probe_ok"] is True and serve["probe_coalesced"] == 2
        assert serve["shed_ok"] is True
        assert serve["engine_jobs"] == serve["unique_specs"]
        assert serve["coalesced"] + serve["cached"] == serve["dedup"]
        assert serve["payloads_identical"] is True
        assert serve["p95_seconds"] > 0


class TestExploreWorkload:
    def _explore_entry(self, **overrides):
        return dict(copy.deepcopy(CLEAN_ENTRIES['explore']), **overrides)

    def _report(self, explore):
        return {
            "suite": "tiny",
            "wall_seconds": 1.0,
            "calibration_seconds": 0.1,
            "jobs": [],
            "totals": {"work_units": 0},
            "explore": explore,
        }

    def test_run_suite_records_explore_workload(self, monkeypatch):
        monkeypatch.setitem(
            bench.SUITES,
            "tiny",
            dict(TINY_SUITE, explore={"size": 8, "tiles": [1, 2], "points": 4, "max_cost_ratio": 0.25}),
        )
        report = run_suite("tiny", store_path=None)
        explore = report["explore"]
        assert explore["kernel"] == "bench-curve-matvec"
        assert explore["analyses"] == 2
        assert explore["grid_size"] == 2 * explore["capacity_points"]
        assert explore["independent_analyses"] == explore["grid_size"]
        assert explore["grid_seconds"] > 0 and explore["independent_seconds"] > 0
        assert explore["table_digest"]
        assert explore["backends_match"] is True

    def test_clean_explore_workload_passes(self):
        report = self._report(self._explore_entry())
        assert compare_reports(report, self._report(self._explore_entry()), check_wall=False) == []

    def test_backend_divergence_is_accuracy_regression(self):
        current = self._report(self._explore_entry(backends_match=False))
        regressions = compare_reports(current, self._report(self._explore_entry()), check_wall=False)
        assert any("across backends" in r for r in regressions)

    def test_table_drift_is_accuracy_regression(self):
        current = self._report(self._explore_entry(table_digest="def456"))
        regressions = compare_reports(current, self._report(self._explore_entry()), check_wall=False)
        assert any("ranked table changed" in r for r in regressions)

    def test_cost_ratio_over_ceiling_is_performance_regression(self):
        current = self._report(self._explore_entry(cost_ratio=0.5))
        regressions = compare_reports(current, self._report(self._explore_entry()))
        assert any("explore grid costs" in r for r in regressions)
        # The ratio is a wall-clock metric: --no-wall disables the gate.
        assert compare_reports(current, self._report(self._explore_entry()), check_wall=False) == []

    def test_missing_explore_workload_is_flagged(self):
        current = self._report(None)
        regressions = compare_reports(current, self._report(self._explore_entry()), check_wall=False)
        assert any("explore workload missing" in r for r in regressions)

    def test_committed_smoke_baseline_records_the_grid_claim(self):
        from pathlib import Path

        repo_root = Path(__file__).resolve().parent.parent
        report = load_report(repo_root / "benchmarks" / "baselines" / "BENCH_smoke.json")
        explore = report["explore"]
        assert explore["grid_size"] == 64 and explore["analyses"] == 4
        assert explore["backends_match"] is True
        assert explore["max_cost_ratio"] <= 0.25
        assert explore["cost_ratio"] <= explore["max_cost_ratio"]



#: One perturbation per gate of ``bench.WORKLOADS``, keyed
#: ``workload:kind:field``: overrides for the current entry, overrides for the
#: baseline entry, and a substring of the one regression that must follow.
GATE_CASES = {
    "trace:holds:results_match": ({"results_match": False, "numpy_misses": [101, 50]}, {}, "backends disagree"),
    "trace:exact:misses": ({"misses": [101, 50]}, {}, "miss counts changed"),
    "trace:floor:speedup": ({"speedup": 9.0}, {"speedup": 12.0}, "below the suite floor"),
    "trace:collapse:speedup": ({"speedup": 11.0}, {"speedup": 60.0}, "collapsed"),
    "curve:holds:counts_match": ({"counts_match": False}, {}, "disagree with the exact trace reference"),
    "curve:exact:sweep_misses": ({"sweep_misses": [3000, 2001, 500, 0]}, {}, "sweep counts changed"),
    "curve:holds:used_fallback": ({"used_fallback": True}, {}, "fell back"),
    "curve:ceiling:sweep_ratio": ({"sweep_ratio": 2.5}, {}, "curve sweep costs"),
    "symbolic:holds:results_match": ({"results_match": False}, {}, "evaluation backends disagree"),
    "symbolic:exact:totals_sha256": ({"totals_sha256": "def456"}, {}, "per-capacity totals changed"),
    "symbolic:floor:speedup": ({"speedup": 2.0}, {"speedup": 5.0}, "below the suite floor"),
    "symbolic:collapse:speedup": ({"speedup": 5.0}, {"speedup": 40.0}, "collapsed"),
    "serve:holds:errors": ({"errors": 3}, {}, "failed request"),
    "serve:holds:probe_coalesced": ({"probe_coalesced": 0}, {}, "failed to coalesce"),
    "serve:holds:shed_ok": ({"shed_ok": False}, {}, "not shed"),
    "serve:holds:engine_jobs": ({"engine_jobs": 9}, {}, "engine jobs for"),
    "serve:holds:dedup": ({"cached": 100}, {}, "dedup accounting"),
    "serve:holds:cached": ({"cached": 0, "coalesced": 200}, {}, "store served no duplicate"),
    "serve:holds:payloads_identical": ({"payloads_identical": False}, {}, "not byte-identical"),
    "serve:exact:misses": ({"misses": {"gemm": [69, 68]}}, {}, "miss counts changed"),
    "serve:collapse:p95_seconds": ({"p95_seconds": 25.0}, {}, "p95 request latency"),
    "explore:holds:backends_match": ({"backends_match": False}, {}, "across backends"),
    "explore:exact:table_digest": ({"table_digest": "def456"}, {}, "ranked table changed"),
    "explore:ceiling:cost_ratio": ({"cost_ratio": 0.5}, {}, "explore grid costs"),
}

#: The wall-clock gates: the only ones ``check_wall=False`` turns off.
WALL_GATES = {"curve:ceiling:sweep_ratio", "serve:collapse:p95_seconds", "explore:ceiling:cost_ratio"}

#: ``workload:kind:field`` -> workload name, for every gate in the table.
GATES = {f"{row.name}:{gate.kind}:{gate.field}": row.name for row in bench.WORKLOADS for gate in row.gates}


class TestWorkloadGates:
    def _report(self, name, entry):
        return {
            "suite": "tiny",
            "wall_seconds": 1.0,
            "calibration_seconds": 0.1,
            "jobs": [],
            "totals": {"work_units": 0},
            name: entry,
        }

    def test_gate_ids_are_unique(self):
        assert len(GATES) == sum(len(workload.gates) for workload in bench.WORKLOADS)

    @pytest.mark.parametrize("gate_id", sorted(set(GATES) | set(GATE_CASES)))
    def test_every_gate_fires_alone(self, gate_id):
        assert gate_id in GATES, f"stale case {gate_id}: no such gate in bench.WORKLOADS"
        assert gate_id in GATE_CASES, f"gate {gate_id} has no perturbation in GATE_CASES"
        name = GATES[gate_id]
        current_overrides, baseline_overrides, expected = GATE_CASES[gate_id]
        baseline = self._report(name, dict(copy.deepcopy(CLEAN_ENTRIES[name]), **baseline_overrides))
        assert compare_reports(baseline, baseline) == []
        current = self._report(name, dict(copy.deepcopy(CLEAN_ENTRIES[name]), **current_overrides))
        (regression,) = compare_reports(current, baseline)
        assert expected in regression
        assert regression.startswith(("accuracy:", "performance:"))
        assert (compare_reports(current, baseline, check_wall=False) == []) == (gate_id in WALL_GATES)

    @pytest.mark.parametrize("name", [workload.name for workload in bench.WORKLOADS])
    def test_dropped_section_is_flagged_missing(self, name):
        current = self._report(name, None)
        current.pop(name)
        baseline = self._report(name, copy.deepcopy(CLEAN_ENTRIES[name]))
        assert compare_reports(current, baseline) == [f"accuracy: {name} workload missing from current report"]

    @pytest.mark.parametrize("name", [workload.name for workload in bench.WORKLOADS])
    def test_every_section_has_a_summary_line(self, name):
        summary = bench.format_bench_summary(self._report(name, copy.deepcopy(CLEAN_ENTRIES[name])))
        assert f"{name} workload:" in summary


class TestBenchCli:
    def test_bench_writes_report(self, tmp_path, capsys):
        output = tmp_path / "BENCH_tiny.json"
        rc = main(["bench", "--suite", "tiny", "--output", str(output)])
        assert rc == 0
        assert "bench suite 'tiny'" in capsys.readouterr().out
        report = json.loads(output.read_text())
        assert report["suite"] == "tiny" and report["jobs"]

    def test_bench_compare_clean_baseline_exits_zero(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main(["bench", "--suite", "tiny", "--output", str(tmp_path / "a.json"),
                     "--baseline", str(baseline), "--update-baseline"]) == 0
        rc = main(["bench", "--suite", "tiny", "--output", str(tmp_path / "b.json"),
                   "--baseline", str(baseline), "--compare", "--no-wall"])
        assert rc == 0
        assert "no regressions" in capsys.readouterr().out

    def test_bench_compare_injected_regression_exits_nonzero(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main(["bench", "--suite", "tiny", "--output", str(tmp_path / "a.json"),
                     "--baseline", str(baseline), "--update-baseline"]) == 0
        doctored = json.loads(baseline.read_text())
        doctored["jobs"][0]["misses"][0] += 1
        baseline.write_text(json.dumps(doctored))
        rc = main(["bench", "--suite", "tiny", "--output", str(tmp_path / "b.json"),
                   "--baseline", str(baseline), "--compare", "--no-wall"])
        assert rc == 4
        assert "accuracy" in capsys.readouterr().out

    def test_bench_compare_missing_baseline_exits_two(self, tmp_path, capsys):
        rc = main(["bench", "--suite", "tiny", "--output", str(tmp_path / "a.json"),
                   "--baseline", str(tmp_path / "nope.json"), "--compare"])
        assert rc == 2
        assert "cannot load baseline" in capsys.readouterr().err

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-0.1"])
    def test_bench_rejects_non_finite_or_negative_tolerance(self, tmp_path, tolerance, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--suite", "tiny", "--output", str(tmp_path / "a.json"),
                  "--compare", "--tolerance", tolerance])
        assert excinfo.value.code == 2
        assert "--tolerance" in capsys.readouterr().err
        assert not (tmp_path / "a.json").exists()

    def test_bench_compare_and_update_baseline_are_exclusive(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--suite", "tiny", "--output", str(tmp_path / "a.json"),
                  "--baseline", str(baseline), "--compare", "--update-baseline"])
        assert excinfo.value.code == 2
        assert "not allowed with" in capsys.readouterr().err
        assert not baseline.exists()

    def test_committed_smoke_baseline_is_well_formed(self):
        from pathlib import Path

        repo_root = Path(__file__).resolve().parent.parent
        report = load_report(repo_root / "benchmarks" / "baselines" / "BENCH_smoke.json")
        assert report["suite"] == "smoke"
        assert report["totals"]["errors"] == 0
        assert report["totals"]["jobs"] == len(report["jobs"]) == 6
        assert all(job["status"] == "ok" for job in report["jobs"])
