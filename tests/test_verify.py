"""The kernel verifier: static diagnostics, cost prediction, all surfaces."""

import json
import warnings
from pathlib import Path

import pytest

from repro.api import Session, registry
from repro.core.model import CacheModel, ModelOptions
from repro.frontend import KernelParseError, parse_kernel, parse_kernel_path
from repro.reporting import format_diagnostics
from repro.scop.builder import ScopBuilder
from repro.verify import (
    DIAGNOSTICS_SCHEMA_VERSION,
    Diagnostic,
    VerificationError,
    VerificationWarning,
    check_scop,
    estimate_cost,
    sort_diagnostics,
    verify_program,
    verify_scop,
)

BROKEN_DIR = Path(__file__).resolve().parent.parent / "examples" / "kernels" / "broken"


def _codes(findings):
    return [diag.code for diag in findings]


# ----------------------------------------------------------------------
# Builder-level programs, one per check
# ----------------------------------------------------------------------
def _copy_scop(read_offset=0, extent=16):
    """``for i in [0, extent): A[i] += B[i + read_offset]``."""
    b = ScopBuilder("copy")
    a = b.array("A", [extent])
    src = b.array("B", [extent])
    with b.loop("i", 0, extent) as i:
        b.stmt(reads=[src[i + read_offset], a[i]], writes=[a[i]])
    return b.build()


class TestBoundsCheck:
    def test_clean_program_has_no_findings(self):
        assert check_scop(_copy_scop()) == []

    def test_overrun_is_an_error_with_a_witness(self):
        findings = check_scop(_copy_scop(read_offset=1))
        oob = [diag for diag in findings if diag.code == "OOB"]
        assert len(oob) == 1
        assert oob[0].severity == "error"
        assert oob[0].array == "B" and oob[0].statement == "S0"
        # The witness instance names the violating iteration.
        assert "i=15" in oob[0].message and ">= extent 16" in oob[0].message

    def test_negative_index_side(self):
        findings = check_scop(_copy_scop(read_offset=-1))
        oob = [diag for diag in findings if diag.code == "OOB"]
        assert len(oob) == 1 and oob[0].severity == "error"
        assert "< 0" in oob[0].message and "i=0" in oob[0].message

    def test_multidimensional_access_reports_the_dimension(self):
        b = ScopBuilder("md")
        a = b.array("A", [4, 8])
        with b.loop("i", 0, 4) as i:
            with b.loop("j", 0, 9) as j:  # j reaches 8: column overrun
                b.stmt(writes=[a[i, j]])
        oob = [diag for diag in check_scop(b.build()) if diag.code == "OOB"]
        assert len(oob) == 1
        assert "index 1" in oob[0].message and "extent 8" in oob[0].message


class TestDeadAndDataflow:
    def test_empty_domain_is_dead(self):
        b = ScopBuilder("dead")
        a = b.array("A", [8])
        with b.loop("i", 4, 4) as i:  # [4, 4) is empty
            b.stmt(writes=[a[i]])
        findings = check_scop(b.build())
        dead = [diag for diag in findings if diag.code == "DEAD"]
        assert len(dead) == 1 and dead[0].severity == "warning"
        assert dead[0].statement == "S0"

    def test_unused_and_write_only_arrays(self):
        b = ScopBuilder("dataflow")
        a = b.array("A", [8])
        src = b.array("B", [8])
        b.array("ghost", [8])
        with b.loop("i", 0, 8) as i:
            b.stmt(reads=[src[i]], writes=[a[i]])
        findings = check_scop(b.build())
        by_code = {diag.code: diag for diag in findings}
        assert by_code["UNUSED"].array == "ghost"
        assert by_code["UNUSED"].severity == "warning"
        assert by_code["WRITE-NEVER-READ"].array == "A"
        assert by_code["WRITE-NEVER-READ"].severity == "info"


class TestScheduleCheck:
    def test_distinct_schedules_are_clean(self):
        scop = registry.get_kernel("gemm").build("mini")
        assert [d for d in check_scop(scop) if d.code == "SCHED"] == []

    def test_colliding_pair_is_an_error(self):
        program = parse_kernel_path(str(BROKEN_DIR / "sched.knl"))
        scop = program.instantiate(program.dataset_sizes("mini"))
        sched = [d for d in check_scop(scop) if d.code == "SCHED"]
        assert len(sched) == 1 and sched[0].severity == "error"
        assert "S0" in sched[0].message and "S1" in sched[0].message


# ----------------------------------------------------------------------
# Source locations through the frontend
# ----------------------------------------------------------------------
class TestSourceLocations:
    def test_oob_location_points_at_the_access(self):
        program = parse_kernel_path(str(BROKEN_DIR / "oob.knl"))
        report = verify_program(program, "mini", cost=False)
        oob = [d for d in report.diagnostics if d.code == "OOB"]
        assert len(oob) == 1
        loc = oob[0].location
        assert loc is not None and loc.line == 18 and loc.col == 12
        assert loc.filename.endswith("oob.knl")
        assert f"{loc.filename}:18:12" in oob[0].render()

    def test_dead_location_points_at_the_statement(self):
        program = parse_kernel_path(str(BROKEN_DIR / "dead.knl"))
        report = verify_program(program, cost=False)  # dataset defaults to first
        dead = [d for d in report.diagnostics if d.code == "DEAD"]
        assert len(dead) == 1
        assert dead[0].location.line == 21 and dead[0].location.col == 1

    def test_builder_programs_have_no_locations(self):
        findings = check_scop(_copy_scop(read_offset=1))
        assert all(diag.location is None for diag in findings)
        # The renderer anchors unlocated findings on the statement instead.
        assert "[statement S0" in findings[0].render()


# ----------------------------------------------------------------------
# Cost prediction
# ----------------------------------------------------------------------
class TestCostPrediction:
    def test_tiny_program_fits(self):
        report = estimate_cost(_copy_scop(), budget=50_000)
        assert report.outcome == "fits" and not report.trips
        assert 0 < report.work_units <= 50_000
        assert report.piece_count > 0

    def test_small_budget_trips(self):
        scop = registry.get_kernel("gemm").build("mini")
        report = estimate_cost(scop, budget=300)
        assert report.outcome == "budget" and report.trips
        assert report.work_units > 300  # charged up to the tripping charge

    @pytest.mark.parametrize("kernel", ["gemm", "atax", "bicg", "mvt", "trisolv", "jacobi-1d"])
    def test_default_budget_acceptance_all_smoke_kernels(self, kernel):
        """The acceptance gate: probe outcome == real outcome, per kernel.

        Work charges are deterministic and pre-memo, so the probe's
        trip/no-trip answer at the default budget must equal what
        ``CacheModel.analyze`` does at the same budget, for every bench
        smoke kernel.  (At the paper datasets they all trip — that is what
        the committed bench baselines record.)
        """
        from repro.isl.work import BudgetExhausted
        from repro.verify.cost import DEFAULT_VERIFY_BUDGET

        scop = registry.get_kernel(kernel).build("mini")
        predicted = estimate_cost(scop, budget=DEFAULT_VERIFY_BUDGET)
        options = ModelOptions(
            symbolic_work_budget=DEFAULT_VERIFY_BUDGET,
            fallback_to_simulation=False,
            cross_check=False,
            store_path=None,
        )
        try:
            CacheModel(None, options).analyze(scop)
            actual_trips = False
        except BudgetExhausted:
            actual_trips = True
        assert predicted.trips == actual_trips, (
            f"{kernel}: probe said {predicted.outcome} "
            f"({predicted.work_units} units), reality said trips={actual_trips}"
        )

    def test_prediction_is_exact_at_the_trip_boundary(self):
        """The probe and the analysis agree on both sides of the limit.

        ``U`` is what the program charges with no limit: at budget ``U``
        both complete, at ``U - 1`` both trip.
        """
        from repro.isl.work import BudgetExhausted

        scop = _copy_scop()

        def model(budget):
            options = ModelOptions(symbolic_work_budget=budget, fallback_to_simulation=False)
            return CacheModel(None, options)

        units = model(None).analyze(scop).timing.work_units_charged
        assert units > 0
        fits = estimate_cost(scop, budget=units)
        assert fits.outcome == "fits" and not fits.trips and fits.work_units == units
        result = model(units).analyze(scop)
        assert not result.used_fallback and result.timing.work_units_charged == units

        trips = estimate_cost(scop, budget=units - 1)
        assert trips.outcome == "budget" and trips.trips
        with pytest.raises(BudgetExhausted):
            model(units - 1).analyze(scop)

    def test_cost_diagnostic_rides_in_the_report(self):
        report = verify_scop(_copy_scop(), budget=50_000)
        cost = [d for d in report.diagnostics if d.code == "COST"]
        assert len(cost) == 1 and cost[0].severity == "info"
        assert report.cost is not None and report.cost.outcome == "fits"

    def test_no_cost_skips_the_probe(self):
        report = verify_scop(_copy_scop(), cost=False)
        assert report.cost is None
        assert all(d.code != "COST" for d in report.diagnostics)


# ----------------------------------------------------------------------
# Pre-flight inside the model
# ----------------------------------------------------------------------
class TestPreflight:
    def test_error_mode_refuses_broken_programs(self):
        options = ModelOptions(verify="error", symbolic_work_budget=200)
        with pytest.raises(VerificationError) as excinfo:
            CacheModel(None, options).analyze(_copy_scop(read_offset=1))
        assert any(d.code == "OOB" for d in excinfo.value.diagnostics)

    @staticmethod
    def _sched_collision_scop():
        # A schedule collision is an error-severity finding, but the program
        # still executes (unlike an out-of-bounds access, which crashes the
        # trace fallback) — exactly what warn-and-continue needs.
        program = parse_kernel_path(str(BROKEN_DIR / "sched.knl"))
        return program.instantiate(program.dataset_sizes("mini"))

    def test_warn_mode_warns_and_analyzes(self):
        options = ModelOptions(verify="warn", symbolic_work_budget=200)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = CacheModel(None, options).analyze(self._sched_collision_scop())
        assert result.level_results
        assert any(issubclass(w.category, VerificationWarning) for w in caught)

    def test_off_mode_is_silent(self):
        options = ModelOptions(verify="off", symbolic_work_budget=200)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            CacheModel(None, options).analyze(self._sched_collision_scop())
        assert not any(issubclass(w.category, VerificationWarning) for w in caught)

    def test_invalid_mode_is_rejected(self):
        options = ModelOptions(verify="loudly")
        with pytest.raises(ValueError, match="verify"):
            CacheModel(None, options).analyze(_copy_scop())

    def test_clean_program_unaffected_by_error_mode(self):
        options = ModelOptions(verify="error", symbolic_work_budget=200)
        assert CacheModel(None, options).analyze(_copy_scop()).level_results


# ----------------------------------------------------------------------
# Report payloads, ordering, rendering
# ----------------------------------------------------------------------
class TestReport:
    def test_payload_schema(self):
        program = parse_kernel_path(str(BROKEN_DIR / "oob.knl"))
        payload = verify_program(program, "mini", cost=False).to_payload()
        assert payload["schema_version"] == DIAGNOSTICS_SCHEMA_VERSION
        assert payload["kernel"] == "broken-oob" and payload["dataset"] == "mini"
        assert payload["summary"]["error"] == 1
        oob = [d for d in payload["diagnostics"] if d["code"] == "OOB"]
        assert oob[0]["location"]["line"] == 18 and oob[0]["location"]["col"] == 12
        json.dumps(payload)  # JSON-serializable end to end

    def test_sort_puts_errors_first(self):
        unsorted = [
            Diagnostic(code="UNUSED", severity="info", message="c"),
            Diagnostic(code="DEAD", severity="warning", message="b"),
            Diagnostic(code="SCHED", severity="error", message="a"),
        ]
        assert [d.severity for d in sort_diagnostics(unsorted)] == [
            "error",
            "warning",
            "info",
        ]

    def test_has_errors_strict_counts_warnings(self):
        program = parse_kernel_path(str(BROKEN_DIR / "dead.knl"))
        report = verify_program(program, cost=False)
        assert not report.has_errors()
        assert report.has_errors(strict=True)

    def test_format_diagnostics_renders_a_table(self):
        program = parse_kernel_path(str(BROKEN_DIR / "oob.knl"))
        report = verify_program(program, "mini", cost=False)
        table = format_diagnostics(report.diagnostics)
        assert "OOB" in table and "error" in table and ":18:12" in table

    def test_invalid_code_and_severity_are_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic(code="BOGUS", severity="error", message="x")
        with pytest.raises(ValueError):
            Diagnostic(code="OOB", severity="fatal", message="x")


# ----------------------------------------------------------------------
# Name resolution: eager failure + did-you-mean
# ----------------------------------------------------------------------
class TestDidYouMean:
    def test_unknown_kernel_suggests_closest(self):
        with pytest.raises(registry.RegistryError, match="did you mean 'gemm'"):
            registry.get_kernel("gem")

    def test_unknown_dataset_suggests_closest(self):
        entry = registry.get_kernel("gemm")
        with pytest.raises(registry.RegistryError, match="did you mean"):
            entry.build("mni")

    def test_unknown_machine_suggests_closest(self):
        with pytest.raises(registry.RegistryError, match="did you mean 'paper-xeon'"):
            registry.get_machine("paper-xeno")

    def test_no_close_match_lists_without_hint(self):
        with pytest.raises(registry.RegistryError) as excinfo:
            registry.get_kernel("zzzzzzzz")
        assert "did you mean" not in str(excinfo.value)
        assert "available:" in str(excinfo.value)

    def test_frontend_dataset_typo(self):
        program = parse_kernel("kernel k\ndataset mini { N = 4 }\narray A[N]\nS0: { [i] : 0 <= i < N }\n    A[i] += 1\n")
        with pytest.raises(KernelParseError, match="did you mean 'mini'"):
            program.dataset_sizes("mni")


# ----------------------------------------------------------------------
# Session façade
# ----------------------------------------------------------------------
class TestSessionLint:
    def test_lint_registered_kernel(self):
        report = Session().lint("gemm", cost=False)
        assert report.kernel == "gemm" and report.dataset == "mini"
        assert not report.has_errors()

    def test_lint_scop_object(self):
        report = Session().lint(_copy_scop(read_offset=1), cost=False)
        assert report.has_errors()
        assert "OOB" in report.codes()

    def test_lint_unknown_kernel_fails_eagerly(self):
        with pytest.raises(registry.RegistryError, match="did you mean"):
            Session().lint("gem", cost=False)
