"""End-to-end tests of the ``repro-haystack`` command line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import COMMANDS, main
from repro.core.results import ModelResult
from repro.engine import BatchResult
from repro.scop.polybench import kernel_names

#: Tiny symbolic work budget: every PolyBench kernel trips it within a
#: fraction of a second and degrades to the exact trace fallback, which keeps
#: the CLI tests fast while exercising the full pipeline.
FAST = ["--budget", "200"]


class TestList:
    def test_lists_all_kernels(self, capsys):
        assert main(["list"]) == 0
        printed = capsys.readouterr().out.split()
        assert printed == kernel_names()


class TestModel:
    def test_model_prints_table(self, capsys):
        assert main(["model", "gemm", "--dataset", "mini", *FAST]) == 0
        out = capsys.readouterr().out
        assert "gemm (mini)" in out
        assert "L1" in out and "fallback used" in out

    def test_model_no_fallback_fails_cleanly(self, capsys):
        rc = main(["model", "gemm", "--dataset", "mini", "--no-fallback", *FAST])
        assert rc == 3
        assert "fallback is disabled" in capsys.readouterr().err

    def test_model_multi_level(self, capsys):
        rc = main(["model", "jacobi-1d", "--dataset", "mini", "--l2", "262144", *FAST])
        assert rc == 0
        out = capsys.readouterr().out
        assert "L2" in out


class TestSimulate:
    def test_simulate_jacobi(self, capsys):
        assert main(["simulate", "jacobi-1d", "--dataset", "mini"]) == 0
        out = capsys.readouterr().out
        assert "trace simulation" in out

    def test_simulate_policy_and_prefetch(self, capsys):
        rc = main(["simulate", "jacobi-1d", "--dataset", "mini",
                   "--associativity", "4", "--policy", "tree-plru",
                   "--prefetch-degree", "1"])
        assert rc == 0
        assert "writebacks" in capsys.readouterr().out

    def test_simulate_policy_requires_associativity(self, capsys):
        rc = main(["simulate", "jacobi-1d", "--dataset", "mini", "--policy", "fifo"])
        assert rc == 2
        assert "--associativity" in capsys.readouterr().err


class TestExplore:
    ARGS = ["explore", "trisolv", "--dataset", "mini", "--no-store",
            "--tiles", "1,2", "--capacities", "1K,32K", *FAST]

    def test_explore_ranks_grid(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "ranked configurations: 4 configs from 2 analyses" in out
        assert "pareto" in out and "table digest" in out

    def test_explore_pareto_limit_and_json(self, capsys):
        assert main([*self.ARGS, "--json", "--pareto"]) == 0
        table = json.loads(capsys.readouterr().out)
        assert table["analyses"] == 2 and table["grid_size"] == 4
        assert all(config["pareto"] for config in table["pareto"])

    def test_explore_bad_axis_spec_exits_two(self, capsys):
        rc = main(["explore", "trisolv", "--tiles", "2:1", "--no-store", *FAST])
        assert rc == 2
        assert "--tiles" in capsys.readouterr().err


class TestCompare:
    def test_compare_agreement_exits_zero(self, capsys):
        rc = main(["compare", "jacobi-1d", "--dataset", "mini", *FAST])
        out = capsys.readouterr().out
        assert "model vs. simulation" in out
        assert rc == 0

    def test_compare_disagreement_exits_one(self, capsys):
        # A direct-mapped simulation has conflict misses the fully
        # associative model cannot predict.
        rc = main(
            ["compare", "trisolv", "--dataset", "mini", "--l1", "1024", "--associativity", "1", *FAST]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "difference" in out


class TestBatch:
    KERNELS = "gemm,atax,bicg,mvt,trisolv,jacobi-1d"

    def test_batch_parallel_matches_sequential(self, tmp_path, capsys):
        sequential_path = tmp_path / "seq.json"
        parallel_path = tmp_path / "par.json"
        assert main(
            ["batch", "--kernels", self.KERNELS, "--jobs", "1", *FAST, "--output", str(sequential_path)]
        ) == 0
        assert main(
            ["batch", "--kernels", self.KERNELS, "--jobs", "4", *FAST, "--output", str(parallel_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "batch: 6 jobs" in out

        def miss_signature(path):
            data = json.loads(path.read_text())
            return [
                (job["kernel"], job["dataset"], job["result"]["levels"])
                for job in data["jobs"]
            ]

        assert miss_signature(parallel_path) == miss_signature(sequential_path)

    def test_batch_json_round_trip(self, tmp_path, capsys):
        output = tmp_path / "results.json"
        rc = main(
            ["batch", "--kernels", "gemm,atax", "--datasets", "mini", "--jobs", "2",
             "--l2", "262144", *FAST, "--output", str(output)]
        )
        assert rc == 0
        capsys.readouterr()
        data = json.loads(output.read_text())
        batch = BatchResult.from_dict(data)
        assert len(batch) == 2 and batch.error_count == 0
        for record, job in zip(batch.records, data["jobs"]):
            clone = ModelResult.from_dict(job["result"])
            assert clone.to_dict() == record.result.to_dict()
            assert [level.name for level in clone.level_results] == ["L1", "L2"]

    def test_batch_rejects_unknown_kernel(self, capsys):
        rc = main(["batch", "--kernels", "gemm,nope"])
        assert rc == 2
        assert "unknown kernels: nope" in capsys.readouterr().err

    def test_batch_rejects_unknown_dataset(self, capsys):
        rc = main(["batch", "--kernels", "gemm", "--datasets", "huge"])
        assert rc == 2
        assert "unknown datasets: huge" in capsys.readouterr().err

    def test_batch_rejects_disabled_l1(self, capsys):
        rc = main(["batch", "--kernels", "gemm", "--l1", "0"])
        assert rc == 2
        assert "--l1 must be a positive size" in capsys.readouterr().err

    def test_batch_rejects_empty_kernels(self, capsys):
        rc = main(["batch", "--kernels", ""])
        assert rc == 2
        assert "no kernels given" in capsys.readouterr().err


class TestStoreFlags:
    def test_model_second_run_served_from_store(self, tmp_path, capsys):
        store = ["--store-path", str(tmp_path / "store")]
        assert main(["model", "gemm", "--dataset", "mini", *FAST, *store]) == 0
        first = capsys.readouterr().out
        assert "store 0 hits / 0 misses" in first
        assert main(["model", "gemm", "--dataset", "mini", *FAST, *store]) == 0
        second = capsys.readouterr().out
        assert "result served from store" in second
        assert "fallback used" in second  # the cached flag round-trips

    def test_store_backend_accepts_only_sqlite(self, tmp_path, capsys):
        """``--store-backend`` stays for old command lines (the perfbench
        serve-mixed invocation below) but names no other backend."""
        from repro.cli import _parser

        store = str(tmp_path / "store")
        argv = [
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            "--port-file",
            str(tmp_path / "port"),
            "--workers",
            "1",
            "--store-path",
            store,
            "--store-backend",
            "sqlite",
            "--max-budget",
            "150",
            "--budget",
            "150",
        ]
        args = _parser().parse_args(argv)
        assert (args.store_path, args.store_backend, args.workers) == (store, "sqlite", 1)
        for backend in ("dir", "redis"):
            with pytest.raises(SystemExit) as excinfo:
                main(["model", "gemm", "--store-backend", backend])
            assert excinfo.value.code == 2
            assert f"invalid choice: '{backend}'" in capsys.readouterr().err

    def test_model_no_store_prints_disabled(self, capsys):
        assert main(["model", "gemm", "--dataset", "mini", *FAST, "--no-store"]) == 0
        assert "store disabled" in capsys.readouterr().out

    def test_compare_prints_stats_on_fallback_path(self, capsys):
        # The compare summary must carry the cache/store statistics even when
        # the model degraded to the trace fallback.
        rc = main(["compare", "jacobi-1d", "--dataset", "mini", *FAST])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cardinality cache" in out
        assert "work units:" in out
        assert "fallback used" in out

    def test_batch_store_serves_warm_rerun(self, tmp_path, capsys):
        store = ["--store-path", str(tmp_path / "store")]
        argv = ["batch", "--kernels", "gemm,atax", *FAST, *store]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "0/2 results served from store" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "2/2 results served from store" in warm

    def test_batch_no_store_omits_store_footer(self, capsys):
        assert main(["batch", "--kernels", "gemm", *FAST, "--no-store"]) == 0
        assert "served from store" not in capsys.readouterr().out

    def test_zero_l1_is_a_distinct_store_identity(self, tmp_path, capsys):
        # --l1 0 --l2 N and --l1 N build different machines (L1 always
        # exists); their store digests must differ or the second run would be
        # served the wrong cached hierarchy.
        store = ["--store-path", str(tmp_path / "store")]
        assert main(["model", "gemm", "--dataset", "mini", "--l1", "32768", *FAST, *store]) == 0
        capsys.readouterr()
        assert main(
            ["model", "gemm", "--dataset", "mini", "--l1", "0", "--l2", "32768", *FAST, *store]
        ) == 0
        out = capsys.readouterr().out
        assert "L2" in out
        assert "result served from store" not in out


class TestAnalyze:
    GEMM_KNL = str(Path(__file__).resolve().parent.parent / "examples" / "kernels" / "gemm.knl")

    def test_analyze_golden_gemm(self, capsys):
        assert main(["analyze", self.GEMM_KNL, *FAST, "--no-store"]) == 0
        out = capsys.readouterr().out
        assert "gemm (mini)" in out
        assert "L1" in out

    def test_analyze_explicit_dataset(self, capsys):
        rc = main(["analyze", self.GEMM_KNL, "--dataset", "small", *FAST, "--no-store"])
        assert rc == 0
        assert "gemm (small)" in capsys.readouterr().out

    def test_analyze_curve_json(self, capsys):
        rc = main(
            ["analyze", self.GEMM_KNL, "--curve", "--sweep", "256:4096:4",
             "--json", *FAST, "--no-store"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kernel"] == "gemm"
        assert len(payload["sweep"]) >= 4

    def test_analyze_compare(self, capsys):
        rc = main(["analyze", self.GEMM_KNL, "--compare", *FAST, "--no-store"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "model vs. simulation" in out

    def test_analyze_matches_registered_kernel_table(self, capsys):
        # The .knl port and the registered builder kernel must render the
        # exact same table -- same misses, same fallback flags.
        assert main(["analyze", self.GEMM_KNL, *FAST, "--no-store"]) == 0
        from_file = capsys.readouterr().out
        assert main(["model", "gemm", "--dataset", "mini", *FAST, "--no-store"]) == 0
        from_registry = capsys.readouterr().out
        def strip(text):
            # The footer embeds wall-clock time; everything else must match.
            return [line for line in text.splitlines() if "model time" not in line]

        assert strip(from_file) == strip(from_registry)

    def test_analyze_parse_error_has_caret_and_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.knl"
        bad.write_text("kernel bad\narray A[8]\nS0: { [i] 0 <= i < 8 }\n    A[i] = 0\n")
        assert main(["analyze", str(bad), *FAST, "--no-store"]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:3:11:" in err
        assert "^" in err
        assert "Traceback" not in err

    def test_analyze_missing_file_exit_2(self, capsys):
        assert main(["analyze", "no/such/file.knl", *FAST, "--no-store"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_analyze_flag_guards(self, capsys):
        assert main(["analyze", self.GEMM_KNL, "--curve", "--compare"]) == 2
        assert main(["analyze", self.GEMM_KNL, "--json"]) == 2
        assert main(["analyze", self.GEMM_KNL, "--sweep", "1K:8M"]) == 2
        capsys.readouterr()


class TestLint:
    OOB_KNL = "examples/kernels/broken/oob.knl"
    GEMM_KNL = "examples/kernels/gemm.knl"

    def test_clean_kernel_exits_zero(self, capsys):
        assert main(["lint", self.GEMM_KNL, "--no-cost"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_registered_kernel_by_name(self, capsys):
        assert main(["lint", "--kernel", "trisolv", "--dataset", "mini", "--no-cost"]) == 0
        capsys.readouterr()

    def test_broken_kernel_exits_three_with_location(self, capsys):
        assert main(["lint", self.OOB_KNL, "--no-cost"]) == 3
        out = capsys.readouterr().out
        assert "OOB" in out and f"{self.OOB_KNL}:18:12" in out

    def test_json_payload(self, capsys):
        assert main(["lint", self.OOB_KNL, "--no-cost", "--json"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] >= 1
        assert payload["summary"]["error"] == 1
        oob = [d for d in payload["diagnostics"] if d["code"] == "OOB"]
        assert oob[0]["location"]["line"] == 18 and oob[0]["location"]["col"] == 12

    def test_strict_promotes_warnings(self, capsys):
        dead = "examples/kernels/broken/dead.knl"
        assert main(["lint", dead, "--no-cost"]) == 0
        assert main(["lint", dead, "--no-cost", "--strict"]) == 3
        capsys.readouterr()

    def test_cost_prediction_in_output(self, capsys):
        # A tripping budget is a warning, not an error: exit stays 0.
        assert main(["lint", "--kernel", "gemm", "--budget", "300"]) == 0
        out = capsys.readouterr().out
        assert "COST" in out and "will trip" in out

    def test_unknown_kernel_did_you_mean_exit_2(self, capsys):
        assert main(["lint", "--kernel", "gem", "--no-cost"]) == 2
        assert "did you mean 'gemm'" in capsys.readouterr().err

    def test_unknown_dataset_did_you_mean_exit_2(self, capsys):
        assert main(["lint", "--kernel", "gemm", "--dataset", "mni", "--no-cost"]) == 2
        assert "did you mean 'mini'" in capsys.readouterr().err

    def test_exactly_one_input_required(self, capsys):
        assert main(["lint", "--no-cost"]) == 2
        assert main(["lint", self.GEMM_KNL, "--kernel", "gemm", "--no-cost"]) == 2
        capsys.readouterr()

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.knl"
        bad.write_text("kernel bad\narray A[8]\nS0: { [i] 0 <= i < 8 }\n    A[i] = 0\n")
        assert main(["lint", str(bad), "--no-cost"]) == 2
        assert f"{bad}:3:11:" in capsys.readouterr().err


class TestCommandTable:
    @pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command.name)
    def test_every_row_builds_and_rejects_unknown_kernels(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command.name, "--help"])
        assert excinfo.value.code == 0
        assert f"repro-haystack {command.name}" in capsys.readouterr().out
        if "kernel" in command.args:
            assert main([command.name, "no-such-kernel"]) == 2
            err = capsys.readouterr().err
            assert "unknown kernel 'no-such-kernel'" in err
            assert err.count("\n") == 1 and "Traceback" not in err


class TestUsageErrors:
    """Bad input exits 2 without a traceback, before any analysis or trace runs."""

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize("ways", ["0", "-2"])
    def test_associativity_must_be_positive(self, command, ways, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "trisolv", "--associativity", ways])
        assert excinfo.value.code == 2
        assert "--associativity: must be >= 1" in capsys.readouterr().err

    def test_analyze_compare_associativity_must_be_positive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", TestAnalyze.GEMM_KNL, "--compare", "--associativity", "0"])
        assert excinfo.value.code == 2
        assert "--associativity: must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "trisolv", "--associativity", "3"], "multiple of line size * associativity"),
            (["simulate", "trisolv", "--l1", "100"], "multiple of the line size"),
            (["simulate", "trisolv", "--l2", "65000"], "multiple of the line size"),
            (["compare", "trisolv", "--l1", "100", *FAST, "--no-store"], "multiple of the line size"),
            (["compare", "trisolv", "--associativity", "3", *FAST, "--no-store"], "line size * associativity"),
        ],
    )
    def test_simulator_geometry_is_checked_up_front(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        # One line, and no fallback warning: the model never started.
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [["model", "gemm"], ["simulate", "gemm"], ["curve", "gemm"], ["batch", "--kernels", "gemm"], ["bench"]],
        ids=lambda argv: argv[0],
    )
    def test_backend_is_not_an_option(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--backend", "numpy"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --backend numpy" in capsys.readouterr().err

    def test_serve_port_out_of_range(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", "70000"])
        assert excinfo.value.code == 2
        assert "--port: must be in 0..65535" in capsys.readouterr().err

    def test_batch_output_directory_must_exist(self, tmp_path, capsys):
        output = tmp_path / "missing" / "x.json"
        assert main(["batch", "--kernels", "gemm", *FAST, "--no-store", "--output", str(output)]) == 2
        captured = capsys.readouterr()
        assert "--output directory does not exist" in captured.err
        assert captured.err.count("\n") == 1 and captured.out == ""
