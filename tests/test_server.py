"""Analysis service: protocol, coalescing, admission, HTTP round trips."""

import asyncio
import json
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.api import Session
from repro.engine.store import AnalysisStore, job_digest, make_store_spec
from repro.server import AnalysisService, BackgroundServer, RequestError, build_spec
from repro.server import service as service_module
from repro.server.client import ServerError

GEMM_KNL = (Path(__file__).resolve().parent.parent / "examples" / "kernels" / "gemm.knl").read_text()


def _fake_record(spec, payload=None):
    """A JobRecord look-alike; lets service tests skip real engine work."""
    result = types.SimpleNamespace(to_dict=lambda: payload or {"kernel": spec.kernel, "fake": True})
    return types.SimpleNamespace(status="ok", error="", kernel=spec.kernel, result=result)


class _CountingWorker:
    """Replacement for the engine worker: counts calls, optionally gated."""

    def __init__(self, gated: bool = False):
        self.calls = 0
        self.started = threading.Event()
        self.release = threading.Event()
        if not gated:
            self.release.set()

    def __call__(self, payload):
        index, spec, store_path = payload
        self.calls += 1
        self.started.set()
        assert self.release.wait(timeout=30.0)
        return _fake_record(spec)


# ----------------------------------------------------------------------
# Request protocol
# ----------------------------------------------------------------------
class TestBuildSpec:
    def test_kernel_request_matches_session_spec(self):
        spec, kernel = build_spec({"kernel": "gemm", "budget": 2000})
        assert kernel == "gemm"
        assert spec == Session().budget(2000).job_spec("gemm", "mini")

    def test_machine_preset_and_levels_are_exclusive(self):
        with pytest.raises(RequestError, match="mutually exclusive"):
            build_spec({"kernel": "gemm", "machine": "paper-xeon", "levels": [1024]})

    def test_explicit_levels_and_line_size(self):
        spec, _ = build_spec({"kernel": "gemm", "levels": [4096, 65536], "line_size": 32})
        assert spec.levels == (4096, 65536) and spec.line_size == 32

    def test_kernel_and_source_are_exclusive(self):
        with pytest.raises(RequestError, match="exactly one"):
            build_spec({"kernel": "gemm", "source": GEMM_KNL})
        with pytest.raises(RequestError, match="exactly one"):
            build_spec({})

    def test_unknown_field_rejected(self):
        with pytest.raises(RequestError, match="unknown request field"):
            build_spec({"kernel": "gemm", "kernell": "typo"})

    def test_unknown_kernel_rejected(self):
        with pytest.raises(RequestError, match="unknown kernel"):
            build_spec({"kernel": "nope"})

    def test_default_budget_applies_when_absent(self):
        spec, _ = build_spec({"kernel": "gemm"}, default_budget=1234)
        assert spec.symbolic_work_budget == 1234
        spec, _ = build_spec({"kernel": "gemm", "budget": 99}, default_budget=1234)
        assert spec.symbolic_work_budget == 99

    def test_source_parses_and_ships_scop(self):
        spec, kernel = build_spec({"source": GEMM_KNL, "budget": 2000})
        assert kernel == "gemm" and spec.scop is not None
        # Same text, same structural digest — independent of submission count.
        again, _ = build_spec({"source": GEMM_KNL, "budget": 2000})
        assert job_digest(spec) == job_digest(again)

    def test_source_syntax_error_is_located(self):
        with pytest.raises(RequestError, match="<request>:"):
            build_spec({"source": "kernel broken\nnot a declaration\n"})

    def test_capacity_sweep_flows_into_spec(self):
        spec, _ = build_spec({"kernel": "gemm", "capacities": [64, 1024, 64]})
        assert spec.curve_capacities == (64, 1024)


class TestBuildExplorePlan:
    def test_plan_expands_one_job_per_tile_and_line_size(self):
        from repro.server.protocol import build_explore_plan

        plan = build_explore_plan(
            {
                "kernel": "gemm",
                "levels": [32 * 1024],
                "tiles": "1,4",
                "capacities": [1024, 32 * 1024],
                "line_sizes": [32, 64],
            },
            default_budget=2000,
        )
        assert [(tile, line) for tile, line, _ in plan.jobs] == [(1, 32), (4, 32), (1, 64), (4, 64)]
        for tile, line_size, job in plan.jobs:
            # Each expanded job is an ordinary /v1/analyze payload: one level
            # at the largest capacity, the whole axis as curve breakpoints.
            assert job["tile"] == tile and job["line_size"] == line_size
            assert job["levels"] == [32 * 1024]
            assert job["capacities"] == [1024, 32 * 1024]
            assert job["budget"] == 2000

    def test_axes_default_from_the_machine(self):
        from repro.server.protocol import build_explore_plan

        plan = build_explore_plan({"kernel": "gemm", "levels": [4096, 65536]})
        assert plan.space.capacities == (4096, 65536)
        assert plan.space.tiles == (1,)
        assert len(plan.jobs) == 1

    def test_malformed_requests_rejected(self):
        from repro.server.protocol import build_explore_plan

        with pytest.raises(RequestError, match="unknown explore field"):
            build_explore_plan({"kernel": "gemm", "line_size": 64})
        with pytest.raises(RequestError, match="exactly one"):
            build_explore_plan({"tiles": [1]})
        with pytest.raises(RequestError, match="mutually exclusive"):
            build_explore_plan({"kernel": "gemm", "machine": "paper-xeon", "levels": [1024]})
        with pytest.raises(RequestError, match="tiles"):
            build_explore_plan({"kernel": "gemm", "tiles": [0]})


# ----------------------------------------------------------------------
# Coalescing and admission (service level, deterministic)
# ----------------------------------------------------------------------
class TestCoalescing:
    def test_concurrent_identical_requests_share_one_job(self, monkeypatch):
        worker = _CountingWorker()
        monkeypatch.setattr(service_module, "_execute_job", worker)
        service = AnalysisService(workers=0)
        job = {"kernel": "gemm", "budget": 2000}

        async def drive():
            return await asyncio.gather(service.analyze(job), service.analyze(dict(job)))

        (s1, b1), (s2, b2) = asyncio.run(drive())
        assert (s1, s2) == (200, 200)
        assert worker.calls == 1
        assert service.stats()["coalesced"] == 1
        assert service.stats()["engine_jobs"] == 1
        # Byte-identical result payloads from the single shared computation.
        assert json.dumps(b1["result"], sort_keys=True) == json.dumps(b2["result"], sort_keys=True)
        flags = sorted((b["meta"]["coalesced"]) for b in (b1, b2))
        assert flags == [False, True]

    def test_distinct_requests_do_not_coalesce(self, monkeypatch):
        worker = _CountingWorker()
        monkeypatch.setattr(service_module, "_execute_job", worker)
        service = AnalysisService(workers=0)

        async def drive():
            return await asyncio.gather(
                service.analyze({"kernel": "gemm", "budget": 2000}),
                service.analyze({"kernel": "atax", "budget": 2000}),
            )

        results = asyncio.run(drive())
        assert all(status == 200 for status, _ in results)
        assert worker.calls == 2
        assert service.stats()["coalesced"] == 0

    def test_leader_failure_propagates_to_waiters(self, monkeypatch):
        def failing_worker(payload):
            _, spec, _ = payload
            return types.SimpleNamespace(status="error", error="boom", kernel=spec.kernel, result=None)

        monkeypatch.setattr(service_module, "_execute_job", failing_worker)
        service = AnalysisService(workers=0)
        job = {"kernel": "gemm", "budget": 2000}

        async def drive():
            return await asyncio.gather(service.analyze(job), service.analyze(dict(job)))

        (s1, b1), (s2, b2) = asyncio.run(drive())
        assert (s1, s2) == (500, 500)
        assert "boom" in b1["error"] and "boom" in b2["error"]
        # The failure is not cached: a later request retries.
        assert service.stats()["errors"] == 1


class TestAdmission:
    def test_budget_ceiling_sheds(self):
        service = AnalysisService(workers=0, max_budget=1000)

        async def drive(job):
            return await service.analyze(job)

        status, body = asyncio.run(drive({"kernel": "gemm", "budget": 2000}))
        assert status == 429 and body["shed"] == "budget"
        # Unlimited (budget 0 -> None) is above any ceiling.
        status, body = asyncio.run(drive({"kernel": "gemm", "budget": 0}))
        assert status == 429 and body["shed"] == "budget"
        assert service.stats()["shed_budget"] == 2

    def test_budget_ceiling_sheds_lint_cost_probes(self):
        # The cost probe spends symbolic work like an analysis, so it faces
        # the same ceiling; a lint without the probe costs no budget.
        service = AnalysisService(workers=0, max_budget=1000)
        for budget in (0, 2000):
            status, body = asyncio.run(service.lint({"kernel": "gemm", "budget": budget}))
            assert status == 429 and body["shed"] == "budget", budget
        status, body = asyncio.run(service.lint({"kernel": "gemm", "budget": 0, "cost": False}))
        assert status == 200 and "cost" not in body
        assert service.stats()["shed_budget"] == 2

    def test_capacity_cap_sheds_when_full(self, monkeypatch):
        worker = _CountingWorker(gated=True)
        monkeypatch.setattr(service_module, "_execute_job", worker)
        service = AnalysisService(workers=0, max_inflight=1)

        async def drive():
            leader = asyncio.ensure_future(service.analyze({"kernel": "gemm", "budget": 2000}))
            await asyncio.to_thread(worker.started.wait, 10.0)
            shed_status, shed_body = await service.analyze({"kernel": "atax", "budget": 2000})
            worker.release.set()
            leader_status, _ = await leader
            return shed_status, shed_body, leader_status

        shed_status, shed_body, leader_status = asyncio.run(drive())
        assert (shed_status, shed_body["shed"]) == (429, "capacity")
        assert leader_status == 200
        assert service.stats()["shed_capacity"] == 1

    def test_running_lints_hold_capacity_slots(self, monkeypatch):
        import repro.verify

        worker = _CountingWorker(gated=True)
        monkeypatch.setattr(service_module, "_execute_job", worker)
        lint_started, lint_release = threading.Event(), threading.Event()

        def blocking_verify(*args, **kwargs):
            lint_started.set()
            assert lint_release.wait(timeout=30.0)
            return types.SimpleNamespace(to_payload=lambda: {"blocked": True})

        monkeypatch.setattr(repro.verify, "verify_scop", blocking_verify)
        service = AnalysisService(workers=0, max_inflight=2)

        async def drive():
            leader = asyncio.ensure_future(service.analyze({"kernel": "gemm", "budget": 2000}))
            await asyncio.to_thread(worker.started.wait, 10.0)
            lint = asyncio.ensure_future(service.lint({"kernel": "gemm", "cost": False}))
            await asyncio.to_thread(lint_started.wait, 10.0)
            full = service.stats()["in_flight"]
            shed = [
                await service.lint({"kernel": "atax", "cost": False}),
                await service.analyze({"kernel": "atax", "budget": 2000}),
            ]
            lint_release.set()
            worker.release.set()
            return full, shed, await lint, await leader

        full, shed, lint, leader = asyncio.run(drive())
        assert full == 2
        assert [(status, body["shed"]) for status, body in shed] == [(429, "capacity")] * 2
        assert lint == (200, {"blocked": True}) and leader[0] == 200
        stats = service.stats()
        assert stats["shed_capacity"] == 2 and stats["in_flight"] == 0

    def test_constructor_validates_configuration(self, tmp_path):
        with pytest.raises(ValueError):
            AnalysisService(workers=-1)
        with pytest.raises(ValueError):
            AnalysisService(max_inflight=0)
        target = tmp_path / "file"
        target.write_text("not a store")
        with pytest.raises(ValueError, match="is a file"):
            AnalysisService(store_path=str(target))


# ----------------------------------------------------------------------
# HTTP round trips (live server on a background thread)
# ----------------------------------------------------------------------
class TestHttpServer:
    def test_health_stats_and_errors(self):
        with BackgroundServer(workers=0, default_budget=2000) as server:
            client = server.client()
            assert client.wait_ready()["status"] == "ok"
            stats = client.stats()
            assert stats["requests"] == 0 and stats["store"] is None
            assert client.request("GET", "/nope")[0] == 404
            assert client.request("PUT", "/healthz")[0] == 405
            assert client.request("POST", "/v1/analyze", {"kernel": "gemm", "bogus": 1})[0] == 400

    def test_analyze_round_trip_matches_offline_session(self, tmp_path):
        spec_string = make_store_spec(tmp_path, "dir")
        job = {"kernel": "gemm", "budget": 2000}
        with BackgroundServer(workers=0, store_path=spec_string) as server:
            client = server.client()
            envelope = client.analyze(job)
            assert envelope["meta"]["cached"] is False
            # A rerun is served from the shared store.
            rerun = client.analyze(dict(job))
            assert rerun["meta"]["cached"] is True
            assert json.dumps(rerun["result"], sort_keys=True) == json.dumps(
                envelope["result"], sort_keys=True
            )
        # The offline path on the same store must read the same entry and
        # produce the byte-identical payload.
        offline_session = Session().budget(2000).store(spec_string)
        offline = offline_session.analyze("gemm", "mini")
        assert envelope["meta"]["digest"] == job_digest(offline_session.job_spec("gemm", "mini"))
        assert json.dumps(offline.to_dict(), sort_keys=True) == json.dumps(
            envelope["result"], sort_keys=True
        )

    def test_inline_source_round_trip(self, tmp_path):
        spec_string = make_store_spec(tmp_path, "sqlite")
        with BackgroundServer(workers=0, store_path=spec_string) as server:
            client = server.client()
            envelope = client.analyze({"source": GEMM_KNL, "budget": 2000})
            assert envelope["meta"]["kernel"] == "gemm"
            assert envelope["result"]["levels"]
            # Same source again: structural digest hits the sqlite store.
            again = client.analyze({"source": GEMM_KNL, "budget": 2000})
            assert again["meta"]["cached"] is True
            assert again["meta"]["digest"] == envelope["meta"]["digest"]
        store = AnalysisStore(spec_string)
        assert store.get_result(envelope["meta"]["digest"]) is not None

    def test_concurrent_duplicates_coalesce_over_http(self, monkeypatch):
        worker = _CountingWorker(gated=True)
        monkeypatch.setattr(service_module, "_execute_job", worker)
        job = {"kernel": "gemm", "budget": 2000}
        with BackgroundServer(workers=0) as server:
            client = server.client()
            with ThreadPoolExecutor(max_workers=2) as pool:
                leader = pool.submit(client.analyze, job)
                assert worker.started.wait(timeout=10.0)
                waiter = pool.submit(client.analyze, dict(job))
                # The duplicate must be coalesced (visible in /stats) before
                # anything completes — both requests ride one engine job.
                for _ in range(200):
                    if server.service.stats()["coalesced"] >= 1:
                        break
                    threading.Event().wait(0.01)
                assert server.service.stats()["coalesced"] == 1
                worker.release.set()
                first, second = leader.result(timeout=30), waiter.result(timeout=30)
            assert worker.calls == 1
            assert json.dumps(first["result"], sort_keys=True) == json.dumps(
                second["result"], sort_keys=True
            )
            stats = client.stats()
            assert stats["engine_jobs"] == 1 and stats["coalesced"] == 1

    def test_budget_shed_over_http(self):
        with BackgroundServer(workers=0, max_budget=500) as server:
            client = server.client()
            with pytest.raises(ServerError) as excinfo:
                client.analyze({"kernel": "gemm", "budget": 2000})
            assert excinfo.value.status == 429
            assert excinfo.value.body["shed"] == "budget"

    def test_explore_round_trip_matches_offline_session(self, tmp_path):
        spec_string = make_store_spec(tmp_path, "dir")
        request = {
            "kernel": "gemm",
            "levels": [32 * 1024],
            "tiles": [1, 4],
            "capacities": [1024, 32 * 1024],
            "budget": 2000,
        }
        with BackgroundServer(workers=0, store_path=spec_string) as server:
            envelope = server.client().explore(request)
        meta, table = envelope["meta"], envelope["explore"]
        assert meta["kernel"] == "gemm" and meta["analyses"] == 2
        assert table["grid_size"] == len(table["configs"]) == 4
        assert [c["pareto"] for c in table["configs"]].count(True) == len(table["pareto"])
        # The offline explorer over the same axes produces the identical
        # table digest — shared assembly, shared store entries.
        offline = (
            Session()
            .machine((32 * 1024,))
            .budget(2000)
            .store(spec_string)
            .explore("gemm", tiles=[1, 4], capacities=[1024, 32 * 1024])
        )
        assert offline.table_digest() == meta["table_digest"]

    def test_explore_request_validation_over_http(self):
        with BackgroundServer(workers=0) as server:
            client = server.client()
            assert client.request("GET", "/v1/explore")[0] == 405
            status, body = client.request("POST", "/v1/explore", {"kernel": "gemm", "bogus": 1})
            assert status == 400 and "unknown explore field" in body["error"]
            status, body = client.request("POST", "/v1/explore", {"tiles": [1]})
            assert status == 400 and "exactly one" in body["error"]

    def test_batch_endpoint_streams_and_dedups(self, monkeypatch):
        worker = _CountingWorker()
        monkeypatch.setattr(service_module, "_execute_job", worker)
        jobs = [
            {"kernel": "gemm", "budget": 2000},
            {"kernel": "atax", "budget": 2000},
            {"kernel": "gemm", "budget": 2000},
        ]
        with BackgroundServer(workers=0) as server:
            records = list(server.client().batch_iter(jobs))
        assert sorted(record["index"] for record in records) == [0, 1, 2]
        assert all(record["status"] == 200 for record in records)
        # The duplicate gemm coalesced into its twin: two engine jobs, not three.
        assert worker.calls == 2


OOB_KNL = (
    Path(__file__).resolve().parent.parent / "examples" / "kernels" / "broken" / "oob.knl"
).read_text()


class TestLintEndpoint:
    def test_registered_kernel_lints_clean(self):
        service = AnalysisService(workers=0)
        status, body = asyncio.run(service.lint({"kernel": "gemm", "cost": False}))
        assert status == 200
        assert body["schema_version"] >= 1
        assert body["kernel"] == "gemm" and body["dataset"] == "mini"
        assert body["summary"]["error"] == 0
        assert service.stats()["lints"] == 1

    def test_inline_source_carries_request_locations(self):
        service = AnalysisService(workers=0)
        status, body = asyncio.run(service.lint({"source": OOB_KNL, "cost": False}))
        assert status == 200
        oob = [d for d in body["diagnostics"] if d["code"] == "OOB"]
        assert len(oob) == 1 and oob[0]["severity"] == "error"
        assert oob[0]["location"] == {"file": "<request>", "line": 18, "col": 12}
        # Findings are data, not failures: errors still answer 200.
        assert body["summary"]["error"] == 1

    def test_cost_prediction_rides_in_the_payload(self):
        service = AnalysisService(workers=0)
        status, body = asyncio.run(service.lint({"kernel": "gemm", "budget": 300}))
        assert status == 200
        assert body["cost"]["outcome"] == "budget" and body["cost"]["trips"] is True
        assert any(d["code"] == "COST" for d in body["diagnostics"])

    def test_request_validation(self):
        service = AnalysisService(workers=0)
        cases = [
            ({}, "exactly one"),
            ({"kernel": "gemm", "source": "x"}, "exactly one"),
            ({"kernel": "gemm", "tile": 2}, "unknown lint field"),
            ({"kernel": "gem"}, "did you mean 'gemm'"),
            ({"kernel": "gemm", "budget": "lots"}, "budget"),
            ({"kernel": "gemm", "cost": 1}, "cost"),
            ({"kernel": "gemm", "machine": "paper-xeon", "levels": [1024]}, "mutually exclusive"),
        ]
        for payload, fragment in cases:
            status, body = asyncio.run(service.lint(payload))
            assert status == 400, payload
            assert fragment in body["error"], (payload, body)

    def test_lint_never_touches_the_engine(self, monkeypatch):
        worker = _CountingWorker()
        monkeypatch.setattr(service_module, "_execute_job", worker)
        service = AnalysisService(workers=0)
        status, _ = asyncio.run(service.lint({"kernel": "gemm", "cost": False}))
        assert status == 200
        assert worker.calls == 0
        assert service.stats()["engine_jobs"] == 0

    def test_http_round_trip(self):
        with BackgroundServer(workers=0) as server:
            client = server.client()
            status, body = client.request("POST", "/v1/lint", {"source": OOB_KNL, "cost": False})
            assert status == 200
            assert body["summary"]["error"] == 1
            # Method/body errors are rejected at the HTTP layer, before the
            # service sees (and counts) a lint request.
            assert client.request("GET", "/v1/lint")[0] == 405
            assert client.request("POST", "/v1/lint")[0] == 400
            assert client.stats()["lints"] == 1
