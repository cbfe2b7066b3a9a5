"""The analysis service: coalescing, admission control, and job execution.

:class:`AnalysisService` is the transport-independent core behind the HTTP
layer (:mod:`repro.server.http`): it turns one request payload into one
response ``(status, body)`` pair, and owns the three mechanisms that make
the service safe to share:

* **Request coalescing** — in-flight jobs are keyed by the same
  :func:`~repro.engine.store.job_digest` the store uses, in one
  ``Dict[digest, Future]``.  The first request for a digest becomes the
  *leader* (it runs the engine job); any request arriving for the same
  digest while the leader is in flight becomes a *waiter* and awaits the
  leader's future.  N identical concurrent requests cost exactly one engine
  job, and every response carries the identical payload object.  The
  in-flight map is only touched from the event loop, so no locks are
  needed; the future is registered *before* the leader's first ``await``,
  closing the window in which a duplicate could slip past.

* **Admission control** — two shed conditions, both answered with a 429
  body instead of queueing unbounded work: a *global concurrency cap*
  (``max_inflight`` analyze leaders plus running lints; waiters are free,
  they consume no engine slot), and an optional *budget ceiling*
  (``max_budget``) that rejects requests demanding more symbolic work than
  the operator allows — including requests asking for an unlimited budget,
  and lint cost probes.
  Analyses that name no budget get ``default_budget``.

* **Write-through store** — leaders look up the shared
  :class:`~repro.engine.store.AnalysisStore` before computing and publish
  their result to it after, so a restarted server (or an offline
  ``repro-haystack analyze`` against the same store) serves and reuses the
  same entries.  Store I/O runs in worker threads, never on the loop.

Engine jobs execute in a ``ProcessPoolExecutor`` running the exact batch
worker entry point (:func:`repro.engine.batch._execute_job`), so a server
job is the same computation as a batch job — same budget accounting, same
error isolation, same store interaction.  ``workers=0`` degrades to inline
threads (tests monkeypatch the worker there).
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Optional, Tuple

from ..engine.batch import _execute_job
from ..engine.jobs import JobSpec
from ..engine.store import AnalysisStore, job_digest, validate_store_env, validate_store_path
from .protocol import (
    RequestError,
    build_explore_plan,
    build_lint_request,
    build_spec,
    error_body,
    result_envelope,
)

__all__ = ["AnalysisService"]

#: Default cap on concurrently *executing* jobs (leaders and lints, not waiters).
DEFAULT_MAX_INFLIGHT = 8


class AnalysisService:
    """One long-lived analysis backend shared by every connection.

    Construct, then drive from an event loop via :meth:`analyze`; call
    :meth:`shutdown` when done (the background helpers and the CLI do both).
    """

    def __init__(
        self,
        *,
        store_path: Optional[str] = None,
        workers: int = 1,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        max_budget: Optional[int] = None,
        default_budget: Optional[int] = None,
    ) -> None:
        validate_store_env()
        if store_path:
            store_path = validate_store_path(store_path)
        if workers < 0:
            raise ValueError(f"worker count must be >= 0, got {workers}")
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.store_path = store_path
        self.store = AnalysisStore(store_path) if store_path else None
        self.workers = workers
        self.max_inflight = max_inflight
        self.max_budget = max_budget
        self.default_budget = default_budget
        self._inflight: Dict[str, asyncio.Future] = {}
        #: Lints whose worker thread is running; each holds one slot of
        #: ``max_inflight`` next to the analyze leaders in ``_inflight``.
        self._running_lints = 0
        self._executor: Optional[ProcessPoolExecutor] = None
        self._started = time.monotonic()
        self._counters = {
            "requests": 0,
            "coalesced": 0,
            "shed_capacity": 0,
            "shed_budget": 0,
            "engine_jobs": 0,
            "explores": 0,
            "lints": 0,
            "errors": 0,
        }

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    async def analyze(self, payload: Dict) -> Tuple[int, Dict]:
        """One request JSON in, ``(http_status, response_body)`` out."""
        self._counters["requests"] += 1
        try:
            spec, kernel = build_spec(payload, default_budget=self.default_budget)
        except RequestError as exc:
            return exc.status, error_body(exc)
        shed = self._budget_shed(spec.symbolic_work_budget)
        if shed is not None:
            return 429, shed

        digest = job_digest(spec)
        existing = self._inflight.get(digest)
        if existing is not None:
            # Waiter: share the leader's computation (and its failure).
            self._counters["coalesced"] += 1
            try:
                result = await asyncio.shield(existing)
            except Exception as exc:  # noqa: BLE001 - leader failures propagate
                return 500, error_body(exc)
            return 200, result_envelope(
                result, digest=digest, kernel=kernel, cached=False, coalesced=True
            )

        shed = self._capacity_shed()
        if shed is not None:
            return 429, shed

        # Leader: register the future before the first await, so duplicates
        # arriving during the store lookup coalesce instead of recomputing.
        future = asyncio.get_running_loop().create_future()
        self._inflight[digest] = future
        try:
            cached = False
            result = None
            if self.store is not None:
                result = await asyncio.to_thread(self.store.get_result, digest)
                cached = result is not None
            if result is None:
                self._counters["engine_jobs"] += 1
                record = await self._run_job(spec)
                if record.status != "ok" or record.result is None:
                    raise RuntimeError(record.error or f"job {record.kernel!r} failed")
                result = record.result.to_dict()
                if self.store is not None:
                    await asyncio.to_thread(self.store.put_result, digest, result)
            future.set_result(result)
        except Exception as exc:  # noqa: BLE001 - per-request error isolation
            self._counters["errors"] += 1
            future.set_exception(exc)
            future.exception()  # consumed: waiters re-raise their own copy
            return 500, error_body(exc)
        finally:
            self._inflight.pop(digest, None)
        return 200, result_envelope(
            result, digest=digest, kernel=kernel, cached=cached, coalesced=False
        )

    async def explore(self, payload: Dict) -> Tuple[int, Dict]:
        """One ``/v1/explore`` request in, ``(status, body)`` out.

        The plan expands to one ordinary analyze payload per (tile, line
        size); each runs through :meth:`analyze`, so every sub-analysis gets
        the full coalescing + write-through-store + admission treatment (a
        shed sub-analysis sheds the whole explore).  Sub-analyses run
        sequentially — the grid's cheapness comes from the parametric
        capacity axis, not fan-out — and the assembled table is built by the
        same :func:`repro.explore.build_result` the offline paths use, so
        online and offline tables are identical for identical curves.
        """
        from ..core.curve import MissCurve
        from ..explore import build_result

        self._counters["explores"] += 1
        try:
            plan = build_explore_plan(payload, default_budget=self.default_budget)
        except RequestError as exc:
            return exc.status, error_body(exc)

        curves: Dict[Tuple[int, int], MissCurve] = {}
        kernel = None
        cached = 0
        for tile, line_size, job in plan.jobs:
            status, body = await self.analyze(job)
            if status != 200:
                body = dict(body)
                body["explore_config"] = {"tile": tile, "line_size": line_size}
                return status, body
            kernel = body["meta"]["kernel"]
            cached += bool(body["meta"]["cached"])
            curve_payload = body["result"].get("miss_curve")
            if curve_payload is None:
                self._counters["errors"] += 1
                return 500, error_body(
                    f"analysis for tile={tile} line_size={line_size} returned no miss curve"
                )
            curves[(tile, line_size)] = MissCurve.from_dict(curve_payload)

        result = build_result(
            plan.space,
            lambda tile, line_size: curves[(tile, line_size)],
            kernel=kernel or "",
            dataset=plan.dataset,
        )
        table = result.to_dict()
        table.pop("elapsed_seconds", None)
        return 200, {
            "meta": {
                "kernel": kernel,
                "analyses": result.analyses,
                "cached": cached,
                "table_digest": result.table_digest(),
            },
            "explore": table,
        }

    async def lint(self, payload: Dict) -> Tuple[int, Dict]:
        """One ``/v1/lint`` request in, ``(status, verify payload)`` out.

        Lint never runs the cache model, so it bypasses coalescing, the
        store, and the engine pool entirely: the static checks plus the
        (budget-bounded) cost probe run in a worker thread and the
        :meth:`~repro.verify.VerifyReport.to_payload` JSON comes straight
        back.  The cost probe spends symbolic work like an analysis, so a
        lint that runs it faces the same budget ceiling (429); ``cost:
        false`` lints skip that check.  Every running lint holds one
        ``max_inflight`` slot while its thread runs, so lints shed (429)
        at capacity like analyze leaders.  Findings are data, not failures
        — a kernel full of errors still answers 200; only malformed requests
        (400) and internal faults (500) are non-OK.
        """
        from ..verify import verify_scop

        self._counters["lints"] += 1
        try:
            request = build_lint_request(payload)
        except RequestError as exc:
            return exc.status, error_body(exc)
        if request.cost:
            shed = self._budget_shed(request.budget)
            if shed is not None:
                return 429, shed
        shed = self._capacity_shed()
        if shed is not None:
            return 429, shed
        self._running_lints += 1
        try:
            report = await asyncio.to_thread(
                verify_scop,
                request.scop,
                request.machine,
                dataset=request.dataset,
                budget=request.budget,
                cost=request.cost,
            )
        except Exception as exc:  # noqa: BLE001 - per-request error isolation
            self._counters["errors"] += 1
            return 500, error_body(exc)
        finally:
            self._running_lints -= 1
        return 200, report.to_payload()

    def _in_flight(self) -> int:
        """Occupied ``max_inflight`` slots: analyze leaders plus running lints."""
        return len(self._inflight) + self._running_lints

    def _capacity_shed(self) -> Optional[Dict]:
        """A 429 body (counted as ``shed_capacity``) when every slot is taken."""
        if self._in_flight() < self.max_inflight:
            return None
        self._counters["shed_capacity"] += 1
        return error_body(
            f"server is at capacity ({self.max_inflight} jobs in flight); retry later",
            shed="capacity",
        )

    def _budget_shed(self, budget: Optional[int]) -> Optional[Dict]:
        """A 429 body (counted as ``shed_budget``) when ``budget`` work units
        (``None`` = unlimited) exceed the admission ceiling."""
        if self.max_budget is None or (budget is not None and budget <= self.max_budget):
            return None
        self._counters["shed_budget"] += 1
        if budget is None:
            message = f'unlimited work budgets are not admitted; request "budget" <= {self.max_budget}'
        else:
            message = f"requested budget {budget} exceeds the admission ceiling {self.max_budget}"
        return error_body(message, shed="budget")

    async def _run_job(self, spec: JobSpec):
        """Execute one engine job off the event loop (pool or inline thread)."""
        payload = (0, spec, self.store_path)
        if self.workers == 0:
            return await asyncio.to_thread(_execute_job, payload)
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, _execute_job, payload
        )

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> Dict:
        """The ``/stats`` body: service counters plus the shared store's."""
        body = dict(self._counters)
        body["in_flight"] = self._in_flight()
        body["uptime_seconds"] = round(time.monotonic() - self._started, 3)
        body["workers"] = self.workers
        body["max_inflight"] = self.max_inflight
        body["max_budget"] = self.max_budget
        body["store"] = self.store.stats().as_dict() if self.store is not None else None
        return body

    def healthz(self) -> Dict:
        return {"status": "ok", "in_flight": self._in_flight()}

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
