"""Spans and counts around the public calls of each layer, from outside ``src/``.

:func:`install` replaces each function or method named in :data:`TARGETS`
with a wrapper that records one span per call (name, start, end, parent,
root) and the counts measured at that boundary.  A module function is
rebound in its defining module and in every ``repro`` module that already
imported it by name; a method is replaced on its class.  Spans stay in
memory until :meth:`Recorder.dump` writes them out.

The tracing overhead is the number of wrapped calls times the cost one
wrapper adds to a call, measured by :meth:`Recorder.calibrate` in the same
process after the traced work.

The parent of a span is tracked in a :class:`contextvars.ContextVar`, so
spans opened by concurrent asyncio tasks of the server, or by the store
calls they hand to ``asyncio.to_thread``, nest under the request that
caused them.  The root span of each analysis or request gives every span
below it the same ``root`` id.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple


def _nonempty(counts: Counter, result) -> None:
    counts["isl.feasible_nonempty"] += bool(result)


def _pieces(counts: Counter, result) -> None:
    counts["core.pieces"] += sum(len(entry.pieces) for entry in result)


def _accesses(counts: Counter, result) -> None:
    counts["simulator.accesses"] += sum(result.values())


def _store_hit(counts: Counter, result) -> None:
    counts["engine.store_hits"] += result is not None


#: (module, attribute path, span name, count hook).  The attribute path is
#: ``function`` or ``Class.method``; the hook sees the call's return value.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.api.registry", "KernelEntry.build", "scop.build", None),
    ("repro.frontend.parser", "parse_kernel", "scop.build", None),
    ("repro.frontend.parser", "KernelProgram.instantiate", "scop.build", None),
    ("repro.core.prevmap", "PrevMapBuilder.all_prev_regions", "core.prevmap", None),
    ("repro.core.distance", "StackDistanceAnalysis.analyze", "core.distance", _pieces),
    ("repro.core.capacity", "CapacityCounter.count_curve", "core.capacity", None),
    ("repro.isl.constraints", "feasible_rational", "isl.feasible", _nonempty),
    ("repro.isl.lexopt", "lexmax", "isl.lexmax", None),
    ("repro.isl.counting", "count_points", "isl.count_points", None),
    ("repro.simulator.vectorized", "trace_model_curve", "simulator.trace", _accesses),
    ("repro.engine.store", "AnalysisStore.get_result", "engine.store_get", _store_hit),
    ("repro.engine.store", "AnalysisStore.put_result", "engine.store_put", None),
    ("repro.server.service", "AnalysisService.analyze", "server.handle", None),
)

#: One span: (id, parent id or 0, root id, name, start, end).
Span = Tuple[int, int, int, str, float, float]


class Recorder:
    """In-memory span and count store for one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        #: Seconds one wrapper adds to a call; set by :meth:`calibrate`.
        self.call_cost_s = 0.0
        # Store calls run on worker threads: ids come from an atomic counter
        # and count hooks run under a lock.
        self._ids = itertools.count(1)
        self._count_lock = threading.Lock()
        #: (span id, root id) of the innermost open span in this context.
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=(0, 0)
        )

    def _open(self):
        span_id = next(self._ids)
        parent, root = self._current.get()
        token = self._current.set((span_id, root or span_id))
        return span_id, parent, root or span_id, token

    def _close(self, name: str, opened, start: float) -> None:
        span_id, parent, root, token = opened
        end = time.perf_counter()
        self._current.reset(token)
        self.spans.append((span_id, parent, root, name, start, end))

    def _count(self, hook: Callable, result) -> None:
        with self._count_lock:
            hook(self.counts, result)

    def span(self, name: str, function: Callable, count: Optional[Callable]) -> Callable:
        """A wrapper of ``function`` that records one ``name`` span per call."""
        recorder = self
        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def async_wrapper(*args, **kwargs):
                opened = recorder._open()
                start = time.perf_counter()
                try:
                    result = await function(*args, **kwargs)
                finally:
                    recorder._close(name, opened, start)
                if count is not None:
                    recorder._count(count, result)
                return result

            return async_wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            opened = recorder._open()
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                recorder._close(name, opened, start)
            if count is not None:
                recorder._count(count, result)
            return result

        return wrapper

    def calibrate(self, calls: int = 20000, repeats: int = 5) -> None:
        """Measure the seconds one wrapper (span plus count hook) adds to a
        call: the median over ``repeats`` of ``calls`` wrapped calls minus as
        many bare calls, per call."""
        probe = Recorder()

        def target(value):
            return value

        wrapped = probe.span("calibrate", target, _nonempty)
        costs = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                target(1)
            bare = time.perf_counter() - start
            start = time.perf_counter()
            for _ in range(calls):
                wrapped(1)
            costs.append((time.perf_counter() - start - bare) / calls)
            probe.spans.clear()
        self.call_cost_s = statistics.median(costs)

    def summary(self) -> Dict:
        """:func:`summarize` of this recorder, after :meth:`calibrate`."""
        return summarize(self.spans, self.counts, self.call_cost_s)

    def dump(self, path: str) -> None:
        """Write every span and count as JSON (the run's trace file)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["id", "parent", "root", "name", "start", "end"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "call_cost_s": self.call_cost_s,
                },
                handle,
            )


def summarize(spans, counts, call_cost_s: float) -> Dict:
    """Per span name: calls and self seconds; the boundary counts; and the
    tracing overhead, ``len(spans) * call_cost_s``.

    A span's self time is its duration minus the union of the intervals its
    child spans cover, so self times of nested layers add up instead of
    counting the same second twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, parent, _, _, start, end in spans:
        if parent:
            children[parent].append((start, end))
    calls: Counter = Counter()
    self_seconds: Dict[str, float] = defaultdict(float)
    for span_id, _, _, name, start, end in spans:
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start = max(child_start, reach)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        calls[name] += 1
        self_seconds[name] += (end - start) - covered
    return {
        "calls": dict(calls),
        "self_s": dict(self_seconds),
        "counts": dict(counts),
        "overhead_s": len(spans) * call_cost_s,
    }


def load_summary(path: str) -> Dict:
    """:func:`summarize` of a trace file written by :meth:`Recorder.dump`."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return summarize(data["spans"], data["counts"], data["call_cost_s"])


def install(recorder: Recorder) -> None:
    """Wrap every entry of :data:`TARGETS` with ``recorder`` spans."""
    for module_name, attribute, name, count in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, member = attribute.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            setattr(owner, member, recorder.span(name, owner.__dict__[member], count))
            continue
        original = getattr(module, member)
        wrapper = recorder.span(name, original, count)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded_name.split(".")[0] == "repro" and getattr(loaded, member, None) is original:
                setattr(loaded, member, wrapper)
