"""Repository benchmark: run one workload, check its outputs, print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads, why each was chosen and which metric each layer should move
are in ``perfbench/README.md``.  Every analysis runs in a fresh process
(``child.py``); ``serve-mixed`` starts a fresh server with a fresh store per
round (``serve_launcher.py``) and drives it from this process over two
closed-loop connections.  A run repeats rounds of its workload's fixed
script while one more round still fits in ``--seconds``: at least one
round, and with ``--trace 1`` at least one traced and one untraced round.

The report lines name every metric with its unit and sample count.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A failed
operation (an error, a wrong miss count or miss curve, a non-200 response)
or an exact count that differs from ``counts.json`` (when it was recorded
for this code) or from an earlier run of the same code makes ``correct``
false and the exit status 1.  Without the repository's ``src/`` the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import http.client
import itertools
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Run state inside the checkout: per-run scratch and the exact-count record.
STATE_DIR = ROOT / ".perfbench"
#: Exact counts of every workload, recorded by ``record_counts.py`` for the
#: code whose digest it names.
COUNTS = BENCH_DIR / "counts.json"
#: The benchmark files that decide what is counted (with ``src/**/*.py``
#: and ``kernels/``, the input of :func:`code_digest`).
COUNTED_FILES = ("run.py", "child.py", "workloads.py", "tracing.py", "serve_launcher.py")

sys.path.insert(0, str(BENCH_DIR))

from tracing import load_summary  # noqa: E402
from workloads import ANALYSES, WORKLOADS, ServeScript, load_expected  # noqa: E402

#: Longest one analysis, one server start or one request may take before it
#: fails; a run must end within 180 s even when something hangs.
TIMEOUT_S = 30.0
#: Extra set-up samples of an untraced round: fresh processes that stop at
#: the first timed call, per analysis; and bare server start-ups, per
#: serve-mixed round.  Single start-ups vary by up to a quarter on a shared
#: host, so ``setup_s`` is the median of many.
SETUP_PROBES = 2
SERVER_SETUP_PROBES = 1


class Round:
    """One pass over a workload's fixed script."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.wall_s = 0.0
        self.rss_mb = 0.0
        self.setups: List[float] = []
        self.attempted = 0
        self.failures: List[str] = []
        #: Exact counts of the whole script.
        self.counts: Dict[str, int] = {}
        #: Merged span summary of the round (traced rounds only).
        self.layers = {"calls": {}, "self_s": {}, "counts": {}, "overhead_s": 0.0}
        #: Request latencies by kind (serve-mixed only).
        self.latencies: Dict[str, List[float]] = {"read": [], "write": []}

    def add_layers(self, summary: Dict) -> None:
        for part in ("calls", "self_s", "counts"):
            merged = self.layers[part]
            for name, value in summary[part].items():
                merged[name] = merged.get(name, 0) + value
        self.layers["overhead_s"] += summary["overhead_s"]


def child_env() -> Dict[str, str]:
    """This process's environment without ``REPRO_*`` overrides."""
    return {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}


# ----------------------------------------------------------------------
# Analysis workloads
# ----------------------------------------------------------------------
def run_analysis(op: Dict, trace_path: str) -> Dict:
    """One analysis in a fresh ``child.py`` process; raises on failure.

    ``trace_path`` is a trace file, ``-`` (untraced) or ``--setup-only``.
    """
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-I", str(BENCH_DIR / "child.py"), json.dumps(op), repr(spawned), trace_path],
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
        env=child_env(),
        cwd=ROOT,
    )
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit status {proc.returncode}"]
        raise RuntimeError(tail[0])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def analysis_round(workload: str, rng: random.Random, trace_prefix: Path, traced: bool) -> Round:
    """Each analysis of ``workload`` once, in an order drawn from ``rng``.

    A traced round writes each analysis's spans to ``<trace_prefix><op>.json``;
    an untraced one takes :data:`SETUP_PROBES` more set-up samples of each op.
    """
    expected = load_expected()[workload]
    ops = list(ANALYSES[workload])
    rng.shuffle(ops)
    result = Round(traced)
    for op in ops:
        result.attempted += 1
        trace_path = f"{trace_prefix}{op['name'].replace('/', '-')}.json" if traced else "-"
        try:
            for _ in range(0 if traced else SETUP_PROBES):
                result.setups.append(run_analysis(op, "--setup-only")["setup_s"])
            out = run_analysis(op, trace_path)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            result.failures.append(f"{op['name']}: {exc}")
            break
        if out["misses"] != expected[op["name"]]:
            result.failures.append(f"{op['name']}: misses {out['misses']}, expected {expected[op['name']]}")
        elif not op["fallback"] and out["used_fallback"]:
            result.failures.append(f"{op['name']}: answered by the trace fallback")
        result.wall_s += out["wall_s"]
        result.rss_mb = max(result.rss_mb, out["rss_mb"])
        result.setups.append(out["setup_s"])
        counts = dict(out["counts"])
        if traced:
            result.add_layers(out["layers"])
            counts.update(layer_counts(out["layers"]))
        for key, value in counts.items():
            result.counts[key] = result.counts.get(key, 0) + value
    return result


def layer_counts(summary: Dict) -> Dict[str, int]:
    """The exact counts a span summary holds."""
    calls, counts = summary["calls"], summary["counts"]
    return {
        "core.pieces": counts.get("core.pieces", 0),
        "isl.feasible_calls": calls.get("isl.feasible", 0),
        "isl.lexmax_calls": calls.get("isl.lexmax", 0),
        "isl.count_points_calls": calls.get("isl.count_points", 0),
        "simulator.accesses": counts.get("simulator.accesses", 0),
    }


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
def http_call(port: int, method: str, path: str, job: Optional[Dict] = None) -> Tuple[int, bytes]:
    body = json.dumps(job).encode("utf-8") if job is not None else None
    headers = {"Content-Type": "application/json"} if body else {}
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def parent_if_alive(pid: int) -> Optional[int]:
    """The parent pid of a running (not zombie) ``pid``, else ``None``."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            state, parent = handle.read().rsplit(")", 1)[1].split()[:2]
    except OSError:
        return None
    return None if state == "Z" else int(parent)


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid``, from ``/proc``."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            parent = parent_if_alive(int(entry))
            if parent is not None:
                parents[int(entry)] = parent
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        children = [child for child, ppid in parents.items() if ppid == parent]
        found.extend(children)
        frontier.extend(children)
    return found


def peak_rss_mb(pids: List[int]) -> float:
    """Sum of the peak resident set sizes (``VmHWM``) of ``pids``."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def stop_server(proc: subprocess.Popen, workers: List[int]) -> None:
    """SIGINT the server, then wait for it and its workers to end."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
    try:
        proc.wait(timeout=20)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    deadline = time.monotonic() + 10
    for pid in workers:
        while parent_if_alive(pid) is not None and time.monotonic() < deadline:
            time.sleep(0.02)
        if parent_if_alive(pid) is not None:
            os.kill(pid, signal.SIGKILL)


def start_server(run_dir: Path, trace_path: str) -> Tuple[subprocess.Popen, int, float]:
    """Start a traced or untraced server with a fresh store; wait until it
    has answered ``/healthz`` and one warm-up analysis.

    Returns the process, its port and the set-up seconds.
    """
    port_file = run_dir / "port"
    spawned = time.monotonic()
    with open(run_dir / "server.log", "w", encoding="utf-8") as log:
        proc = subprocess.Popen(
            [
                sys.executable, "-I", str(BENCH_DIR / "serve_launcher.py"), trace_path,
                "serve", "--host", "127.0.0.1", "--port", "0", "--port-file", str(port_file),
                "--workers", "1", "--store-path", str(run_dir / "store"),
                "--store-backend", "sqlite",
                "--max-budget", str(ServeScript.BUDGET), "--budget", str(ServeScript.BUDGET),
            ],
            stdout=log,
            stderr=subprocess.STDOUT,
            env=child_env(),
            cwd=ROOT,
        )
    try:
        deadline = spawned + TIMEOUT_S
        while not (port_file.exists() and port_file.read_text().endswith("\n")):
            if proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("server did not start: " + (run_dir / "server.log").read_text()[-300:])
            time.sleep(0.005)
        port = int(port_file.read_text())
        status, _ = http_call(port, "GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        warmup = {"kernel": ServeScript.WARMUP_KERNEL, "dataset": "mini", "budget": ServeScript.BUDGET}
        status, body = http_call(port, "POST", "/v1/analyze", warmup)
        if status != 200:
            raise RuntimeError(f"warm-up analysis answered {status}: {body[:200]!r}")
    except BaseException:
        stop_server(proc, descendants(proc.pid))
        raise
    return proc, port, time.monotonic() - spawned


def drive(port: int, requests: List[Tuple[str, Dict]], log: List) -> None:
    """One closed-loop connection: each request after the last answer.

    Stops at the first request the server does not answer at all.
    """
    for kind, job in requests:
        start = time.perf_counter()
        try:
            status, body = http_call(port, "POST", "/v1/analyze", job)
        except (OSError, http.client.HTTPException) as exc:
            log.append((kind, job, 0, str(exc).encode(), time.perf_counter() - start))
            return
        log.append((kind, job, status, body, time.perf_counter() - start))


def curve_at(curve: Dict, size: int) -> Tuple[int, int]:
    """(compulsory, capacity) misses of a ``MissCurve.to_dict`` payload at a
    cache of ``size`` bytes, as ``MissCurve.misses_at_bytes`` reads it."""
    lines = max(1, size // curve["line_size"])
    index = bisect.bisect_right(curve["capacities"], lines) - 1
    return curve["compulsory"], curve["counts"][index]


def check_response(kind, job, status, body, answered: Dict, expected) -> Optional[str]:
    if status != 200:
        return f"HTTP {status}: {body[:200]!r}"
    try:
        envelope = json.loads(body)
    except ValueError:
        return f"unreadable response {body[:200]!r}"
    key = json.dumps(job, sort_keys=True)
    payload = json.dumps(envelope["result"], sort_keys=True)
    if kind == "read":
        if not envelope["meta"]["cached"]:
            return "repeated request was not a store hit"
        if key not in answered:
            return "repeats a request whose first answer failed"
        if payload != answered[key]:
            return "repeated request returned a different payload"
        return None
    if envelope["meta"]["cached"]:
        return "new sweep was answered from the store"
    name = f"{job['kernel']}/{job['dataset']}"
    misses = [level["misses"] for level in envelope["result"]["levels"]]
    if misses != expected["serve-mixed"][name]:
        return f"misses {misses}, expected {expected['serve-mixed'][name]}"
    curve = envelope["result"].get("miss_curve")
    if curve is None:
        return "no miss curve"
    got = [curve_at(curve, size) for size in job["capacities"]]
    want = [curve_at(expected["curves"][name], size) for size in job["capacities"]]
    if got != want:
        return f"(compulsory, capacity) misses at {job['capacities']} B: {got}, expected {want}"
    answered[key] = payload
    return None


def serve_round(script, run_dir: Path, trace_prefix: Path, traced: bool) -> Round:
    """A fresh server with a fresh store, driven through the whole script.

    A traced round writes the server's spans to ``<trace_prefix>server.json``;
    an untraced one first takes :data:`SERVER_SETUP_PROBES` more set-up
    samples from bare server start-ups.
    """
    result = Round(traced)
    run_dir.mkdir(parents=True)
    trace_path = f"{trace_prefix}server.json" if traced else "-"
    expected = load_expected()
    try:
        for probe in range(0 if traced else SERVER_SETUP_PROBES):
            probe_dir = run_dir / f"probe{probe}"
            probe_dir.mkdir()
            proc, _, setup = start_server(probe_dir, "-")
            stop_server(proc, descendants(proc.pid))
            result.setups.append(setup)
        proc, port, setup = start_server(run_dir, trace_path)
    except (RuntimeError, OSError, ValueError, http.client.HTTPException) as exc:
        result.attempted += 1
        result.failures.append(f"server set-up: {exc}")
        return result
    result.setups.append(setup)
    try:
        logs: List[List] = [[] for _ in script]
        threads = [
            threading.Thread(target=drive, args=(port, requests, log))
            for requests, log in zip(script, logs)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        result.wall_s = time.perf_counter() - start
        result.rss_mb = peak_rss_mb([proc.pid] + descendants(proc.pid))
        try:
            status, stats_body = http_call(port, "GET", "/stats")
            stats = json.loads(stats_body) if status == 200 else {}
        except (OSError, http.client.HTTPException):
            stats = {}
    finally:
        stop_server(proc, descendants(proc.pid))

    writes = cached = 0
    for log in logs:
        answered: Dict[str, str] = {}
        for kind, job, status, body, latency in log:
            result.attempted += 1
            writes += kind == "write"
            error = check_response(kind, job, status, body, answered, expected)
            if error:
                result.failures.append(f"{kind} {job['kernel']}: {error}")
                continue
            result.latencies[kind].append(latency)
            cached += kind == "read"
    if not stats:
        result.failures.append("/stats did not answer")
    # The warm-up request is the one engine job the script did not send.
    engine_jobs = stats.get("engine_jobs", 0) - 1
    shed = stats.get("shed_capacity", 0) + stats.get("shed_budget", 0)
    if engine_jobs != writes:
        result.failures.append(f"server ran {engine_jobs} engine jobs for {writes} new sweeps")
    if shed:
        result.failures.append(f"server shed {shed} requests")
    result.counts = {"server.engine_jobs": engine_jobs, "server.cached": cached, "server.shed": shed}
    if traced:
        if not Path(trace_path).exists():
            result.failures.append("traced server wrote no trace")
        else:
            result.add_layers(load_summary(trace_path))
    return result


# ----------------------------------------------------------------------
# Rounds, metrics and the exact-count record
# ----------------------------------------------------------------------
def run_rounds(run_round: Callable[[int, bool], Round], seconds: float, trace: bool) -> List[Round]:
    """Rounds while one more fits in ``seconds``; traced runs alternate
    traced and untraced rounds and always finish a pair."""
    modes = itertools.cycle((True, False)) if trace else itertools.repeat(False)
    group = 2 if trace else 1
    rounds: List[Round] = []
    start = time.monotonic()
    group_start = start
    for traced in modes:
        rounds.append(run_round(len(rounds), traced))
        if rounds[-1].failures:
            break
        if len(rounds) % group:
            continue
        now = time.monotonic()
        if now - start + (now - group_start) > seconds:
            break
        group_start = now
    return rounds


def percentile(values: List[float], share: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(share * 100) - 1]


def end_to_end(rounds: List[Round]) -> Dict[str, float]:
    plain = [r for r in rounds if not r.traced]
    return {
        "setup_s": statistics.median(s for r in plain for s in r.setups),
        "wall_s": statistics.median(r.wall_s for r in plain),
        "peak_rss_mb": statistics.median(r.rss_mb for r in plain),
    }


def per_layer(rounds: List[Round]) -> Dict[str, float]:
    """Per-layer metrics of the traced rounds (medians over rounds)."""
    samples: Dict[str, List[float]] = {}
    for r in rounds:
        if not r.traced:
            continue
        calls, self_s, counts = r.layers["calls"], r.layers["self_s"], r.layers["counts"]
        trace_s = self_s.get("simulator.trace", 0.0)
        accesses = counts.get("simulator.accesses", 0)
        reads, writes = r.latencies["read"], r.latencies["write"]
        values = {
            "core.prevmap_s": self_s.get("core.prevmap", 0.0),
            "core.distance_s": self_s.get("core.distance", 0.0),
            "core.capacity_s": self_s.get("core.capacity", 0.0),
            "core.work_units": r.counts.get("core.work_units", 0),
            "isl.feasible_s": self_s.get("isl.feasible", 0.0),
            "isl.feasible_nonempty_ratio": ratio(
                counts.get("isl.feasible_nonempty", 0), calls.get("isl.feasible", 0)
            ),
            "isl.lexmax_s": self_s.get("isl.lexmax", 0.0),
            "isl.count_points_s": self_s.get("isl.count_points", 0.0),
            "simulator.trace_s": trace_s,
            "simulator.accesses_per_s": ratio(accesses, trace_s),
            "scop.build_s": self_s.get("scop.build", 0.0),
            "engine.store_get_s": self_s.get("engine.store_get", 0.0),
            "engine.store_put_s": self_s.get("engine.store_put", 0.0),
            "engine.store_hit_ratio": ratio(
                counts.get("engine.store_hits", 0), calls.get("engine.store_get", 0)
            ),
            "server.handle_s": self_s.get("server.handle", 0.0),
            "server.read_latency_p50_s": statistics.median(reads) if reads else 0.0,
            "server.write_latency_p50_s": statistics.median(writes) if writes else 0.0,
            "server.engine_jobs": r.counts.get("server.engine_jobs", 0),
            "server.cached": r.counts.get("server.cached", 0),
            "server.shed": r.counts.get("server.shed", 0),
            "trace.overhead_s": r.layers["overhead_s"],
        }
        values.update(layer_counts(r.layers))
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
    return {name: statistics.median(values) for name, values in samples.items()}


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def code_digest() -> str:
    """Digest of the program sources and of the benchmark files that decide
    what is counted: runs of the same code share it."""
    digest = hashlib.sha256()
    files = (
        sorted((ROOT / "src").rglob("*.py"))
        + [BENCH_DIR / name for name in COUNTED_FILES]
        + sorted((BENCH_DIR / "kernels").glob("*.knl"))
    )
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def differences(counts: Dict[str, int], recorded: Dict[str, int], source: str) -> List[str]:
    return [
        f"{name} is {counts[name]}, {source} has {recorded[name]}"
        for name in sorted(counts.keys() & recorded.keys())
        if counts[name] != recorded[name]
    ]


def check_repeat(workload: str, counts: Dict[str, int]) -> List[str]:
    """Compare ``counts`` with ``counts.json`` when it was recorded for this
    code, and with the record of earlier runs of this code in this checkout;
    then add to the latter any count not recorded yet."""
    digest = code_digest()
    mismatches: List[str] = []
    committed = json.loads(COUNTS.read_text(encoding="utf-8")) if COUNTS.exists() else {}
    if committed.get("code_digest") == digest:
        mismatches += differences(counts, committed["counts"][workload], "counts.json")
        print("exact counts: compared with counts.json (recorded for this code)")
    else:
        print("exact counts: counts.json was recorded for other code; compared with earlier runs here")
    path = STATE_DIR / "counts" / digest / f"{workload}.json"
    recorded: Dict[str, int] = {}
    if path.exists():
        recorded = json.loads(path.read_text())
    mismatches += differences(counts, recorded, "an earlier run of the same code")
    if not mismatches and not counts.keys() <= recorded.keys():
        path.parent.mkdir(parents=True, exist_ok=True)
        partial = path.with_suffix(f".{os.getpid()}.tmp")
        partial.write_text(json.dumps({**recorded, **counts}, sort_keys=True))
        partial.replace(path)
    return mismatches


def exact_counts(rounds: List[Round]) -> Tuple[Dict[str, int], List[str]]:
    """The run's exact counts, and every round that disagrees on one."""
    counts: Dict[str, int] = {}
    problems = []
    for index, r in enumerate(rounds):
        for name in r.counts:
            if counts.setdefault(name, r.counts[name]) != r.counts[name]:
                problems.append(f"round {index}: {name} is {r.counts[name]}, round 0 had {counts[name]}")
    return counts, problems


def report(workload: str, seed: int, rounds: List[Round], metrics: Dict[str, float], units) -> None:
    plain = [r for r in rounds if not r.traced]
    print(
        f"workload {workload}  seed {seed}  rounds {len(rounds)} "
        f"({len(rounds) - len(plain)} traced)  operations {sum(r.attempted for r in rounds)}"
    )
    samples = {
        "setup_s": sum(len(r.setups) for r in plain),
        "wall_s": len(plain),
        "peak_rss_mb": len(plain),
    }
    for name, unit in units:
        note = f"  (median of {samples[name]})" if name in samples else ""
        print(f"  {name:30s} {metrics[name]:>14.6g} {unit}{note}")
    traced = [r for r in rounds if r.traced]
    if traced:
        delta = statistics.median(r.wall_s for r in traced) - statistics.median(r.wall_s for r in plain)
        print(
            f"  {'traced minus untraced wall_s':30s} {delta:>14.6g} s"
            f"  ({len(traced)} traced, {len(plain)} untraced rounds; within round-to-round noise)"
        )
    latencies = [lat for r in plain for kind in ("read", "write") for lat in r.latencies[kind]]
    if latencies:
        for label, share in (("latency_p50_s", 0.5), ("latency_p90_s", 0.9)):
            beyond = sum(value > percentile(latencies, share) for value in latencies)
            print(
                f"  {label:30s} {percentile(latencies, share):>14.6g} s"
                f"  (n={len(latencies)}, {beyond} beyond)"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "api" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run_dir = STATE_DIR / "runs" / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    # Traces outlive the run: one directory per workload and seed.
    trace_dir = STATE_DIR / "traces" / f"{args.workload}-seed{args.seed}"
    if args.trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
    rng = random.Random(args.seed)
    try:
        if args.workload == "serve-mixed":
            script = ServeScript.build(rng)
            rounds = run_rounds(
                lambda index, traced: serve_round(
                    script, run_dir / f"round{index}", trace_dir / f"round{index}-", traced
                ),
                args.seconds,
                bool(args.trace),
            )
        else:
            rounds = run_rounds(
                lambda index, traced: analysis_round(
                    args.workload, rng, trace_dir / f"round{index}-", traced
                ),
                args.seconds,
                bool(args.trace),
            )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failures = [failure for r in rounds for failure in r.failures]
    attempted = sum(r.attempted for r in rounds)
    failed = len(failures)
    metrics: Dict[str, float] = {}
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = [(m["name"], m["unit"]) for m in config["per_layer" if args.trace else "end_to_end"]]
    if not failures:
        metrics = per_layer(rounds) if args.trace else end_to_end(rounds)
        report(args.workload, args.seed, rounds, metrics, units)
        counts, problems = exact_counts(rounds)
        problems += check_repeat(args.workload, counts)
        failures += problems
        failed += len(problems)
    for failure in failures:
        print(f"FAILED {failure}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units
                    if name in metrics
                },
            }
        )
    )
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
