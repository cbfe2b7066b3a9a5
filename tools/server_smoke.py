#!/usr/bin/env python3
"""Black-box smoke test of ``repro-haystack serve`` (CI's server gate).

Launches a *real* server subprocess — ephemeral port, process workers, a
fresh sqlite store — and asserts the service guarantees end to end:

* a registered-kernel job and an inline ``.knl`` job both analyze cleanly,
  and a rerun of each is served from the store (``meta.cached``);
* the server's result payload is **byte-identical** to an offline
  ``Session.analyze()`` reading the same store;
* a duplicate pair inside one ``/v1/batch`` call coalesces onto a single
  engine job (``meta.coalesced`` on exactly one record, ``/stats`` agrees);
* a request over the admission budget ceiling is shed with 429/``budget``,
  and so is a ``/v1/lint`` whose cost probe asks for an unlimited budget,
  while a ``cost: false`` lint is admitted;
* more concurrent cost-probing lints than ``--max-inflight`` allows shed
  with 429/``capacity``, and every admitted lint reports the same COST work
  units as the same lint sent alone (each probe charges only its own
  budget);
* a ``/v1/explore`` tile × capacity grid ranks from one analysis per tile
  and its table digest matches the offline ``Session.explore()`` against
  the same store;
* ``/stats`` accounts for every engine job with zero errors.

Stdlib plus the in-repo package only.  Exit status 0 = pass; any failure
prints one line and exits 1.  Run it directly:

    python tools/server_smoke.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.server.client import ServerClient  # noqa: E402

#: Triangular reduction that the cost probe completes symbolically in about a
#: second, long enough for concurrent lints to overlap.
TRISUM_SOURCE = """kernel trisum
array A[10][10] elem 64
array s[10] elem 64
S0: { [i, j] : 0 <= i < 10 and 0 <= j <= i }
    s[i] = s[i] + A[i][j]
"""
MAX_INFLIGHT = 2


def _wait_for_port(port_file: Path, process: subprocess.Popen, timeout: float = 30.0) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise AssertionError(f"server exited early with status {process.returncode}")
        if port_file.exists():
            text = port_file.read_text(encoding="utf-8").strip()
            if text:
                return int(text)
        time.sleep(0.05)
    raise AssertionError(f"server wrote no port file within {timeout:.0f}s")


def main() -> int:
    gemm_source = (ROOT / "examples" / "kernels" / "gemm.knl").read_text(encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")

    with tempfile.TemporaryDirectory(prefix="repro-server-smoke-") as tmp:
        store_spec = f"sqlite:{tmp}/store.sqlite"
        port_file = Path(tmp) / "port"
        # Stderr goes to a file, not a pipe: the pool's worker processes
        # inherit the stream, and a pipe would make the final read block on
        # them instead of the server.  A fresh session lets the SIGKILL
        # fallback reap the whole process group.
        stderr_path = Path(tmp) / "stderr.log"
        with open(stderr_path, "w", encoding="utf-8") as stderr_handle:
            process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve",
                    "--port", "0", "--port-file", str(port_file),
                    "--workers", "2", "--max-budget", "100000",
                    "--max-inflight", str(MAX_INFLIGHT),
                    "--store-path", store_spec,
                ],
                cwd=ROOT,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=stderr_handle,
                start_new_session=True,
            )
        try:
            port = _wait_for_port(port_file, process)
            client = ServerClient("127.0.0.1", port)
            client.wait_ready()

            # Registered kernel: fresh compute, then a store-served rerun.
            job = {"kernel": "gemm", "budget": 2000}
            envelope = client.analyze(job)
            assert envelope["meta"]["kernel"] == "gemm", envelope["meta"]
            assert envelope["meta"]["cached"] is False, envelope["meta"]
            assert envelope["result"]["levels"], "result payload has no levels"
            rerun = client.analyze(dict(job))
            assert rerun["meta"]["cached"] is True, rerun["meta"]
            assert json.dumps(rerun["result"], sort_keys=True) == json.dumps(
                envelope["result"], sort_keys=True
            ), "store rerun diverged from the computed payload"

            # Inline .knl source through the real frontend.
            inline = client.analyze({"source": gemm_source, "budget": 2000})
            assert inline["meta"]["kernel"] == "gemm", inline["meta"]
            assert inline["result"]["levels"], "inline result payload has no levels"

            # Duplicate pair in one batch: exactly one engine job, one
            # coalesced response (deterministic — both jobs are admitted
            # before the leader can finish).
            probe = {"source": gemm_source, "dataset": "small", "budget": 2000}
            records = list(client.batch_iter([probe, dict(probe)]))
            assert len(records) == 2 and all(r["status"] == 200 for r in records), records
            coalesced = [r for r in records if r["body"]["meta"]["coalesced"]]
            assert len(coalesced) == 1, f"expected 1 coalesced record, got {len(coalesced)}"

            # Over-ceiling budget must be shed, not queued.
            status, body = client.request(
                "POST", "/v1/analyze", {"kernel": "gemm", "budget": 200000}
            )
            assert status == 429 and body.get("shed") == "budget", (status, body)
            status, body = client.request("POST", "/v1/lint", {"kernel": "gemm", "budget": 0})
            assert status == 429 and body.get("shed") == "budget", (status, body)
            status, body = client.request(
                "POST", "/v1/lint", {"kernel": "gemm", "budget": 0, "cost": False}
            )
            assert status == 200 and "cost" not in body, (status, body)

            # Design-space explorer: a tile x capacity grid from 2 analyses,
            # with the ranked-table digest matching the offline explorer
            # against the same store (docs/EXPLORE.md).
            explore = client.explore({
                "kernel": "gemm", "levels": [32768],
                "tiles": [1, 2], "capacities": [1024, 32768], "budget": 2000,
            })
            assert explore["meta"]["kernel"] == "gemm", explore["meta"]
            assert explore["meta"]["analyses"] == 2, explore["meta"]
            assert explore["explore"]["grid_size"] == 4, explore["explore"]["grid_size"]
            assert any(row["pareto"] for row in explore["explore"]["configs"])

            stats = client.stats()
            assert stats["errors"] == 0, stats
            # gemm + inline mini + inline small + 2 explore sub-analyses
            assert stats["engine_jobs"] == 5, stats
            assert stats["coalesced"] >= 1, stats
            assert stats["shed_budget"] == 2, stats
            assert stats["store"]["hits"] >= 1, stats

            # Concurrent lints beyond --max-inflight: the excess sheds, and
            # each admitted probe's work units equal the lone probe's.
            lint = {"source": TRISUM_SOURCE, "budget": 10000}
            status, alone = client.request("POST", "/v1/lint", lint)
            assert status == 200 and alone["cost"]["outcome"] == "fits", (status, alone)
            burst = 3 * MAX_INFLIGHT
            with ThreadPoolExecutor(max_workers=burst) as pool:
                replies = list(pool.map(
                    lambda _: client.request("POST", "/v1/lint", lint), range(burst)
                ))
            shed = [body for status, body in replies if status == 429]
            admitted = [body for status, body in replies if status == 200]
            assert len(shed) + len(admitted) == burst, replies
            assert shed and all(body.get("shed") == "capacity" for body in shed), replies
            assert admitted, "every concurrent lint was shed"
            for body in admitted:
                assert body["cost"] == alone["cost"], (body["cost"], alone["cost"])
            assert client.stats()["shed_capacity"] >= 1

            # Offline byte-identity: the CLI-side session reads the entry
            # the server wrote and produces the identical payload.
            from repro.api import Session

            offline = Session().budget(2000).store(store_spec).analyze("gemm", "mini")
            assert json.dumps(offline.to_dict(), sort_keys=True) == json.dumps(
                envelope["result"], sort_keys=True
            ), "offline Session.analyze() payload differs from the server's"

            offline_grid = (
                Session().machine((32768,)).budget(2000).store(store_spec)
                .explore("gemm", tiles=[1, 2], capacities=[1024, 32768])
            )
            assert offline_grid.table_digest() == explore["meta"]["table_digest"], (
                "offline Session.explore() table digest differs from the server's"
            )
        finally:
            # SIGINT to the server only (not the group): the CLI's
            # KeyboardInterrupt path shuts the pool down cleanly.
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
        stderr = stderr_path.read_text(encoding="utf-8")
        if "Traceback" in stderr:
            raise AssertionError(f"server logged a traceback:\n{stderr}")

    print(
        "server smoke OK: analyze, inline source, store rerun, coalesce, shed, "
        "lint shed, explore, concurrent lints, offline identity"
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"server smoke FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
