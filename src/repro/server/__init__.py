"""Analysis-as-a-service: the cache model behind a long-running HTTP API.

The batch engine answers "analyze these N jobs once"; this package answers
"keep answering analysis requests forever, for many clients at once" — the
ROADMAP's production-service north star.  The layering keeps every analysis
semantic out of the transport:

* :mod:`repro.server.protocol` — JSON request → the same
  :class:`~repro.engine.jobs.JobSpec` offline paths build (registered
  kernels and inline ``.knl`` source), and the response envelopes;
* :mod:`repro.server.service` — :class:`AnalysisService`: request
  coalescing keyed by store digest, admission control (budget ceiling +
  concurrency cap), write-through :class:`~repro.engine.store.AnalysisStore`
  sharing, process-pool execution of the batch worker;
* :mod:`repro.server.http` — a hand-rolled asyncio HTTP/1.1 front end
  (stdlib only): ``/healthz``, ``/stats``, ``/v1/analyze``, streaming
  ``/v1/batch``;
* :mod:`repro.server.client` — blocking stdlib client used by tests, CI,
  and the bench load generator;
* :mod:`repro.server.background` — in-process server-on-a-thread harness.

Start one from the CLI with ``repro-haystack serve``; see ``docs/SERVER.md``
for the protocol reference and deployment notes (multi-process servers
share hits through the one SQLite store).
"""

from .background import BackgroundServer
from .client import ServerClient, ServerError
from .http import HttpServer
from .protocol import RequestError, build_spec
from .service import AnalysisService

__all__ = [
    "AnalysisService",
    "BackgroundServer",
    "HttpServer",
    "RequestError",
    "ServerClient",
    "ServerError",
    "build_spec",
]
