"""In-process server harness: run the service on a background thread.

Tests, the bench ``serve`` workload, and scripted load tests need a live
server inside the current process — no subprocess, no fixed port, prompt
teardown.  :class:`BackgroundServer` runs the asyncio loop on a daemon
thread, exposes the bound ephemeral port once the socket is listening, and
shuts the loop down cleanly from the foreground::

    with BackgroundServer(workers=2, store_path="store.sqlite") as server:
        client = server.client()
        envelope = client.analyze({"kernel": "gemm", "budget": 2000})
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional

from .client import ServerClient
from .http import HttpServer
from .service import AnalysisService

__all__ = ["BackgroundServer"]


class BackgroundServer:
    """Owns a thread running ``asyncio`` with one :class:`HttpServer`.

    Keyword arguments are forwarded to
    :class:`~repro.server.service.AnalysisService`; the server always binds
    ``host`` on an ephemeral port (read :attr:`port` after :meth:`start`).
    """

    def __init__(self, *, host: str = "127.0.0.1", **service_kwargs) -> None:
        self.host = host
        self.port: Optional[int] = None
        self.service = AnalysisService(**service_kwargs)
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._startup_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), name="repro-server", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        if self.port is None:
            raise TimeoutError("server did not come up within 30s")
        return self

    async def _main(self) -> None:
        http_server = HttpServer(self.service, host=self.host, port=0)
        self._stop = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        try:
            await http_server.start()
        except BaseException as exc:  # noqa: BLE001 - reported to the foreground
            self._startup_error = exc
            self._ready.set()
            return
        self.port = http_server.port
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await http_server.stop()

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def client(self, *, timeout: float = 120.0) -> ServerClient:
        if self.port is None:
            raise RuntimeError("server is not running; call start() first")
        return ServerClient(self.host, self.port, timeout=timeout)
