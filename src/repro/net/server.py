"""Asyncio HTTP/JSON edge for the query service.

:class:`NetServer` is a deliberately small HTTP/1.1 server built on
``asyncio.start_server`` -- stdlib only, no frameworks.  It terminates
keep-alive connections, frames requests by ``Content-Length``, and
speaks the versioned JSON envelopes of :mod:`repro.net.wire`:

* ``POST /v1/query`` -- one service request envelope in, one
  :class:`~repro.service.QueryResponse` envelope out.  The HTTP status
  mirrors the structured ``status`` field (200 ``ok``, 503
  ``overloaded``/``rejected``/``unavailable``, 504
  ``deadline_exceeded``, 500 ``error``); malformed envelopes are 400
  with a ``WireError`` message and never reach the service.
* ``POST /v1/sql`` -- one CPQL statement (wire v3 ``sql`` envelope)
  parsed server-side and resolved against the service's attached
  catalog; syntax errors and unknown datasets answer 400 with the
  parser position in the error text.
* ``GET /healthz`` -- liveness plus per-shard breaker states when a
  :class:`~repro.net.shard.ShardManager` is attached.
* ``GET /stats`` -- the service metrics snapshot
  (:meth:`~repro.service.metrics.ServiceMetrics.snapshot`); with a
  :class:`~repro.net.shard.ShardManager` attached, its
  ``resilience.net`` block is the manager's lifetime counters, the
  same ledger ``/healthz`` shows under ``net``.

Concurrency model: the asyncio loop only parses and frames; queries
run on the :class:`~repro.service.QueryService` thread pool exactly as
in-process callers use it, and each handler awaits its
:class:`~repro.service.PendingQuery` through a dedicated waiter-thread
executor (waiters block on an event, so they are cheap -- sizing it
above the service queue bound keeps the loop from ever blocking).

Shutdown order (see ``docs/NETWORK.md``): stop accepting, drain
in-flight handlers, ``service.close(drain=True)``, then shard
teardown.  :meth:`NetServer.start_in_thread` runs the loop in a
daemon thread for tests, the CLI and the benchmark harness.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Tuple

from repro.errors import CPQLError, UnknownDatasetError
from repro.net import wire
from repro.service import QueryService
from repro.service.engine import (
    STATUS_BAD_REQUEST,
    STATUS_DEADLINE,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_OVERLOADED,
    STATUS_REJECTED,
    STATUS_UNAVAILABLE,
)

#: Largest accepted request body, in bytes.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Structured response status -> HTTP status line.
_HTTP_STATUS = {
    STATUS_OK: (200, "OK"),
    STATUS_BAD_REQUEST: (400, "Bad Request"),
    STATUS_REJECTED: (503, "Service Unavailable"),
    STATUS_OVERLOADED: (503, "Service Unavailable"),
    STATUS_UNAVAILABLE: (503, "Service Unavailable"),
    STATUS_DEADLINE: (504, "Gateway Timeout"),
    STATUS_ERROR: (500, "Internal Server Error"),
}


class _HTTPError(Exception):
    """Terminate the current exchange with this HTTP status + JSON."""

    def __init__(self, code: int, reason: str, message: str):
        super().__init__(message)
        self.code = code
        self.reason = reason
        self.message = message


class NetServer:
    """One listening socket in front of one :class:`QueryService`.

    Parameters
    ----------
    service:
        The query service every ``POST /v1/query`` is submitted to.
        Construct it with ``cpq_executor=manager.service_executor()``
        to route shardable CPQs through the shard tier.
    manager:
        Optional :class:`~repro.net.shard.ShardManager`; only read
        here, by ``/healthz`` and the ``resilience.net`` block of
        ``/stats`` (execution routing goes through the service's
        ``cpq_executor``).  :meth:`close` tears it down
        after the service drains.
    host, port:
        Bind address; ``port=0`` picks a free port, exposed as
        :attr:`port` once started.
    waiters:
        Size of the thread pool that blocks on pending queries; must
        exceed the number of concurrently in-flight requests the edge
        should sustain.
    """

    def __init__(
        self,
        service: QueryService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        manager=None,
        wal=None,
        waiters: int = 64,
    ):
        self.service = service
        self.manager = manager
        #: Optional :class:`~repro.storage.wal.WriteAheadLog` of the
        #: live writer tree behind this server's pair; only used for
        #: ``/healthz`` staleness reporting (current log size).
        self.wal = wal
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor = ThreadPoolExecutor(
            max_workers=waiters, thread_name_prefix="net-wait"
        )
        self._inflight = 0
        self._idle = asyncio.Event()
        self._closing = False
        self._connections: set = set()
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._thread_error: Optional[BaseException] = None

    # -- asyncio lifecycle -------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._loop = asyncio.get_running_loop()
        self._idle.set()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self, drain_timeout_s: float = 10.0) -> None:
        """Stop accepting, then wait for in-flight handlers to finish."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        try:
            await asyncio.wait_for(self._idle.wait(), drain_timeout_s)
        except asyncio.TimeoutError:  # pragma: no cover -- stuck handler
            pass
        # In-flight exchanges are done; what remains are keep-alive
        # connections parked in readline waiting for a next request
        # that will never come.  Cancel them so the loop shuts down
        # without destroying pending tasks.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections,
                                 return_exceptions=True)

    # -- threaded lifecycle (tests, CLI, benchmarks) -----------------------

    def start_in_thread(self) -> "NetServer":
        """Run the server loop in a daemon thread; returns when bound."""

        def runner() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self.start())
            except BaseException as exc:  # pragma: no cover -- bind error
                self._thread_error = exc
                self._started.set()
                loop.close()
                return
            self._started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        self._thread = threading.Thread(
            target=runner, name="net-server", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._thread_error is not None:
            raise self._thread_error
        return self

    def close(self, drain_timeout_s: float = 10.0) -> None:
        """Graceful shutdown: listener, handlers, service, shards.

        Safe to call from any thread (and idempotent).  Order matters:
        the listener stops first so no new work arrives, in-flight
        handlers finish against a live service, the service drains its
        own queue (``close(drain=True)``), and only then do the shard
        processes go away.
        """
        if self._loop is not None and self._thread is not None:
            if self._thread.is_alive():
                future = asyncio.run_coroutine_threadsafe(
                    self.stop(drain_timeout_s), self._loop
                )
                try:
                    future.result(drain_timeout_s + 1.0)
                except Exception:  # pragma: no cover -- drain overrun
                    pass
                self._loop.call_soon_threadsafe(self._loop.stop)
                self._thread.join(drain_timeout_s)
        self._executor.shutdown(wait=False)
        self.service.close(drain=True)
        if self.manager is not None:
            self.manager.close()

    def __enter__(self) -> "NetServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- connection handling -----------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while not self._closing:
                try:
                    parsed = await self._read_request(reader)
                except (asyncio.IncompleteReadError, ConnectionError):
                    return  # peer went away between requests
                except _HTTPError as exc:
                    # Framing failure: answer once, then close (the
                    # stream position is no longer trustworthy).
                    await self._write_response(
                        writer, exc.code, exc.reason,
                        {"v": wire.WIRE_VERSION, "error": exc.message},
                        keep_alive=False,
                    )
                    return
                if parsed is None:
                    return  # clean EOF on a keep-alive connection
                method, path, headers, body = parsed
                keep_alive = (
                    headers.get("connection", "keep-alive").lower()
                    != "close"
                )
                self._inflight += 1
                self._idle.clear()
                try:
                    code, reason, payload = await self._route(
                        method, path, body
                    )
                except _HTTPError as exc:
                    code, reason = exc.code, exc.reason
                    payload = {"v": wire.WIRE_VERSION,
                               "error": exc.message}
                finally:
                    self._inflight -= 1
                    if self._inflight == 0:
                        self._idle.set()
                await self._write_response(
                    writer, code, reason, payload, keep_alive
                )
                if not keep_alive:
                    return
        except asyncio.CancelledError:
            return  # shutdown cancelled an idle keep-alive connection
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass  # pragma: no cover -- peer raced the close

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        request_line = await reader.readline()
        if not request_line:
            return None
        try:
            method, target, _version = (
                request_line.decode("latin-1").split(None, 2)
            )
        except ValueError:
            raise _HTTPError(400, "Bad Request",
                             "malformed request line") from None
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            if len(headers) > 64:
                raise _HTTPError(431, "Request Header Fields Too Large",
                                 "too many headers")
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise _HTTPError(413, "Payload Too Large",
                             f"body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, headers, body

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, str, Dict[str, Any]]:
        path = path.split("?", 1)[0]
        if path == "/v1/query":
            if method != "POST":
                raise _HTTPError(405, "Method Not Allowed",
                                 "query endpoint takes POST")
            return await self._handle_query(body)
        if path == "/v1/sql":
            if method != "POST":
                raise _HTTPError(405, "Method Not Allowed",
                                 "sql endpoint takes POST")
            return await self._handle_sql(body)
        if path == "/healthz":
            if method != "GET":
                raise _HTTPError(405, "Method Not Allowed",
                                 "healthz takes GET")
            return 200, "OK", self._healthz()
        if path == "/stats":
            if method != "GET":
                raise _HTTPError(405, "Method Not Allowed",
                                 "stats takes GET")
            return 200, "OK", {"v": wire.WIRE_VERSION,
                               "stats": self._stats()}
        raise _HTTPError(404, "Not Found", f"no route for {path!r}")

    async def _handle_query(
        self, body: bytes
    ) -> Tuple[int, str, Dict[str, Any]]:
        try:
            request = wire.loads_request(body)
        except wire.WireError as exc:
            raise _HTTPError(400, "Bad Request", str(exc)) from exc
        if isinstance(request, wire.SQLRequest):
            # op "sql" is accepted on the generic endpoint too; it
            # takes the same parse-then-submit path as /v1/sql.
            return await self._submit_sql(request)
        pending = self.service.submit(request)
        return await self._await_pending(pending)

    async def _handle_sql(
        self, body: bytes
    ) -> Tuple[int, str, Dict[str, Any]]:
        """``POST /v1/sql``: one CPQL statement in a v3 envelope.

        The ``op`` field may be omitted -- the route implies it.  CPQL
        syntax errors and unknown datasets answer 400 with the parser
        position / known-dataset hint in the error text; everything
        else follows the structured-status mapping of ``/v1/query``.
        """
        try:
            obj = json.loads(body)
        except json.JSONDecodeError as exc:
            raise _HTTPError(400, "Bad Request",
                             f"request is not valid JSON: {exc}") from exc
        if isinstance(obj, dict) and "op" not in obj:
            obj = dict(obj, op="sql")
        try:
            request = wire.decode_request(obj)
        except wire.WireError as exc:
            raise _HTTPError(400, "Bad Request", str(exc)) from exc
        if not isinstance(request, wire.SQLRequest):
            raise _HTTPError(400, "Bad Request",
                             "sql endpoint takes op 'sql' envelopes")
        return await self._submit_sql(request)

    async def _submit_sql(
        self, request: "wire.SQLRequest"
    ) -> Tuple[int, str, Dict[str, Any]]:
        try:
            pending = self.service.submit_sql(
                request.sql,
                pair=request.pair,
                deadline_ms=request.deadline_ms,
                use_cache=request.use_cache,
            )
        except CPQLError as exc:
            raise _HTTPError(
                400, "Bad Request",
                f"CPQL: {exc} (at position {exc.position})",
            ) from exc
        except UnknownDatasetError as exc:
            raise _HTTPError(400, "Bad Request", str(exc)) from exc
        return await self._await_pending(pending)

    async def _await_pending(
        self, pending
    ) -> Tuple[int, str, Dict[str, Any]]:
        loop = asyncio.get_running_loop()
        response = await loop.run_in_executor(
            self._executor, pending.result
        )
        code, reason = _HTTP_STATUS.get(
            response.status, (500, "Internal Server Error")
        )
        return code, reason, wire.encode_response(response)

    def _stats(self) -> Dict[str, Any]:
        """The service metrics snapshot; behind shards, its
        ``resilience.net`` block is the shard manager's ledger."""
        stats = self.service.metrics.snapshot()
        if self.manager is not None:
            stats["resilience"]["net"] = self.manager.net_stats()
        return stats

    def _healthz(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "v": wire.WIRE_VERSION,
            "status": "ok",
            "pairs": self.service.pairs(),
        }
        if self.manager is not None:
            out["shards"] = self.manager.health()
            out["on_failure"] = self.manager.on_failure
            # Staleness at a glance: the generation the coordinator
            # scatters at (shard rows above carry what each process
            # last reported, so a lagging shard is visible here).
            out["generation"] = {
                "p": self.manager.spec_p.generation,
                "q": self.manager.spec_q.generation,
            }
            out["net"] = self.manager.net_stats()
        if self.wal is not None:
            try:
                out["wal"] = {
                    "size_bytes": self.wal.size(),
                    "checkpoints": self.wal.stats.checkpoints,
                }
            except (OSError, ValueError):  # pragma: no cover -- closing
                pass
        return out

    @staticmethod
    async def _write_response(writer: asyncio.StreamWriter, code: int,
                              reason: str, payload: Dict[str, Any],
                              keep_alive: bool) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {code} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()
