"""An asyncio HTTP front-end multiplexing many open connections.

:class:`AsyncPMBCServer` serves the same JSON schema and endpoints as
the threaded :class:`~repro.serve.server.PMBCServer` (it reuses the
same wire translation helpers, so the two cannot drift), but holds
connections on a single event loop instead of one thread each: a
request is **admitted** to the service without blocking
(:meth:`~repro.serve.service.PMBCService.admit` /
:meth:`~repro.serve.service.ShardedService.admit`), its future is
awaited as an asyncio future, and the connection costs no thread
while the worker pool computes.  A lookup-tier hit comes back from
admission already settled and is answered without any await.
Thousands of idle keep-alive connections are then just
loop-registered sockets — the shape the sharded router
(:mod:`repro.shard`) needs in front of N shards.

Deadline semantics match the blocking path exactly: when the await
times out, the front-end runs the service's settle race
(:meth:`~repro.serve.service.Submission.expire`) so either the 504 is
accounted ``deadline_exceeded`` on the service or the worker's
just-in-time answer is returned.

The server accepts any object with the ``PMBCService`` request
surface — a plain service or a :class:`~repro.shard.ShardedService`.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import sys
import threading
from http.client import responses as _http_reasons
from urllib.parse import parse_qs, urlparse

from repro.serve.server import (
    _BATCH_FIELDS,
    _QUERY_FIELDS,
    _UPDATE_FIELDS,
    _parse_flag,
    _parse_float,
    _parse_int,
    _reject_unknown,
    build_query_request,
    parse_batch_item,
    parse_update_item,
    render_batch_result,
    render_result,
    render_update_result,
)
from repro.serve.service import (
    InvalidRequestError,
    ServeError,
    Submission,
)

__all__ = ["AsyncPMBCServer", "aserve_forever"]

_MAX_BODY_BYTES = 8 * 1024 * 1024


class AsyncPMBCServer:
    """Owns an ``asyncio.start_server`` loop bound to a service.

    The event loop runs on a dedicated background thread so the
    blocking API mirrors :class:`~repro.serve.server.PMBCServer`:
    ``start()`` returns once the socket is live, ``shutdown()`` stops
    the loop, joins its thread, and closes the service.  ``port=0``
    picks a free port; read it back from :attr:`address`.
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 8642,
        verbose: bool = False,
    ) -> None:
        self.service = service
        self.verbose = verbose
        self._host = host
        self._port = port
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._address: tuple[str, int] | None = None
        self._startup_error: BaseException | None = None

    # ------------------------------------------------------------------
    # lifecycle

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` pair."""
        if self._address is None:
            raise RuntimeError("server not started")
        return self._address

    @property
    def url(self) -> str:
        """Base URL of the bound socket."""
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> AsyncPMBCServer:
        """Run the loop in a daemon thread; returns once bound."""
        if self._thread is None:
            self._ready.clear()
            self._startup_error = None
            self._thread = threading.Thread(
                target=self._run, name="pmbc-aserve-loop", daemon=True
            )
            self._thread.start()
            self._ready.wait()
            if self._startup_error is not None:
                self._thread.join()
                self._thread = None
                raise self._startup_error
        return self

    def serve_forever(self) -> None:
        """Serve on the loop thread, blocking the caller until shutdown."""
        self.start()
        thread = self._thread
        while thread is not None and thread.is_alive():
            thread.join(timeout=1.0)

    def shutdown(self) -> None:
        """Stop the loop, join its thread, then close the service.

        Same teardown discipline as the threaded server: the acceptor
        (here, the event loop) is fully stopped and joined *before*
        the service — and with it the executor — goes away.
        """
        if self._thread is not None:
            loop, stop = self._loop, self._stop
            if loop is not None and stop is not None:
                with contextlib.suppress(RuntimeError):
                    loop.call_soon_threadsafe(stop.set)
            self._thread.join()
            self._thread = None
        self.service.close()

    def __enter__(self) -> AsyncPMBCServer:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - defensive
            if not self._ready.is_set():
                self._startup_error = exc
                self._ready.set()
            else:
                raise

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._handle_conn, self._host, self._port
            )
        except OSError as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._address = server.sockets[0].getsockname()[:2]
        self._ready.set()
        async with server:
            await self._stop.wait()

    # ------------------------------------------------------------------
    # connection handling

    async def _handle_conn(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                request_line = await reader.readline()
                if not request_line or request_line in (b"\r\n", b"\n"):
                    break
                parts = request_line.decode("latin-1").strip().split()
                if len(parts) != 3:
                    await self._respond(
                        writer,
                        400,
                        {"error": "BadRequest", "detail": "malformed request line"},
                        keep_alive=False,
                    )
                    break
                method, target, version = parts
                headers: dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                try:
                    length = int(headers.get("content-length") or 0)
                except ValueError:
                    length = -1
                if not 0 <= length <= _MAX_BODY_BYTES:
                    await self._respond(
                        writer,
                        400,
                        {"error": "BadRequest", "detail": "bad content length"},
                        keep_alive=False,
                    )
                    break
                body = await reader.readexactly(length) if length else b""
                keep_alive = (
                    version == "HTTP/1.1"
                    and headers.get("connection", "").lower() != "close"
                )
                status, payload, content_type = await self._dispatch(
                    method, target, body
                )
                if self.verbose:
                    print(
                        f"aserve: {method} {target} -> {status}",
                        file=sys.stderr,
                    )
                await self._respond(
                    writer,
                    status,
                    payload,
                    content_type=content_type,
                    keep_alive=keep_alive,
                )
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload,
        content_type: str = "application/json",
        keep_alive: bool = True,
    ) -> None:
        if isinstance(payload, bytes):
            body = payload
        else:
            body = json.dumps(payload, indent=2).encode() + b"\n"
        reason = _http_reasons.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        )
        if status == 429:
            head += "Retry-After: 1\r\n"
        writer.write(head.encode("latin-1") + b"\r\n" + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # routing

    #: Routes per method, for 404-vs-405 discrimination.
    _GET_ROUTES = ("/healthz", "/metrics", "/stats", "/debug/traces", "/query")
    _POST_ROUTES = ("/query", "/query_batch", "/update")

    def _unknown(self, method: str, route: str) -> tuple[int, dict, str]:
        """404 for unknown paths, 405 when the path exists elsewhere."""
        if route in self._GET_ROUTES or route in self._POST_ROUTES:
            return (
                405,
                {
                    "error": "MethodNotAllowed",
                    "detail": f"{route!r} does not accept {method}",
                },
                "application/json",
            )
        return (
            404,
            {"error": "NotFound", "detail": f"no route {route!r}"},
            "application/json",
        )

    async def _dispatch(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, object, str]:
        parsed = urlparse(target)
        route = parsed.path.rstrip("/") or "/"
        if method == "GET":
            params = {
                key: values[-1]
                for key, values in parse_qs(parsed.query).items()
            }
            if route == "/healthz":
                if self.service.healthy():
                    return 200, {"status": "ok"}, "application/json"
                return 503, {"status": "unavailable"}, "application/json"
            if route == "/metrics":
                return (
                    200,
                    self.service.metrics.render().encode(),
                    "text/plain; version=0.0.4",
                )
            if route == "/stats":
                return 200, self.service.stats(), "application/json"
            if route == "/debug/traces":
                return self._debug_traces(params)
            if route == "/query":
                return await self._query(params)
            return self._unknown(method, route)
        if method == "POST":
            if route not in self._POST_ROUTES:
                return self._unknown(method, route)
            try:
                params = json.loads(body or b"{}")
                if not isinstance(params, dict):
                    raise ValueError("body must be a JSON object")
            except ValueError as exc:
                return (
                    400,
                    {"error": "InvalidRequestError", "detail": str(exc)},
                    "application/json",
                )
            if route == "/query_batch":
                return await self._query_batch(params)
            if route == "/update":
                return await self._update(params)
            return await self._query(params)
        return (
            405,
            {"error": "MethodNotAllowed", "detail": f"no {method} routes"},
            "application/json",
        )

    def _debug_traces(self, params: dict) -> tuple[int, dict, str]:
        ring = self.service.traces
        trace_id = params.get("id")
        if trace_id is not None:
            trace = ring.find(str(trace_id))
            if trace is None:
                return (
                    404,
                    {
                        "error": "NotFound",
                        "detail": f"no buffered trace {trace_id!r}",
                    },
                    "application/json",
                )
            return 200, {"trace": trace}, "application/json"
        try:
            limit = _parse_int(params, "limit", default=20)
        except ServeError as exc:
            return self._error(exc)
        return (
            200,
            {
                "buffered": len(ring),
                "capacity": ring.capacity,
                "recorded": ring.total_recorded,
                "traces": ring.snapshot(limit=limit),
            },
            "application/json",
        )

    @staticmethod
    def _error(exc: ServeError) -> tuple[int, dict, str]:
        return (
            exc.http_status,
            {"error": type(exc).__name__, "detail": str(exc)},
            "application/json",
        )

    async def _settle(self, submission: Submission):
        """Await a submission, running the expiry race on timeout.

        A lookup-tier answer is settled during admission; its result is
        returned as is, with no bridge to the loop.  Otherwise the
        concurrent future is shielded from ``wait_for``'s cancellation —
        cancelling it would leave the request unsettleable by both the
        worker and :meth:`Submission.expire`.  After ``expire()`` the
        future is terminal either way, so the final await returns the
        worker's answer or raises the 504.
        """
        if submission.future.done():
            return submission.future.result()
        wrapped = asyncio.wrap_future(submission.future)
        if submission.budget is None:
            return await wrapped
        try:
            return await asyncio.wait_for(
                asyncio.shield(wrapped), timeout=submission.budget
            )
        except asyncio.TimeoutError:
            submission.expire()
            return await wrapped

    async def _query(self, params: dict) -> tuple[int, dict, str]:
        graph = self.service.graph
        try:
            _reject_unknown(params, _QUERY_FIELDS, "query")
            request = build_query_request(graph, params, "query")
            deadline = _parse_float(params, "deadline")
            verify = _parse_flag(params, "verify")
            explain = _parse_flag(params, "explain")
            submission = self.service.admit(
                request, deadline=deadline, explain=explain
            )
        except ServeError as exc:
            return self._error(exc)
        try:
            result = await self._settle(submission)
        except ServeError as exc:
            return self._error(exc)
        return 200, render_result(graph, result, request, verify), (
            "application/json"
        )

    async def _query_batch(self, params: dict) -> tuple[int, dict, str]:
        graph = self.service.graph
        try:
            _reject_unknown(params, _BATCH_FIELDS, "batch")
            queries = params.get("queries")
            if not isinstance(queries, list) or not queries:
                raise InvalidRequestError(
                    "'queries' must be a non-empty JSON array"
                )
            requests = [
                parse_batch_item(graph, item, position)
                for position, item in enumerate(queries)
            ]
            deadline = _parse_float(params, "deadline")
            explain = _parse_flag(params, "explain")
            submission = self.service.admit_batch(
                requests, deadline=deadline, explain=explain
            )
        except ServeError as exc:
            return self._error(exc)
        try:
            result = await self._settle(submission)
        except ServeError as exc:
            return self._error(exc)
        return 200, render_batch_result(graph, requests, result), (
            "application/json"
        )

    async def _update(self, params: dict) -> tuple[int, dict, str]:
        try:
            _reject_unknown(params, _UPDATE_FIELDS, "update")
            updates = params.get("updates")
            if not isinstance(updates, list) or not updates:
                raise InvalidRequestError(
                    "'updates' must be a non-empty JSON array"
                )
            ops = [
                parse_update_item(item, position)
                for position, item in enumerate(updates)
            ]
        except ServeError as exc:
            return self._error(exc)
        # update_batch blocks (bounded peeling cascade + tree repairs);
        # run it off the loop so keep-alive connections stay serviced.
        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(
                None, self.service.update_batch, ops
            )
        except ServeError as exc:
            return self._error(exc)
        return 200, render_update_result(result), "application/json"


def aserve_forever(
    service,
    host: str = "127.0.0.1",
    port: int = 8642,
    verbose: bool = False,
) -> None:
    """Convenience: run an async server until interrupted."""
    server = AsyncPMBCServer(service, host=host, port=port, verbose=verbose)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
