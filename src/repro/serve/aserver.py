"""The HTTP/JSON front-end over a query service.

Endpoints:

- ``GET /query?side=upper&vertex=3&tau_u=2&tau_l=2`` (or POST the same
  fields as a JSON body; ``label`` may replace ``vertex``,
  ``objective=balanced`` selects another registered query family, and
  ``verify=1`` attaches a structural answer certificate from
  :mod:`repro.core.verify`) — answer a personalized query;
- ``POST /query_batch`` with ``{"queries": [{...}, ...], "deadline":
  s}`` — answer many queries in one admission; the service groups the
  batch by query vertex so shared two-hop extractions are paid once;
- ``POST /update`` with ``{"updates": [{"action": "insert", "u": 3,
  "v": 5}, ...]}`` — apply streaming edge insertions/deletions to the
  live service: core bounds are repaired incrementally, and only the
  affected two-hop neighborhoods' cache entries / adaptive trees /
  index trees are invalidated (see docs/dynamic.md);
- ``GET /healthz`` — liveness;
- ``GET /metrics`` — Prometheus-style text exposition;
- ``GET /stats`` — JSON service snapshot;
- ``GET /debug/traces`` — recent search-trace summaries, most recent
  first (``limit=N`` truncates, ``id=...`` fetches one trace by id).

``explain=1`` on ``/query`` (or ``"explain": true`` in a POST body /
batch body) attaches the computation's search trace to the response —
see docs/observability.md.

Requests are validated against schema version :data:`SCHEMA_VERSION`
(echoed in every success payload): an unknown field, an unregistered
``objective`` or a value the schema cannot represent exactly (a
fractional or boolean vertex id, a list as a label) is a typed 400
error body, never a silent default or a dropped connection.

Service errors map to HTTP statuses: invalid request → 400, queue full
→ 429 (with ``Retry-After``), deadline exceeded → 504, shutting down →
503, backend exhaustion → 500.

:class:`AsyncPMBCServer` holds every connection on one event loop: a
request is **admitted** to the service without blocking
(:meth:`~repro.serve.service.PMBCService.admit` /
:meth:`~repro.shard.ShardedService.admit`), its future is awaited as
an asyncio future, and the connection costs no thread while the worker
pool computes.  A lookup-tier hit comes back from admission already
settled and is answered without any await.  Thousands of idle
keep-alive connections are then just loop-registered sockets.

Deadline semantics match the blocking service path exactly: when the
await times out, the front-end runs the service's settle race
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

from repro.core.query import QueryRequest
from repro.core.verify import check_personalized_answer
from repro.graph.bipartite import Side
from repro.serve.service import (
    InvalidRequestError,
    QueryResult,
    ServeError,
    Submission,
)

__all__ = [
    "SCHEMA_VERSION",
    "AsyncPMBCServer",
    "build_query_request",
    "parse_batch_item",
    "parse_update_item",
    "render_biclique",
    "render_result",
    "render_batch_result",
    "render_update_result",
    "resolve_vertex",
]

#: Version of the JSON request/response schema.  Bumped whenever a
#: field is added or its meaning changes; responses echo it so clients
#: can detect skew.  v2 added ``objective`` and strict unknown-field
#: rejection (a typo like ``objektive`` is a 400, not a silent default).
#: v3 added the sharded-serving response metadata: ``shard`` (which
#: shard answered) and ``degraded`` (the owner was down and the
#: request was rerouted) on query and batch payloads.
#: v4 added ``POST /update`` (streaming edge updates) and its
#: :class:`~repro.serve.service.UpdateResult`-shaped response payload.
SCHEMA_VERSION = 4

_QUERY_FIELDS = frozenset(
    {
        "side", "vertex", "label", "tau_u", "tau_l",
        "deadline", "verify", "explain", "trace_id", "objective",
    }
)
_BATCH_FIELDS = frozenset({"queries", "deadline", "explain"})
_BATCH_ITEM_FIELDS = frozenset(
    {"side", "vertex", "label", "tau_u", "tau_l", "trace_id", "objective"}
)
_UPDATE_FIELDS = frozenset({"updates"})
_UPDATE_ITEM_FIELDS = frozenset({"action", "u", "v"})

_MAX_BODY_BYTES = 8 * 1024 * 1024
#: Longest request line or header line (the ``StreamReader`` default).
_MAX_LINE_BYTES = 64 * 1024
#: Most header lines one request may carry.
_MAX_HEADERS = 100


# ----------------------------------------------------------------------
# wire codec: request fields -> domain objects -> response payloads


def _reject_unknown(params: dict, allowed: frozenset, where: str) -> None:
    unknown = sorted(set(map(str, params)) - allowed)
    if unknown:
        raise InvalidRequestError(
            f"unknown {where} field(s): {', '.join(map(repr, unknown))} "
            f"(schema v{SCHEMA_VERSION})"
        )


def _parse_side(raw: str) -> Side:
    try:
        return Side(raw.lower())
    except ValueError:
        raise InvalidRequestError(
            f"side must be 'upper' or 'lower', got {raw!r}"
        ) from None


def _parse_int(params: dict, name: str, default: int | None = None) -> int:
    """An integer field: a JSON integer or a decimal string.

    Booleans and floats are rejected rather than truncated, so
    ``1.9`` or ``true`` never answers a query for vertex 1.
    """
    raw = params.get(name, default)
    if raw is None:
        raise InvalidRequestError(f"missing required parameter {name!r}")
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, str):
        with contextlib.suppress(ValueError):
            return int(raw)
    raise InvalidRequestError(
        f"parameter {name!r} must be an integer, got {raw!r}"
    )


def _parse_float(params: dict, name: str) -> float | None:
    raw = params.get(name)
    if raw is None:
        return None
    if not isinstance(raw, bool):
        with contextlib.suppress(TypeError, ValueError, OverflowError):
            return float(raw)
    raise InvalidRequestError(
        f"parameter {name!r} must be a number, got {raw!r}"
    )


def _parse_flag(params: dict, name: str) -> bool:
    """Truthiness of a query/body flag (``1``/``true``/``yes``/JSON true)."""
    raw = params.get(name, "")
    if isinstance(raw, bool):
        return raw
    return str(raw).lower() in ("1", "true", "yes")


def resolve_vertex(graph, params: dict, side: Side) -> int:
    """The dense vertex id from a ``vertex`` or ``label`` wire field."""
    label = params.get("label")
    if label is not None:
        if not isinstance(label, (str, int)) or isinstance(label, bool):
            raise InvalidRequestError(
                f"'label' must be a string or an integer, got {label!r}"
            )
        try:
            return graph.vertex_by_label(side, label)
        except KeyError:
            raise InvalidRequestError(
                f"no {side.value} vertex labelled {label!r}"
            ) from None
    return _parse_int(params, "vertex")


def build_query_request(graph, params: dict, where: str) -> QueryRequest:
    """A validated :class:`QueryRequest` from wire fields.

    Structural violations — an unregistered objective, a non-string
    trace id — surface as :class:`InvalidRequestError` (HTTP 400)
    rather than an opaque 500.
    """
    side = _parse_side(str(params.get("side", "")))
    vertex = resolve_vertex(graph, params, side)
    tau_u = _parse_int(params, "tau_u", default=1)
    tau_l = _parse_int(params, "tau_l", default=1)
    trace_id = params.get("trace_id")
    try:
        return QueryRequest(
            side,
            vertex,
            tau_u,
            tau_l,
            objective=str(params.get("objective", "pmbc")),
            trace_id=str(trace_id) if trace_id else None,
        )
    except (TypeError, ValueError) as exc:
        raise InvalidRequestError(f"{where}: {exc}") from None


def parse_batch_item(graph, item, position: int) -> QueryRequest:
    """One validated batch entry (``queries[position]``)."""
    if not isinstance(item, dict):
        raise InvalidRequestError(
            f"queries[{position}] must be a JSON object"
        )
    where = f"queries[{position}]"
    _reject_unknown(item, _BATCH_ITEM_FIELDS, where)
    return build_query_request(graph, item, where)


def render_biclique(graph, biclique) -> dict | None:
    """The JSON shape of one answer (or None for an empty answer)."""
    if biclique is None:
        return None
    upper_labels, lower_labels = biclique.with_labels(graph)
    return {
        "shape": list(biclique.shape),
        "edges": biclique.num_edges,
        "upper": sorted(map(str, upper_labels)),
        "lower": sorted(map(str, lower_labels)),
    }


def render_result(
    graph,
    result: QueryResult,
    request: QueryRequest,
    verify: bool,
) -> dict:
    """The full ``/query`` success payload."""
    payload: dict = {
        "schema_version": SCHEMA_VERSION,
        "query": {
            "side": request.side.value,
            "vertex": request.vertex,
            "tau_u": request.tau_u,
            "tau_l": request.tau_l,
            "objective": request.objective,
        },
        "backend": result.backend,
        "shared": result.shared,
        "queue_ms": result.queue_seconds * 1e3,
        "total_ms": result.total_seconds * 1e3,
        "degraded": result.degraded,
    }
    if result.shard is not None:
        payload["shard"] = result.shard
    biclique = result.biclique
    payload["result"] = render_biclique(graph, biclique)
    if result.trace is not None:
        payload["trace"] = result.trace
    if verify:
        # The structural certificate (query membership, constraint
        # satisfaction, completeness) is objective-agnostic.
        check = check_personalized_answer(
            graph,
            request.side,
            request.vertex,
            request.tau_u,
            request.tau_l,
            biclique,
        )
        payload["verified"] = {
            "valid": check.valid,
            "reasons": list(check.reasons),
        }
    return payload


def parse_update_item(item, position: int) -> tuple[str, int, int]:
    """One validated ``updates[position]`` entry as an op triple."""
    if not isinstance(item, dict):
        raise InvalidRequestError(
            f"updates[{position}] must be a JSON object"
        )
    _reject_unknown(item, _UPDATE_ITEM_FIELDS, f"updates[{position}]")
    missing = sorted(_UPDATE_ITEM_FIELDS - set(item))
    if missing:
        raise InvalidRequestError(
            f"updates[{position}] missing field(s): "
            f"{', '.join(map(repr, missing))}"
        )
    return (item["action"], item["u"], item["v"])


def render_update_result(result) -> dict:
    """The full ``POST /update`` success payload."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "applied": result.applied,
        "noops": result.noops,
        "inserts": result.inserts,
        "deletes": result.deletes,
        "trees_repaired": result.trees_repaired,
        "evicted": result.evicted,
        "cascade": result.cascade,
        "total_ms": result.seconds * 1e3,
    }
    if result.shard is not None:
        payload["shard"] = result.shard
    return payload


def render_batch_result(graph, requests, result) -> dict:
    """The full ``/query_batch`` success payload."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "backend": result.backend,
        "count": len(result),
        "queue_ms": result.queue_seconds * 1e3,
        "total_ms": result.total_seconds * 1e3,
        "degraded": result.degraded,
        "results": [
            {
                "query": request.to_json(),
                "result": render_biclique(graph, biclique),
            }
            for request, biclique in zip(requests, result.bicliques)
        ],
    }
    if result.shard is not None:
        payload["shard"] = result.shard
    if result.trace is not None:
        payload["trace"] = result.trace
    return payload


# ----------------------------------------------------------------------
# the server


class _HeadError(Exception):
    """A request head answered with an error status and a close."""

    def __init__(self, status: int, error: str, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.error = error


class AsyncPMBCServer:
    """Owns an ``asyncio.start_server`` loop bound to a service.

    The event loop runs on a dedicated background thread, so the API
    is blocking: ``start()`` returns once the socket is live,
    ``serve_forever()`` blocks the caller until shutdown, and
    ``shutdown()`` stops the loop, joins its thread, and closes the
    service.  ``port=0`` picks a free port; read it back from
    :attr:`address` once started.
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

        Teardown order matters: the acceptor (the event loop) is fully
        stopped and joined *before* the service — and with it the
        executor — goes away, so a late connection cannot race a dying
        executor.  Idempotent.
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
                self._handle_conn,
                self._host,
                self._port,
                limit=_MAX_LINE_BYTES,
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
                try:
                    head = await self._read_head(reader)
                    if head is None:
                        break
                    method, target, version, headers = head
                    try:
                        length = int(headers.get("content-length") or 0)
                    except ValueError:
                        length = -1
                    if not 0 <= length <= _MAX_BODY_BYTES:
                        raise _HeadError(
                            400, "BadRequest", "bad content length"
                        )
                except _HeadError as exc:
                    await self._respond(
                        writer,
                        exc.status,
                        {"error": exc.error, "detail": str(exc)},
                        keep_alive=False,
                    )
                    break
                if (
                    version == "HTTP/1.1"
                    and headers.get("expect", "").lower() == "100-continue"
                ):
                    writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
                    await writer.drain()
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
            # Shutdown cancels a handler still closing its writer.  End
            # quietly: on Python 3.11 a handler task that ends cancelled
            # makes the stream callback log the CancelledError.
            with contextlib.suppress(Exception, asyncio.CancelledError):
                writer.close()
                await writer.wait_closed()

    @staticmethod
    async def _read_head(
        reader: asyncio.StreamReader,
    ) -> tuple[str, str, str, dict[str, str]] | None:
        """The request line and headers, or None at end of stream.

        A line longer than the reader's limit makes ``readline`` raise
        ``ValueError``; it is answered like ``http.server`` answers
        it — 414 for the request line, 431 for a header line or for
        more than :data:`_MAX_HEADERS` headers.
        """
        try:
            request_line = await reader.readline()
        except ValueError:
            raise _HeadError(
                414,
                "URITooLong",
                f"request line longer than {_MAX_LINE_BYTES} bytes",
            ) from None
        if not request_line or request_line in (b"\r\n", b"\n"):
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _HeadError(400, "BadRequest", "malformed request line")
        headers: dict[str, str] = {}
        count = 0
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                raise _HeadError(
                    431,
                    "HeaderFieldsTooLarge",
                    f"header line longer than {_MAX_LINE_BYTES} bytes",
                ) from None
            if line in (b"\r\n", b"\n", b""):
                break
            count += 1
            if count > _MAX_HEADERS:
                raise _HeadError(
                    431,
                    "HeaderFieldsTooLarge",
                    f"more than {_MAX_HEADERS} headers",
                )
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        method, target, version = parts
        return method, target, version, headers

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
