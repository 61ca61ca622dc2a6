"""End-to-end tests of the HTTP front-end: codec, request heads, routes.

A real :class:`AsyncPMBCServer` over one :class:`PMBCService` (the
deployment ``pmbc serve`` runs) on an ephemeral port, exercised through
:class:`repro.serve.client.PMBCClient`, raw ``urllib`` calls and raw
sockets.  ``test_server.py`` covers the rest of its HTTP surface.
"""

from __future__ import annotations

import http.client
import json
import logging
import re
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.core import build_index_star
from repro.core.query import QueryRequest
from repro.graph.bipartite import Side
from repro.serve import (
    AsyncPMBCServer,
    InvalidRequestError,
    PMBCClient,
    PMBCService,
    ServiceConfig,
)
from repro.serve.aserver import SCHEMA_VERSION


@pytest.fixture()
def plain(paper_graph):
    """A server over one service, the deployment ``pmbc serve`` runs."""
    service = PMBCService(
        paper_graph, config=ServiceConfig(num_workers=2)
    ).start()
    with AsyncPMBCServer(service, port=0) as server:
        yield server


@pytest.fixture()
def client(plain):
    """A stdlib client of the ``plain`` server."""
    return PMBCClient(plain.url, timeout=10)


# ----------------------------------------------------------------------
# the wire codec (the rest of the plain-service surface: test_server.py)


def _post_raw(server, route: str, body: bytes) -> tuple[int, dict]:
    """POST ``body`` verbatim; the status and the decoded JSON reply."""
    request = urllib.request.Request(
        server.url + route,
        data=body,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, json.loads(exc.read())


@pytest.mark.parametrize(
    ("route", "body"),
    [
        ("/query", '{"side": "upper", "label": [1]}'),
        ("/query", '{"side": "upper", "label": {"u1": 1}}'),
        ("/query", '{"side": "upper", "vertex": 1e400}'),
        ("/query", '{"side": "upper", "vertex": 1.9}'),
        ("/query", '{"side": "upper", "vertex": true}'),
        ("/query", '{"side": "upper", "vertex": 0, "tau_u": 1.5}'),
        ("/query", '{"side": "upper", "vertex": 0, "deadline": NaN}'),
        ("/query", '{"side": "upper", "vertex": 0, "deadline": 1e400}'),
        ("/query", '{"side": "upper", "vertex": 0, "deadline": 1e308}'),
        ("/query_batch", '{"queries": [{"side": "upper", "label": [1]}]}'),
        ("/query_batch", '{"queries": [{"side": "upper", "vertex": 1.9}]}'),
        (
            "/query_batch",
            '{"queries": [{"side": "upper", "vertex": 0}], "deadline": NaN}',
        ),
    ],
    ids=[
        "label-list",
        "label-object",
        "vertex-overflow",
        "vertex-fraction",
        "vertex-bool",
        "tau-fraction",
        "deadline-nan",
        "deadline-inf",
        "deadline-past-timeout-max",
        "batch-label-list",
        "batch-vertex-fraction",
        "batch-deadline-nan",
    ],
)
def test_unrepresentable_wire_values_are_typed_400(plain, route, body):
    """A value the codec cannot take exactly is a 400, not a guess."""
    status, payload = _post_raw(plain, route, body.encode())
    assert status == 400, payload
    assert payload["error"] == "InvalidRequestError"


# ----------------------------------------------------------------------
# request heads: the limits and interim response of http.server


def _exchange(server, data: bytes) -> bytes:
    """Send ``data`` on a fresh socket; everything read until close."""
    with socket.create_connection(server.address, timeout=10) as sock:
        sock.sendall(data)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def test_overlong_request_line_is_414(plain):
    target = "/query?side=upper&vertex=0&pad=" + "a" * 70_000
    reply = _exchange(
        plain, f"GET {target} HTTP/1.1\r\nHost: x\r\n\r\n".encode()
    )
    assert reply.startswith(b"HTTP/1.1 414 "), reply[:80]
    assert b"URITooLong" in reply


def test_overlong_header_line_is_431(plain):
    reply = _exchange(
        plain,
        b"GET /healthz HTTP/1.1\r\nHost: x\r\nX-Pad: "
        + b"a" * 70_000
        + b"\r\n\r\n",
    )
    assert reply.startswith(b"HTTP/1.1 431 "), reply[:80]


def test_more_than_100_headers_is_431(plain):
    headers = "".join(f"X-Header-{i}: {i}\r\n" for i in range(150))
    reply = _exchange(
        plain, f"GET /healthz HTTP/1.1\r\n{headers}\r\n".encode()
    )
    assert reply.startswith(b"HTTP/1.1 431 "), reply[:80]
    assert b"more than 100 headers" in reply


def test_expect_100_continue_gets_interim_response(plain):
    """The interim ``100 Continue`` comes before the client sends a body."""
    body = json.dumps({"side": "upper", "vertex": 0}).encode()
    head = (
        "POST /query HTTP/1.1\r\nHost: x\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Expect: 100-continue\r\nConnection: close\r\n\r\n"
    ).encode()
    with socket.create_connection(plain.address, timeout=5) as sock:
        sock.sendall(head)
        interim = b""
        while b"\r\n\r\n" not in interim:
            chunk = sock.recv(1)
            assert chunk, "connection closed before an interim response"
            interim += chunk
        assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.sendall(body)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    reply = b"".join(chunks)
    assert reply.startswith(b"HTTP/1.1 200 "), reply[:80]
    payload = json.loads(reply.partition(b"\r\n\r\n")[2])
    assert payload["result"] is not None


#: A complete ``POST /update`` that deletes edge (0, 0), to hide in a body.
_UPDATE_BODY = b'{"updates": [{"action": "delete", "u": 0, "v": 0}]}'
_SMUGGLED = (
    b"POST /update HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
    b"Content-Length: %d\r\n\r\n" % len(_UPDATE_BODY)
) + _UPDATE_BODY
_CHUNK_SIZE_LINE = b"%x\r\n" % len(_SMUGGLED)
_CHUNKED = _CHUNK_SIZE_LINE + _SMUGGLED + b"\r\n0\r\n\r\n"


@pytest.mark.parametrize(
    ("data", "status"),
    [
        (
            # Content-Length covers only the chunk-size line.
            b"POST /healthz-probe HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\nTransfer-Encoding: chunked\r\n\r\n"
            % len(_CHUNK_SIZE_LINE)
            + _CHUNKED,
            501,
        ),
        (
            b"POST /query HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\nContent-Length: 0\r\n\r\n"
            % len(_SMUGGLED)
            + _SMUGGLED,
            400,
        ),
        (
            b"POST /query HTTP/1.1\r\nHost: x\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n" + _CHUNKED,
            501,
        ),
    ],
    ids=["chunked-with-length", "conflicting-lengths", "chunked-only"],
)
def test_body_framing_never_runs_a_second_request(plain, data, status):
    """A body framed two ways is refused whole, never re-parsed.

    Each request hides a complete ``POST /update`` where a server that
    framed the body differently would read a second request.
    """
    reply = _exchange(plain, data)  # returns once the server closes
    statuses = re.findall(rb"(?m)^HTTP/1\.1 (\d{3}) ", reply)
    assert statuses == [str(status).encode()], reply
    assert plain.service.stats()["updates"]["batches"] == 0


# ----------------------------------------------------------------------
# routes and payloads


def test_healthz_and_schema_version(client):
    assert client.healthz()
    payload = client.query(side="upper", vertex=0)
    assert payload["schema_version"] == SCHEMA_VERSION


def test_query_get_matches_post(client):
    get = client.query_get(side="upper", vertex=1, tau_u=1, tau_l=1)
    post = client.query(side="upper", vertex=1, tau_u=1, tau_l=1)
    assert get["result"] == post["result"]


def test_verify_and_explain_round_trip(client):
    payload = client.query(
        side="upper", vertex=0, tau_u=1, tau_l=1, verify=True, explain=True
    )
    assert payload["verified"]["valid"], payload["verified"]["reasons"]
    assert payload["trace"]["trace_id"]


def test_unknown_field_maps_to_400(client):
    with pytest.raises(InvalidRequestError):
        client.query_get(side="upper", vertex=0, bogus=1)
    with pytest.raises(InvalidRequestError):
        client.query(side="sideways", vertex=0)


def test_method_not_allowed_is_405(plain):
    request = urllib.request.Request(
        plain.url + "/healthz", data=b"{}", method="POST"
    )
    with pytest.raises(urllib.error.HTTPError) as info:
        urllib.request.urlopen(request, timeout=10)
    assert info.value.code == 405
    info.value.close()


def test_debug_traces_lookup(client):
    payload = client.query(side="upper", vertex=0, explain=True)
    trace_id = payload["trace"]["trace_id"]
    listing = client.debug_traces(limit=5)
    assert listing["traces"]
    found = client.debug_traces(trace_id=trace_id)
    assert found["trace"]["trace_id"] == trace_id


def test_plain_service_behind_async_front_end(paper_graph):
    """Query and batch payloads keep schema v3's keys.

    ``degraded`` is always present and false; ``shard`` is never
    emitted.  A batch answers every query, in request order.
    """
    service = PMBCService(
        paper_graph, config=ServiceConfig(num_workers=2)
    ).start()
    with AsyncPMBCServer(service, port=0) as server:
        client = PMBCClient(server.url, timeout=10)
        payload = client.query(side="upper", vertex=0)
        assert payload["result"] is not None
        assert payload["degraded"] is False
        assert "shard" not in payload
        items = [
            {"side": "upper", "vertex": 0},
            {"side": "upper", "vertex": 0, "tau_u": 2, "tau_l": 2},
            {"side": "lower", "vertex": paper_graph.num_lower - 1},
            {"side": "upper", "vertex": paper_graph.num_upper - 1},
        ]
        batch = client.query_batch(items)
        assert [r["query"]["vertex"] for r in batch["results"]] == [
            item["vertex"] for item in items
        ]
        assert batch["degraded"] is False
        assert "shard" not in batch
        assert all(r["result"] is not None for r in batch["results"])
    assert service.closed


def test_resident_answer_skips_the_queue(paper_graph):
    """A mounted-index hit is answered at admission: no queue wait."""
    service = PMBCService(
        paper_graph,
        index=build_index_star(paper_graph),
        config=ServiceConfig(num_workers=2),
    ).start()
    with AsyncPMBCServer(service, port=0) as server:
        client = PMBCClient(server.url, timeout=10)
        request = QueryRequest(Side.UPPER, 0, 2, 2, trace_id="resident-1")
        payload = client.query(request, explain=True)
        assert payload["backend"] == "index"
        assert payload["queue_ms"] == 0
        assert payload["trace"]["trace_id"] == "resident-1"
        found = client.debug_traces(trace_id="resident-1")
        assert found["trace"]["meta"]["backend"] == "index"
        assert client.stats()["queue_wait_seconds"]["count"] == 0


def test_shutdown_closes_service_and_leaks_no_threads(paper_graph):
    service = PMBCService(
        paper_graph, config=ServiceConfig(num_workers=2)
    ).start()
    server = AsyncPMBCServer(service, port=0).start()
    client = PMBCClient(server.url, timeout=10)
    assert client.healthz()
    server.shutdown()
    assert service.closed
    leaked = [
        t.name
        for t in threading.enumerate()
        if t.name.startswith(("pmbc-aserve", "pmbc-serve"))
    ]
    assert not leaked, f"leaked threads: {leaked}"


def test_shutdown_after_client_close_logs_nothing(paper_graph, caplog):
    """A handler cancelled at shutdown ends quietly.

    The client closes a keep-alive connection just before shutdown, so
    the handler is still closing its writer when the loop cancels it.
    On Python 3.11 a handler task that ends cancelled makes the stream
    callback log ``Exception in callback ...`` through the ``asyncio``
    logger.
    """
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        for __ in range(20):
            service = PMBCService(
                paper_graph, config=ServiceConfig(num_workers=1)
            ).start()
            server = AsyncPMBCServer(service, port=0).start()
            host, port = server.address
            conn = http.client.HTTPConnection(host, port, timeout=10)
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            assert response.status == 200
            conn.close()
            server.shutdown()
    errors = [r for r in caplog.records if r.name == "asyncio"]
    assert not errors, errors[0].getMessage()
