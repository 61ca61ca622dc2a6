"""End-to-end tests of the HTTP front-end: codec, request heads, shards.

A real :class:`AsyncPMBCServer` on an ephemeral port, exercised through
:class:`repro.serve.client.PMBCClient`, raw ``urllib`` calls and raw
sockets — over a plain service (the ``pmbc serve`` default, whose full
HTTP surface ``test_server.py`` covers) and over the shard router,
which is the pairing ``pmbc serve --shards N`` deploys.
"""

from __future__ import annotations

import json
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
from repro.shard import ShardedService


@pytest.fixture()
def plain(paper_graph):
    """A server over one unsharded service (the ``pmbc serve`` default)."""
    service = PMBCService(
        paper_graph, config=ServiceConfig(num_workers=2)
    ).start()
    with AsyncPMBCServer(service, port=0) as server:
        yield server


@pytest.fixture()
def async_sharded(paper_graph):
    """An async server over a 2-shard router on an ephemeral port."""
    service = ShardedService(
        paper_graph, 2, config=ServiceConfig(num_workers=2, max_queue=32)
    ).start()
    server = AsyncPMBCServer(service, port=0).start()
    try:
        yield paper_graph, server, PMBCClient(server.url, timeout=10)
    finally:
        server.shutdown()


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


# ----------------------------------------------------------------------
# the shard router (pmbc serve --shards N)


def test_healthz_and_schema_version(async_sharded):
    __, __, client = async_sharded
    assert client.healthz()
    payload = client.query(side="upper", vertex=0)
    assert payload["schema_version"] == SCHEMA_VERSION


def test_query_carries_shard_and_degraded(async_sharded):
    graph, server, client = async_sharded
    service = server.service
    payload = client.query(side="upper", vertex=0, tau_u=2, tau_l=2)
    assert payload["result"] is not None
    assert payload["shard"] == service.shard_map.shard_of(Side.UPPER, 0)
    assert payload["degraded"] is False


def test_query_get_matches_post(async_sharded):
    __, __, client = async_sharded
    get = client.query_get(side="upper", vertex=1, tau_u=1, tau_l=1)
    post = client.query(side="upper", vertex=1, tau_u=1, tau_l=1)
    assert get["result"] == post["result"]


def test_batch_splits_across_shards(async_sharded):
    graph, __, client = async_sharded
    items = [
        {"side": "upper", "vertex": 0},
        {"side": "upper", "vertex": 0, "tau_u": 2, "tau_l": 2},
        {"side": "lower", "vertex": graph.num_lower - 1},
        {"side": "upper", "vertex": graph.num_upper - 1},
    ]
    payload = client.query_batch(items)
    assert len(payload["results"]) == len(items)
    assert payload["degraded"] is False
    assert all(r["result"] is not None for r in payload["results"])


def test_verify_and_explain_round_trip(async_sharded):
    __, __, client = async_sharded
    payload = client.query(
        side="upper", vertex=0, tau_u=1, tau_l=1, verify=True, explain=True
    )
    assert payload["verified"]["valid"], payload["verified"]["reasons"]
    assert payload["trace"]["trace_id"]


def test_unknown_field_maps_to_400(async_sharded):
    __, __, client = async_sharded
    with pytest.raises(InvalidRequestError):
        client.query_get(side="upper", vertex=0, bogus=1)
    with pytest.raises(InvalidRequestError):
        client.query(side="sideways", vertex=0)


def test_unknown_route_is_404(async_sharded):
    __, server, __ = async_sharded
    request = urllib.request.Request(server.url + "/nope")
    with pytest.raises(urllib.error.HTTPError) as info:
        urllib.request.urlopen(request, timeout=10)
    assert info.value.code == 404
    assert json.loads(info.value.read())["error"] == "NotFound"


def test_method_not_allowed_is_405(async_sharded):
    __, server, __ = async_sharded
    request = urllib.request.Request(
        server.url + "/healthz", data=b"{}", method="POST"
    )
    with pytest.raises(urllib.error.HTTPError) as info:
        urllib.request.urlopen(request, timeout=10)
    assert info.value.code == 405
    info.value.close()


def test_metrics_and_stats_surface_shard_series(async_sharded):
    __, __, client = async_sharded
    client.query(side="upper", vertex=0)
    text = client.metrics()
    assert "pmbc_shard_requests_total" in text
    assert "pmbc_shards_up 2" in text
    stats = client.stats()
    assert stats["sharding"]["num_shards"] == 2
    assert len(stats["per_shard"]) == 2


def test_debug_traces_lookup(async_sharded):
    __, __, client = async_sharded
    payload = client.query(side="upper", vertex=0, explain=True)
    trace_id = payload["trace"]["trace_id"]
    listing = client.debug_traces(limit=5)
    assert listing["traces"]
    found = client.debug_traces(trace_id=trace_id)
    assert found["trace"]["trace_id"] == trace_id


def test_plain_service_behind_async_front_end(paper_graph):
    """The front-end also fronts an unsharded service."""
    service = PMBCService(
        paper_graph, config=ServiceConfig(num_workers=2)
    ).start()
    with AsyncPMBCServer(service, port=0) as server:
        client = PMBCClient(server.url, timeout=10)
        payload = client.query(side="upper", vertex=0)
        assert payload["result"] is not None
        assert payload["degraded"] is False
        assert "shard" not in payload
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
    service = ShardedService(
        paper_graph, 2, config=ServiceConfig(num_workers=2)
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
