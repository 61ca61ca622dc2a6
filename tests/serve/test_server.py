"""End-to-end tests of the HTTP front-end over one unsharded service.

The ``pmbc serve`` default deployment: a real :class:`AsyncPMBCServer`
over a plain :class:`PMBCService` on an ephemeral port, exercised
through :class:`repro.serve.client.PMBCClient` and raw ``urllib``
calls.  The sharded pairing and the request-head handling are covered
in ``test_aserver.py``.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.core import build_index_star, check_personalized_answer
from repro.core.result import Biclique
from repro.graph.bipartite import Side
from repro.serve import (
    AsyncPMBCServer,
    InvalidRequestError,
    PMBCClient,
    PMBCService,
    ServiceConfig,
)


@pytest.fixture()
def served(paper_graph):
    """A running server over the paper graph with an index backend."""
    index = build_index_star(paper_graph)
    service = PMBCService(
        paper_graph,
        index=index,
        config=ServiceConfig(num_workers=4, max_queue=32),
    ).start()
    server = AsyncPMBCServer(service, port=0).start()
    try:
        yield paper_graph, server, PMBCClient(server.url, timeout=10)
    finally:
        server.shutdown()


def test_healthz(served):
    __, __, client = served
    assert client.healthz()


def test_query_get_returns_verified_biclique(served):
    graph, server, client = served
    payload = client.query_get(
        side="upper", vertex=0, tau_u=1, tau_l=1, verify=1
    )
    result = payload["result"]
    assert result is not None
    assert payload["backend"] == "index"
    assert payload["verified"]["valid"], payload["verified"]["reasons"]
    # Independently re-verify against core.verify.
    upper = frozenset(
        graph.vertex_by_label(Side.UPPER, label) for label in result["upper"]
    )
    lower = frozenset(
        graph.vertex_by_label(Side.LOWER, label) for label in result["lower"]
    )
    check = check_personalized_answer(
        graph, Side.UPPER, 0, 1, 1, Biclique(upper=upper, lower=lower)
    )
    assert check.valid, check.reasons


def test_query_post_with_label(served):
    graph, __, client = served
    label = graph.label(Side.UPPER, 0)
    by_label = client.query(side="upper", label=str(label))
    by_id = client.query(side="upper", vertex=0)
    assert by_label["result"]["edges"] == by_id["result"]["edges"]


def test_query_no_answer_is_null_result(served):
    __, __, client = served
    payload = client.query(side="upper", vertex=0, tau_u=99, tau_l=99)
    assert payload["result"] is None


def test_invalid_requests_map_to_400(served):
    __, __, client = served
    with pytest.raises(InvalidRequestError):
        client.query_get(side="upper", vertex="not-an-int")
    with pytest.raises(InvalidRequestError):
        client.query_get(side="sideways", vertex=0)
    with pytest.raises(InvalidRequestError):
        client.query_get(side="upper", vertex=10_000)
    with pytest.raises(InvalidRequestError):
        client.query_get(side="upper")  # neither vertex nor label
    with pytest.raises(InvalidRequestError):
        client.query(side="upper", label="no-such-label")


def test_unknown_route_is_404(served):
    __, server, __ = served
    request = urllib.request.Request(server.url + "/nope")
    try:
        urllib.request.urlopen(request, timeout=10)
        raise AssertionError("expected HTTP 404")
    except urllib.error.HTTPError as exc:
        assert exc.code == 404
        assert json.loads(exc.read())["error"] == "NotFound"


def test_malformed_post_body_is_400(served):
    __, server, __ = served
    request = urllib.request.Request(
        server.url + "/query",
        data=b"not json",
        headers={"Content-Type": "application/json"},
    )
    try:
        urllib.request.urlopen(request, timeout=10)
        raise AssertionError("expected HTTP 400")
    except urllib.error.HTTPError as exc:
        assert exc.code == 400


def test_metrics_report_nonzero_counts_and_percentiles(served):
    __, __, client = served
    for vertex in (0, 1, 2, 0, 1):
        client.query(side="upper", vertex=vertex)
    text = client.metrics()
    assert "# TYPE pmbc_requests_total counter" in text
    assert 'pmbc_requests_total{status="ok"} 5' in text
    assert "# TYPE pmbc_request_latency_seconds histogram" in text
    assert "pmbc_request_latency_seconds_count 5" in text
    stats = client.stats()
    assert stats["requests"]["ok"] == 5
    latency = stats["latency_seconds"]
    assert latency["count"] == 5
    assert latency["p50"] > 0
    assert latency["p50"] <= latency["p95"] <= latency["p99"]
    assert stats["healthy"]
    assert stats["backends"] == ["index", "engine", "online"]


def test_stats_exposes_engine_cache(served):
    __, __, client = served
    client.query(side="upper", vertex=3)
    cache = client.stats()["engine_cache"]
    assert cache["capacity"] > 0
    assert set(cache) >= {"hits", "misses", "evictions", "hit_rate"}


def test_shutdown_closes_service(paper_graph):
    service = PMBCService(paper_graph, config=ServiceConfig(num_workers=2))
    service.start()
    server = AsyncPMBCServer(service, port=0).start()
    client = PMBCClient(server.url, timeout=10)
    assert client.healthz()
    server.shutdown()
    assert service.closed


def test_shutdown_joins_acceptor_before_service_and_leaks_no_threads(
    paper_graph,
):
    """Regression: the acceptor (the event-loop thread) must be joined
    before the service (and its executor) closes — the other order lets
    an in-flight request race a closing service, and could leave the
    acceptor thread alive after ``shutdown()`` returned.
    """
    import threading

    service = PMBCService(paper_graph, config=ServiceConfig(num_workers=2))
    service.start()
    server = AsyncPMBCServer(service, port=0).start()
    client = PMBCClient(server.url, timeout=10)
    assert client.query(side="upper", vertex=0)["result"] is not None
    server.shutdown()
    assert service.closed
    leaked = [
        t.name
        for t in threading.enumerate()
        if t.name.startswith(("pmbc-aserve", "pmbc-serve", "pmbc-adaptive"))
    ]
    assert not leaked, f"threads alive after shutdown: {leaked}"
    # Shutdown is idempotent.
    server.shutdown()
