"""Observability through the serving stack: explain, ring, /debug/traces.

Covers the ISSUE acceptance criteria at the service and HTTP layers:
``explain`` attaches a trace summary to responses, every computation
lands in the trace ring, search counters reach ``/metrics``, and
``trace_id`` flows from the request into the recorded trace.
"""

from __future__ import annotations

import pytest

from repro.core import build_index_star
from repro.core.query import QueryRequest
from repro.graph.bipartite import Side
from repro.serve import (
    AsyncPMBCServer,
    PMBCClient,
    PMBCService,
    ServiceConfig,
)


@pytest.fixture()
def service(paper_graph):
    config = ServiceConfig(num_workers=2, max_queue=32)
    with PMBCService(paper_graph, config=config) as svc:
        yield svc


@pytest.fixture()
def served(paper_graph):
    index = build_index_star(paper_graph)
    svc = PMBCService(
        paper_graph,
        index=index,
        config=ServiceConfig(num_workers=2, max_queue=32),
    ).start()
    server = AsyncPMBCServer(svc, port=0).start()
    try:
        yield PMBCClient(server.url, timeout=10)
    finally:
        server.shutdown()


# ----------------------------------------------------------------------
# service layer


def test_explain_attaches_trace_summary(service):
    result = service.query(Side.UPPER, 0, 2, 2, explain=True)
    assert result.trace is not None
    assert result.trace["counters"]["progressive_rounds"] >= 1
    assert result.trace["meta"]["backend"] == result.backend
    assert result.trace["meta"]["query"]["vertex"] == 0


def test_trace_omitted_without_explain(service):
    result = service.query(Side.UPPER, 0, 2, 2)
    assert result.trace is None


def test_every_computation_lands_in_the_ring(service):
    service.query(Side.UPPER, 0)          # no explain — still recorded
    service.query(Side.LOWER, 1, explain=True)
    assert len(service.traces) == 2
    stats = service.stats()["traces"]
    assert stats["buffered"] == 2
    assert stats["recorded"] == 2
    assert stats["capacity"] == service.config.trace_ring_size


def test_trace_id_flows_from_request_to_ring(service):
    request = QueryRequest(Side.UPPER, 0, 2, 2, trace_id="req-42")
    result = service.query(request, explain=True)
    assert result.trace["trace_id"] == "req-42"
    assert service.traces.find("req-42") is not None


def test_single_flight_followers_share_leader_trace(service):
    import threading

    results = []
    request = QueryRequest(Side.UPPER, 2, 1, 1)

    def ask():
        results.append(service.query(request, explain=True))

    threads = [threading.Thread(target=ask) for __ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    traces = [r.trace for r in results]
    assert all(t is not None for t in traces)
    ids = {t["trace_id"] for t in traces}
    # Deduped callers observe a leader's trace; at most as many
    # distinct computations as callers, typically one.
    assert 1 <= len(ids) <= 4
    assert service.stats()["traces"]["recorded"] == len(ids)


def test_batch_explain_attaches_batch_trace(service):
    requests = [
        QueryRequest(Side.UPPER, 0, 1, 1),
        QueryRequest(Side.UPPER, 1, 2, 2),
    ]
    result = service.query_batch(requests, explain=True)
    assert result.trace is not None
    assert result.trace["meta"]["kind"] == "batch"
    assert result.trace["meta"]["batch_size"] == 2


def test_search_counters_reach_metrics(service):
    service.query(Side.UPPER, 0, 2, 2)
    rendered = service.metrics.render()
    assert "pmbc_search_nodes_total" in rendered
    assert 'pmbc_prune_total{objective="pmbc",rule="' in rendered
    assert "pmbc_twohop_size_bucket" in rendered
    assert "pmbc_traces_total 1" in rendered


def test_ring_capacity_is_configurable(paper_graph):
    config = ServiceConfig(num_workers=1, trace_ring_size=2)
    with PMBCService(paper_graph, config=config) as svc:
        for vertex in range(4):
            svc.query(Side.UPPER, vertex)
        assert len(svc.traces) == 2
        assert svc.stats()["traces"]["recorded"] == 4


def test_bad_ring_size_rejected():
    with pytest.raises(ValueError):
        ServiceConfig(trace_ring_size=0)


# ----------------------------------------------------------------------
# HTTP layer


def test_http_explain_param_attaches_trace(served):
    payload = served.query(side="upper", vertex=0, tau_u=2, tau_l=2,
                           explain=True)
    trace = payload["trace"]
    assert trace["counters"]["index_lookups"] >= 1
    assert trace["meta"]["backend"] == payload["backend"]


def test_http_omits_trace_by_default(served):
    payload = served.query(side="upper", vertex=0)
    assert "trace" not in payload


def test_http_get_explain_flag(served):
    payload = served.query_get(side="upper", vertex="0", explain="1")
    assert "trace" in payload


def test_http_trace_id_round_trips(served):
    payload = served.query_get(
        side="upper", vertex="0", explain="1", trace_id="http-7"
    )
    assert payload["trace"]["trace_id"] == "http-7"
    lookup = served.debug_traces(trace_id="http-7")
    assert lookup["trace"]["trace_id"] == "http-7"


def test_debug_traces_lists_recent(served):
    for vertex in range(3):
        served.query(side="upper", vertex=vertex)
    listing = served.debug_traces(limit=2)
    assert listing["recorded"] >= 3
    assert len(listing["traces"]) == 2
    # Most recent first.
    assert listing["traces"][0]["meta"]["query"]["vertex"] == 2


def test_debug_traces_unknown_id_is_404(served):
    from repro.serve.client import RemoteServiceError

    with pytest.raises(RemoteServiceError):
        served.debug_traces(trace_id="no-such-trace")


def test_batch_http_explain(served):
    payload = served.query_batch(
        [("upper", 0), ("upper", 1, 2, 2)], explain=True
    )
    assert payload["trace"]["meta"]["kind"] == "batch"
