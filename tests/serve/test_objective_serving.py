"""The objective dimension end to end through the serving stack.

Covers the ISSUE acceptance criteria above the engine: ``POST /query``
with ``"objective": "balanced"`` answers the balanced family, the
index/partial tiers decline non-PMBC objectives with a clean MISS
fall-through, unknown objectives and unknown fields are typed 400s,
single-flight keys include the objective, and ``/stats`` breaks
requests, latency and prune counters down per objective.
"""

from __future__ import annotations

import pytest

from repro.core import build_index_star
from repro.core.query import QueryRequest
from repro.graph.bipartite import Side
from repro.mbb import personalized_balanced_reference
from repro.serve import (
    AsyncPMBCServer,
    InvalidRequestError,
    PMBCClient,
    PMBCService,
    ServiceConfig,
)
from repro.serve.aserver import SCHEMA_VERSION


@pytest.fixture()
def indexed_service(paper_graph):
    index = build_index_star(paper_graph)
    config = ServiceConfig(num_workers=2, max_queue=32)
    with PMBCService(paper_graph, index=index, config=config) as svc:
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


def test_balanced_query_falls_through_index_to_engine(
    indexed_service, paper_graph
):
    assert indexed_service.backend_names[0] == "index"
    result = indexed_service.query(
        QueryRequest(Side.UPPER, 0, 2, 2, objective="balanced")
    )
    # The index tier declined (MISS) without counting as a failure.
    assert result.backend != "index"
    assert indexed_service.metrics.get(
        "pmbc_backend_fallbacks_total"
    ).total() == 0
    expected = personalized_balanced_reference(
        paper_graph, Side.UPPER, 0, 2, 2
    )
    assert result.biclique is not None
    assert result.biclique.shape == expected.shape
    k = len(expected.upper)
    assert result.biclique.shape == (k, k)


def test_balanced_miss_does_not_count_adaptive_misses(indexed_service):
    # No partial tier is configured: the index's objective MISS must
    # not touch the adaptive counters (which do not even exist here).
    indexed_service.query(
        QueryRequest(Side.UPPER, 0, objective="balanced")
    )
    assert indexed_service.metrics.get("pmbc_adaptive_misses_total") is None


def test_balanced_batch_falls_through_index(indexed_service):
    requests = [
        QueryRequest(Side.UPPER, 0, 2, 2, objective="balanced"),
        QueryRequest(Side.UPPER, 1, 1, 1, objective="balanced"),
    ]
    result = indexed_service.query_batch(requests)
    assert result.backend != "index"
    assert all(b is not None for b in result.bicliques)
    for biclique in result.bicliques:
        assert len(biclique.upper) == len(biclique.lower)


def test_mixed_batch_annotates_mixed_objective(indexed_service):
    result = indexed_service.query_batch(
        [
            QueryRequest(Side.UPPER, 0, 1, 1),
            QueryRequest(Side.UPPER, 0, 1, 1, objective="balanced"),
        ],
        explain=True,
    )
    assert result.trace["meta"]["objective"] == "mixed"


def test_single_flight_keys_differ_by_objective():
    assert QueryRequest(Side.UPPER, 0, 1, 1).key != QueryRequest(
        Side.UPPER, 0, 1, 1, objective="balanced"
    ).key


def test_partial_tier_declines_balanced(paper_graph):
    config = ServiceConfig(
        num_workers=2,
        adaptive=True,
        index_budget_mb=4.0,
        hot_threshold=3.0,
        build_interval=0.02,
    )
    with PMBCService(paper_graph, config=config) as service:
        assert service.backend_names[0] == "partial"
        # Warm the PMBC hot set for vertex 0 so a tree gets built.
        for __ in range(4):
            service.query(Side.UPPER, 0, 1, 1)
        assert service.builder.drain(10.0)
        warm = service.query(Side.UPPER, 0, 1, 1)
        assert warm.backend == "partial"
        # The same vertex under the balanced objective must decline.
        balanced = service.query(
            QueryRequest(Side.UPPER, 0, 1, 1, objective="balanced")
        )
        assert balanced.backend != "partial"
        # Balanced traffic never feeds the hot-set tracker.
        before = len(service.hot_set)
        for vertex in range(1, 4):
            service.query(
                QueryRequest(Side.LOWER, vertex, objective="balanced")
            )
        assert len(service.hot_set) == before


def test_stats_breaks_down_by_objective(indexed_service):
    indexed_service.query(QueryRequest(Side.UPPER, 0, 2, 2))
    indexed_service.query(
        QueryRequest(Side.UPPER, 0, 2, 2, objective="balanced")
    )
    stats = indexed_service.stats()
    objectives = stats["objectives"]
    assert set(objectives) >= {"pmbc", "balanced"}
    assert objectives["pmbc"]["requests"] == 1
    assert objectives["balanced"]["requests"] == 1
    assert objectives["balanced"]["latency_seconds"]["count"] == 1
    # The balanced computation ran a real search, so its nodes and
    # prunes land on the balanced-labelled series only.
    assert objectives["balanced"]["search_nodes"] > 0
    assert objectives["balanced"]["prunes"]


def test_metrics_render_objective_labels(indexed_service):
    indexed_service.query(
        QueryRequest(Side.UPPER, 0, 2, 2, objective="balanced")
    )
    rendered = indexed_service.metrics.render()
    assert 'pmbc_search_nodes_total{objective="balanced"}' in rendered
    assert 'pmbc_requests_by_objective_total{objective="balanced"}' in rendered
    assert "pmbc_request_latency_balanced_seconds_count 1" in rendered


def test_explain_trace_carries_objective(indexed_service):
    result = indexed_service.query(
        QueryRequest(Side.UPPER, 0, objective="balanced"), explain=True
    )
    assert result.trace["meta"]["query"]["objective"] == "balanced"


# ----------------------------------------------------------------------
# HTTP layer


def test_http_balanced_query_end_to_end(served):
    payload = served.query(
        side="upper", vertex=0, tau_u=2, tau_l=2, objective="balanced"
    )
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["query"]["objective"] == "balanced"
    assert payload["backend"] != "index"
    shape = payload["result"]["shape"]
    assert shape[0] == shape[1] >= 2


def test_http_default_objective_is_pmbc(served):
    payload = served.query(side="upper", vertex=0)
    assert payload["query"]["objective"] == "pmbc"
    assert payload["backend"] == "index"


def test_http_unknown_objective_is_typed_400(served):
    with pytest.raises(InvalidRequestError, match="biplex"):
        served.query(side="upper", vertex=0, objective="biplex")


def test_http_unknown_field_is_typed_400(served):
    with pytest.raises(InvalidRequestError, match="objektive"):
        served.query_get(side="upper", vertex=0, objektive="balanced")


def test_http_batch_unknown_field_is_typed_400(served):
    with pytest.raises(InvalidRequestError, match="queries\\[1\\]"):
        served.query_batch(
            [
                {"side": "upper", "vertex": 0},
                {"side": "upper", "vertex": 1, "objektive": "balanced"},
            ]
        )


def test_http_batch_mixed_objectives(served):
    payload = served.query_batch(
        [
            {"side": "upper", "vertex": 0, "tau_u": 2, "tau_l": 2},
            {
                "side": "upper",
                "vertex": 0,
                "tau_u": 2,
                "tau_l": 2,
                "objective": "balanced",
            },
        ]
    )
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["count"] == 2
    first, second = payload["results"]
    assert "objective" not in first["query"]
    assert second["query"]["objective"] == "balanced"
    shape = second["result"]["shape"]
    assert shape[0] == shape[1]


def test_http_verify_works_for_balanced(served):
    payload = served.query(
        side="upper", vertex=0, objective="balanced", verify=True
    )
    assert payload["verified"]["valid"]


def test_http_stats_exposes_objectives(served):
    served.query(side="upper", vertex=0, objective="balanced")
    stats = served.stats()
    assert stats["objectives"]["balanced"]["requests"] == 1
