"""PMBCService's batch query path.

The service runs every search on its worker threads through one
:class:`~repro.exec.ThreadBackend`.  The batch path must answer exactly
like per-request queries while extracting each distinct two-hop
subgraph at most once.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.engine import PMBCQueryEngine
from repro.core.query import QueryRequest
from repro.graph.bipartite import Side
from repro.serve import (
    BatchResult,
    DeadlineExceededError,
    InvalidRequestError,
    PMBCService,
    ServiceConfig,
)


def _edges(answer):
    return None if answer is None else answer.num_edges


def _requests(graph, stride=3):
    requests = []
    for side in Side:
        for vertex in range(0, graph.num_vertices_on(side), stride):
            for taus in ((1, 1), (2, 2)):
                requests.append(QueryRequest(side, vertex, *taus))
    return requests


# ----------------------------------------------------------------------
# batch path


def test_query_batch_equals_per_query_loop(paper_graph):
    requests = _requests(paper_graph, stride=1)
    config = ServiceConfig(num_workers=2)
    with PMBCService(paper_graph, config=config) as service:
        singles = [
            _edges(service.query(r).biclique) for r in requests
        ]
        batch = service.query_batch(requests)
        assert isinstance(batch, BatchResult)
        assert len(batch) == len(requests)
        assert [_edges(b) for b in batch.bicliques] == singles
        stats = service.stats()
        assert stats["batch"]["count"] == 1
        assert stats["batch"]["mean_size"] == len(requests)


def test_query_batch_accepts_dicts_and_tuples(paper_graph):
    with PMBCService(
        paper_graph, config=ServiceConfig(num_workers=1)
    ) as service:
        batch = service.query_batch(
            [
                {"side": "upper", "vertex": 0},
                ("lower", 0, 2, 2),
                QueryRequest(Side.UPPER, 1),
            ]
        )
        assert len(batch) == 3


def test_query_batch_validates_before_admission(paper_graph):
    with PMBCService(
        paper_graph, config=ServiceConfig(num_workers=1)
    ) as service:
        with pytest.raises(InvalidRequestError):
            service.query_batch([])
        with pytest.raises(InvalidRequestError):
            service.query_batch([("upper", 10_000)])
        with pytest.raises(InvalidRequestError):
            service.query_batch(["nonsense"])
        assert service.stats()["queue"]["depth"] == 0


def test_query_batch_deadline_covers_whole_batch(paper_graph):
    release = threading.Event()

    class _SlowBatchBackend:
        name = "slow"

        def query_batch(self, requests):
            release.wait(10)
            return [None] * len(requests)

    with PMBCService(
        paper_graph, config=ServiceConfig(num_workers=1)
    ) as service:
        service._backends = [_SlowBatchBackend()]
        start = time.monotonic()
        with pytest.raises(DeadlineExceededError):
            service.query_batch(
                [("upper", 0), ("upper", 1)], deadline=0.1
            )
        assert time.monotonic() - start < 5
        release.set()


def test_batch_groups_by_vertex_fewer_extractions(medium_planted_graph):
    """A Zipf-skewed stream: batch grouping beats per-query LRU churn.

    With a cache smaller than the working set, a per-query loop misses
    whenever the LRU evicted the vertex between repeats; the grouped
    batch extracts each distinct vertex exactly once.
    """
    graph = medium_planted_graph
    from repro.bench.workloads import zipf_queries

    requests = [
        QueryRequest(side, vertex)
        for side, vertex in zipf_queries(
            graph, num_queries=120, exponent=1.1, seed=5
        )
    ]
    distinct = len({(r.side, r.vertex) for r in requests})

    loop_engine = PMBCQueryEngine(graph, cache_size=4)
    for request in requests:
        loop_engine.query(request)
    loop_misses = loop_engine.cache_stats().misses

    batch_engine = PMBCQueryEngine(graph, cache_size=4)
    batch_engine.query_batch(requests)
    batch_misses = batch_engine.cache_stats().misses

    assert batch_misses <= distinct
    assert batch_misses < loop_misses
