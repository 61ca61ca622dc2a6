"""Behavioural tests for the streaming-update surface of the service.

Covers :meth:`PMBCService.update_batch` (net-effect collapse, free
no-ops, vertex growth, bounds identity after churn) and the ``POST
/update`` HTTP endpoint end to end.
"""

from __future__ import annotations

import random

import pytest

from repro.core.online import pmbc_online
from repro.corenum.bounds import compute_bounds
from repro.graph.bipartite import Side
from repro.graph.generators import (
    paper_example_graph,
    power_law_bipartite,
    random_bipartite,
)
from repro.kernel import KERNEL_KINDS
from repro.serve import (
    AsyncPMBCServer,
    InvalidRequestError,
    PMBCClient,
    PMBCService,
    ServiceConfig,
)
from repro.serve.service import MAX_LAYER_GROWTH


@pytest.fixture
def service():
    with PMBCService(paper_example_graph()) as svc:
        yield svc


def test_insert_is_visible_to_queries(service):
    before = service.graph
    missing = next(
        (u, v)
        for u in range(before.num_upper)
        for v in range(before.num_lower)
        if not before.has_edge(u, v)
    )
    result = service.update_batch([("insert", *missing)])
    assert result.applied == 1
    assert result.inserts == 1
    assert result.noops == 0
    after = service.graph
    assert after is not before
    assert after.has_edge(*missing)
    expected = pmbc_online(after, Side.UPPER, missing[0], 1, 1)
    got = service.query(Side.UPPER, missing[0], 1, 1).biclique
    assert (got.num_edges if got else None) == (
        expected.num_edges if expected else None
    )


def test_delete_is_visible_to_queries(service):
    u = 0
    v = service.graph.neighbors(Side.UPPER, u)[0]
    result = service.update_batch([("delete", u, v)])
    assert result.applied == 1
    assert result.deletes == 1
    assert not service.graph.has_edge(u, v)


def test_noop_batch_is_free(service):
    before = service.graph
    u = 0
    v = before.neighbors(Side.UPPER, u)[0]
    absent = next(
        w for w in range(before.num_lower) if not before.has_edge(u, w)
    )
    result = service.update_batch(
        [("insert", u, v), ("delete", u, absent)]
    )
    assert result.applied == 0
    assert result.noops == 2
    assert result.trees_repaired == 0
    assert result.cascade == 0
    # No graph swap: the snapshot object is untouched.
    assert service.graph is before


def test_net_effect_collapses_within_batch(service):
    before = service.graph
    u = 0
    absent = next(
        w for w in range(before.num_lower) if not before.has_edge(u, w)
    )
    result = service.update_batch(
        [("insert", u, absent), ("delete", u, absent)]
    )
    assert result.applied == 0
    assert result.noops == 2
    assert service.graph is before


def test_growth_extends_layers(service):
    before = service.graph
    u = before.num_upper + 3
    v = before.num_lower + 1
    result = service.update_batch([("insert", u, v)])
    assert result.applied == 1
    after = service.graph
    assert after.num_upper >= u + 1
    assert after.num_lower >= v + 1
    assert after.has_edge(u, v)
    got = service.query(Side.UPPER, u, 1, 1).biclique
    assert got is not None and got.num_edges >= 1


def test_bounds_match_recompute_after_churn():
    graph = random_bipartite(18, 14, 0.25, seed=3)
    rng = random.Random(11)
    with PMBCService(graph) as svc:
        for __ in range(30):
            ops = []
            for __ in range(4):
                u = rng.randrange(graph.num_upper)
                v = rng.randrange(graph.num_lower)
                ops.append((rng.choice(("insert", "delete")), u, v))
            svc.update_batch(ops)
            svc._live.maintainer.verify()
        exact = compute_bounds(svc.graph)
        live = svc.engine.bounds
        for side in Side:
            assert live.z[side] == exact.z[side]
            assert live.prefix[side] == exact.prefix[side]
            assert live.suffix[side] == exact.suffix[side]


@pytest.mark.parametrize("kernel", KERNEL_KINDS)
def test_deletes_sharing_an_endpoint_repair_exactly(kernel):
    """One batch removes every edge of the top-degree upper vertex plus
    two unrelated edges.  All of a batch's deletes leave the adjacency
    before any is repaired, so each repair must gate its sweeps on the
    degrees from before the batch, not on the shrunk adjacency."""
    graph = power_law_bipartite(40, 30, 200, 1.6, seed=13)
    top = max(
        range(graph.num_upper), key=lambda u: graph.degree(Side.UPPER, u)
    )
    ops = [("delete", top, v) for v in graph.neighbors(Side.UPPER, top)]
    others = [(u, v) for u, v in graph.edges() if u != top]
    ops += [("delete", *others[0]), ("delete", *others[-1])]
    with PMBCService(graph, config=ServiceConfig(kernel=kernel)) as svc:
        result = svc.update_batch(ops)
        assert result.deletes == len(ops)
        svc._live.maintainer.verify()
        for side, q in ((Side.UPPER, top), (Side.UPPER, others[0][0])):
            expected = pmbc_online(svc.graph, side, q, 2, 2)
            got = svc.query(side, q, 2, 2).biclique
            assert (got.num_edges if got else None) == (
                expected.num_edges if expected else None
            )


def test_update_metrics_counters(service):
    u = 0
    v = service.graph.neighbors(Side.UPPER, u)[0]
    service.update_batch([("delete", u, v), ("delete", u, v)])
    stats = service.stats()["updates"]
    assert stats["batches"] == 1
    assert stats["deletes"] == 1
    assert stats["noops"] == 1
    assert stats["adjacency"]["patches"] >= 1


def test_invalid_updates_rejected(service):
    with pytest.raises(InvalidRequestError):
        service.update_batch([])
    with pytest.raises(InvalidRequestError):
        service.update_batch([("upsert", 0, 1)])
    with pytest.raises(InvalidRequestError):
        service.update_batch([("insert", -1, 0)])


def test_insert_may_not_grow_a_layer_without_bound(service):
    """One insert naming a far-off vertex id is rejected, not allocated."""
    graph = service.graph
    with pytest.raises(InvalidRequestError):
        service.update_batch(
            [("insert", graph.num_upper + MAX_LAYER_GROWTH, 0)]
        )
    with pytest.raises(InvalidRequestError):
        service.update_batch([("insert", 0, 10**18)])
    assert service.graph.num_upper == graph.num_upper
    # Deletes never grow a layer, so a far-off id is a free no-op.
    assert service.update_batch([("delete", 10**18, 0)]).noops == 1
    result = service.update_batch(
        [("insert", graph.num_upper + MAX_LAYER_GROWTH - 1, 0)]
    )
    assert result.inserts == 1
    assert service.graph.num_upper == graph.num_upper + MAX_LAYER_GROWTH


# ----------------------------------------------------------------------
# HTTP endpoint
# ----------------------------------------------------------------------
@pytest.fixture
def http_client():
    service = PMBCService(paper_example_graph()).start()
    server = AsyncPMBCServer(service, port=0).start()
    try:
        yield PMBCClient(server.url), server
    finally:
        server.shutdown()


def test_http_update_roundtrip(http_client):
    client, server = http_client
    graph = server.service.graph
    missing = next(
        (u, v)
        for u in range(graph.num_upper)
        for v in range(graph.num_lower)
        if not graph.has_edge(u, v)
    )
    payload = client.update(
        [("insert", *missing), {"action": "delete", "u": 0, "v": 99}]
    )
    assert payload["applied"] == 1
    assert payload["noops"] == 1
    assert payload["inserts"] == 1
    assert server.service.graph.has_edge(*missing)
    answer = client.query("upper", missing[0], tau_u=1, tau_l=1)
    assert answer["result"] is not None


def test_http_update_rejects_malformed(http_client):
    client, __ = http_client
    with pytest.raises(InvalidRequestError):
        client.update([("upsert", 0, 1)])
    with pytest.raises(InvalidRequestError):
        client.update([{"action": "insert", "u": 0}])
    with pytest.raises(InvalidRequestError):
        client.update([])
