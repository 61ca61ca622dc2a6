"""Differential suite: streaming updates vs from-scratch rebuild.

The streaming stack's acceptance property: after >= 1000 mixed edge
updates the incrementally maintained state must be indistinguishable
from a rebuild — identical (α,β)-core bounds, a byte-identical live
adjacency, the same two-hop extractions from the live adjacency as from
its snapshot, and identical personalized answers on both kernels, with
queries interleaved throughout the stream.  The two update surfaces,
:class:`~repro.core.dynamic.DynamicPMBCIndex` and
:meth:`~repro.serve.PMBCService.update_batch`, must also behave
identically on the ``set`` and ``bitset`` kernels, and like each other
on every batch — cancelling ones included — since both run one update
path.
"""

from __future__ import annotations

import dataclasses
import random
from contextlib import ExitStack

import pytest

from repro.bench.workloads import temporal_replay
from repro.core.construction_star import build_index_star
from repro.core.dynamic import DynamicPMBCIndex
from repro.core.online import pmbc_online
from repro.corenum.bounds import compute_bounds
from repro.corenum.incremental import IncrementalCoreBounds
from repro.graph.bipartite import BipartiteGraph, Side
from repro.graph.generators import power_law_bipartite
from repro.graph.subgraph import two_hop_subgraph
from repro.kernel import KERNEL_KINDS
from repro.kernel.dynadj import DynamicPackedAdjacency
from repro.kernel.packed import two_hop_packed
from repro.serve import PMBCService, ServiceConfig

#: Every test runs under both search schedules (tests/conftest.py).
pytestmark = pytest.mark.usefixtures("search_schedule")

NUM_UPDATES = 1000


def _rebuild(upper_adj, num_lower):
    return BipartiteGraph(
        [sorted(ns) for ns in upper_adj], num_lower=num_lower
    )


@pytest.fixture(scope="module")
def churned(search_schedule):
    """Replay >= 1000 mixed updates through one live adjacency and
    the bounds maintainer that reads it.

    Returns ``(inc, dynadj, final_graph, interleaved)`` where
    ``interleaved`` pairs each mid-stream query with the incremental
    and rebuilt answers observed at that point in the stream.
    """
    graph = power_law_bipartite(60, 45, 260, 1.6, seed=29)
    events = temporal_replay(
        graph,
        num_updates=NUM_UPDATES,
        delete_fraction=0.45,
        rewire_fraction=0.6,
        query_every=100,
        seed=5,
    )
    dynadj = DynamicPackedAdjacency(graph)
    inc = IncrementalCoreBounds(dynadj)
    upper_adj = [
        set(graph.neighbors(Side.UPPER, u)) for u in range(graph.num_upper)
    ]
    num_lower = graph.num_lower
    interleaved = []
    applied = 0
    for __, action, a, b in events:
        if action == "query":
            snap = dynadj.snapshot()
            fresh = _rebuild(upper_adj, num_lower)
            q_inc = pmbc_online(snap, a, b, 2, 2, bounds=inc.bounds)
            q_reb = pmbc_online(fresh, a, b, 2, 2)
            interleaved.append((applied, q_inc, q_reb))
        else:
            u, v = a, b
            if action == "insert":
                if dynadj.insert_edge(u, v):
                    inc.insert_edge(u, v)
                while u >= len(upper_adj):
                    upper_adj.append(set())
                num_lower = max(num_lower, v + 1)
                upper_adj[u].add(v)
            else:
                if dynadj.delete_edge(u, v):
                    inc.delete_edge(u, v)
                upper_adj[u].discard(v)
            applied += 1
    assert applied >= NUM_UPDATES
    return inc, dynadj, _rebuild(upper_adj, num_lower), interleaved


def _answer_key(result):
    if result is None:
        return None
    return (frozenset(result.upper), frozenset(result.lower))


def test_bounds_equal_recomputed(churned):
    inc, __, final, __interleaved = churned
    inc.verify()
    exact = compute_bounds(final)
    for side in Side:
        assert inc.bounds.z[side] == exact.z[side], side
        assert inc.bounds.prefix[side] == exact.prefix[side], side
        assert inc.bounds.suffix[side] == exact.suffix[side], side


def test_packed_adjacency_byte_identical(churned):
    __, dynadj, final, __interleaved = churned
    assert (
        dynadj.canonical_bytes()
        == DynamicPackedAdjacency(final).canonical_bytes()
    )


def test_snapshot_equals_rebuilt_graph(churned):
    __, dynadj, final, __interleaved = churned
    snap = dynadj.snapshot()
    for side in Side:
        assert snap.num_vertices_on(side) == final.num_vertices_on(side)
        for v in range(final.num_vertices_on(side)):
            assert snap.neighbors(side, v) == final.neighbors(side, v)


def _extraction(local):
    """Everything a two-hop extraction hands the search, as one tuple."""
    packed = getattr(local, "_packed", None)
    fields = (
        local.upper_globals,
        local.lower_globals,
        local.upper_side,
        local.q_local,
        local.adj_upper,
        local.adj_lower,
    )
    if packed is None:
        return fields
    return fields + tuple(
        getattr(packed, name)
        for name in (
            "upper_order", "lower_order", "upper_rank", "lower_rank",
            "adj_upper", "adj_lower", "deg_upper", "deg_lower",
            "all_upper", "all_lower",
        )
    )


def test_live_extraction_equals_snapshot_extraction(churned):
    """One extractor: H_q from the live neighbor sets is H_q from the
    snapshot, on both kernels' extractors, for every vertex."""
    __, dynadj, __final, __interleaved = churned
    snap = dynadj.snapshot()
    for extract in (two_hop_packed, two_hop_subgraph):
        for side in Side:
            for q in range(snap.num_vertices_on(side)):
                if not snap.degree(side, q):
                    continue
                assert _extraction(extract(dynadj, side, q)) == _extraction(
                    extract(snap, side, q)
                ), (extract.__name__, side, q)


def test_interleaved_answers_match_rebuild(churned):
    __, __dyn, __final, interleaved = churned
    assert interleaved, "stream produced no interleaved queries"
    for at, q_inc, q_reb in interleaved:
        got = None if q_inc is None else q_inc.num_edges
        want = None if q_reb is None else q_reb.num_edges
        assert got == want, f"answer diverged after {at} updates"


@pytest.mark.parametrize("kernel", KERNEL_KINDS)
def test_final_answers_identical_on_every_kernel(churned, kernel):
    inc, dynadj, final, __interleaved = churned
    snap = dynadj.snapshot()
    for side in (Side.UPPER, Side.LOWER):
        n = final.num_vertices_on(side)
        for q in range(0, n, max(1, n // 8)):
            for tau_u, tau_l in ((1, 1), (2, 2)):
                maintained = pmbc_online(
                    snap, side, q, tau_u, tau_l,
                    bounds=inc.bounds, kernel=kernel,
                )
                rebuilt = pmbc_online(final, side, q, tau_u, tau_l)
                assert _answer_key(maintained) == _answer_key(rebuilt), (
                    kernel, side, q, tau_u, tau_l,
                )


def _update_stream(graph, seed, num_batches=6, batch_size=6):
    """Seeded batches of mixed inserts and deletes over ``graph``.

    Yields ``(batch, rebuilt)``: the batch and the graph rebuilt from
    scratch after it.  Inserts may repeat a present edge (a no-op), and
    the third batch ends with an insert that grows the upper layer.
    """
    rng = random.Random(seed)
    edges = set(graph.edges())
    num_upper, num_lower = graph.num_upper, graph.num_lower
    for i in range(num_batches):
        batch = []
        for __ in range(batch_size):
            if edges and rng.random() < 0.45:
                edge = rng.choice(sorted(edges))
                edges.discard(edge)
                batch.append(("delete", *edge))
            else:
                edge = (rng.randrange(num_upper), rng.randrange(num_lower))
                edges.add(edge)
                batch.append(("insert", *edge))
        if i == 2:
            edge = (num_upper, rng.randrange(num_lower))
            num_upper += 1
            edges.add(edge)
            batch.append(("insert", *edge))
        yield batch, _graph_of(edges, num_upper, num_lower)


def _graph_of(edges, num_upper, num_lower):
    rows = [[] for __ in range(num_upper)]
    for u, v in edges:
        rows[u].append(v)
    return BipartiteGraph(rows, num_lower=num_lower)


def _sampled_queries(graph):
    """Every sixth vertex per side plus the last (a grown one), at
    (1, 1) and (2, 2)."""
    for side in (Side.UPPER, Side.LOWER):
        n = graph.num_vertices_on(side)
        for q in sorted(set(range(0, n, max(1, n // 6))) | {n - 1}):
            for tau in ((1, 1), (2, 2)):
                yield side, q, tau


def _edge_count(result):
    return None if result is None else result.num_edges


def _assert_kernels_match_rebuild(answer, rebuilt, context):
    """``answer(kernel, side, q, tau)`` agrees across kernels and with
    ``pmbc_online`` on the rebuilt graph."""
    for side, q, tau in _sampled_queries(rebuilt):
        got = {k: answer(k, side, q, tau) for k in KERNEL_KINDS}
        assert _answer_key(got["set"]) == _answer_key(got["bitset"]), (
            context, side, q, tau,
        )
        expected = pmbc_online(rebuilt, side, q, *tau)
        assert _edge_count(got["set"]) == _edge_count(expected), (
            context, side, q, tau,
        )


def test_dynamic_index_set_and_bitset_agree_under_updates():
    graph = power_law_bipartite(36, 28, 150, 1.6, seed=41)
    indexes = {k: DynamicPMBCIndex(graph, kernel=k) for k in KERNEL_KINDS}
    for step, (batch, rebuilt) in enumerate(_update_stream(graph, seed=8)):
        rebuilds = {k: idx.apply_updates(batch) for k, idx in indexes.items()}
        assert rebuilds["set"] == rebuilds["bitset"], step
        stats = {
            k: {
                key: idx.stats()[key]
                for key in ("trees_rebuilt", "noop_updates", "bounds")
            }
            for k, idx in indexes.items()
        }
        assert stats["set"] == stats["bitset"], step
        _assert_kernels_match_rebuild(
            lambda k, side, q, tau: indexes[k].query(side, q, *tau),
            rebuilt,
            step,
        )


def test_service_set_and_bitset_agree_under_updates():
    graph = power_law_bipartite(36, 28, 150, 1.6, seed=41)
    with ExitStack() as stack:
        services = {
            k: stack.enter_context(
                PMBCService(
                    graph,
                    index=build_index_star(graph),
                    config=ServiceConfig(kernel=k, num_workers=1),
                )
            )
            for k in KERNEL_KINDS
        }
        for step, (batch, rebuilt) in enumerate(
            _update_stream(graph, seed=8)
        ):
            results = {
                k: dataclasses.replace(svc.update_batch(batch), seconds=0.0)
                for k, svc in services.items()
            }
            assert results["set"] == results["bitset"], step
            assert results["set"].trees_repaired > 0, step
            for svc in services.values():
                svc._live.maintainer.verify()
            _assert_kernels_match_rebuild(
                lambda k, side, q, tau: services[k]
                .query(side, q, *tau)
                .biclique,
                rebuilt,
                step,
            )


def _one_path_batches(graph):
    """Batches where a per-update path and a net-effect path part ways.

    Yields ``(batch, rebuilt)`` like :func:`_update_stream`: an absent
    edge inserted and deleted, a present edge deleted and re-inserted
    (two no-ops each), a repeated insert, a growth of both layers, and
    the deletion of every edge of the top-degree upper vertex.
    """
    edges = set(graph.edges())
    num_upper, num_lower = graph.num_upper, graph.num_lower
    absent = next(
        (u, v)
        for u in range(num_upper)
        for v in range(num_lower)
        if (u, v) not in edges
    )
    present = min(edges)
    top = max(range(num_upper), key=lambda u: graph.degree(Side.UPPER, u))
    batches = [
        [("insert", *absent), ("delete", *absent)],
        [("delete", *present), ("insert", *present)],
        [("insert", *absent), ("insert", *absent)],
        [("insert", num_upper + 2, 0), ("insert", 0, num_lower)],
        None,  # every edge of `top`, read when the batch is due
    ]
    for batch in batches:
        if batch is None:
            batch = [("delete", u, v) for u, v in sorted(edges) if u == top]
        for action, u, v in batch:
            if action == "insert":
                edges.add((u, v))
                num_upper = max(num_upper, u + 1)
                num_lower = max(num_lower, v + 1)
            else:
                edges.discard((u, v))
        yield batch, _graph_of(edges, num_upper, num_lower)


@pytest.mark.parametrize("kernel", KERNEL_KINDS)
def test_both_surfaces_run_one_update_path(kernel):
    """``DynamicPMBCIndex.apply_updates`` and ``PMBCService.update_batch``
    count the same no-ops, rebuild the same trees and leave the same
    adjacency and exact bounds on every batch; both answer like a
    rebuild."""
    graph = power_law_bipartite(36, 28, 150, 1.6, seed=41)
    dynamic = DynamicPMBCIndex(graph, kernel=kernel)
    config = ServiceConfig(kernel=kernel, num_workers=1)
    with PMBCService(
        graph, index=build_index_star(graph), config=config
    ) as svc:
        for step, (batch, rebuilt) in enumerate(_one_path_batches(graph)):
            noops_before = dynamic.noop_updates
            trees = dynamic.apply_updates(batch)
            result = svc.update_batch(batch)
            assert dynamic.noop_updates - noops_before == result.noops, step
            assert trees == result.trees_repaired, step
            assert (
                dynamic._live.adjacency.canonical_bytes()
                == svc._live.adjacency.canonical_bytes()
                == DynamicPackedAdjacency(rebuilt).canonical_bytes()
            ), step
            dynamic._live.maintainer.verify()
            svc._live.maintainer.verify()
            for side, q, tau in _sampled_queries(rebuilt):
                want = _edge_count(pmbc_online(rebuilt, side, q, *tau))
                got = (
                    dynamic.query(side, q, *tau),
                    svc.query(side, q, *tau).biclique,
                )
                assert tuple(map(_edge_count, got)) == (want, want), (
                    step, side, q, tau,
                )
