"""Unit tests for dynamic PMBC-Index maintenance (future-work extension)."""

from __future__ import annotations

import random

import pytest

from repro.core import build_index_star, pmbc_index_query
from repro.core.dynamic import DynamicPMBCIndex
from repro.core.online import pmbc_online
from repro.graph.bipartite import BipartiteGraph, Side
from repro.graph.generators import power_law_bipartite, random_bipartite
from repro.mbc.oracle import personalized_max_brute


def _assert_matches_fresh_build(dynamic: DynamicPMBCIndex):
    """Every query on the dynamic index equals a from-scratch build."""
    graph = dynamic.graph()
    fresh = build_index_star(graph)
    for side in Side:
        for q in range(graph.num_vertices_on(side)):
            for tau_u, tau_l in ((1, 1), (2, 2), (3, 1), (1, 3)):
                a = dynamic.query(side, q, tau_u, tau_l)
                b = pmbc_index_query(fresh, side, q, tau_u, tau_l)
                assert (a.num_edges if a else 0) == (
                    b.num_edges if b else 0
                ), (side, q, tau_u, tau_l)


def test_initial_state_matches_static(paper_graph):
    dynamic = DynamicPMBCIndex(paper_graph)
    _assert_matches_fresh_build(dynamic)


def test_insert_edge_updates_answers(paper_graph):
    dynamic = DynamicPMBCIndex(paper_graph)
    u2 = paper_graph.vertex_by_label(Side.UPPER, "u2")
    v4 = paper_graph.vertex_by_label(Side.LOWER, "v4")
    # Before: the (2x4) {u1,u4} x {v1..v4} is the best for tau_l=4.
    before = dynamic.query(Side.UPPER, 0, 1, 4)
    assert before.shape == (2, 4)
    rebuilt = dynamic.insert_edge(u2, v4)
    assert rebuilt > 0
    after = dynamic.query(Side.UPPER, 0, 1, 4)
    assert after.shape == (3, 4)  # u2 now joins the block
    _assert_matches_fresh_build(dynamic)


def test_insert_existing_edge_is_noop(paper_graph):
    dynamic = DynamicPMBCIndex(paper_graph)
    before = dynamic.trees_rebuilt
    assert dynamic.insert_edge(0, 0) == 0
    assert dynamic.trees_rebuilt == before


def test_delete_edge_updates_answers(paper_graph):
    dynamic = DynamicPMBCIndex(paper_graph)
    u4 = paper_graph.vertex_by_label(Side.UPPER, "u4")
    v3 = paper_graph.vertex_by_label(Side.LOWER, "v3")
    assert dynamic.query(Side.UPPER, 0, 1, 1).shape == (4, 3)
    dynamic.delete_edge(u4, v3)
    # The 4x3 block loses u4; best for u1 becomes 3x3 or 5x2 (10 edges).
    result = dynamic.query(Side.UPPER, 0, 1, 1)
    assert result.num_edges == 10
    _assert_matches_fresh_build(dynamic)


def test_delete_missing_edge_is_free_noop(paper_graph):
    dynamic = DynamicPMBCIndex(paper_graph)
    u1 = paper_graph.vertex_by_label(Side.UPPER, "u1")
    v5 = paper_graph.vertex_by_label(Side.LOWER, "v5")
    before = dynamic.trees_rebuilt
    assert dynamic.delete_edge(u1, v5) == 0
    assert dynamic.trees_rebuilt == before
    assert dynamic.noop_updates == 1
    _assert_matches_fresh_build(dynamic)


def test_insert_extends_layers(paper_graph):
    dynamic = DynamicPMBCIndex(paper_graph)
    new_upper = paper_graph.num_upper + 1
    new_lower = paper_graph.num_lower
    dynamic.insert_edge(new_upper, new_lower)
    assert dynamic.has_edge(new_upper, new_lower)
    result = dynamic.query(Side.UPPER, new_upper, 1, 1)
    assert result is not None
    assert result.shape == (1, 1)
    # The id gap created an isolated vertex with an empty tree.
    assert dynamic.query(Side.UPPER, paper_graph.num_upper, 1, 1) is None


def test_compact_removes_stranded_bicliques(paper_graph):
    dynamic = DynamicPMBCIndex(paper_graph)
    u4 = paper_graph.vertex_by_label(Side.UPPER, "u4")
    for v_name in ("v1", "v2", "v3", "v4"):
        dynamic.delete_edge(
            u4, paper_graph.vertex_by_label(Side.LOWER, v_name)
        )
    removed = dynamic.compact()
    assert removed >= 0
    _assert_matches_fresh_build(dynamic)
    # Compaction twice is a no-op.
    assert dynamic.compact() == 0


def test_randomized_update_sequence_stays_correct():
    rng = random.Random(5)
    graph = random_bipartite(7, 7, 0.4, seed=5)
    dynamic = DynamicPMBCIndex(graph)
    present = set(graph.edges())
    absent = {
        (u, v)
        for u in range(graph.num_upper)
        for v in range(graph.num_lower)
    } - present
    for step in range(12):
        if absent and (not present or rng.random() < 0.5):
            edge = rng.choice(sorted(absent))
            dynamic.insert_edge(*edge)
            absent.discard(edge)
            present.add(edge)
        else:
            edge = rng.choice(sorted(present))
            dynamic.delete_edge(*edge)
            present.discard(edge)
            absent.add(edge)
    current = dynamic.graph()
    for side in Side:
        for q in range(current.num_vertices_on(side)):
            if current.degree(side, q) == 0:
                assert dynamic.query(side, q, 1, 1) is None
                continue
            for tau_u, tau_l in ((1, 1), (2, 2)):
                got = dynamic.query(side, q, tau_u, tau_l)
                expected = personalized_max_brute(
                    current, side, q, tau_u, tau_l
                )
                got_size = got.num_edges if got else 0
                exp_size = (
                    len(expected[0]) * len(expected[1]) if expected else 0
                )
                assert got_size == exp_size, (side, q, tau_u, tau_l)


def test_apply_updates_batch(paper_graph):
    dynamic = DynamicPMBCIndex(paper_graph)
    u2 = paper_graph.vertex_by_label(Side.UPPER, "u2")
    u4 = paper_graph.vertex_by_label(Side.UPPER, "u4")
    v3 = paper_graph.vertex_by_label(Side.LOWER, "v3")
    v4 = paper_graph.vertex_by_label(Side.LOWER, "v4")
    rebuilt = dynamic.apply_updates(
        [("insert", u2, v4), ("delete", u4, v3)]
    )
    assert rebuilt > 0
    assert dynamic.has_edge(u2, v4)
    assert not dynamic.has_edge(u4, v3)
    _assert_matches_fresh_build(dynamic)


def test_apply_updates_batched_vs_sequential(paper_graph):
    batched = DynamicPMBCIndex(paper_graph)
    sequential = DynamicPMBCIndex(paper_graph)
    updates = [("insert", 1, 3), ("insert", 2, 4), ("delete", 0, 0)]
    batch_rebuilds = batched.apply_updates(updates)
    seq_rebuilds = 0
    for action, u, v in updates:
        if action == "insert":
            seq_rebuilds += sequential.insert_edge(u, v)
        else:
            seq_rebuilds += sequential.delete_edge(u, v)
    # Batching rebuilds the affected union once.
    assert batch_rebuilds <= seq_rebuilds
    for side in Side:
        for q in range(batched.num_vertices_on(side)):
            a = batched.query(side, q, 1, 1)
            b = sequential.query(side, q, 1, 1)
            assert (a.num_edges if a else 0) == (b.num_edges if b else 0)


def test_delete_vertex(paper_graph):
    dynamic = DynamicPMBCIndex(paper_graph)
    u4 = paper_graph.vertex_by_label(Side.UPPER, "u4")
    rebuilt = dynamic.delete_vertex(Side.UPPER, u4)
    assert rebuilt > 0
    assert dynamic.query(Side.UPPER, u4, 1, 1) is None
    # Both the 4x3 block and the 5x2 lost u4: u1's best is the 3x3
    # {u1,u2,u3} x {v1,v2,v3} with 9 edges.
    assert dynamic.query(Side.UPPER, 0, 1, 1).num_edges == 9
    _assert_matches_fresh_build(dynamic)
    # Deleting again is a no-op.
    assert dynamic.delete_vertex(Side.UPPER, u4) == 0
    with pytest.raises(ValueError):
        dynamic.delete_vertex(Side.UPPER, 99)


def test_insert_vertex(paper_graph):
    dynamic = DynamicPMBCIndex(paper_graph)
    v1 = paper_graph.vertex_by_label(Side.LOWER, "v1")
    v2 = paper_graph.vertex_by_label(Side.LOWER, "v2")
    v3 = paper_graph.vertex_by_label(Side.LOWER, "v3")
    new_id, rebuilt = dynamic.insert_vertex(Side.UPPER, [v1, v2, v3])
    assert new_id == paper_graph.num_upper
    assert rebuilt > 0
    # The new clone joins the 4x3 block: now 5x3.
    result = dynamic.query(Side.UPPER, new_id, 1, 1)
    assert result.shape == (5, 3)
    _assert_matches_fresh_build(dynamic)
    # Isolated insert touches nothing.
    lonely, rebuilt = dynamic.insert_vertex(Side.LOWER, [])
    assert rebuilt == 0
    assert dynamic.query(Side.LOWER, lonely, 1, 1) is None


def test_apply_updates_noops_are_free_and_counted(paper_graph):
    dynamic = DynamicPMBCIndex(paper_graph)
    before = dynamic.trees_rebuilt
    # Inserting a present edge and deleting an absent one are no-ops:
    # no bounds work, no rebuilds, just a counter bump.
    rebuilt = dynamic.apply_updates([("insert", 0, 0), ("delete", 0, 5)])
    assert rebuilt == 0
    assert dynamic.trees_rebuilt == before
    assert dynamic.noop_updates == 2
    if dynamic._live.maintainer is not None:
        assert dynamic._live.maintainer.updates == 0
    with pytest.raises(ValueError):
        dynamic.apply_updates([("upsert", 0, 0)])
    _assert_matches_fresh_build(dynamic)


def test_bounds_repaired_incrementally_never_recomputed(
    paper_graph, monkeypatch
):
    import repro.corenum.bounds as bounds_module
    from repro.core import dynamic as dynamic_module

    calls = []
    real = bounds_module.compute_bounds

    def counting(graph, decomposition=None):
        calls.append(1)
        return real(graph, decomposition)

    monkeypatch.setattr(bounds_module, "compute_bounds", counting)
    assert not hasattr(dynamic_module, "compute_bounds")
    dynamic = DynamicPMBCIndex(paper_graph)
    dynamic.delete_edge(0, 0)
    dynamic.insert_edge(0, 0)
    # Both directions repair the live bounds in place: compute_bounds
    # never runs, yet the bounds stay exactly equal to a recompute.
    assert calls == []
    assert dynamic._live.maintainer.updates == 2
    dynamic._live.maintainer.verify()
    _assert_matches_fresh_build(dynamic)


def test_static_view_exposes_stats(paper_graph):
    dynamic = DynamicPMBCIndex(paper_graph)
    view = dynamic.index
    assert view.num_bicliques > 0
    assert view.num_tree_nodes > 0


def test_without_core_bounds(paper_graph):
    dynamic = DynamicPMBCIndex(paper_graph, use_core_bounds=False)
    assert dynamic.query(Side.UPPER, 0, 1, 1).shape == (4, 3)
    dynamic.insert_edge(1, 3)
    _assert_matches_fresh_build(dynamic)


def test_bad_action_rejects_the_batch_before_any_mutation():
    graph = power_law_bipartite(30, 25, 120, 1.6, seed=3)
    dynamic = DynamicPMBCIndex(graph)
    v = min(graph.neighbors(Side.UPPER, 0))
    with pytest.raises(ValueError, match="bogus"):
        dynamic.apply_updates([("delete", 0, v), ("bogus", 1, 1)])
    assert dynamic.has_edge(0, v)
    assert dynamic.graph().has_edge(0, v)
    # An unrelated effective insert rebuilds only its own affected set;
    # every answer must still match the online search on the graph.
    dynamic.insert_edge(*next(
        (u, w)
        for u in range(1, graph.num_upper)
        for w in range(graph.num_lower)
        if not graph.has_edge(u, w)
    ))
    current = dynamic.graph()
    for side in Side:
        for q in range(current.num_vertices_on(side)):
            for tau in ((1, 1), (2, 2)):
                got = dynamic.query(side, q, *tau)
                want = pmbc_online(current, side, q, *tau)
                assert (got.num_edges if got else None) == (
                    want.num_edges if want else None
                ), (side, q, tau)


@pytest.mark.parametrize(
    "update",
    [
        ("delete", -1, 2),
        ("delete", 2, -1),
        ("insert", 0, -1),
        ("delete", True, 0),
        ("delete", 0, 1.0),
    ],
)
def test_bad_vertex_ids_are_rejected_before_any_mutation(update):
    graph = BipartiteGraph([[0, 1], [0, 1], [1, 2]])
    dynamic = DynamicPMBCIndex(graph)
    with pytest.raises(ValueError, match="non-negative int"):
        dynamic.apply_updates([("insert", 0, 2), update])
    assert sorted(dynamic.graph().edges()) == sorted(graph.edges())
    assert not dynamic.has_edge(0, 2)


def test_delete_edge_rejects_negative_ids():
    graph = BipartiteGraph([[0, 1], [0, 1], [1, 2]])
    dynamic = DynamicPMBCIndex(graph)
    with pytest.raises(ValueError, match="non-negative int"):
        dynamic.delete_edge(-1, 2)
    assert dynamic.has_edge(2, 2)
