"""PartialIndex: answer parity, LRU budget eviction, invalidation,
persistence round-trips."""

from __future__ import annotations

import itertools

import pytest

from repro.adaptive import MISS, PartialIndex
from repro.adaptive.partial import entry_size_bytes
from repro.core.construction import build_search_tree
from repro.core.construction_star import build_index_star
from repro.core.dynamic import edge_affected_sets
from repro.core.index import BicliqueArray, PMBCIndex
from repro.core.query import pmbc_index_query
from repro.graph.bipartite import Side


def tree_for(graph, side, q):
    """A vertex's search tree with its private biclique list."""
    array = BicliqueArray()
    tree = build_search_tree(graph, side, q, array)
    return tree, list(array)


def fill(graph, partial, keys):
    for side, q in keys:
        tree, bicliques = tree_for(graph, side, q)
        partial.put(side, q, tree, bicliques)


def all_keys(graph):
    return [
        (side, q)
        for side in Side
        for q in range(graph.num_vertices_on(side))
    ]


# ----------------------------------------------------------------------
# answer parity with the full index


def test_lookup_matches_full_index(paper_graph):
    full = build_index_star(paper_graph)
    partial = PartialIndex(budget_bytes=1 << 22)
    fill(paper_graph, partial, all_keys(paper_graph))
    for (side, q), tau_u, tau_l in itertools.product(
        all_keys(paper_graph), range(1, 5), range(1, 5)
    ):
        got = partial.lookup(side, q, tau_u, tau_l)
        want = pmbc_index_query(full, side, q, tau_u, tau_l)
        assert got is not MISS
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert got.signature() == want.signature()


def test_lookup_matches_on_random_graph(small_random_graph):
    full = build_index_star(small_random_graph)
    partial = PartialIndex(budget_bytes=1 << 22)
    fill(small_random_graph, partial, all_keys(small_random_graph))
    for (side, q), tau in itertools.product(
        all_keys(small_random_graph), range(1, 4)
    ):
        got = partial.lookup(side, q, tau, tau)
        want = pmbc_index_query(full, side, q, tau, tau)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.shape == want.shape


def test_miss_vs_genuine_none(paper_graph):
    partial = PartialIndex(budget_bytes=1 << 20)
    assert partial.lookup(Side.UPPER, 0, 1, 1) is MISS
    tree, bicliques = tree_for(paper_graph, Side.UPPER, 0)
    partial.put(Side.UPPER, 0, tree, bicliques)
    # Resident but unsatisfiable constraints: a genuine None, not MISS.
    assert partial.lookup(Side.UPPER, 0, 99, 99) is None


# ----------------------------------------------------------------------
# budget and LRU eviction


def test_bytes_never_exceed_budget(medium_planted_graph):
    graph = medium_planted_graph
    sizes = [
        entry_size_bytes(*tree_for(graph, side, q))
        for side, q in all_keys(graph)
    ]
    # A budget that fits only a handful of trees forces eviction.
    budget = sorted(sizes)[-1] * 3
    partial = PartialIndex(budget_bytes=budget)
    for side, q in all_keys(graph):
        tree, bicliques = tree_for(graph, side, q)
        partial.put(side, q, tree, bicliques)
        assert partial.total_bytes <= budget
    assert partial.evictions_total > 0
    assert len(partial) >= 1


def test_lru_evicts_least_recently_used(paper_graph):
    keys = all_keys(paper_graph)[:3]
    entries = [(key, *tree_for(paper_graph, *key)) for key in keys]
    budget = sum(
        entry_size_bytes(tree, bicliques)
        for __, tree, bicliques in entries
    )
    partial = PartialIndex(budget_bytes=budget)
    for (side, q), tree, bicliques in entries:
        assert partial.put(side, q, tree, bicliques)[0]
    # Touch the first key so the second becomes the LRU victim.
    partial.lookup(*keys[0], 1, 1)
    big_side, big_q = all_keys(paper_graph)[3]
    tree, bicliques = tree_for(paper_graph, big_side, big_q)
    __, evicted = partial.put(big_side, big_q, tree, bicliques)
    assert keys[0] not in evicted
    assert keys[1] in evicted


def test_oversized_entry_rejected(paper_graph):
    tree, bicliques = tree_for(paper_graph, Side.UPPER, 0)
    partial = PartialIndex(
        budget_bytes=entry_size_bytes(tree, bicliques) - 1
    )
    inserted, evicted = partial.put(Side.UPPER, 0, tree, bicliques)
    assert not inserted
    assert (Side.UPPER, 0) not in partial
    assert partial.total_bytes == 0


def test_replace_reaccounts_bytes(paper_graph):
    tree, bicliques = tree_for(paper_graph, Side.UPPER, 0)
    partial = PartialIndex(budget_bytes=1 << 20)
    partial.put(Side.UPPER, 0, tree, bicliques)
    before = partial.total_bytes
    partial.put(Side.UPPER, 0, tree, bicliques)
    assert partial.total_bytes == before
    assert len(partial) == 1


def test_evict_and_clear(paper_graph):
    partial = PartialIndex(budget_bytes=1 << 20)
    fill(paper_graph, partial, all_keys(paper_graph)[:4])
    assert partial.evict(*all_keys(paper_graph)[0])
    assert not partial.evict(Side.UPPER, 999)
    assert partial.clear() == 3
    assert partial.total_bytes == 0


# ----------------------------------------------------------------------
# invalidation (shared rule with repro.core.dynamic)


def test_invalidate_edge_matches_dynamic_affected_sets(paper_graph):
    partial = PartialIndex(budget_bytes=1 << 22)
    fill(paper_graph, partial, all_keys(paper_graph))
    u, v = 0, paper_graph.neighbors(Side.UPPER, 0)[0]
    affected_upper, affected_lower = edge_affected_sets(
        paper_graph.neighbors(Side.UPPER, u),
        paper_graph.neighbors(Side.LOWER, v),
        u,
        v,
    )
    dropped = set(partial.invalidate_edge(paper_graph, u, v))
    expected = {(Side.UPPER, x) for x in affected_upper} | {
        (Side.LOWER, x) for x in affected_lower
    }
    assert dropped == expected
    for key in expected:
        assert key not in partial
    assert partial.invalidations_total == len(expected)


def test_invalidate_edge_ignores_out_of_range(paper_graph):
    partial = PartialIndex(budget_bytes=1 << 20)
    # Endpoints beyond the graph: only the (hypothetical) endpoints'
    # own keys are affected, and nothing is resident — no crash.
    assert partial.invalidate_edge(paper_graph, 10_000, 10_000) == []


def test_put_drops_tree_built_before_an_eviction(paper_graph):
    partial = PartialIndex(budget_bytes=1 << 20)
    tree, bicliques = tree_for(paper_graph, Side.UPPER, 0)
    for invalidate in (
        lambda: partial.evict(Side.UPPER, 0),  # bumps even when absent
        lambda: partial.invalidate_edge(paper_graph, 0, 0),
        partial.clear,
    ):
        generation = partial.generation
        invalidate()
        inserted, evicted = partial.put(
            Side.UPPER, 0, tree, bicliques, generation=generation
        )
        assert (inserted, evicted) == (False, [])
        assert (Side.UPPER, 0) not in partial
    assert partial.stale_puts_total == 3
    assert partial.stats()["stale_puts"] == 3
    inserted, __ = partial.put(
        Side.UPPER, 0, tree, bicliques, generation=partial.generation
    )
    assert inserted and (Side.UPPER, 0) in partial


# ----------------------------------------------------------------------
# persistence round-trip


def test_to_index_save_load_warm_from(tmp_path, paper_graph):
    partial = PartialIndex(budget_bytes=1 << 22)
    keys = all_keys(paper_graph)[:5]
    fill(paper_graph, partial, keys)
    exported = partial.to_index(
        paper_graph.num_upper, paper_graph.num_lower
    )
    for fmt, name in (("json", "hot.json"), ("binary", "hot.pmbc")):
        path = tmp_path / name
        exported.save(path, format=fmt)
        loaded = PMBCIndex.load(path)
        warmed = PartialIndex(budget_bytes=1 << 22)
        adopted = warmed.warm_from(loaded)
        assert adopted == sum(
            1 for key in keys if len(tree_for(paper_graph, *key)[0]) > 0
        )
        for side, q in keys:
            for tau in (1, 2, 3):
                want = partial.lookup(side, q, tau, tau)
                got = warmed.lookup(side, q, tau, tau)
                if want is MISS or want is None:
                    assert got is want or got is None
                else:
                    assert got.signature() == want.signature()


def test_warm_from_respects_budget(paper_graph):
    donor = PartialIndex(budget_bytes=1 << 22)
    fill(paper_graph, donor, all_keys(paper_graph))
    exported = donor.to_index(paper_graph.num_upper, paper_graph.num_lower)
    tiny = PartialIndex(budget_bytes=donor.total_bytes // 3)
    tiny.warm_from(exported)
    assert 0 < len(tiny) < len(donor)
    assert tiny.total_bytes <= tiny.budget_bytes
    assert tiny.evictions_total == 0  # skip, never evict, while warming


# ----------------------------------------------------------------------
# introspection


def test_coverage_and_stats(paper_graph):
    partial = PartialIndex(budget_bytes=1 << 20)
    assert partial.coverage(
        paper_graph.num_upper, paper_graph.num_lower
    ) == 0.0
    fill(paper_graph, partial, all_keys(paper_graph)[:2])
    total = paper_graph.num_upper + paper_graph.num_lower
    assert partial.coverage(
        paper_graph.num_upper, paper_graph.num_lower
    ) == pytest.approx(2 / total)
    stats = partial.stats()
    assert stats["entries"] == 2
    assert stats["bytes"] == partial.total_bytes
    assert 0 < stats["utilization"] <= 1


def test_validation():
    with pytest.raises(ValueError):
        PartialIndex(budget_bytes=-1)
