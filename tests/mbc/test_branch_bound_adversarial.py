"""Adversarial Branch&Bound cases targeting pruning-rule interplay."""

from __future__ import annotations

import random

import pytest

from repro.corenum.bounds import CoreBounds, compute_bounds
from repro.graph.bipartite import BipartiteGraph, Side
from repro.graph.builders import from_edges
from repro.graph.subgraph import two_hop_subgraph
from repro.mbc.branch_bound import BranchBoundConfig, branch_and_bound
from repro.mbc.oracle import personalized_max_brute
from repro.mbc.progressive import SearchOptions, maximum_biclique_local


def k_2_10_plus_tail():
    """The K_{2,10} counterexample to the paper's z← formula.

    A 2x10 biclique plus a small decoy: with the paper's literal
    prefix-bound indexing, upper vertices of the 2x10 would be pruned
    once |P| shrinks to 2 and a 6-edge incumbent exists.  Our
    region-restricted bounds must keep them.
    """
    edges = []
    for u in range(2):
        for v in range(10):
            edges.append((f"a{u}", f"b{v}"))
    # Decoy 2x3 biclique sharing one lower vertex.
    for u in range(2):
        for v in range(3):
            edges.append((f"c{u}", f"d{v}"))
    edges.append(("a0", "d0"))
    return from_edges(edges)


def test_k210_counterexample_answers_survive_bounds():
    graph = k_2_10_plus_tail()
    bounds = compute_bounds(graph)
    q = graph.vertex_by_label(Side.UPPER, "a0")
    local = two_hop_subgraph(graph, Side.UPPER, q)
    result = maximum_biclique_local(
        local, 1, 1, options=SearchOptions(bounds=bounds)
    )
    assert result is not None
    assert len(result[0]) * len(result[1]) == 20
    expected = personalized_max_brute(graph, Side.UPPER, q, 1, 1)
    assert len(expected[0]) * len(expected[1]) == 20


@pytest.mark.parametrize("seed", range(8))
def test_all_accelerators_together_match_oracle(seed):
    """Bounds + caps + wedge + seeds all at once, against brute force."""
    rng = random.Random(seed)
    edges = set()
    for __ in range(rng.randint(8, 30)):
        edges.add((rng.randrange(7), rng.randrange(7)))
    graph = from_edges(sorted(edges))
    bounds = compute_bounds(graph)
    for q in range(graph.num_upper):
        if graph.degree(Side.UPPER, q) == 0:
            continue
        expected = personalized_max_brute(graph, Side.UPPER, q, 1, 1)
        exp_size = len(expected[0]) * len(expected[1]) if expected else 0
        if exp_size == 0:
            continue
        a, b = len(expected[0]), len(expected[1])
        local = two_hop_subgraph(graph, Side.UPPER, q)
        # Caps exactly at the answer's shape must not lose it.
        result = maximum_biclique_local(
            local,
            1,
            1,
            options=SearchOptions(bounds=bounds, max_p=a, max_w=b),
        )
        assert result is not None
        assert len(result[0]) * len(result[1]) == exp_size


def test_tau_p_filter_interacts_with_hooks():
    """An exact hook must never push P below tau_p for the optimum."""
    graph = k_2_10_plus_tail()
    bounds = compute_bounds(graph)
    q = graph.vertex_by_label(Side.UPPER, "a0")
    local = two_hop_subgraph(graph, Side.UPPER, q)
    config = BranchBoundConfig(
        tau_p=2,
        tau_w=2,
        bounds=bounds.local_view(local),
        protected_upper=local.q_local,
        prune_non_maximal=False,
    )
    # Incumbent of 6 edges (the decoy's size): the 2x10 must still win.
    result = branch_and_bound(local, config, initial_best_size=6)
    assert result is not None
    assert len(result[0]) * len(result[1]) == 20


def test_protected_anchor_never_pruned_by_hostile_hook():
    """Even bounds claiming the anchor is useless must not remove it."""
    graph = from_edges([("q", "x"), ("q", "y"), ("a", "x"), ("a", "y")])
    q = graph.vertex_by_label(Side.UPPER, "q")
    local = two_hop_subgraph(graph, Side.UPPER, q)
    bounds = compute_bounds(graph)
    # Hostile: all-zero upper rows claim no upper vertex is worth keeping.
    bounds = CoreBounds(
        z={**bounds.z, Side.UPPER: [0] * graph.num_upper},
        prefix={**bounds.prefix, Side.UPPER: [[0, 0]] * graph.num_upper},
        suffix={**bounds.suffix, Side.UPPER: [[0, 0]] * graph.num_upper},
    )

    config = BranchBoundConfig(
        bounds=bounds.local_view(local),
        protected_upper=local.q_local,
        prune_non_maximal=False,
    )
    result = branch_and_bound(local, config)
    assert result is not None
    assert local.q_local in result[0]


def test_zero_budget_wedge_and_no_maximality_still_exact():
    graph = BipartiteGraph(
        [[0, 1, 2], [0, 1, 2], [0, 1], [2, 3]], num_lower=4
    )
    local = two_hop_subgraph(graph, Side.UPPER, 0)
    result = maximum_biclique_local(
        local,
        1,
        1,
        options=SearchOptions(
            use_two_hop_reduction=False, prune_non_maximal=False
        ),
    )
    expected = personalized_max_brute(graph, Side.UPPER, 0, 1, 1)
    assert len(result[0]) * len(result[1]) == len(expected[0]) * len(
        expected[1]
    )
