"""Unit tests for the progressive bounding framework."""

from __future__ import annotations

import pytest

from repro.core import pmbc_online
from repro.corenum.bounds import compute_bounds
from repro.graph.bipartite import Side
from repro.graph.generators import complete_bipartite, random_bipartite
from repro.graph.subgraph import two_hop_subgraph
from repro.mbc.oracle import personalized_max_brute
from repro.mbc.progressive import SearchOptions, maximum_biclique_local

#: Every test runs under both search schedules (tests/conftest.py).
pytestmark = pytest.mark.usefixtures("search_schedule")


def _local(graph, q=0, side=Side.UPPER):
    return two_hop_subgraph(graph, side, q)


def test_validates_constraints(paper_graph):
    local = _local(paper_graph)
    with pytest.raises(ValueError):
        maximum_biclique_local(local, 0, 1)
    with pytest.raises(ValueError):
        maximum_biclique_local(local, 1, 0)


def test_matches_oracle_without_options():
    for seed in range(6):
        graph = random_bipartite(7, 7, 0.45, seed=seed)
        for q in range(graph.num_upper):
            if graph.degree(Side.UPPER, q) == 0:
                continue
            local = _local(graph, q)
            got = maximum_biclique_local(local, 1, 1)
            expected = personalized_max_brute(graph, Side.UPPER, q, 1, 1)
            got_size = len(got[0]) * len(got[1]) if got else 0
            exp_size = (
                len(expected[0]) * len(expected[1]) if expected else 0
            )
            assert got_size == exp_size


def test_matches_oracle_with_bounds():
    for seed in range(6):
        graph = random_bipartite(7, 7, 0.45, seed=seed + 50)
        bounds = compute_bounds(graph)
        options = SearchOptions(bounds=bounds)
        for q in range(graph.num_upper):
            if graph.degree(Side.UPPER, q) == 0:
                continue
            local = _local(graph, q)
            got = maximum_biclique_local(local, 2, 2, options=options)
            expected = personalized_max_brute(graph, Side.UPPER, q, 2, 2)
            got_size = len(got[0]) * len(got[1]) if got else 0
            exp_size = (
                len(expected[0]) * len(expected[1]) if expected else 0
            )
            assert got_size == exp_size


def test_seeded_search_matches_oracle():
    """A greedy seed makes the incumbent non-zero from the first round,
    so floors raised from it must still let every winner through."""
    for seed in range(12):
        graph = random_bipartite(8, 8, 0.45, seed=seed)
        for side in Side:
            for q in range(graph.num_vertices_on(side)):
                for tau_u, tau_l in ((1, 1), (3, 1)):
                    got = pmbc_online(graph, side, q, tau_u, tau_l)
                    expected = personalized_max_brute(
                        graph, side, q, tau_u, tau_l
                    )
                    got_size = got.num_edges if got else 0
                    exp_size = (
                        len(expected[0]) * len(expected[1])
                        if expected
                        else 0
                    )
                    assert got_size == exp_size, (seed, side, q, tau_u, tau_l)


def test_seed_is_returned_when_optimal(paper_graph):
    def u(name):
        return paper_graph.vertex_by_label(Side.UPPER, name)

    local = _local(paper_graph, u("u1"))
    # Feed the known optimum (local ids of the 4x3 block) as seed.
    names_u = {"u1", "u2", "u3", "u4"}
    names_v = {"v1", "v2", "v3"}
    seed_upper = frozenset(
        i
        for i, g in enumerate(local.upper_globals)
        if paper_graph.label(Side.UPPER, g) in names_u
    )
    seed_lower = frozenset(
        i
        for i, g in enumerate(local.lower_globals)
        if paper_graph.label(Side.LOWER, g) in names_v
    )
    result = maximum_biclique_local(local, 1, 1, seed=(seed_upper, seed_lower))
    assert result == (seed_upper, seed_lower)


def test_infeasible_constraints_return_seedless_none(paper_graph):
    local = _local(paper_graph, 0)
    assert maximum_biclique_local(local, 1, 40) is None
    assert maximum_biclique_local(local, 40, 1) is None


def test_floor_equals_constraint_still_searches():
    """Regression: when τ_L equals the max upper degree the single
    remaining round must still run (the paper's `while τ_L^k > τ_L`
    formulation would skip it)."""
    graph = complete_bipartite(3, 4)
    local = _local(graph, 0)
    result = maximum_biclique_local(local, 1, 4)
    assert result is not None
    upper, lower = result
    assert len(lower) == 4
    assert len(upper) * len(lower) == 12


def test_anchored_answer_contains_anchor(medium_planted_graph):
    graph = medium_planted_graph
    bounds = compute_bounds(graph)
    for q in range(0, graph.num_upper, 7):
        local = _local(graph, q)
        for options in (SearchOptions(), SearchOptions(bounds=bounds)):
            result = maximum_biclique_local(local, 1, 1, options=options)
            assert result is not None
            assert local.q_local in result[0]


def test_lemma6_caps_agree_with_uncapped(paper_graph):
    """Caps are redundant for correctness: results must agree in size
    whenever the true answer obeys the caps."""

    def u(name):
        return paper_graph.vertex_by_label(Side.UPPER, name)

    local = _local(paper_graph, u("u1"))
    # Child of the (1,1) root via condition (1): tau_p = 5, answer 5x2,
    # so max_w = |L(parent)| - 1 = 2 must not change anything.
    plain = maximum_biclique_local(local, 5, 1)
    capped = maximum_biclique_local(
        local, 5, 1, options=SearchOptions(max_w=2)
    )
    assert (
        len(plain[0]) * len(plain[1]) == len(capped[0]) * len(capped[1]) == 10
    )
