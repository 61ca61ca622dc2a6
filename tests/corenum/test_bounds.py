"""Unit tests for the Lemma 9 / prefix / suffix biclique-size bounds."""

from __future__ import annotations

import pytest

from repro.corenum.bounds import CoreBounds, LocalCoreBounds, compute_bounds
from repro.corenum.incremental import IncrementalCoreBounds
from repro.graph.bipartite import Side
from repro.graph.generators import complete_bipartite, random_bipartite, star
from repro.graph.subgraph import two_hop_subgraph
from repro.kernel.dynadj import DynamicPackedAdjacency
from repro.mbc.oracle import all_closed_bicliques


def _check_bounds_dominate(graph):
    """Every bound must dominate every biclique it claims to cover.

    Closed bicliques dominate all bicliques in each constraint class,
    so checking against them is exhaustive (see oracle docstring).
    """
    bounds = compute_bounds(graph)
    for upper, lower in all_closed_bicliques(graph):
        size = len(upper) * len(lower)
        for side, members, own in (
            (Side.UPPER, upper, len(upper)),
            (Side.LOWER, lower, len(lower)),
        ):
            for x in members:
                assert bounds.z_bound(side, x) >= size
                assert bounds.own_side_at_most(side, x, own) >= size
                assert bounds.own_side_at_least(side, x, own) >= size
                # Looser constraints can only raise the bound.
                assert (
                    bounds.own_side_at_most(side, x, own + 1)
                    >= bounds.own_side_at_most(side, x, own)
                )
                assert (
                    bounds.own_side_at_least(side, x, own)
                    >= bounds.own_side_at_least(side, x, own + 1)
                )


@pytest.mark.parametrize("seed", [0, 1, 2, 5])
def test_bounds_dominate_random(seed):
    graph = random_bipartite(6, 7, 0.5, seed=seed)
    _check_bounds_dominate(graph)


def test_bounds_dominate_paper(paper_graph):
    _check_bounds_dominate(paper_graph)


def test_z_exact_on_complete_bipartite():
    graph = complete_bipartite(3, 4)
    bounds = compute_bounds(graph)
    for u in range(3):
        assert bounds.z_bound(Side.UPPER, u) == 12
    for v in range(4):
        assert bounds.z_bound(Side.LOWER, v) == 12


def test_z_exact_on_star():
    graph = star(6)
    bounds = compute_bounds(graph)
    assert bounds.z_bound(Side.UPPER, 0) == 6
    assert bounds.z_bound(Side.LOWER, 3) == 6


def test_prefix_bound_on_complete_bipartite():
    graph = complete_bipartite(3, 4)
    bounds = compute_bounds(graph)
    # Upper vertex with own-side (upper) count capped at 1: best is 1x4.
    assert bounds.own_side_at_most(Side.UPPER, 0, 1) == 4
    assert bounds.own_side_at_most(Side.UPPER, 0, 2) == 8
    assert bounds.own_side_at_most(Side.UPPER, 0, 3) == 12
    # Beyond the true layer size the constraint is inactive.
    assert bounds.own_side_at_most(Side.UPPER, 0, 10) == 12


def test_suffix_bound_on_complete_bipartite():
    graph = complete_bipartite(3, 4)
    bounds = compute_bounds(graph)
    assert bounds.own_side_at_least(Side.LOWER, 0, 4) == 12
    assert bounds.own_side_at_least(Side.LOWER, 0, 5) == 0
    assert bounds.own_side_at_least(Side.LOWER, 0, 1) == 12


def test_degenerate_inputs():
    graph = star(1)
    bounds = compute_bounds(graph)
    assert bounds.own_side_at_most(Side.UPPER, 0, 0) == 0
    assert bounds.own_side_at_least(Side.UPPER, 0, 0) == bounds.z_bound(
        Side.UPPER, 0
    )


def test_paper_example_z_values(paper_graph):
    """z bounds of the reconstructed Figure 2 graph (cf. Example 5).

    The paper's Figure 5 lists z values for its exact drawing; our
    reconstruction differs in one edge, so we assert the values
    computed against this graph's own brute-force maxima instead.
    """
    bounds = compute_bounds(paper_graph)
    best_per_vertex_upper = {}
    best_per_vertex_lower = {}
    for upper, lower in all_closed_bicliques(paper_graph):
        size = len(upper) * len(lower)
        for x in upper:
            best_per_vertex_upper[x] = max(best_per_vertex_upper.get(x, 0), size)
        for x in lower:
            best_per_vertex_lower[x] = max(best_per_vertex_lower.get(x, 0), size)
    for x, best in best_per_vertex_upper.items():
        assert bounds.z_bound(Side.UPPER, x) >= best
    for x, best in best_per_vertex_lower.items():
        assert bounds.z_bound(Side.LOWER, x) >= best


def _whole_graph_view(bounds, graph, side):
    """A :class:`LocalCoreBounds` over every vertex, local ids = global."""
    return LocalCoreBounds(
        prefix=bounds.prefix[side],
        z=bounds.z[side.other],
        suffix=bounds.suffix[side.other],
        upper_globals=range(graph.num_vertices_on(side)),
        lower_globals=range(graph.num_vertices_on(side.other)),
    )


@pytest.mark.parametrize("seed", [0, 3, 8])
def test_view_thresholds_match_per_vertex_bounds(seed):
    """prefix_cuts / suffix_stops cut exactly the sizes the per-vertex
    reads cut, for every vertex, incumbent and size — also on rows an
    incremental repair wrote and on all-zero rows."""
    graph = random_bipartite(9, 8, 0.45, seed=seed)
    adjacency = DynamicPackedAdjacency(graph)
    live = IncrementalCoreBounds(adjacency)
    if adjacency.insert_edge(0, 7):
        live.insert_edge(0, 7)
    if adjacency.delete_edge(1, 2):
        live.delete_edge(1, 2)
    fresh = compute_bounds(graph)
    zeroed = CoreBounds(
        z=fresh.z,
        prefix={s: [[0] * len(r) for r in rows] for s, rows in fresh.prefix.items()},
        suffix={s: [[0] * len(r) for r in rows] for s, rows in fresh.suffix.items()},
    )
    for bounds, g in ((fresh, graph), (live.bounds, adjacency.snapshot()), (zeroed, graph)):
        for side in Side:
            view = _whole_graph_view(bounds, g, side)
            uppers = range(g.num_vertices_on(side))
            lowers = range(g.num_vertices_on(side.other))
            top = max(bounds.z[side] + bounds.z[side.other], default=0)
            for best in range(top + 2):
                cuts = view.prefix_cuts(uppers, best)
                for u in uppers:
                    for i in range(len(view.prefix[u]) + 3):
                        assert (view.upper_at_most(u, i) <= best) == (
                            i <= cuts[u]
                        ), (side, u, i, best)
                stops = view.suffix_stops(lowers, best)
                for v in lowers:
                    for k in range(1, len(view.suffix[v]) + 3):
                        assert (view.lower_at_least(v, k) <= best) == (
                            k >= stops[v]
                        ), (side, v, k, best)


def test_view_reads_the_per_vertex_bounds(paper_graph):
    bounds = compute_bounds(paper_graph)
    local = two_hop_subgraph(paper_graph, Side.LOWER, 2)
    view = bounds.local_view(local)
    for u, g in enumerate(local.upper_globals):
        for i in range(5):
            assert view.upper_at_most(u, i) == bounds.own_side_at_most(
                Side.LOWER, g, i
            )
    for v, g in enumerate(local.lower_globals):
        for k in range(5):
            assert view.lower_at_least(v, k) == bounds.own_side_at_least(
                Side.UPPER, g, k
            )
