"""Bound rows against an oracle that shares no code with compute_bounds.

The oracle peels the (α,β)-core for every (α, β) with
:func:`alpha_beta_core` and builds each vertex's staircase, products and
prefix/suffix maxima with plain loops.  ``compute_bounds`` writes its
rows from the peeling sweeps, so these tests pin that kernel to the
definition; on the scalability datasets the rows are also compared with
the staircase route (``decompose`` + ``vertex_bound_rows``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.corenum.bounds import compute_bounds, vertex_bound_rows
from repro.corenum.decomposition import decompose
from repro.corenum.peeling import alpha_beta_core, max_delta
from repro.datasets.zoo import load_dataset, scalability_dataset_names
from repro.graph.bipartite import BipartiteGraph, Side
from repro.graph.generators import complete_bipartite, star


def oracle_rows(graph):
    """``{side: [(z, prefix, suffix), ...]}`` by brute-force core membership."""
    max_alpha = graph.max_degree(Side.UPPER)
    max_beta = graph.max_degree(Side.LOWER)
    cores = {}
    for alpha in range(1, max_alpha + 1):
        for beta in range(1, max_beta + 1):
            cores[alpha, beta] = alpha_beta_core(graph, alpha, beta)
    rows = {}
    for side in Side:
        members = 0 if side is Side.UPPER else 1
        # Own-layer coordinate: β for upper vertices, α for lower ones.
        own_range = max_beta if side is Side.UPPER else max_alpha
        other_range = max_alpha if side is Side.UPPER else max_beta
        side_rows = []
        for x in range(graph.num_vertices_on(side)):
            stairs = []
            for own in range(1, own_range + 1):
                best = 0
                for other in range(1, other_range + 1):
                    key = (other, own) if side is Side.UPPER else (own, other)
                    if x in cores[key][members]:
                        best = other
                if best == 0:
                    break
                stairs.append(best)
            products = [(i + 1) * stairs[i] for i in range(len(stairs))]
            prefix = []
            suffix = []
            for i in range(len(products)):
                prefix.append(max(products[: i + 1]))
                suffix.append(max(products[i:]))
            side_rows.append((max(products, default=0), prefix, suffix))
        rows[side] = side_rows
    return rows


def assert_rows_equal(bounds, rows):
    for side in Side:
        assert bounds.z[side] == [row[0] for row in rows[side]]
        assert bounds.prefix[side] == [row[1] for row in rows[side]]
        assert bounds.suffix[side] == [row[2] for row in rows[side]]


def check_against_oracle(graph):
    assert_rows_equal(compute_bounds(graph), oracle_rows(graph))
    assert decompose(graph).delta == max_delta(graph)


@st.composite
def small_graphs(draw):
    """Graphs on up to 7×7 vertices, isolated vertices included."""
    num_upper = draw(st.integers(0, 7))
    num_lower = draw(st.integers(0, 7))
    adj = [[] for __ in range(num_upper)]
    if num_upper and num_lower:
        edges = draw(
            st.sets(
                st.tuples(
                    st.integers(0, num_upper - 1),
                    st.integers(0, num_lower - 1),
                ),
                max_size=35,
            )
        )
        for u, v in edges:
            adj[u].append(v)
    return BipartiteGraph(adj, num_lower=num_lower)


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_rows_match_oracle(graph):
    check_against_oracle(graph)


@pytest.mark.parametrize(
    "graph",
    [
        BipartiteGraph([], num_lower=0),
        BipartiteGraph([[], [], []], num_lower=4),  # δ = 0, isolated only
        BipartiteGraph([[0], [], [1, 2]], num_lower=5),  # δ = 1
        star(1),
        star(7),
        complete_bipartite(1, 6),
        complete_bipartite(3, 4),
        complete_bipartite(5, 5),
        complete_bipartite(6, 2),
    ],
    ids=[
        "empty",
        "isolated",
        "delta-1-with-isolated",
        "single-edge",
        "star",
        "k1x6",
        "k3x4",
        "k5x5",
        "k6x2",
    ],
)
def test_rows_match_oracle_on_edge_cases(graph):
    check_against_oracle(graph)


@pytest.mark.parametrize("name", scalability_dataset_names())
def test_rows_match_staircase_route_on_scalability_datasets(name):
    graph = load_dataset(name)
    decomposition = decompose(graph)
    assert decomposition.delta == max_delta(graph)
    own_stairs = {
        Side.UPPER: decomposition.beta_stairs[Side.UPPER],
        Side.LOWER: decomposition.alpha_stairs[Side.LOWER],
    }
    rows = {
        side: [vertex_bound_rows(stairs) for stairs in own_stairs[side]]
        for side in Side
    }
    assert_rows_equal(compute_bounds(graph), rows)
