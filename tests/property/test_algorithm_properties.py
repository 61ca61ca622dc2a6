"""Hypothesis property tests: algorithms vs oracles and paper lemmas."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    Biclique,
    build_index_star,
    pmbc_index_query,
    pmbc_online,
    pmbc_online_star,
)
from repro.graph.bipartite import Side
from repro.graph.builders import from_edges
from repro.mbc.oracle import personalized_max_brute

#: Every test runs under both search schedules (tests/conftest.py).
pytestmark = pytest.mark.usefixtures("search_schedule")

edge_lists = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
    min_size=1,
    max_size=25,
)


def build(edges):
    return from_edges(sorted(set(edges)))


def _oracle_size(graph, side, q, tau_u, tau_l):
    expected = personalized_max_brute(graph, side, q, tau_u, tau_l)
    return len(expected[0]) * len(expected[1]) if expected else 0


@settings(max_examples=40, deadline=None)
@given(edge_lists, st.integers(0, 30), st.integers(1, 4), st.integers(1, 4))
def test_online_matches_oracle(edges, pick, tau_u, tau_l):
    graph = build(edges)
    q = pick % graph.num_upper
    got = pmbc_online(graph, Side.UPPER, q, tau_u, tau_l)
    got_size = got.num_edges if got else 0
    assert got_size == _oracle_size(graph, Side.UPPER, q, tau_u, tau_l)
    if got:
        assert got.is_valid_in(graph)
        assert got.contains(Side.UPPER, q)
        assert got.satisfies(tau_u, tau_l)


@settings(max_examples=25, deadline=None)
@given(edge_lists, st.integers(0, 30), st.integers(1, 3), st.integers(1, 3))
def test_online_star_matches_oracle(edges, pick, tau_u, tau_l):
    graph = build(edges)
    q = pick % graph.num_lower
    got = pmbc_online_star(graph, Side.LOWER, q, tau_u, tau_l)
    got_size = got.num_edges if got else 0
    assert got_size == _oracle_size(graph, Side.LOWER, q, tau_u, tau_l)


@settings(max_examples=20, deadline=None)
@given(edge_lists)
def test_index_answers_match_oracle_everywhere(edges):
    graph = build(edges)
    index = build_index_star(graph)
    for side in Side:
        for q in range(graph.num_vertices_on(side)):
            for tau_u in (1, 2, 3):
                for tau_l in (1, 2, 3):
                    got = pmbc_index_query(index, side, q, tau_u, tau_l)
                    got_size = got.num_edges if got else 0
                    assert got_size == _oracle_size(
                        graph, side, q, tau_u, tau_l
                    ), (side, q, tau_u, tau_l)


@settings(max_examples=30, deadline=None)
@given(edge_lists, st.integers(0, 30))
def test_lemma2_monotonicity(edges, pick):
    """Answer size is non-increasing in each constraint (Lemma 2)."""
    graph = build(edges)
    q = pick % graph.num_upper
    sizes = []
    for tau in range(1, 5):
        result = pmbc_online(graph, Side.UPPER, q, tau, 1)
        sizes.append(result.num_edges if result else 0)
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    sizes = []
    for tau in range(1, 5):
        result = pmbc_online(graph, Side.UPPER, q, 1, tau)
        sizes.append(result.num_edges if result else 0)
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))


@settings(max_examples=30, deadline=None)
@given(edge_lists, st.integers(0, 30))
def test_lemma5_tree_size_bound(edges, pick):
    """|T_q| = O(deg(q)): the explicit 4*deg+1 bound."""
    graph = build(edges)
    index = build_index_star(graph)
    for side in Side:
        for v in range(graph.num_vertices_on(side)):
            assert len(index.tree(side, v)) <= 4 * graph.degree(side, v) + 1


@settings(max_examples=30, deadline=None)
@given(edge_lists)
def test_lemma10_array_bound(edges):
    """|A| is at most the sum of vertex degrees (Lemma 10)."""
    graph = build(edges)
    index = build_index_star(graph)
    degree_sum = sum(
        graph.degree(side, v)
        for side in Side
        for v in range(graph.num_vertices_on(side))
    )
    assert index.num_bicliques <= degree_sum


@settings(max_examples=50, deadline=None)
@given(
    st.sets(st.integers(0, 9), min_size=1),
    st.sets(st.integers(0, 9), min_size=1),
    st.sets(st.integers(0, 9), min_size=1),
    st.sets(st.integers(0, 9), min_size=1),
)
def test_biclique_domination_is_a_partial_order(u1, l1, u2, l2):
    a = Biclique(upper=frozenset(u1), lower=frozenset(l1))
    b = Biclique(upper=frozenset(u2), lower=frozenset(l2))
    assert a.dominates(a)
    if a.dominates(b) and b.dominates(a):
        assert a.shape == b.shape
    if a.dominates(b):
        assert a.num_edges >= b.num_edges or (
            # domination is on shape, not edge count of arbitrary sets;
            # with both coordinates >= the product is >= too.
            False
        )
