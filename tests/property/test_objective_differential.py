"""Differential suite: the balanced objective ≡ the mbb reference.

The pluggable ``"balanced"`` objective runs on the full production
substrate — progressive bounding, effective floors, anchor protection,
either kernel — while :func:`repro.mbb.personalized_balanced_reference`
is a deliberately simple level-by-level walk over ``H_q``.  Both must
report the same optimum ``k`` for every query on the generator zoo,
and the two kernels must agree exactly (identical vertex sets), the
same bar the PMBC kernel differential suite sets.
"""

from __future__ import annotations

import pytest

from repro.core.engine import PMBCQueryEngine
from repro.core.online import pmbc_online, pmbc_online_star
from repro.graph.bipartite import Side
from repro.graph.generators import power_law_bipartite, random_bipartite
from repro.mbb import personalized_balanced_reference

#: Every test runs under both search schedules (tests/conftest.py).
pytestmark = pytest.mark.usefixtures("search_schedule")


def _graphs():
    yield "random-dense", random_bipartite(24, 18, 0.35, seed=11)
    yield "random-sparse", random_bipartite(40, 32, 0.08, seed=12)
    yield "power-law", power_law_bipartite(50, 40, 220, 1.6, seed=13)


GRAPHS = list(_graphs())


def _queries(graph, per_side=6):
    for side in (Side.UPPER, Side.LOWER):
        n = graph.num_vertices_on(side)
        for q in range(0, n, max(1, n // per_side)):
            yield side, q


def _check_balanced_answer(graph, side, q, tau_u, tau_l, got, expected):
    """``got`` matches the reference optimum and is a valid k×k answer."""
    if expected is None:
        assert got is None
        return
    assert got is not None
    k = len(expected.upper)
    assert got.shape == (k, k)
    assert got.contains(side, q)
    assert got.is_valid_in(graph)
    assert len(got.upper) >= max(tau_u, tau_l)


@pytest.mark.parametrize("name,graph", GRAPHS, ids=[n for n, _ in GRAPHS])
@pytest.mark.parametrize("tau", [(1, 1), (2, 2), (3, 2)])
@pytest.mark.parametrize("kernel", ["set", "bitset"])
def test_balanced_objective_matches_reference(name, graph, tau, kernel):
    tau_u, tau_l = tau
    for side, q in _queries(graph):
        expected = personalized_balanced_reference(
            graph, side, q, tau_u, tau_l
        )
        got = pmbc_online(
            graph, side, q, tau_u, tau_l,
            kernel=kernel, objective="balanced",
        )
        _check_balanced_answer(graph, side, q, tau_u, tau_l, got, expected)


@pytest.mark.parametrize("name,graph", GRAPHS, ids=[n for n, _ in GRAPHS])
def test_balanced_star_path_matches_reference(name, graph):
    """PMBC-OL* gates its edge-count bounds off for the balanced family."""
    for side, q in _queries(graph):
        expected = personalized_balanced_reference(graph, side, q, 2, 2)
        got = pmbc_online_star(
            graph, side, q, 2, 2, objective="balanced"
        )
        _check_balanced_answer(graph, side, q, 2, 2, got, expected)


@pytest.mark.parametrize("name,graph", GRAPHS, ids=[n for n, _ in GRAPHS])
def test_balanced_kernels_agree_exactly(name, graph):
    """Both kernels return identical balanced vertex sets."""
    for side, q in _queries(graph):
        for tau in (1, 2):
            got = {
                kernel: pmbc_online(
                    graph, side, q, tau, tau,
                    kernel=kernel, objective="balanced",
                )
                for kernel in ("set", "bitset")
            }
            assert got["set"] == got["bitset"], (
                name, side, q, tau,
            )


@pytest.mark.parametrize("name,graph", GRAPHS, ids=[n for n, _ in GRAPHS])
def test_engine_answers_balanced_and_pmbc_share_cache(name, graph):
    """One engine serves both families; answers match the references."""
    engine = PMBCQueryEngine(graph)
    for side, q in _queries(graph, per_side=4):
        balanced = engine.query(side, q, 2, 2, objective="balanced")
        expected = personalized_balanced_reference(graph, side, q, 2, 2)
        _check_balanced_answer(graph, side, q, 2, 2, balanced, expected)
        pmbc = engine.query(side, q, 2, 2)
        reference = pmbc_online(graph, side, q, 2, 2)
        assert (pmbc is None) == (reference is None)
        if pmbc is not None:
            assert pmbc.num_edges == reference.num_edges
