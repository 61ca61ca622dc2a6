"""The search schedule: one exact round on small ``H_q``, rounds above.

``maximum_biclique_local`` picks the schedule from ``|H_q|`` alone, and
both kernels read that one decision.  The differential suites run under
both schedules through the ``search_schedule`` fixture; these tests pin
the decision itself.
"""

from __future__ import annotations

from repro.bench.workloads import top_degree_queries
from repro.core.online import extract_local, pmbc_online
from repro.corenum.bounds import compute_bounds
from repro.graph.bipartite import Side
from repro.graph.generators import (
    capped_power_law_bipartite,
    paper_example_graph,
    with_planted_blocks,
)
from repro.mbc import progressive
from repro.obs import SearchTrace, use_trace


def _traced(graph, side, q, tau, kernel, bounds=None):
    trace = SearchTrace()
    with use_trace(trace):
        result = pmbc_online(
            graph, side, q, tau, tau, bounds=bounds, kernel=kernel
        )
    return (result.num_edges if result else 0), trace.rounds


def test_small_subgraph_runs_one_round_down_to_the_lower_floor(monkeypatch):
    graph = paper_example_graph()
    local = extract_local(graph, Side.UPPER, 0, "set")
    size = local.num_upper + local.num_lower
    monkeypatch.setattr(progressive, "ONE_ROUND_MAX_TWOHOP", size)
    for kernel in ("set", "bitset"):
        edges, rounds = _traced(graph, Side.UPPER, 0, 1, kernel)
        assert len(rounds) == 1
        assert rounds[0]["tau_w"] == 1
        monkeypatch.setattr(progressive, "ONE_ROUND_MAX_TWOHOP", size - 1)
        edges_rounds, rounds = _traced(graph, Side.UPPER, 0, 1, kernel)
        assert len(rounds) > 1
        assert edges_rounds == edges
        monkeypatch.setattr(progressive, "ONE_ROUND_MAX_TWOHOP", size)


def test_large_subgraph_keeps_the_rounds(monkeypatch):
    """Above the constant: both kernels run the same rounds, and one
    round would have found an answer of the same size."""
    graph = with_planted_blocks(
        capped_power_law_bipartite(
            2000, 2000, 14000, cap_upper=150, cap_lower=150, seed=7
        ),
        [(12, 10), (9, 14), (20, 6), (6, 25)],
        seed=3,
    )
    bounds = compute_bounds(graph)
    ((side, q),) = top_degree_queries(graph, num_queries=1, pool_size=1)
    local = extract_local(graph, side, q, "bitset")
    assert local.num_upper + local.num_lower > progressive.ONE_ROUND_MAX_TWOHOP

    edges, rounds = _traced(graph, side, q, 5, "bitset", bounds)
    assert len(rounds) > 1
    assert _traced(graph, side, q, 5, "set", bounds) == (edges, rounds)

    monkeypatch.setattr(progressive, "ONE_ROUND_MAX_TWOHOP", 10**9)
    one_edges, one_rounds = _traced(graph, side, q, 5, "bitset", bounds)
    assert len(one_rounds) == 1
    assert one_edges == edges > 0
