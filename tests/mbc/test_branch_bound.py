"""Unit tests for the Branch&Bound procedure."""

from __future__ import annotations

from repro.corenum.bounds import LocalCoreBounds
from repro.graph.bipartite import Side
from repro.graph.generators import complete_bipartite, random_bipartite
from repro.graph.subgraph import two_hop_subgraph
from repro.mbc.branch_bound import BranchBoundConfig, branch_and_bound
from repro.mbc.oracle import max_biclique_brute


def _local(graph, q=0):
    return two_hop_subgraph(graph, Side.UPPER, q)


def test_finds_maximum_on_complete_bipartite():
    local = _local(complete_bipartite(3, 4))
    result = branch_and_bound(local, BranchBoundConfig())
    assert result is not None
    upper, lower = result
    assert len(upper) * len(lower) == 12


def test_respects_min_constraints(paper_graph):
    def u(name):
        return paper_graph.vertex_by_label(Side.UPPER, name)

    local = _local(paper_graph, u("u1"))
    result = branch_and_bound(local, BranchBoundConfig(tau_p=5, tau_w=1))
    upper, lower = result
    assert len(upper) >= 5
    assert len(upper) * len(lower) == 10


def test_returns_none_when_infeasible(paper_graph):
    local = _local(paper_graph, 0)
    assert branch_and_bound(local, BranchBoundConfig(tau_p=8, tau_w=1)) is None


def test_initial_best_size_filters_results(paper_graph):
    local = _local(paper_graph, 0)
    # The optimum inside H_{u1} is 12 edges; a bar of 12 yields nothing.
    assert branch_and_bound(local, BranchBoundConfig(), 12) is None
    result = branch_and_bound(local, BranchBoundConfig(), 11)
    assert result is not None
    upper, lower = result
    assert len(upper) * len(lower) == 12


def test_results_match_oracle_random():
    for seed in range(10):
        graph = random_bipartite(7, 7, 0.5, seed=seed)
        for q in range(graph.num_upper):
            if graph.degree(Side.UPPER, q) == 0:
                continue
            local = _local(graph, q)
            for tau_p, tau_w in ((1, 1), (2, 2), (3, 1)):
                got = branch_and_bound(
                    local, BranchBoundConfig(tau_p=tau_p, tau_w=tau_w)
                )
                from repro.graph.bipartite import BipartiteGraph

                sub = BipartiteGraph(
                    [sorted(ns) for ns in local.adj_upper],
                    num_lower=local.num_lower,
                )
                expected = max_biclique_brute(sub, tau_p, tau_w)
                got_size = len(got[0]) * len(got[1]) if got else 0
                exp_size = (
                    len(expected[0]) * len(expected[1]) if expected else 0
                )
                assert got_size == exp_size


def test_anchored_results_contain_protected_vertex(paper_graph):
    for q in range(paper_graph.num_upper):
        local = _local(paper_graph, q)
        config = BranchBoundConfig(protected_upper=local.q_local)
        result = branch_and_bound(local, config)
        assert result is not None
        assert local.q_local in result[0]


def test_lemma6_caps_limit_shapes(paper_graph):
    def u(name):
        return paper_graph.vertex_by_label(Side.UPPER, name)

    local = _local(paper_graph, u("u1"))
    # Cap the lower side at 2: best is the 5x2.
    result = branch_and_bound(local, BranchBoundConfig(max_w=2))
    upper, lower = result
    assert len(lower) <= 2
    assert len(upper) * len(lower) == 10
    # Cap the upper side at 2: best is the 2x4.
    result = branch_and_bound(local, BranchBoundConfig(max_p=2))
    upper, lower = result
    assert len(upper) <= 2
    assert len(upper) * len(lower) == 8


def test_no_maximality_pruning_still_correct(paper_graph):
    local = _local(paper_graph, 0)
    with_pruning = branch_and_bound(local, BranchBoundConfig())
    without = branch_and_bound(
        local, BranchBoundConfig(prune_non_maximal=False)
    )
    assert (
        len(with_pruning[0]) * len(with_pruning[1])
        == len(without[0]) * len(without[1])
    )


def test_bound_hooks_never_change_answers(paper_graph):
    """An exact bound view derived from the graph must preserve optimality."""
    from repro.corenum.bounds import compute_bounds

    bounds = compute_bounds(paper_graph)
    for q in range(paper_graph.num_upper):
        local = _local(paper_graph, q)
        plain = branch_and_bound(local, BranchBoundConfig())
        hooked = branch_and_bound(
            local,
            BranchBoundConfig(
                bounds=bounds.local_view(local),
                protected_upper=local.q_local,
                prune_non_maximal=False,
            ),
        )
        plain_size = len(plain[0]) * len(plain[1]) if plain else 0
        hooked_size = len(hooked[0]) * len(hooked[1]) if hooked else 0
        assert plain_size == hooked_size


class _TablesOnly(LocalCoreBounds):
    """A bound view whose per-vertex reads fail the test."""

    def upper_at_most(self, u, i):
        raise AssertionError("per-vertex prefix bound call")

    def lower_at_least(self, v, k):
        raise AssertionError("per-vertex suffix bound call")


def test_bitset_kernel_reads_bounds_only_as_tables(medium_planted_graph):
    """The bitset recursion tabulates the view: no per-vertex bound call,
    and the same answer as the set kernel's per-vertex reads."""
    from repro.corenum.bounds import compute_bounds

    bounds = compute_bounds(medium_planted_graph)
    for q in range(0, medium_planted_graph.num_upper, 5):
        local = _local(medium_planted_graph, q)
        view = bounds.local_view(local)
        tables_only = _TablesOnly(
            view.prefix, view.z, view.suffix,
            view.upper_globals, view.lower_globals,
        )
        answers = {}
        for kernel, bound_view in (("set", view), ("bitset", tables_only)):
            config = BranchBoundConfig(
                tau_p=2,
                tau_w=2,
                bounds=bound_view,
                protected_upper=local.q_local,
                prune_non_maximal=False,
            )
            answers[kernel] = branch_and_bound(local, config, kernel=kernel)
        assert answers["bitset"] == answers["set"], q
