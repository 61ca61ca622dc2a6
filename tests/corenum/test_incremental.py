"""Unit tests for incremental (α,β)-core bound maintenance.

The maintainer reads a live :class:`DynamicPackedAdjacency`; every test
changes that adjacency first and then calls the maintainer's method of
the same name to repair, as the update surfaces do.
"""

from __future__ import annotations

import random

import pytest

from repro.corenum import incremental
from repro.corenum.bounds import compute_bounds
from repro.corenum.incremental import IncrementalCoreBounds
from repro.corenum.peeling import max_delta
from repro.graph.bipartite import BipartiteGraph, Side
from repro.graph.generators import power_law_bipartite, random_bipartite
from repro.kernel.dynadj import DynamicPackedAdjacency


def _maintained(graph, **kwargs):
    """A live adjacency of ``graph`` and a maintainer reading it."""
    adjacency = DynamicPackedAdjacency(graph)
    return adjacency, IncrementalCoreBounds(adjacency, **kwargs)


def _apply(adjacency, inc, action, u, v):
    """Change the adjacency, then repair the bounds if it changed."""
    if getattr(adjacency, f"{action}_edge")(u, v):
        getattr(inc, f"{action}_edge")(u, v)


def _churn(adjacency, inc, graph, steps, seed):
    rng = random.Random(seed)
    live = set(graph.edges())
    for __ in range(steps):
        if live and rng.random() < 0.45:
            u, v = rng.choice(sorted(live))
            _apply(adjacency, inc, "delete", u, v)
            live.discard((u, v))
        else:
            u = rng.randrange(graph.num_upper)
            v = rng.randrange(graph.num_lower)
            if (u, v) in live:
                continue
            _apply(adjacency, inc, "insert", u, v)
            live.add((u, v))
    return live


@pytest.mark.parametrize(
    "graph",
    [
        random_bipartite(14, 11, 0.3, seed=1),
        power_law_bipartite(24, 18, 90, 1.6, seed=2),
    ],
    ids=["random", "power-law"],
)
def test_churn_matches_recompute(graph):
    adjacency, inc = _maintained(graph)
    _churn(adjacency, inc, graph, 200, seed=6)
    inc.verify()
    exact = compute_bounds(adjacency.snapshot())
    for side in Side:
        assert inc.bounds.z[side] == exact.z[side]
        assert inc.bounds.prefix[side] == exact.prefix[side]
        assert inc.bounds.suffix[side] == exact.suffix[side]


def test_bounds_object_is_mutated_in_place():
    graph = random_bipartite(10, 8, 0.3, seed=3)
    adjacency, inc = _maintained(graph)
    bounds = inc.bounds
    _churn(adjacency, inc, graph, 60, seed=4)
    assert inc.bounds is bounds


def test_delete_then_reinsert_restores_bounds():
    graph = random_bipartite(12, 9, 0.3, seed=7)
    adjacency, inc = _maintained(graph)
    want = {side: list(inc.bounds.z[side]) for side in Side}
    u, v = next(iter(graph.edges()))
    _apply(adjacency, inc, "delete", u, v)
    _apply(adjacency, inc, "insert", u, v)
    for side in Side:
        assert inc.bounds.z[side] == want[side]


def test_defer_refresh_equals_eager():
    graph = random_bipartite(14, 11, 0.3, seed=8)
    eager_adjacency, eager = _maintained(graph)
    deferred_adjacency, deferred = _maintained(graph)
    ops = [("delete", *edge) for edge in list(graph.edges())[:5]]
    ops += [("insert", *ops[0][1:]), ("insert", *ops[2][1:])]
    for op in ops:
        _apply(eager_adjacency, eager, *op)
    with deferred.defer_refresh():
        for op in ops:
            _apply(deferred_adjacency, deferred, *op)
    for side in Side:
        assert deferred.bounds.z[side] == eager.bounds.z[side]
        assert deferred.bounds.prefix[side] == eager.bounds.prefix[side]
        assert deferred.bounds.suffix[side] == eager.bounds.suffix[side]
    deferred.verify()


def test_defer_refresh_is_not_reentrant():
    graph = random_bipartite(6, 5, 0.4, seed=9)
    __, inc = _maintained(graph)
    with inc.defer_refresh():
        with pytest.raises(RuntimeError):
            with inc.defer_refresh():
                pass


def test_cascade_cap_fallback_stays_correct():
    graph = power_law_bipartite(20, 16, 80, 1.5, seed=10)
    adjacency, inc = _maintained(graph, cascade_cap=1)
    _churn(adjacency, inc, graph, 80, seed=11)
    assert inc.sweep_fallbacks > 0
    inc.verify()


def test_growth_extends_layers():
    graph = random_bipartite(8, 6, 0.3, seed=12)
    adjacency, inc = _maintained(graph)
    _apply(adjacency, inc, "insert", graph.num_upper + 1, graph.num_lower + 2)
    snap = adjacency.snapshot()
    assert snap.num_upper == graph.num_upper + 2
    assert snap.num_lower == graph.num_lower + 3
    inc.verify()


def test_delta_growth_gate_never_blocks_a_growth(monkeypatch):
    """δ stays exact through random insert sequences while the level gate
    skips most of the full-graph (δ+1, δ+1)-core probes."""
    probes = []
    real_core = incremental.alpha_beta_core

    def counting_core(graph, alpha, beta):
        probes.append((alpha, beta))
        return real_core(graph, alpha, beta)

    monkeypatch.setattr(incremental, "alpha_beta_core", counting_core)
    growths = 0
    degree_qualified = 0
    for seed in range(8):
        rng = random.Random(seed)
        num_upper, num_lower = 9 + seed % 4, 8 + seed % 3
        adjacency, inc = _maintained(
            BipartiteGraph([[] for __ in range(num_upper)], num_lower=num_lower)
        )
        edges = [(u, v) for u in range(num_upper) for v in range(num_lower)]
        rng.shuffle(edges)
        for u, v in edges[: len(edges) * 3 // 4]:
            grown = inc.delta + 1
            _apply(adjacency, inc, "insert", u, v)
            snapshot = adjacency.snapshot()
            if (
                snapshot.degree(Side.UPPER, u) >= grown
                and snapshot.degree(Side.LOWER, v) >= grown
            ):
                degree_qualified += 1
            assert inc.delta == max_delta(snapshot)
            growths += inc.delta == grown
        inc.verify()
    assert growths > 0
    assert growths <= len(probes) < degree_qualified
