"""PMBCService with the traffic-adaptive partial index enabled."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.construction_star import build_index_star
from repro.core.online import pmbc_online
from repro.exec.executor import create_executor
from repro.graph.bipartite import BipartiteGraph, Side
from repro.serve.service import PMBCService, ServiceConfig


def adaptive_config(**overrides):
    defaults = dict(
        num_workers=2,
        adaptive=True,
        index_budget_mb=4.0,
        hot_threshold=3.0,
        build_interval=0.02,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def warm_up(service, side, vertex, tau_u=1, tau_l=1, times=4):
    """Query past the promotion threshold, then drain the builder."""
    for __ in range(times):
        result = service.query(side, vertex, tau_u, tau_l)
    assert service.builder.drain(10.0), "background builder did not drain"
    return result


# ----------------------------------------------------------------------
# the partial tier answers warmed head queries


def test_warm_query_served_by_partial_tier(paper_graph):
    with PMBCService(paper_graph, config=adaptive_config()) as service:
        assert service.backend_names[0] == "partial"
        warm_up(service, Side.UPPER, 0)
        result = service.query(Side.UPPER, 0, 1, 1, explain=True)
        assert result.backend == "partial"
        assert result.trace["meta"]["backend"] == "partial"
        assert result.trace["counters"].get("partial_hits") == 1
        stats = service.stats()
        assert stats["adaptive"]["hits"] >= 1
        assert (
            service.metrics.get("pmbc_adaptive_hits_total").total() >= 1
        )


def test_partial_answer_matches_other_backends(medium_planted_graph):
    config = adaptive_config(hot_threshold=2.0)
    with PMBCService(medium_planted_graph, config=config) as service:
        cold = service.query(Side.UPPER, 0, 2, 2)
        assert cold.backend != "partial"
        warm_up(service, Side.UPPER, 0, 2, 2)
        warm = service.query(Side.UPPER, 0, 2, 2)
        assert warm.backend == "partial"
        if cold.biclique is None:
            assert warm.biclique is None
        else:
            assert warm.biclique.shape == cold.biclique.shape


def test_miss_falls_through_without_fallback_count(paper_graph):
    with PMBCService(paper_graph, config=adaptive_config()) as service:
        result = service.query(Side.UPPER, 0, 1, 1)
        assert result.backend in ("engine", "process")
        assert result.biclique is not None
        stats = service.stats()
        assert stats["adaptive"]["misses"] >= 1
        fallbacks = service.metrics.get("pmbc_backend_fallbacks_total")
        assert fallbacks.total() == 0


def test_batch_served_by_partial_only_when_fully_covered(paper_graph):
    with PMBCService(paper_graph, config=adaptive_config()) as service:
        warm_up(service, Side.UPPER, 0)
        hot = [(Side.UPPER.value, 0, 1, 1), (Side.UPPER.value, 0, 2, 1)]
        assert service.query_batch(hot).backend == "partial"
        mixed = hot + [(Side.LOWER.value, 0, 1, 1)]
        assert service.query_batch(mixed).backend != "partial"


# ----------------------------------------------------------------------
# hot signal

def test_admission_feeds_hot_set(paper_graph):
    config = adaptive_config(hot_threshold=100.0)  # never promote
    with PMBCService(paper_graph, config=config) as service:
        service.query(Side.UPPER, 1, 1, 1)
        service.query_batch([(Side.LOWER.value, 2, 1, 1)] * 3)
        assert service.hot_set.count(Side.UPPER, 1) == pytest.approx(
            1.0, rel=1e-3
        )
        assert service.hot_set.count(Side.LOWER, 2) == pytest.approx(
            3.0, rel=1e-3
        )


# ----------------------------------------------------------------------
# budget enforcement


def test_budget_enforced_with_evictions(medium_planted_graph):
    # A budget of a few KiB forces the builder to evict while the whole
    # layer goes hot; resident bytes must never exceed it.
    config = adaptive_config(
        index_budget_mb=4 / 1024, hot_threshold=2.0
    )
    with PMBCService(medium_planted_graph, config=config) as service:
        budget = config.index_budget_bytes
        for vertex in range(medium_planted_graph.num_upper):
            for __ in range(3):
                service.query(Side.UPPER, vertex, 1, 1)
            assert service.partial_index.total_bytes <= budget
        service.builder.drain(10.0)
        assert service.partial_index.total_bytes <= budget
        assert service.partial_index.evictions_total > 0


# ----------------------------------------------------------------------
# coverage reporting


def test_stats_report_adaptive_coverage(paper_graph):
    with PMBCService(paper_graph, config=adaptive_config()) as service:
        warm_up(service, Side.UPPER, 0)
        coverage = service.stats()["index_coverage"]
        total = paper_graph.num_upper + paper_graph.num_lower
        assert coverage["total_vertices"] == total
        assert coverage["prebuilt"] is None
        adaptive = coverage["adaptive"]
        assert adaptive["vertices"] >= 1
        assert adaptive["fraction"] == pytest.approx(
            adaptive["vertices"] / total
        )
        assert 0 < adaptive["bytes"] <= adaptive["budget_bytes"]


def test_stats_report_prebuilt_coverage(paper_graph):
    index = build_index_star(paper_graph)
    with PMBCService(paper_graph, index=index) as service:
        coverage = service.stats()["index_coverage"]
        prebuilt = coverage["prebuilt"]
        assert prebuilt is not None
        assert prebuilt["vertices"] > 0
        assert 0 < prebuilt["fraction"] <= 1
        assert prebuilt["bytes"] == index.total_size_bytes()
        assert coverage["adaptive"] is None
        assert service.stats()["adaptive"] is None


# ----------------------------------------------------------------------
# invalidation


def test_invalidate_edge_drops_then_rebuilds(paper_graph):
    with PMBCService(paper_graph, config=adaptive_config()) as service:
        warm_up(service, Side.UPPER, 0)
        v = paper_graph.neighbors(Side.UPPER, 0)[0]
        dropped = service.invalidate_edge(0, v)
        assert (Side.UPPER, 0) in dropped
        # Still hot, so the next sweep rebuilds it.
        assert service.builder.drain(10.0)
        assert service.query(Side.UPPER, 0, 1, 1).backend == "partial"


def test_invalidate_edge_noop_without_adaptive(paper_graph):
    with PMBCService(paper_graph) as service:
        assert service.invalidate_edge(0, 0) == []


# ----------------------------------------------------------------------
# a build that races an update


class _HeldBuild:
    """Build substrate frozen on the pre-update graph.

    The first ``build_tree`` runs, then blocks until :attr:`release` is
    set: a background build that started before an update and finishes
    after the update's eviction.  Later builds fail, so no other tree
    can become resident meanwhile.
    """

    def __init__(self, graph):
        self._inner = create_executor("thread", graph, num_workers=1)
        self.built = threading.Event()
        self.release = threading.Event()
        self.calls = 0

    def run(self, task, item):
        self.calls += 1
        if self.calls > 1:
            raise RuntimeError("only the held build runs")
        result = self._inner.run(task, item)
        self.built.set()
        self.release.wait(10.0)
        return result

    def close(self):
        self._inner.close()


def _edges_of(biclique):
    return biclique.num_edges if biclique is not None else 0


def _answer_changing_delete(graph, tau):
    """An upper vertex ``q``, a neighbor ``w`` and the graph rebuilt
    without edge ``(q, w)``, such that the deletion changes q's answer."""
    for q in range(graph.num_upper):
        before = pmbc_online(graph, Side.UPPER, q, tau, tau)
        if before is None:
            continue
        for w in sorted(before.lower):
            adj = [
                list(graph.neighbors(Side.UPPER, u))
                for u in range(graph.num_upper)
            ]
            adj[q].remove(w)
            rebuilt = BipartiteGraph(adj, num_lower=graph.num_lower)
            after = pmbc_online(rebuilt, Side.UPPER, q, tau, tau)
            if _edges_of(after) != before.num_edges:
                return q, w, rebuilt
    raise AssertionError("no answer-changing deletion in this graph")


def test_build_that_raced_an_update_is_not_served(medium_planted_graph):
    tau = 2
    q, w, rebuilt = _answer_changing_delete(medium_planted_graph, tau)
    held = _HeldBuild(medium_planted_graph)
    try:
        config = adaptive_config(hot_threshold=2.0)
        with PMBCService(medium_planted_graph, config=config) as service:
            service.builder.update_graph(service.graph, executor=held)
            for __ in range(3):
                service.query(Side.UPPER, q, tau, tau)
            assert held.built.wait(10.0), "the hot vertex was never built"
            # The pre-update tree is built but not yet stored; q is in
            # the affected set of its own edge (q, w).
            service.update_batch([("delete", q, w)])
            held.release.set()
            deadline = time.monotonic() + 10.0
            while service.builder.builds_total == 0:
                assert time.monotonic() < deadline, "held build never landed"
                time.sleep(0.01)
            assert (Side.UPPER, q) not in service.partial_index
            assert service.partial_index.stale_puts_total == 1
            result = service.query(Side.UPPER, q, tau, tau)
            assert result.backend != "partial"
            expected = pmbc_online(rebuilt, Side.UPPER, q, tau, tau)
            assert _edges_of(result.biclique) == _edges_of(expected)
    finally:
        held.release.set()
        held.close()


# ----------------------------------------------------------------------
# persistence and warm restart


def test_warm_restart_from_persisted_hot_set(tmp_path, paper_graph):
    path = str(tmp_path / "hot.pmbc")
    config = adaptive_config(adaptive_persist_path=path)
    with PMBCService(paper_graph, config=config) as service:
        warm_up(service, Side.UPPER, 0)
    with PMBCService(paper_graph, config=config) as restarted:
        assert restarted.stats()["adaptive"]["warm_restored"] >= 1
        result = restarted.query(Side.UPPER, 0, 1, 1)
        assert result.backend == "partial"


def test_restart_with_corrupt_snapshot_starts_cold(tmp_path, paper_graph):
    path = tmp_path / "hot.json"
    path.write_text("{not json")
    config = adaptive_config(adaptive_persist_path=str(path))
    with PMBCService(paper_graph, config=config) as service:
        assert service.stats()["adaptive"]["warm_restored"] == 0
        assert service.query(Side.UPPER, 0, 1, 1).biclique is not None


def test_restart_with_mismatched_graph_starts_cold(
    tmp_path, paper_graph, small_random_graph
):
    path = str(tmp_path / "hot.json")
    config = adaptive_config(adaptive_persist_path=path)
    with PMBCService(paper_graph, config=config) as service:
        warm_up(service, Side.UPPER, 0)
    with PMBCService(small_random_graph, config=config) as other:
        assert other.stats()["adaptive"]["warm_restored"] == 0


# ----------------------------------------------------------------------
# lifecycle (deterministic shutdown)


def test_close_stops_builder_before_executor(paper_graph):
    service = PMBCService(paper_graph, config=adaptive_config()).start()
    warm_up(service, Side.UPPER, 0)
    service.close()
    assert service.builder.closed
    assert not service.builder.running
    assert all(
        t.name != "pmbc-adaptive-builder" for t in threading.enumerate()
    )
    service.close()  # idempotent


def test_close_without_wait_signals_builder(paper_graph):
    service = PMBCService(paper_graph, config=adaptive_config()).start()
    service.close(wait=False)
    assert service.builder.closed


def test_context_manager_cleans_up_builder_thread(paper_graph):
    before = {
        t.name for t in threading.enumerate()
    }
    with PMBCService(paper_graph, config=adaptive_config()) as service:
        service.query(Side.UPPER, 0, 1, 1)
    leaked = {
        t.name
        for t in threading.enumerate()
        if t.name.startswith(("pmbc-adaptive", "pmbc-serve"))
    } - before
    assert not leaked


# ----------------------------------------------------------------------
# config


def test_non_adaptive_service_has_no_adaptive_parts(paper_graph):
    with PMBCService(paper_graph) as service:
        assert service.hot_set is None
        assert service.partial_index is None
        assert service.builder is None
        assert "partial" not in service.backend_names


def test_config_validation():
    for kwargs in (
        {"index_budget_mb": 0},
        {"hot_threshold": 0},
        {"hot_half_life": 0},
        {"build_interval": 0},
        {"persist_interval": 0},
    ):
        with pytest.raises(ValueError):
            ServiceConfig(adaptive=True, **kwargs)


def test_index_budget_bytes_conversion():
    config = ServiceConfig(adaptive=True, index_budget_mb=2.0)
    assert config.index_budget_bytes == 2 * 1024 * 1024
