"""PMBCService with the traffic-adaptive partial index enabled."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.core.construction_star import build_index_star
from repro.core.online import pmbc_online
from repro.core.query import QueryRequest
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
        assert result.backend == "engine"
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
# resident answers at admission


def _tier_counters(service):
    """The per-request accounting a served answer must move."""
    metrics = service.metrics
    stats = service.stats()
    return {
        "partial_queries": metrics.get("pmbc_backend_queries_total").value(
            backend="partial"
        ),
        "engine_queries": metrics.get("pmbc_backend_queries_total").value(
            backend="engine"
        ),
        "hits": metrics.get("pmbc_adaptive_hits_total").total(),
        "misses": metrics.get("pmbc_adaptive_misses_total").total(),
        "ok": stats["requests"]["ok"],
        "latency": stats["latency_seconds"]["count"],
        "traces": stats["traces"]["recorded"],
        "queue_waits": stats["queue_wait_seconds"]["count"],
        "leaders": stats["singleflight"]["leaders"],
    }


def _moved(before, after):
    return {key: after[key] - before[key] for key in before}


def test_partial_hit_answers_at_admission_counted_once(paper_graph):
    with PMBCService(paper_graph, config=adaptive_config()) as service:
        warm_up(service, Side.UPPER, 0)
        before = _tier_counters(service)
        hit = service.query(
            QueryRequest(Side.UPPER, 0, 1, 1, trace_id="hit-1"), explain=True
        )
        assert hit.backend == "partial"
        assert hit.queue_seconds == 0
        assert not hit.shared
        assert _moved(before, _tier_counters(service)) == {
            "partial_queries": 1,
            "engine_queries": 0,
            "hits": 1,
            "misses": 0,
            "ok": 1,
            "latency": 1,
            "traces": 1,
            "queue_waits": 0,
            "leaders": 0,
        }
        assert hit.trace["trace_id"] == "hit-1"
        assert service.traces.find("hit-1")["meta"]["backend"] == "partial"

        # A vertex with no resident tree falls through to the engine:
        # one adaptive miss, one queued search.
        assert (Side.LOWER, 0) not in service.partial_index
        before = _tier_counters(service)
        miss = service.query(Side.LOWER, 0, 1, 1)
        assert miss.backend == "engine"
        assert _moved(before, _tier_counters(service)) == {
            "partial_queries": 1,
            "engine_queries": 1,
            "hits": 0,
            "misses": 1,
            "ok": 1,
            "latency": 1,
            "traces": 1,
            "queue_waits": 1,
            "leaders": 1,
        }


def test_batch_lookups_run_at_admission_only(paper_graph):
    with PMBCService(paper_graph, config=adaptive_config()) as service:
        warm_up(service, Side.UPPER, 0)
        lookup = service.partial_index.lookup
        callers = []

        def spy(*args):
            callers.append(threading.current_thread())
            return lookup(*args)

        service.partial_index.lookup = spy
        hot = [(Side.UPPER.value, 0, 1, 1), (Side.UPPER.value, 0, 2, 1)]
        before = _tier_counters(service)
        resident = service.query_batch(hot)
        assert resident.backend == "partial"
        assert resident.queue_seconds == 0
        moved = _moved(before, _tier_counters(service))
        assert moved["hits"] == len(hot)
        assert moved["queue_waits"] == 0

        mixed = hot + [(Side.LOWER.value, 0, 1, 1)]
        before = _tier_counters(service)
        searched = service.query_batch(mixed)
        assert searched.backend == "engine"
        moved = _moved(before, _tier_counters(service))
        assert moved["partial_queries"] == 1
        assert moved["misses"] == len(mixed)
        assert moved["queue_waits"] == 1
        # Every lookup ran on the admitting thread; the worker walk
        # started at the search tiers.
        assert callers
        assert all(t is threading.current_thread() for t in callers)


def test_concurrent_admission_answers_are_counted_exactly_once(paper_graph):
    """Many caller threads hitting and missing the partial tier at once."""
    config = adaptive_config(num_workers=2, max_queue=256)
    with PMBCService(paper_graph, config=config) as service:
        warm_up(service, Side.UPPER, 0)
        before = _tier_counters(service)
        rounds, callers = 25, 8
        backends: list[str] = []
        errors: list[BaseException] = []
        lock = threading.Lock()

        def caller(offset: int) -> None:
            try:
                for i in range(rounds):
                    # Even rounds hit the resident tree; odd ones ask
                    # for a family the partial tier declines, so they
                    # miss without feeding the hot set (no new builds).
                    if i % 2 == 0:
                        request = QueryRequest(Side.UPPER, 0, 1, 1)
                    else:
                        vertex = (offset + i) % paper_graph.num_upper
                        request = QueryRequest(
                            Side.UPPER, vertex, objective="balanced"
                        )
                    result = service.query(request)
                    with lock:
                        backends.append(result.backend)
            except Exception as exc:  # surfaced by the assert below
                with lock:
                    errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=caller, args=(i,))
                for i in range(callers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        total = rounds * callers
        hits = backends.count("partial")
        assert len(backends) == total
        assert hits == callers * ((rounds + 1) // 2)
        moved = _moved(before, _tier_counters(service))
        assert moved["partial_queries"] == total
        assert moved["hits"] == hits
        assert moved["misses"] == total - hits
        assert moved["ok"] == total
        assert moved["latency"] == total
        assert moved["queue_waits"] == total - hits
        assert service.stats()["queue"]["depth"] == 0


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
            service.builder._executor = held
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
    nan, inf = float("nan"), float("inf")
    for kwargs in (
        {"index_budget_mb": 0},
        {"hot_threshold": 0},
        {"hot_half_life": 0},
        {"build_interval": 0},
        {"persist_interval": 0},
        {"index_budget_mb": nan},
        {"hot_threshold": nan},
        {"hot_half_life": nan},
        {"build_interval": nan},
        {"persist_interval": nan},
        {"index_budget_mb": inf},
        {"build_interval": inf},
    ):
        with pytest.raises(ValueError):
            ServiceConfig(adaptive=True, **kwargs)
    # inf means "never" where it is safe: no decay, save only at close.
    ServiceConfig(adaptive=True, hot_half_life=inf, persist_interval=inf)


def test_index_budget_bytes_conversion():
    config = ServiceConfig(adaptive=True, index_budget_mb=2.0)
    assert config.index_budget_bytes == 2 * 1024 * 1024
