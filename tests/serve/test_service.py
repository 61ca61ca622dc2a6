"""Behavioural tests for :class:`repro.serve.service.PMBCService`.

Covers the ISSUE's required scenarios: concurrent correctness against
sequential answers, deadline handling, queue-full admission control,
single-flight dedup (backend runs once), and backend degradation.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import build_index_star, pmbc_online_star
from repro.core.query import QueryRequest
from repro.graph.bipartite import Side
from repro.serve import (
    DeadlineExceededError,
    InvalidRequestError,
    PMBCService,
    QueueFullError,
    ServiceClosedError,
    ServiceConfig,
)


class _SlowBackend:
    """A controllable backend used to create sustained load."""

    name = "slow"

    def __init__(self, delay: float = 0.0, release: threading.Event | None = None):
        self.delay = delay
        self.release = release
        self.calls = 0
        self._lock = threading.Lock()

    def query(self, request):
        with self._lock:
            self.calls += 1
        if self.release is not None:
            self.release.wait(10)
        if self.delay:
            time.sleep(self.delay)
        return None


class _FailingBackend:
    name = "failing"

    def __init__(self):
        self.calls = 0

    def query(self, request):
        self.calls += 1
        raise RuntimeError("synthetic backend outage")


# ----------------------------------------------------------------------
# correctness under concurrency


def test_concurrent_results_match_sequential(medium_planted_graph):
    graph = medium_planted_graph
    index = build_index_star(graph)
    workload = [
        (side, vertex, tau_u, tau_l)
        for side in Side
        for vertex in range(0, graph.num_vertices_on(side), 3)
        for tau_u, tau_l in ((1, 1), (2, 2))
    ]
    expected = {
        req: pmbc_online_star(graph, req[0], req[1], req[2], req[3])
        for req in workload
    }

    config = ServiceConfig(num_workers=8, max_queue=512)
    results: dict[tuple, object] = {}
    errors: list[BaseException] = []
    lock = threading.Lock()

    with PMBCService(graph, index=index, config=config) as service:

        def client(offset: int) -> None:
            mine = workload[offset:] + workload[:offset]
            for req in mine:
                try:
                    outcome = service.query(*req)
                except BaseException as exc:
                    with lock:
                        errors.append(exc)
                    return
                with lock:
                    results[req] = outcome.biclique

        threads = [
            threading.Thread(target=client, args=(i * 7,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = service.stats()

    assert not errors
    assert len(results) == len(workload)
    for req, answer in results.items():
        reference = expected[req]
        if reference is None:
            assert answer is None, req
        else:
            assert answer is not None, req
            # Maxima are not unique; compare by objective value.
            assert answer.num_edges == reference.num_edges, req
            assert answer.satisfies(req[2], req[3])
            assert answer.contains(req[0], req[1])
            assert answer.is_valid_in(graph)
    served = stats["requests"]["ok"] + stats["requests"]["empty"]
    assert served == len(workload) * 8
    assert stats["latency_seconds"]["count"] == served


# ----------------------------------------------------------------------
# deadlines


def test_deadline_exceeded_while_computing(paper_graph):
    release = threading.Event()
    config = ServiceConfig(num_workers=1, max_queue=8)
    with PMBCService(paper_graph, config=config) as service:
        service._backends = [_SlowBackend(release=release)]
        start = time.monotonic()
        with pytest.raises(DeadlineExceededError):
            service.query(Side.UPPER, 0, deadline=0.1)
        elapsed = time.monotonic() - start
        assert elapsed < 5  # returned on the deadline, not the backend
        release.set()
        deadline = time.monotonic() + 5
        while (
            service.stats()["requests"]["deadline_exceeded"] < 1
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
    assert service.stats()["requests"]["deadline_exceeded"] == 1


def test_deadline_expired_in_queue(paper_graph):
    release = threading.Event()
    backend = _SlowBackend(release=release)
    config = ServiceConfig(num_workers=1, max_queue=8)
    with PMBCService(paper_graph, config=config) as service:
        service._backends = [backend]
        # Occupy the single worker, then queue a request with a tiny
        # budget; it must expire before any backend call.
        blocker = service.submit(Side.UPPER, 0, deadline=30)
        queued = service.submit(Side.UPPER, 1, deadline=0.05)
        time.sleep(0.2)
        release.set()
        with pytest.raises(DeadlineExceededError):
            queued.result(timeout=5)
        blocker.result(timeout=5)
    assert backend.calls == 1  # the expired request never ran


def test_invalid_deadline_rejected(paper_graph):
    with PMBCService(paper_graph, config=ServiceConfig(num_workers=1)) as s:
        with pytest.raises(InvalidRequestError):
            s.query(Side.UPPER, 0, deadline=-1)


# ----------------------------------------------------------------------
# admission control


def test_queue_full_rejects_immediately(paper_graph):
    release = threading.Event()
    backend = _SlowBackend(release=release)
    config = ServiceConfig(num_workers=1, max_queue=2)
    with PMBCService(paper_graph, config=config) as service:
        service._backends = [backend]
        # One request occupies the worker ...
        futures = [service.submit(Side.UPPER, 0)]
        deadline = time.monotonic() + 5
        while backend.calls < 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert backend.calls == 1
        # ... and two more fill the queue.
        futures += [service.submit(Side.UPPER, v) for v in (1, 2)]
        start = time.monotonic()
        with pytest.raises(QueueFullError):
            for v in range(3, 10):
                service.submit(Side.UPPER, v)
        assert time.monotonic() - start < 1  # rejected, not blocked
        assert service.stats()["requests"]["queue_full"] >= 1
        release.set()
        for future in futures:
            future.result(timeout=5)


def test_index_answers_at_admission_while_queue_is_full(paper_graph):
    release = threading.Event()
    slow = _SlowBackend(release=release)
    config = ServiceConfig(num_workers=1, max_queue=2)
    index = build_index_star(paper_graph)
    with PMBCService(paper_graph, index=index, config=config) as service:
        # The mounted index, then a search tier that holds the worker.
        service._backends = [service._index_backend, slow]

        def balanced(vertex):
            # The index declines this family, so it goes to the queue.
            return QueryRequest(Side.UPPER, vertex, objective="balanced")

        futures = [service.submit(balanced(0))]
        deadline = time.monotonic() + 5
        while slow.calls < 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert slow.calls == 1
        futures += [service.submit(balanced(v)) for v in (1, 2)]
        assert service.stats()["queue"]["depth"] == 2

        result = service.query(Side.UPPER, 3, 1, 1)
        assert result.backend == "index"
        assert result.queue_seconds == 0
        expected = pmbc_online_star(paper_graph, Side.UPPER, 3, 1, 1)
        assert result.biclique.num_edges == expected.num_edges
        with pytest.raises(QueueFullError):
            service.submit(balanced(4))
        release.set()
        for future in futures:
            future.result(timeout=5)
        stats = service.stats()
    assert stats["requests"]["queue_full"] == 1
    assert stats["queue_wait_seconds"]["count"] == 3  # the queued three


# ----------------------------------------------------------------------
# single-flight dedup


def test_identical_concurrent_queries_run_backend_once(paper_graph):
    release = threading.Event()
    backend = _SlowBackend(release=release)
    config = ServiceConfig(num_workers=8, max_queue=64)
    with PMBCService(paper_graph, config=config) as service:
        service._backends = [backend]
        futures = [
            service.submit(Side.UPPER, 0, 1, 1, deadline=10)
            for __ in range(8)
        ]
        # Wait until every worker has picked its request up and joined
        # the flight, then let the leader finish.
        deadline = time.monotonic() + 5
        while backend.calls < 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        time.sleep(0.1)
        release.set()
        outcomes = [f.result(timeout=10) for f in futures]
        stats = service.stats()

    assert backend.calls == 1  # deduplicated: the backend ran once
    shared = [o for o in outcomes if o.shared]
    assert len(shared) == 7
    assert stats["singleflight"]["leaders"] == 1
    assert stats["singleflight"]["shared"] >= 7


def test_different_keys_are_not_deduplicated(paper_graph):
    backend = _SlowBackend()
    config = ServiceConfig(num_workers=4, max_queue=64)
    with PMBCService(paper_graph, config=config) as service:
        service._backends = [backend]
        futures = [
            service.submit(Side.UPPER, 0, tau, 1) for tau in range(1, 5)
        ]
        for f in futures:
            f.result(timeout=5)
    assert backend.calls == 4


# ----------------------------------------------------------------------
# degradation


def test_fallback_to_next_backend_on_failure(paper_graph):
    failing = _FailingBackend()
    config = ServiceConfig(num_workers=2, max_queue=16)
    with PMBCService(paper_graph, config=config) as service:
        service._backends = [failing] + service._backends[-2:]
        outcome = service.query(Side.UPPER, 0, 1, 1)
        stats = service.stats()
    assert failing.calls == 1
    assert outcome.backend == "engine"
    assert outcome.biclique is not None
    expected = pmbc_online_star(paper_graph, Side.UPPER, 0, 1, 1)
    assert outcome.biclique.num_edges == expected.num_edges
    assert stats["requests"]["ok"] == 1


def test_index_primary_engine_fallback_order(paper_graph):
    index = build_index_star(paper_graph)
    with PMBCService(paper_graph, index=index) as service:
        assert service.backend_names == ("index", "engine", "online")
        assert service.query(Side.UPPER, 0).backend == "index"
    with PMBCService(paper_graph) as service:
        assert service.backend_names == ("engine", "online")
        assert service.query(Side.UPPER, 0).backend == "engine"


# ----------------------------------------------------------------------
# validation + lifecycle


def test_invalid_requests_never_enter_the_queue(paper_graph):
    with PMBCService(paper_graph, config=ServiceConfig(num_workers=1)) as s:
        with pytest.raises(InvalidRequestError):
            s.query(Side.UPPER, 10_000)
        with pytest.raises(InvalidRequestError):
            s.query(Side.UPPER, 0, tau_u=0)
        with pytest.raises(InvalidRequestError):
            s.query("upper", 0)  # not a Side
        assert s.stats()["requests"]["invalid"] == 3
        assert s.stats()["queue"]["depth"] == 0


def test_closed_service_rejects(paper_graph):
    service = PMBCService(paper_graph, config=ServiceConfig(num_workers=1))
    with pytest.raises(ServiceClosedError):
        service.query(Side.UPPER, 0)  # never started
    service.start()
    service.close()
    with pytest.raises(ServiceClosedError):
        service.query(Side.UPPER, 0)
    service.close()  # idempotent


def test_engine_cache_is_shared_across_requests(paper_graph):
    with PMBCService(paper_graph, config=ServiceConfig(num_workers=4)) as s:
        for __ in range(6):
            s.query(Side.UPPER, 0, 1, 1)
        cache = s.stats()["engine_cache"]
    # Single-flight may collapse some, but repeats must hit the LRU.
    assert cache["hits"] + cache["misses"] >= 1
    assert cache["misses"] >= 1
    assert cache["hit_rate"] <= 1.0
