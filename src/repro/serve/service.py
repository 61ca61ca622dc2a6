"""The query-serving service: queueing, workers, deadlines, fallback.

:class:`PMBCService` turns the in-process query stack
(:func:`~repro.core.query.pmbc_index_query`,
:class:`~repro.core.engine.PMBCQueryEngine`,
:func:`~repro.core.online.pmbc_online_star`) into a shared service
suitable for heavy concurrent traffic:

- **answers at admission** from the lookup tiers (adaptive partial
  index, mounted index): they read a resident tree in O(deg(q)+|C|)
  (PMBC-IQ), so admission walks them on the caller's thread and a hit
  is settled before :meth:`PMBCService.admit` returns — no queue slot,
  no worker hop;
- a **bounded request queue** with admission control for everything
  the lookup tiers miss — when the queue is full new searches are
  rejected immediately (:class:`QueueFullError`, the HTTP front-end
  maps it to 429) instead of building an unbounded backlog;
- a **worker pool** draining the queue through the search tiers, so
  one shared engine (and its two-hop LRU) serves every caller;
- **per-request deadlines** with cooperative timeout: expired requests
  are dropped at dequeue time without touching the backend, and
  waiting callers get :class:`DeadlineExceededError` as soon as their
  budget runs out even if a worker is still computing;
- **single-flight deduplication** of identical concurrent
  ``(side, vertex, tau_u, tau_l, objective)`` searches (see
  :mod:`repro.serve.singleflight`);
- **searches on the worker threads**: the CPU-bound branch-and-bound
  runs in the worker thread that dequeued the request, through the
  service's one :class:`~repro.exec.ThreadBackend` over the shared
  engine;
- a **batch path** (:meth:`PMBCService.query_batch`): one admission
  for many :class:`~repro.core.query.QueryRequest`, grouped by query
  vertex so shared two-hop extractions and the once-per-graph core
  bounds are amortized across the whole batch;
- **graceful degradation** across backends: adaptive partial index
  (when enabled) → index → caching engine → plain online search,
  falling through on unexpected backend failure; a
  lookup-tier *miss* (vertex not resident, or an objective the index
  cannot answer) falls through cleanly without counting as a failure;
- an optional **traffic-adaptive partial index**
  (``ServiceConfig(adaptive=True)``, see :mod:`repro.adaptive`):
  admission feeds a decayed hot-set tracker, a background builder
  constructs hot vertices' search trees off the request path under a
  byte budget, and the resulting trees serve the head of the traffic
  distribution at index speed;
- **streaming graph updates** (:meth:`PMBCService.update_batch`): edge
  insertions/deletions run the update path of
  :mod:`repro.core.dynamic`, the same one
  :class:`~repro.core.dynamic.DynamicPMBCIndex` runs — incremental
  (α,β)-core repair, scoped invalidation of engine cache / partial
  index / mounted index trees via
  :func:`~repro.core.dynamic.edge_affected_sets`, and a two-phase
  ordering that keeps concurrent queries sound: inserts repair bounds
  *before* the graph swap (raised bounds are still valid upper bounds
  for the old graph), deletions swap *before* repairing (the old
  bounds stay valid-looser for the shrunk graph).  The service adds
  its lock, the wire-only checks, the graph swap and the metrics;
- **metrics** for all of the above (see :mod:`repro.serve.metrics`).
"""

from __future__ import annotations

import math
import queue
import threading
import time
from concurrent.futures import Future, InvalidStateError
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field

from repro.adaptive.builder import BackgroundBuilder
from repro.adaptive.hotset import HotSetTracker
from repro.adaptive.partial import MISS, PartialIndex
from repro.core.dynamic import LiveGraph, coerce_updates, repair_trees
from repro.core.engine import PMBCQueryEngine
from repro.core.index import PMBCIndex
from repro.core.online import pmbc_online_star
from repro.core.query import QueryRequest, pmbc_index_query
from repro.core.result import Biclique
from repro.exec.executor import ThreadBackend
from repro.exec.tasks import WorkerState
from repro.graph.bipartite import BipartiteGraph, Side
from repro.kernel import KERNEL_KINDS
from repro.objectives import get_objective, objective_kinds
from repro.obs.metrics_bridge import publish_trace, register_search_metrics
from repro.obs.ring import TraceRing
from repro.obs.trace import PRUNE_RULES, SearchTrace, use_trace
from repro.serve.metrics import MetricsRegistry
from repro.serve.singleflight import SingleFlight, SingleFlightTimeout

__all__ = [
    "PMBCService",
    "ServiceConfig",
    "QueryResult",
    "BatchResult",
    "UpdateResult",
    "Submission",
    "ServeError",
    "InvalidRequestError",
    "QueueFullError",
    "DeadlineExceededError",
    "ServiceClosedError",
    "BackendError",
]

#: How far past a layer's current size an inserted edge may name a new
#: vertex.  Every id in between becomes an isolated vertex, so without
#: a bound one ``/update`` request could make the service allocate
#: without limit.
MAX_LAYER_GROWTH = 1024


class ServeError(Exception):
    """Base class for service-level failures."""

    #: HTTP status the front-end reports for this error class.
    http_status = 500


class InvalidRequestError(ServeError):
    """Malformed request: unknown side, vertex out of range, bad taus."""

    http_status = 400


class QueueFullError(ServeError):
    """Admission control rejected the request (queue at capacity)."""

    http_status = 429


class DeadlineExceededError(ServeError):
    """The request's deadline expired before an answer was produced."""

    http_status = 504


class ServiceClosedError(ServeError):
    """The service is shut down (or shutting down)."""

    http_status = 503


class BackendError(ServeError):
    """Every backend in the degradation chain failed."""

    http_status = 500


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for :class:`PMBCService`.

    Attributes
    ----------
    num_workers:
        Size of the worker thread pool.
    max_queue:
        Bound on queued (admitted, not yet running) requests; beyond
        it new requests fail with :class:`QueueFullError`.
    default_deadline:
        Per-request budget in seconds applied when the caller gives
        none; ``None`` disables the default (requests wait forever).
    cache_size:
        LRU capacity of the shared :class:`PMBCQueryEngine`.
    kernel:
        Compute kernel (``"bitset"``/``"set"``) for every search the
        service runs — the shared engine and the adaptive builder both
        inherit it.  ``None`` means ``"bitset"``.
    use_core_bounds:
        Precompute (α,β)-core bounds for the engine/online fallbacks
        (PMBC-OL* mode).  Disable for faster startup on huge graphs.
    trace_ring_size:
        How many recent trace summaries ``/debug/traces`` retains.
    adaptive:
        Enable the traffic-adaptive partial index (:mod:`repro.adaptive`):
        a hot-set tracker fed at admission, a background builder, and a
        budgeted partial-index tier at the top of the degradation chain.
    index_budget_mb:
        Memory budget (MiB, paper storage model) for adaptive trees;
        exceeding it evicts least-recently-used entries.
    hot_threshold:
        Decayed query count at which a vertex is promoted to a build
        candidate.
    hot_half_life:
        Seconds for an untouched hot-set counter to halve.
    build_interval:
        Seconds between background build sweeps.
    adaptive_persist_path:
        When set, the hot set is periodically saved there (unified
        ``index.save`` format) and re-warmed from on startup.
    persist_interval:
        Seconds between hot-set persistence snapshots.
    """

    num_workers: int = 8
    max_queue: int = 64
    default_deadline: float | None = 30.0
    cache_size: int = 256
    kernel: str | None = None
    use_core_bounds: bool = True
    trace_ring_size: int = 256
    adaptive: bool = False
    index_budget_mb: float = 64.0
    hot_threshold: float = 3.0
    hot_half_life: float = 300.0
    build_interval: float = 0.1
    adaptive_persist_path: str | None = None
    persist_interval: float = 30.0

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {self.cache_size}")
        if self.default_deadline is not None and not (
            0 < self.default_deadline <= threading.TIMEOUT_MAX
        ):
            raise ValueError(
                f"default_deadline must be in (0, {threading.TIMEOUT_MAX:g}], "
                f"got {self.default_deadline}"
            )
        if self.kernel is not None and self.kernel not in KERNEL_KINDS:
            raise ValueError(
                f"kernel must be one of {KERNEL_KINDS}, got {self.kernel!r}"
            )
        if self.trace_ring_size < 1:
            raise ValueError(
                f"trace_ring_size must be >= 1, got {self.trace_ring_size}"
            )
        # ``not x > 0`` also rejects NaN, which passes every ``<=`` test.
        # inf stays valid where it means "never": no hot-set decay, or
        # no persistence before shutdown.
        for name in ("hot_threshold", "hot_half_life", "persist_interval"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if not 0 < self.index_budget_mb < math.inf:
            raise ValueError(
                "index_budget_mb must be positive and finite, "
                f"got {self.index_budget_mb}"
            )
        # The builder's sweeper waits this long on an Event.
        if not 0 < self.build_interval <= threading.TIMEOUT_MAX:
            raise ValueError(
                f"build_interval must be in (0, {threading.TIMEOUT_MAX:g}], "
                f"got {self.build_interval}"
            )

    @property
    def index_budget_bytes(self) -> int:
        """The adaptive memory budget in bytes."""
        return int(self.index_budget_mb * 1024 * 1024)


@dataclass(frozen=True)
class QueryResult:
    """A served answer plus serving metadata."""

    biclique: Biclique | None
    backend: str
    shared: bool            # single-flight collapsed this request
    queue_seconds: float    # admission -> worker pickup; 0 for tier lookups
    total_seconds: float    # admission -> answer
    trace: dict | None = None   # search trace summary (explain requests)


@dataclass(frozen=True)
class BatchResult:
    """A served batch: per-request answers (in order) plus metadata."""

    bicliques: tuple[Biclique | None, ...]
    backend: str
    queue_seconds: float    # admission -> worker pickup; 0 for tier lookups
    total_seconds: float    # admission -> answer
    trace: dict | None = None   # search trace summary (explain requests)

    def __len__(self) -> int:
        return len(self.bicliques)


@dataclass(frozen=True)
class UpdateResult:
    """The outcome of one applied update batch."""

    applied: int            # effective edge mutations (net of collapses)
    noops: int              # requested updates that changed nothing
    inserts: int            # effective insertions
    deletes: int            # effective deletions
    trees_repaired: int     # mounted-index trees rebuilt in place
    evicted: int            # partial-index trees dropped
    cascade: int            # vertices touched by bound-repair cascades
    seconds: float          # wall time of the whole batch


@dataclass
class _Request:
    request: QueryRequest
    deadline: float | None          # absolute, time.monotonic() clock
    enqueued_at: float
    explain: bool = False
    future: Future = field(default_factory=Future)

    #: Requests one answer stands for (the adaptive hit/miss weight).
    size = 1

    @property
    def key(self) -> tuple[Side, int, int, int, str]:
        return self.request.key

    def remaining(self, now: float) -> float | None:
        return None if self.deadline is None else self.deadline - now

    def new_trace(self) -> SearchTrace:
        request = self.request
        trace = SearchTrace(trace_id=request.trace_id)
        trace.annotate(
            kind="query",
            query={
                "side": request.side.value,
                "vertex": request.vertex,
                "tau_u": request.tau_u,
                "tau_l": request.tau_l,
                "objective": request.objective,
            },
        )
        return trace

    def ask(self, backend) -> Biclique | None:
        return backend.query(self.request)


@dataclass
class _BatchRequest:
    requests: tuple[QueryRequest, ...]
    deadline: float | None          # absolute, time.monotonic() clock
    enqueued_at: float
    explain: bool = False
    future: Future = field(default_factory=Future)

    @property
    def size(self) -> int:
        return len(self.requests)

    def remaining(self, now: float) -> float | None:
        return None if self.deadline is None else self.deadline - now

    def new_trace(self) -> SearchTrace:
        # One trace covers the whole batch; its counters are totals.
        requests = self.requests
        trace = SearchTrace(
            trace_id=next(
                (r.trace_id for r in requests if r.trace_id), None
            )
        )
        objectives = {r.objective for r in requests}
        trace.annotate(
            kind="batch",
            batch_size=len(requests),
            objective=objectives.pop() if len(objectives) == 1 else "mixed",
        )
        return trace

    def ask(self, backend):
        batch_fn = getattr(backend, "query_batch", None)
        if batch_fn is not None:
            return list(batch_fn(self.requests))
        # Lookup tiers (and test doubles) have no batch plan; a lookup
        # touches no two-hop subgraph, so a plain loop is optimal.  A
        # batch is answered all-or-nothing: one miss sends the whole
        # batch on, so it stays a single backend walk.
        answers = []
        for request in self.requests:
            answer = backend.query(request)
            if answer is MISS:
                return MISS
            answers.append(answer)
        return answers


@dataclass
class Submission:
    """A non-blocking admission handle.

    :attr:`future` resolves to the :class:`QueryResult` /
    :class:`BatchResult` (or raises the terminal :class:`ServeError`).
    Async front-ends wrap it with :func:`asyncio.wrap_future` and, when
    their own wait times out, call :meth:`expire` to race the worker
    for the terminal outcome — exactly the settle race the blocking
    :meth:`PMBCService.query` path runs.

    Attributes
    ----------
    future:
        Resolves to the result, or raises the request's terminal error.
    budget:
        The effective deadline budget in seconds (the caller's, or the
        service default), ``None`` when the request may wait forever.
    """

    future: Future
    budget: float | None
    _expire: object = field(default=None, repr=False)

    def expire(self) -> bool:
        """Settle the request as ``deadline_exceeded`` if still pending.

        Returns True when this call won the race (the future now raises
        :class:`DeadlineExceededError`); False when a worker settled
        first, in which case :attr:`future` already holds the real
        outcome.
        """
        if self._expire is None:
            return False
        return self._expire()


class _PartialBackend:
    """The adaptive partial index: hot vertices at index speed.

    A query for a vertex without a resident tree answers
    :data:`repro.adaptive.MISS`, which the degradation walk treats as
    a clean fall-through to the next backend — not a failure, so the
    fallback counter stays untouched.  Requests for objectives the
    PMBC index storage model cannot answer decline the same way.
    """

    name = "partial"

    def __init__(self, partial: PartialIndex) -> None:
        self.partial = partial

    def query(self, request: QueryRequest) -> Biclique | None:
        if not get_objective(request.objective).index_compatible:
            return MISS
        return self.partial.lookup(
            request.side, request.vertex, request.tau_u, request.tau_l
        )


class _IndexBackend:
    """PMBC-IQ over a prebuilt index: the O(deg(q)+|C|) fast path.

    The index stores edge-count (PMBC) maxima only, so requests for
    other objectives decline with :data:`repro.adaptive.MISS` and fall
    through to the online tiers instead of answering the wrong family.
    """

    name = "index"

    def __init__(self, index: PMBCIndex) -> None:
        self._index = index

    def query(self, request: QueryRequest) -> Biclique | None:
        if not get_objective(request.objective).index_compatible:
            return MISS
        return pmbc_index_query(self._index, request)


class _ExecBackend:
    """The shared caching engine, run through the service's executor.

    :meth:`~repro.exec.ThreadBackend.run` calls the engine in the
    calling worker thread, so the active trace propagates through the
    context variable; the hop adds only the ``pmbc_exec_*`` metrics.
    """

    name = "engine"

    def __init__(self, executor: ThreadBackend) -> None:
        self.executor = executor

    def query(self, request: QueryRequest) -> Biclique | None:
        return self.executor.run("query", request)

    def query_batch(self, requests) -> list[Biclique | None]:
        return self.executor.run("query_batch", list(requests))


class _OnlineBackend:
    """Stateless PMBC-OL*: the last-resort fallback."""

    name = "online"

    def __init__(self, graph: BipartiteGraph, bounds=None, kernel=None) -> None:
        self._graph = graph
        self._bounds = bounds
        self._kernel = kernel

    def update_graph(self, graph: BipartiteGraph) -> None:
        """Swap onto a post-update snapshot (bounds repaired in place)."""
        self._graph = graph

    def query(self, request: QueryRequest) -> Biclique | None:
        return pmbc_online_star(
            self._graph, request, bounds=self._bounds, kernel=self._kernel
        )

    def query_batch(self, requests) -> list[Biclique | None]:
        from repro.core.online import pmbc_online_batch

        return pmbc_online_batch(
            self._graph,
            requests,
            bounds=self._bounds,
            use_core_bounds=self._bounds is not None,
            kernel=self._kernel,
        )


#: Backends that answer by reading a resident tree (PMBC-IQ,
#: O(deg(q)+|C|)) rather than by searching.  Admission walks the
#: leading run of them on the caller's thread; a request they all miss
#: is queued, and its worker walk starts at the first search tier.
_LOOKUP_TIERS = (_PartialBackend, _IndexBackend)


def _lookup_prefix(backends) -> int:
    """How many leading ``backends`` are lookup tiers."""
    count = 0
    for backend in backends:
        if not isinstance(backend, _LOOKUP_TIERS):
            break
        count += 1
    return count


class PMBCService:
    """A shared, instrumented personalized-biclique query service.

    Parameters
    ----------
    graph:
        The bipartite graph to serve.
    index:
        Optional prebuilt :class:`PMBCIndex`; when given it is the
        primary backend, with the engine and online search as
        fallbacks.  Without it the caching engine is primary.
    config:
        Service tunables (see :class:`ServiceConfig`).
    metrics:
        Optional shared registry; a fresh one is created by default.

    Use as a context manager, or call :meth:`start` / :meth:`close`::

        with PMBCService(graph, index=index) as service:
            result = service.query(Side.UPPER, 3, tau_u=2, tau_l=2)
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        index: PMBCIndex | None = None,
        config: ServiceConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.graph = graph
        self.metrics = metrics or MetricsRegistry()
        self.engine = PMBCQueryEngine(
            graph,
            use_core_bounds=self.config.use_core_bounds,
            cache_size=self.config.cache_size,
            kernel=self.config.kernel,
        )
        # Searches and adaptive builds run in the calling thread against
        # the shared engine (and its LRU).
        self._executor = ThreadBackend(
            graph,
            num_workers=self.config.num_workers,
            metrics=self.metrics,
            state=WorkerState(
                graph=graph,
                bounds=self.engine.bounds,
                cache_size=self.config.cache_size,
                kernel=self.engine.kernel,
                _engine=self.engine,
            ),
        )
        # The chain is fixed here: [partial] [index] engine online.
        self._backends: list[object] = []
        self._index_backend: _IndexBackend | None = None
        if index is not None:
            self._index_backend = _IndexBackend(index)
            self._backends.append(self._index_backend)
        self._backends.append(_ExecBackend(self._executor))
        self._online_backend = _OnlineBackend(
            graph, bounds=self.engine.bounds, kernel=self.engine.kernel
        )
        self._backends.append(self._online_backend)

        # Streaming-update state, built lazily on the first update (the
        # incremental maintainer re-peels the sweep family once, which
        # costs one compute_bounds; read-only deployments never pay it).
        self._live: LiveGraph | None = None
        self._update_lock = threading.Lock()

        self._prebuilt_coverage: dict | None = None
        if index is not None:
            nonempty = sum(
                1
                for side in Side
                for tree in index.trees.get(side, [])
                if tree.nodes
            )
            total = index.num_upper + index.num_lower
            self._prebuilt_coverage = {
                "vertices": nonempty,
                "fraction": nonempty / total if total else 0.0,
                "bytes": index.total_size_bytes(),
            }

        self._queue: queue.Queue[_Request | _BatchRequest | None] = (
            queue.Queue(maxsize=self.config.max_queue)
        )
        self.traces = TraceRing(self.config.trace_ring_size)
        self._flight = SingleFlight()
        self._workers: list[threading.Thread] = []
        self._closed = False
        self._lifecycle_lock = threading.Lock()
        self._started_at = time.monotonic()

        self.hot_set: HotSetTracker | None = None
        self.partial_index: PartialIndex | None = None
        self.builder: BackgroundBuilder | None = None
        self._warm_restored = 0
        if self.config.adaptive:
            self.hot_set = HotSetTracker(
                half_life=self.config.hot_half_life
            )
            self.partial_index = PartialIndex(
                budget_bytes=self.config.index_budget_bytes
            )
            self._warm_restored = self._warm_restart()
            self.builder = BackgroundBuilder(
                graph,
                self._executor,
                self.partial_index,
                self.hot_set,
                threshold=self.config.hot_threshold,
                interval=self.config.build_interval,
                persist_path=self.config.adaptive_persist_path,
                persist_interval=self.config.persist_interval,
                metrics=self.metrics,
                trace_sink=self._absorb_build_trace,
            )
            # The partial tier answers hot vertices ahead of every
            # other backend; misses fall through to the rest of the
            # chain.
            self._backends.insert(0, _PartialBackend(self.partial_index))

        self._init_metrics()

    def _warm_restart(self) -> int:
        """Re-warm the partial index from a persisted hot set.

        Silently starts cold when the snapshot is missing, corrupt, or
        was taken against a different graph shape.  Returns the number
        of trees adopted.
        """
        path = self.config.adaptive_persist_path
        if not path or self.partial_index is None:
            return 0
        try:
            saved = PMBCIndex.load(path)
        except FileNotFoundError:
            return 0
        except Exception:
            return 0
        if (
            saved.num_upper != self.graph.num_upper
            or saved.num_lower != self.graph.num_lower
        ):
            return 0
        return self.partial_index.warm_from(saved)

    def _absorb_build_trace(self, summary: dict) -> None:
        """Feed background-build traces into the ring and metrics."""
        self.traces.append(summary)
        publish_trace(summary, self.metrics)

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> PMBCService:
        """Spin up the worker pool (idempotent)."""
        with self._lifecycle_lock:
            if self._closed:
                raise ServiceClosedError("service already closed")
            if self._workers:
                return self
            for i in range(self.config.num_workers):
                worker = threading.Thread(
                    target=self._worker_loop,
                    name=f"pmbc-serve-worker-{i}",
                    daemon=True,
                )
                worker.start()
                self._workers.append(worker)
        if self.builder is not None and not self.builder.closed:
            self.builder.start()
        return self

    def close(self, wait: bool = True) -> None:
        """Stop admitting requests and shut the worker pool down.

        Queued requests are drained and failed with
        :class:`ServiceClosedError`; in-flight computations finish.
        Shutdown order matters: the background builder is stopped (and,
        when waiting, joined) *before* the executor closes, so no
        adaptive build is in flight on a closing substrate and no
        builder thread outlives the service.
        """
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers)
        if self.builder is not None:
            self.builder.close(wait=wait)
        # Fail whatever is still queued, then poison the workers.
        self._drain_queue()
        for __ in workers:
            self._queue.put(None)
        if wait:
            for worker in workers:
                worker.join()
            # A request admitted in the race window between the closed
            # check and the drain would otherwise hang its caller.
            self._drain_queue()
            self._executor.close()

    def _drain_queue(self) -> None:
        while True:
            try:
                request = self._queue.get_nowait()
            except queue.Empty:
                return
            if request is not None:
                self._settle(
                    request,
                    "closed",
                    error=ServiceClosedError("service shut down"),
                )

    def __enter__(self) -> PMBCService:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has begun."""
        return self._closed

    # ------------------------------------------------------------------
    # metrics plumbing

    def _init_metrics(self) -> None:
        m = self.metrics
        register_search_metrics(m)
        self._requests = m.counter(
            "pmbc_requests_total", "Requests by terminal status."
        )
        self._latency = m.histogram(
            "pmbc_request_latency_seconds",
            "End-to-end latency of successful requests.",
        )
        self._requests_by_objective = m.counter(
            "pmbc_requests_by_objective_total",
            "Admitted requests by query-family objective.",
        )
        self._latency_by_objective = {
            name: m.histogram(
                f"pmbc_request_latency_{name}_seconds",
                f"End-to-end latency of successful {name!r} requests.",
            )
            for name in objective_kinds()
        }
        self._queue_wait = m.histogram(
            "pmbc_queue_wait_seconds",
            "Time between admission and worker pickup (queued requests).",
        )
        self._backend_queries = m.counter(
            "pmbc_backend_queries_total", "Backend invocations by backend."
        )
        self._fallbacks = m.counter(
            "pmbc_backend_fallbacks_total",
            "Degradations from a failing backend to the next one.",
        )
        self._sf_leaders = m.counter(
            "pmbc_singleflight_leaders_total",
            "Requests that actually ran a computation.",
        )
        self._sf_shared = m.counter(
            "pmbc_singleflight_shared_total",
            "Requests whose computation was shared via single-flight.",
        )
        self._batch_size = m.histogram(
            "pmbc_batch_size", "Requests per admitted batch."
        )
        self._updates = m.counter(
            "pmbc_updates_total", "Edge updates by kind (insert/delete/noop)."
        )
        self._update_batches = m.counter(
            "pmbc_update_batches_total", "Applied update batches."
        )
        self._update_cascade = m.counter(
            "pmbc_update_cascade_vertices_total",
            "Vertices touched by incremental bound-repair cascades.",
        )
        self._update_trees = m.counter(
            "pmbc_update_trees_repaired_total",
            "Mounted-index search trees rebuilt by updates.",
        )
        self._update_evictions = m.counter(
            "pmbc_update_partial_evictions_total",
            "Partial-index trees evicted by updates.",
        )
        self._update_latency = m.histogram(
            "pmbc_update_batch_seconds", "Wall time per applied update batch."
        )
        depth = m.gauge("pmbc_queue_depth", "Requests waiting in the queue.")
        depth.set_function(self._queue.qsize)
        self._inflight = m.gauge(
            "pmbc_inflight_requests", "Requests admitted but not finished."
        )
        workers_gauge = m.gauge("pmbc_workers", "Worker pool size.")
        workers_gauge.set_function(lambda: len(self._workers))
        for name, reader in (
            ("pmbc_engine_cache_hits", lambda: self.engine.cache_stats().hits),
            (
                "pmbc_engine_cache_misses",
                lambda: self.engine.cache_stats().misses,
            ),
            (
                "pmbc_engine_cache_evictions",
                lambda: self.engine.cache_stats().evictions,
            ),
            (
                "pmbc_engine_cache_size",
                lambda: self.engine.cache_stats().size,
            ),
        ):
            m.gauge(name, "Shared engine two-hop LRU.").set_function(reader)
        self._adaptive_hits = None
        self._adaptive_misses = None
        if self.partial_index is not None:
            self._adaptive_hits = m.counter(
                "pmbc_adaptive_hits_total",
                "Requests answered by the adaptive partial index.",
            )
            self._adaptive_misses = m.counter(
                "pmbc_adaptive_misses_total",
                "Partial-index fall-throughs (vertex not resident).",
            )
            m.gauge(
                "pmbc_adaptive_budget_bytes",
                "Adaptive partial-index memory budget.",
            ).set_function(lambda: self.partial_index.budget_bytes)
            m.gauge(
                "pmbc_adaptive_index_bytes",
                "Accounted size of resident adaptive trees.",
            ).set_function(lambda: self.partial_index.total_bytes)
            m.gauge(
                "pmbc_adaptive_entries",
                "Resident adaptive trees.",
            ).set_function(lambda: len(self.partial_index))

    def _finish(self, status: str) -> None:
        self._requests.inc(status=status)
        self._inflight.dec()

    def _settle(
        self,
        request: _Request | _BatchRequest,
        status: str,
        result: QueryResult | BatchResult | None = None,
        error: Exception | None = None,
    ) -> bool:
        """Resolve a request's future exactly once.

        The future is the arbiter between the worker and a caller whose
        deadline fired: whichever side settles first does the terminal
        accounting, the loser backs off.  Returns True for the winner.
        """
        try:
            if error is not None:
                request.future.set_exception(error)
            else:
                request.future.set_result(result)
        except InvalidStateError:
            return False
        self._finish(status)
        return True

    # ------------------------------------------------------------------
    # request path

    def _validate(
        self, side: Side, vertex: int, tau_u: int, tau_l: int
    ) -> None:
        if not isinstance(side, Side):
            raise InvalidRequestError(f"side must be a Side, got {side!r}")
        if tau_u < 1 or tau_l < 1:
            raise InvalidRequestError(
                f"size constraints must be >= 1, got ({tau_u}, {tau_l})"
            )
        if not 0 <= vertex < self.graph.num_vertices_on(side):
            raise InvalidRequestError(
                f"vertex {vertex} out of range for the {side.value} layer"
            )

    def _coerce(
        self,
        side: Side | QueryRequest,
        vertex: int | None,
        tau_u: int,
        tau_l: int,
    ) -> QueryRequest:
        """Normalize raw arguments or a :class:`QueryRequest`.

        The raw-argument surface deliberately rejects non-``Side``
        sides (no string coercion) — validation therefore runs *before*
        a :class:`QueryRequest` is built from raw arguments.
        """
        if isinstance(side, QueryRequest):
            if vertex is not None:
                raise InvalidRequestError(
                    "pass either a QueryRequest or raw arguments, not both"
                )
            request = side
            self._validate(
                request.side, request.vertex, request.tau_u, request.tau_l
            )
            return request
        if vertex is None:
            raise InvalidRequestError("query vertex is required")
        self._validate(side, vertex, tau_u, tau_l)
        return QueryRequest(side, vertex, tau_u, tau_l)

    def submit(
        self,
        side: Side | QueryRequest,
        vertex: int | None = None,
        tau_u: int = 1,
        tau_l: int = 1,
        deadline: float | None = None,
        explain: bool = False,
    ) -> Future:
        """Admit a request; the Future resolves to a :class:`QueryResult`.

        Accepts either raw ``(side, vertex, tau_u, tau_l)`` arguments
        or a single :class:`~repro.core.query.QueryRequest`.  Raises
        immediately on invalid input, a full queue, or a closed
        service — admission failures never consume a queue slot.  A
        request a lookup tier (partial or mounted index) answers is
        settled during admission, so its Future is already done and a
        full queue cannot refuse it.  With ``explain=True`` the result
        carries the computation's trace summary in
        :attr:`QueryResult.trace`.
        """
        return self._admit(
            side, vertex, tau_u, tau_l, deadline, explain
        ).future

    def submit_batch(
        self,
        requests,
        deadline: float | None = None,
        explain: bool = False,
    ) -> Future:
        """Admit a batch; the Future resolves to a :class:`BatchResult`.

        The non-blocking counterpart of :meth:`query_batch`; admission
        failures raise immediately, exactly as :meth:`submit`.
        """
        return self._admit_batch(requests, deadline, explain).future

    def admit(
        self,
        side: Side | QueryRequest,
        vertex: int | None = None,
        tau_u: int = 1,
        tau_l: int = 1,
        deadline: float | None = None,
        explain: bool = False,
    ) -> Submission:
        """Admit a request and return a :class:`Submission` handle.

        Like :meth:`submit`, but the handle additionally exposes
        :meth:`Submission.expire` so a non-blocking caller (the asyncio
        front-end) can run the same deadline settle race :meth:`query`
        runs internally.
        """
        request = self._admit(side, vertex, tau_u, tau_l, deadline, explain)
        budget = self.config.default_deadline if deadline is None else deadline

        def _expire() -> bool:
            return self._settle(
                request,
                "deadline_exceeded",
                error=DeadlineExceededError(f"no answer within {budget}s"),
            )

        return Submission(
            future=request.future, budget=budget, _expire=_expire
        )

    def admit_batch(
        self,
        requests,
        deadline: float | None = None,
        explain: bool = False,
    ) -> Submission:
        """Admit a batch and return a :class:`Submission` handle."""
        batch = self._admit_batch(requests, deadline, explain)
        budget = self.config.default_deadline if deadline is None else deadline

        def _expire() -> bool:
            return self._settle(
                batch,
                "deadline_exceeded",
                error=DeadlineExceededError(
                    f"no batch answer within {budget}s"
                ),
            )

        return Submission(future=batch.future, budget=budget, _expire=_expire)

    def _admit(
        self,
        side: Side | QueryRequest,
        vertex: int | None,
        tau_u: int,
        tau_l: int,
        deadline: float | None,
        explain: bool = False,
    ) -> _Request:
        if self._closed:
            self._requests.inc(status="closed")
            raise ServiceClosedError("service is closed")
        if not self._workers:
            raise ServiceClosedError("service not started (call start())")
        try:
            query_request = self._coerce(side, vertex, tau_u, tau_l)
        except InvalidRequestError:
            self._requests.inc(status="invalid")
            raise
        budget = self.config.default_deadline if deadline is None else deadline
        if budget is not None and not 0 < budget <= threading.TIMEOUT_MAX:
            self._requests.inc(status="invalid")
            raise InvalidRequestError(
                f"deadline must be in (0, {threading.TIMEOUT_MAX:g}] "
                f"seconds, got {budget}"
            )
        now = time.monotonic()
        request = _Request(
            request=query_request,
            deadline=None if budget is None else now + budget,
            enqueued_at=now,
            explain=explain,
        )
        self._enter(request)
        self._requests_by_objective.inc(objective=query_request.objective)
        if self.hot_set is not None and get_objective(
            query_request.objective
        ).index_compatible:
            # Record at admission (once the request is answered or
            # queued) so lookup-tier hits and single-flight followers
            # still count toward the traffic signal.  Objectives the
            # partial tier cannot answer never feed it, so they cannot
            # evict useful trees.
            self.hot_set.record(query_request.side, query_request.vertex)
        return request

    def query(
        self,
        side: Side | QueryRequest,
        vertex: int | None = None,
        tau_u: int = 1,
        tau_l: int = 1,
        deadline: float | None = None,
        explain: bool = False,
    ) -> QueryResult:
        """Admit a request and block for its answer.

        Accepts raw arguments or a single
        :class:`~repro.core.query.QueryRequest`.  The call returns (or
        raises :class:`DeadlineExceededError`) within the request's
        deadline budget even when a worker is still computing — the
        abandoned computation finishes in the background and only warms
        the cache.  With ``explain=True`` the result carries the
        computation's trace summary (a single-flight follower gets the
        leader's trace).
        """
        request = self._admit(side, vertex, tau_u, tau_l, deadline, explain)
        budget = self.config.default_deadline if deadline is None else deadline
        try:
            return request.future.result(timeout=budget)
        except FutureTimeoutError:
            error = DeadlineExceededError(f"no answer within {budget}s")
            if self._settle(request, "deadline_exceeded", error=error):
                raise error from None
            # The worker settled in the same instant; take its outcome.
            return request.future.result()

    def query_batch(
        self,
        requests,
        deadline: float | None = None,
        explain: bool = False,
    ) -> BatchResult:
        """Admit many requests as one unit and block for all answers.

        ``requests`` is a sequence of
        :class:`~repro.core.query.QueryRequest` (or anything
        ``QueryRequest.of`` accepts: dicts, tuples).  The batch
        occupies a **single** queue slot (none when a lookup tier holds
        every request: it is then answered at admission) and is
        answered by a single backend walk; within the batch, requests
        are grouped by query vertex so each distinct vertex's two-hop
        subgraph is extracted at most once (see
        :meth:`~repro.core.engine.PMBCQueryEngine.query_batch`).  The
        deadline covers the whole batch.  Single-flight dedup does not
        apply — vertex grouping already collapses duplicates inside
        the batch.
        """
        batch = self._admit_batch(requests, deadline, explain)
        budget = self.config.default_deadline if deadline is None else deadline
        try:
            return batch.future.result(timeout=budget)
        except FutureTimeoutError:
            error = DeadlineExceededError(f"no batch answer within {budget}s")
            if self._settle(batch, "deadline_exceeded", error=error):
                raise error from None
            return batch.future.result()

    def _admit_batch(
        self, requests, deadline: float | None, explain: bool = False
    ) -> _BatchRequest:
        if self._closed:
            self._requests.inc(status="closed")
            raise ServiceClosedError("service is closed")
        if not self._workers:
            raise ServiceClosedError("service not started (call start())")
        try:
            coerced = []
            for raw in requests:
                try:
                    request = QueryRequest.of(raw)
                except (TypeError, ValueError) as exc:
                    raise InvalidRequestError(str(exc)) from None
                self._validate(
                    request.side, request.vertex, request.tau_u, request.tau_l
                )
                coerced.append(request)
            if not coerced:
                raise InvalidRequestError("batch must contain >= 1 request")
        except InvalidRequestError:
            self._requests.inc(status="invalid")
            raise
        budget = self.config.default_deadline if deadline is None else deadline
        if budget is not None and not 0 < budget <= threading.TIMEOUT_MAX:
            self._requests.inc(status="invalid")
            raise InvalidRequestError(
                f"deadline must be in (0, {threading.TIMEOUT_MAX:g}] "
                f"seconds, got {budget}"
            )
        now = time.monotonic()
        batch = _BatchRequest(
            requests=tuple(coerced),
            deadline=None if budget is None else now + budget,
            enqueued_at=now,
            explain=explain,
        )
        self._batch_size.observe(len(coerced))
        self._enter(batch)
        for request in coerced:
            self._requests_by_objective.inc(objective=request.objective)
        if self.hot_set is not None:
            for request in coerced:
                if get_objective(request.objective).index_compatible:
                    self.hot_set.record(request.side, request.vertex)
        return batch

    def _enter(self, job: _Request | _BatchRequest) -> None:
        """Answer ``job`` from the lookup tiers, or queue it for a worker.

        The leading lookup tiers read resident trees, so they are walked
        right here on the caller's thread: a hit is settled before
        admission returns, with ``queue_seconds == 0``, outside the
        queue-wait histogram and single-flight, and without taking a
        queue slot.  Only a request they all miss is queued, which is
        where :class:`QueueFullError` comes from.
        """
        self._inflight.inc()
        backends = self._backends
        lookups = _lookup_prefix(backends)
        if lookups:
            answer, backend_name, summary = self._walk(
                job, backends, 0, lookups
            )
            if answer is not MISS:
                self._deliver(job, answer, backend_name, summary, 0.0)
                return
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            self._finish("queue_full")
            raise QueueFullError(
                f"request queue full ({self.config.max_queue} waiting)"
            ) from None

    # ------------------------------------------------------------------
    # worker side

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:  # poison pill
                return
            self._serve(job)

    def _serve(self, job: _Request | _BatchRequest) -> None:
        if job.future.done():
            # The caller's deadline fired while the request was queued;
            # terminal accounting already happened on that side.
            return
        now = time.monotonic()
        queue_seconds = now - job.enqueued_at
        self._queue_wait.observe(queue_seconds)
        remaining = job.remaining(now)
        if remaining is not None and remaining <= 0:
            self._settle(
                job,
                "deadline_exceeded",
                error=DeadlineExceededError("deadline expired in queue"),
            )
            return
        # Admission already walked the lookup tiers: start at the first
        # search tier.
        backends = self._backends
        start = _lookup_prefix(backends)

        def search():
            answer, backend_name, detail = self._walk(
                job, backends, start, len(backends)
            )
            if answer is MISS:
                raise BackendError(
                    f"all {len(backends)} backends failed (last: {detail!r})"
                )
            return answer, backend_name, detail

        shared = False
        try:
            if isinstance(job, _BatchRequest):
                # Vertex grouping already collapses duplicates inside a
                # batch, so batches skip single-flight.
                outcome = search()
            else:
                flight = self._flight.do(job.key, search, timeout=remaining)
                if flight.leader:
                    self._sf_leaders.inc()
                if flight.shared:
                    self._sf_shared.inc()
                shared = flight.shared and not flight.leader
                outcome = flight.value
        except SingleFlightTimeout:
            self._settle(
                job,
                "deadline_exceeded",
                error=DeadlineExceededError("deadline expired awaiting flight"),
            )
            return
        except ServeError as exc:
            self._settle(job, "error", error=exc)
            return
        except Exception as exc:  # defensive: never kill a worker
            self._settle(job, "error", error=BackendError(str(exc)))
            return
        self._deliver(job, *outcome, queue_seconds, shared)

    def _deliver(
        self,
        job: _Request | _BatchRequest,
        answer,
        backend_name: str,
        summary: dict,
        queue_seconds: float,
        shared: bool = False,
    ) -> None:
        """Settle ``job`` with its answer and record its latency."""
        total = time.monotonic() - job.enqueued_at
        trace = summary if job.explain else None
        if isinstance(job, _BatchRequest):
            result = BatchResult(
                bicliques=tuple(answer),
                backend=backend_name,
                queue_seconds=queue_seconds,
                total_seconds=total,
                trace=trace,
            )
            status = "ok" if any(a is not None for a in answer) else "empty"
            objectives = {r.objective for r in job.requests}
        else:
            result = QueryResult(
                biclique=answer,
                backend=backend_name,
                shared=shared,
                queue_seconds=queue_seconds,
                total_seconds=total,
                trace=trace,
            )
            status = "ok" if answer is not None else "empty"
            objectives = (job.request.objective,)
        if self._settle(job, status, result=result):
            self._latency.observe(total)
            for name in objectives:
                hist = self._latency_by_objective.get(name)
                if hist is not None:
                    hist.observe(total)

    def _walk(
        self,
        job: _Request | _BatchRequest,
        backends: list,
        start: int,
        stop: int,
    ) -> tuple:
        """Walk ``backends[start:stop]`` of the degradation chain.

        Admission walks the lookup tiers with it and a worker the
        search tiers.  The walk runs under a fresh trace: every
        computation (not only explain requests) is traced, the summary
        feeds the trace ring and the aggregated search metrics, and
        single-flight followers reuse it.  Returns ``(answer, backend
        name, trace summary)`` from the first backend that answers, or
        ``(MISS, None, last error)`` when every backend in the range
        declined or failed.
        """
        trace = job.new_trace()
        last_error: Exception | None = None
        for position in range(start, stop):
            backend = backends[position]
            self._backend_queries.inc(backend=backend.name)
            try:
                with use_trace(trace):
                    answer = job.ask(backend)
            except Exception as exc:
                last_error = exc
                nxt = backends[position + 1].name \
                    if position + 1 < len(backends) else "none"
                self._fallbacks.inc(**{"from": backend.name, "to": nxt})
                continue
            partial = (
                backend.name == "partial" and self._adaptive_hits is not None
            )
            if answer is MISS:
                # No resident tree (or an objective the tier cannot
                # answer): a clean fall-through, not a degradation —
                # the fallback counter stays untouched.  Only the
                # partial tier's misses feed the adaptive counters.
                if partial:
                    self._adaptive_misses.inc(job.size)
                continue
            if partial:
                self._adaptive_hits.inc(job.size)
            summary = self._finish_trace(trace, backend.name, answer)
            return answer, backend.name, summary
        return MISS, None, last_error

    def _finish_trace(
        self, trace: SearchTrace, backend_name: str, answer
    ) -> dict:
        """Seal a computation's trace: annotate, ring-buffer, publish."""
        if trace.meta.get("kind") == "query":
            trace.annotate(
                backend=backend_name,
                result=None
                if answer is None
                else {
                    "shape": list(answer.shape),
                    "edges": answer.num_edges,
                },
            )
        else:
            trace.annotate(
                answered=sum(1 for a in answer if a is not None),
                backend=backend_name,
            )
        summary = trace.to_dict()
        self.traces.append(summary)
        publish_trace(summary, self.metrics)
        return summary

    # ------------------------------------------------------------------
    # streaming updates

    def update_batch(self, updates) -> UpdateResult:
        """Apply edge updates to the live service, incrementally.

        ``updates`` is a sequence of ``("insert"|"delete", u, v)``
        triples (or ``{"action", "u", "v"}`` dicts).  The batch runs
        the one update path of :mod:`repro.core.dynamic`: it is checked
        by :func:`~repro.core.dynamic.coerce_updates` (a bad update, an
        empty batch or an insert more than :data:`MAX_LAYER_GROWTH`
        past a layer raises :class:`InvalidRequestError` before
        anything changes) and applied by
        :meth:`~repro.core.dynamic.LiveGraph.apply`.  Repeated updates
        to the same edge collapse to their net effect; net no-ops
        (inserting a present edge, deleting an absent one) are free and
        only counted.  Everything is scoped by
        :func:`~repro.core.dynamic.edge_affected_sets` — bounds are
        repaired by a bounded peeling cascade, only affected engine
        cache entries / partial trees / mounted index trees are
        invalidated — so steady-state cost is proportional to the
        touched two-hop neighborhoods, not the graph.

        Concurrent queries stay sound throughout: insertions repair the
        shared bounds *before* the graph swap (post-insert bounds are
        ≥ the old graph's exact bounds, hence still valid upper
        bounds), deletions repair *after* it (pre-delete bounds are ≥
        the shrunk graph's exact bounds).  New vertex ids extend the
        layers.
        """
        if self._closed:
            raise ServiceClosedError("service is closed")
        start = time.monotonic()
        try:
            ops = coerce_updates(updates)
        except ValueError as exc:
            raise InvalidRequestError(str(exc)) from None
        if not ops:
            raise InvalidRequestError("update batch must contain >= 1 edge")
        for action, u, v in ops:
            if action == "insert" and (
                u >= self.graph.num_upper + MAX_LAYER_GROWTH
                or v >= self.graph.num_lower + MAX_LAYER_GROWTH
            ):
                raise InvalidRequestError(
                    f"insert ({u}, {v}) would grow a layer by more than "
                    f"{MAX_LAYER_GROWTH} vertices"
                )
        with self._update_lock:
            if self._live is None:
                self._live = LiveGraph(
                    self.graph,
                    self.config.use_core_bounds,
                    bounds=self.engine.bounds,
                )
            batch = self._live.apply(ops, publish=self._swap_graph)
            trees = 0
            if self._index_backend is not None:
                trees = repair_trees(
                    self._index_backend._index,
                    self._live.adjacency,
                    batch.affected,
                    self._live.bounds,
                    self.engine.kernel,
                )
            evicted = self._evict_partial(batch.affected)
        seconds = time.monotonic() - start
        applied = batch.inserts + batch.deletes
        if batch.inserts:
            self._updates.inc(batch.inserts, kind="insert")
        if batch.deletes:
            self._updates.inc(batch.deletes, kind="delete")
        if batch.noops:
            self._updates.inc(batch.noops, kind="noop")
        self._update_batches.inc()
        if applied:
            self._update_cascade.inc(batch.cascade)
            self._update_trees.inc(trees)
        if evicted:
            self._update_evictions.inc(evicted)
        self._update_latency.observe(seconds)
        return UpdateResult(
            applied=applied,
            noops=batch.noops,
            inserts=batch.inserts,
            deletes=batch.deletes,
            trees_repaired=trees,
            evicted=evicted,
            cascade=batch.cascade,
            seconds=seconds,
        )

    def _swap_graph(
        self, graph: BipartiteGraph, affected: set[tuple[Side, int]]
    ) -> None:
        """Point every serving component at the post-update snapshot."""
        self.graph = graph
        self.engine.update_graph(graph, affected)
        self._online_backend.update_graph(graph)
        # Worker tasks (queries, adaptive builds) read state.graph; the
        # bounds object is repaired in place, never swapped.
        self._executor.state.graph = graph
        if self.builder is not None:
            self.builder.update_graph(graph)

    def _evict_partial(self, affected) -> int:
        """Drop affected adaptive trees; the builder re-warms hot ones."""
        if self.partial_index is None:
            return 0
        evicted = 0
        for side, x in affected:
            if self.partial_index.evict(side, x):
                evicted += 1
        if evicted and self.builder is not None:
            self.builder.kick()
        return evicted

    # ------------------------------------------------------------------
    # introspection

    @property
    def backend_names(self) -> tuple[str, ...]:
        """Answer-backend names in the order they are tried."""
        return tuple(b.name for b in self._backends)

    def healthy(self) -> bool:
        """True while workers are alive and the service is open."""
        return bool(self._workers) and not self._closed

    def invalidate_edge(self, u: int, v: int) -> list[tuple[Side, int]]:
        """Drop adaptive trees an update to edge ``(u, v)`` affects.

        Applies :func:`repro.core.dynamic.edge_affected_sets` to the
        partial index — the same rule
        :class:`~repro.core.dynamic.DynamicPMBCIndex` rebuilds by.
        Returns the dropped keys; a no-op (``[]``) when the adaptive
        tier is disabled.  Vertices that stay hot are rebuilt by the
        background builder on its next sweep.
        """
        if self.partial_index is None:
            return []
        dropped = self.partial_index.invalidate_edge(self.graph, u, v)
        if dropped and self.builder is not None:
            self.builder.kick()
        return dropped

    def index_coverage(self) -> dict:
        """Which fraction of vertices have a prebuilt/adaptive tree."""
        total = self.graph.num_upper + self.graph.num_lower
        adaptive = None
        if self.partial_index is not None:
            adaptive = {
                "vertices": len(self.partial_index),
                "fraction": self.partial_index.coverage(
                    self.graph.num_upper, self.graph.num_lower
                ),
                "bytes": self.partial_index.total_bytes,
                "budget_bytes": self.partial_index.budget_bytes,
            }
        return {
            "total_vertices": total,
            "prebuilt": self._prebuilt_coverage,
            "adaptive": adaptive,
        }

    def _objective_stats(self) -> dict:
        """Per-objective request/latency/prune breakdown for ``/stats``.

        Rows come from the :mod:`repro.objectives` registry, so a
        freshly registered query family shows up (zeroed) without any
        serving-layer change.  Search-node and prune counts read the
        objective-labelled series :mod:`repro.obs.metrics_bridge`
        publishes from each computation's trace summary.
        """
        nodes = self.metrics.get("pmbc_search_nodes_total")
        prunes = self.metrics.get("pmbc_prune_total")
        breakdown: dict[str, dict] = {}
        for name in objective_kinds():
            hist = self._latency_by_objective[name]
            pruned = {}
            if prunes is not None:
                for rule in PRUNE_RULES:
                    count = prunes.value(rule=rule, objective=name)
                    if count:
                        pruned[rule] = int(count)
            breakdown[name] = {
                "requests": int(
                    self._requests_by_objective.value(objective=name)
                ),
                "latency_seconds": {
                    "count": hist.count,
                    "mean": hist.mean(),
                    **hist.percentiles(),
                },
                "search_nodes": int(nodes.value(objective=name))
                if nodes is not None
                else 0,
                "prunes": pruned,
            }
        return breakdown

    def stats(self) -> dict:
        """A JSON-friendly snapshot for ``/stats`` and dashboards."""
        cache = self.engine.cache_stats()
        live = self._live
        adaptive = None
        if self.partial_index is not None:
            adaptive = {
                "partial_index": self.partial_index.stats(),
                "builder": self.builder.stats()
                if self.builder is not None
                else None,
                "hot_set": {
                    "tracked": len(self.hot_set),
                    "threshold": self.config.hot_threshold,
                    "half_life": self.config.hot_half_life,
                    "top": self.hot_set.snapshot(limit=10),
                },
                "hits": self._adaptive_hits.total(),
                "misses": self._adaptive_misses.total(),
                "warm_restored": self._warm_restored,
            }
        return {
            "uptime_seconds": time.monotonic() - self._started_at,
            "healthy": self.healthy(),
            "workers": len(self._workers),
            "queue": {
                "depth": self._queue.qsize(),
                "capacity": self.config.max_queue,
            },
            "backends": list(self.backend_names),
            "kernel": self.engine.kernel,
            "batch": {
                "count": self._batch_size.count,
                "mean_size": self._batch_size.mean(),
            },
            "requests": {
                "ok": self._requests.value(status="ok"),
                "empty": self._requests.value(status="empty"),
                "invalid": self._requests.value(status="invalid"),
                "queue_full": self._requests.value(status="queue_full"),
                "deadline_exceeded": self._requests.value(
                    status="deadline_exceeded"
                ),
                "error": self._requests.value(status="error"),
                "closed": self._requests.value(status="closed"),
            },
            "latency_seconds": {
                "count": self._latency.count,
                "mean": self._latency.mean(),
                **self._latency.percentiles(),
            },
            "objectives": self._objective_stats(),
            "queue_wait_seconds": {
                "count": self._queue_wait.count,
                "mean": self._queue_wait.mean(),
                **self._queue_wait.percentiles(),
            },
            "singleflight": {
                "leaders": self._sf_leaders.total(),
                "shared": self._sf_shared.total(),
                "in_flight": self._flight.in_flight(),
            },
            "traces": {
                "buffered": len(self.traces),
                "capacity": self.traces.capacity,
                "recorded": self.traces.total_recorded,
            },
            "engine_cache": {
                "hits": cache.hits,
                "misses": cache.misses,
                "evictions": cache.evictions,
                "size": cache.size,
                "capacity": cache.capacity,
                "hit_rate": cache.hit_rate,
            },
            "index_coverage": self.index_coverage(),
            "adaptive": adaptive,
            "updates": {
                "batches": int(self._update_batches.total()),
                "inserts": int(self._updates.value(kind="insert")),
                "deletes": int(self._updates.value(kind="delete")),
                "noops": int(self._updates.value(kind="noop")),
                "cascade_vertices": int(self._update_cascade.total()),
                "trees_repaired": int(self._update_trees.total()),
                "partial_evictions": int(self._update_evictions.total()),
                "bounds": live.maintainer.stats()
                if live is not None and live.maintainer is not None
                else None,
                "adjacency": live.adjacency.stats()
                if live is not None
                else None,
            },
        }
