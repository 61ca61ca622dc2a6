"""A stateful online-query engine with per-vertex caching.

Sits between the two extremes the paper evaluates: cheaper than
building the full PMBC-Index, faster than cold PMBC-OL* for workloads
that revisit vertices.  The engine precomputes the (α,β)-core bounds
once (the offline part of Algorithm 5) and caches only two-hop
subgraphs, per vertex in a bounded LRU; answers are never cached.  The
per-extraction greedy-seed and reduction memos of
:mod:`repro.kernel.batch` live on those cached subgraphs, so requests
that revisit a vertex (or share it within a batch) reuse them.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.core.online import (
    answer_group_local,
    extract_local,
    pmbc_online_local,
)
from repro.core.query import QueryRequest, as_request
from repro.core.result import Biclique
from repro.corenum.bounds import CoreBounds, compute_bounds
from repro.graph.bipartite import BipartiteGraph, Side
from repro.graph.subgraph import LocalGraph
from repro.kernel import resolve_kernel
from repro.obs.trace import current_trace


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of the engine's two-hop LRU cache."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        """Fraction of two-hop lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PMBCQueryEngine:
    """Answer repeated personalized queries against a fixed graph.

    Parameters
    ----------
    graph:
        The (immutable) bipartite graph.
    use_core_bounds:
        Precompute the Section VI-C bounds (PMBC-OL* mode).  Disable to
        get plain PMBC-OL with caching only.
    cache_size:
        Maximum number of two-hop subgraphs kept (LRU).  Hub subgraphs
        can be large, so the cache is bounded.
    bounds:
        Precomputed :class:`CoreBounds` to reuse (skips the offline
        computation regardless of ``use_core_bounds``).
    kernel:
        Compute kernel (``"bitset"``/``"set"``/``"words"``) for every
        search this engine runs; resolved **once** at construction
        (None defers to :func:`repro.kernel.default_kernel`).
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        use_core_bounds: bool = True,
        cache_size: int = 256,
        bounds: CoreBounds | None = None,
        kernel: str | None = None,
    ) -> None:
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        self._graph = graph
        self._kernel = resolve_kernel(kernel)
        if bounds is None and use_core_bounds:
            bounds = compute_bounds(graph)
        self._bounds: CoreBounds | None = bounds
        self._cache_size = cache_size
        self._locals: OrderedDict[tuple[Side, int], LocalGraph] = OrderedDict()
        self._cache_lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._epoch = 0

    @property
    def graph(self) -> BipartiteGraph:
        """The graph this engine answers queries over."""
        return self._graph

    @property
    def bounds(self) -> CoreBounds | None:
        """Precomputed (α,β)-core bounds, or None when disabled."""
        return self._bounds

    @property
    def kernel(self) -> str:
        """The compute kernel this engine searches with."""
        return self._kernel

    @property
    def cache_hits(self) -> int:
        """Two-hop cache hits since construction."""
        return self._hits

    @property
    def cache_misses(self) -> int:
        """Two-hop cache misses since construction."""
        return self._misses

    @property
    def cache_evictions(self) -> int:
        """LRU evictions from the two-hop cache since construction."""
        return self._evictions

    def cache_stats(self) -> CacheStats:
        """A consistent snapshot of hit/miss/eviction counters."""
        with self._cache_lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._locals),
                capacity=self._cache_size,
            )

    def clear_cache(self) -> None:
        """Drop every cached two-hop subgraph (counters are kept)."""
        with self._cache_lock:
            self._epoch += 1
            self._locals.clear()

    def update_graph(
        self,
        graph: BipartiteGraph,
        affected: set[tuple[Side, int]] | None = None,
    ) -> None:
        """Swap the engine onto a post-update graph snapshot.

        ``affected`` are the ``(side, vertex)`` pairs whose two-hop
        subgraphs an edge update can change (from
        :func:`repro.core.dynamic.edge_affected_sets`); only their
        cache entries are evicted — an edge outside a vertex's two-hop
        neighborhood cannot alter its local graph.  ``None`` drops the
        whole cache.  The epoch bump makes extractions already in
        flight against the old graph return without being cached, so a
        racing query can never resurrect a stale subgraph.  The bounds
        object is intentionally **not** swapped: streaming callers
        repair it in place
        (:class:`repro.corenum.incremental.IncrementalCoreBounds`), so
        this engine — and everyone else sharing the object — observes
        the repaired bounds without any hand-off.
        """
        with self._cache_lock:
            self._graph = graph
            self._epoch += 1
            if affected is None:
                self._locals.clear()
            else:
                for key in affected:
                    self._locals.pop(key, None)

    def query(
        self,
        side: Side | QueryRequest,
        q: int | None = None,
        tau_u: int = 1,
        tau_l: int = 1,
        objective: str = "pmbc",
    ) -> Biclique | None:
        """The personalized objective-maximal biclique of ``q``.

        A single :class:`~repro.core.query.QueryRequest` may replace
        ``side``/``q``/``tau_u``/``tau_l``/``objective``.  The cached
        two-hop subgraph is objective-independent, so mixed-objective
        workloads share the cache.
        """
        request = as_request(side, q, tau_u, tau_l, objective=objective)
        side, q, tau_u, tau_l, objective = request.key
        self._validate(side, q, tau_u, tau_l)
        local = self._two_hop(side, q)
        return pmbc_online_local(
            local,
            tau_u,
            tau_l,
            bounds=self._bounds,
            kernel=self._kernel,
            objective=objective,
        )

    def query_batch(self, requests) -> list[Biclique | None]:
        """Answer a batch of :class:`QueryRequest` with shared work.

        Requests are grouped by ``(side, vertex)`` so each distinct
        query vertex's two-hop subgraph is extracted **at most once**
        per batch — even when the LRU is smaller than the batch's
        working set, and regardless of request order.  Each group is
        answered from its one shared extraction
        (:func:`repro.core.online.answer_group_local`): duplicate
        requests share a single search, distinct requests share the
        packed view and the memoized seeds/reductions of
        :mod:`repro.kernel.batch`.  The (α,β)-core bounds were computed
        once at engine construction, so a batch pays the offline cost
        zero additional times.  Answers come back in request order.
        """
        reqs = [QueryRequest.of(r) for r in requests]
        for request in reqs:
            self._validate(
                request.side, request.vertex, request.tau_u, request.tau_l
            )
        results: list[Biclique | None] = [None] * len(reqs)
        order = sorted(
            range(len(reqs)),
            key=lambda i: (reqs[i].side.value, reqs[i].vertex),
        )
        start = 0
        while start < len(order):
            side = reqs[order[start]].side
            vertex = reqs[order[start]].vertex
            stop = start
            while stop < len(order) and (
                reqs[order[stop]].side is side
                and reqs[order[stop]].vertex == vertex
            ):
                stop += 1
            local = self._two_hop(side, vertex)
            group = order[start:stop]
            answers = answer_group_local(
                local,
                [reqs[i] for i in group],
                bounds=self._bounds,
                kernel=self._kernel,
            )
            for i, answer in zip(group, answers):
                results[i] = answer
            start = stop
        return results

    def _validate(self, side: Side, q: int, tau_u: int, tau_l: int) -> None:
        if not 0 <= q < self._graph.num_vertices_on(side):
            raise ValueError(
                f"query vertex {q} out of range for the {side.value} layer"
            )
        if tau_u < 1 or tau_l < 1:
            raise ValueError(
                f"size constraints must be >= 1, got ({tau_u}, {tau_l})"
            )

    def _two_hop(self, side: Side, q: int) -> LocalGraph:
        key = (side, q)
        trace = current_trace()
        with self._cache_lock:
            cached = self._locals.get(key)
            if cached is not None:
                self._hits += 1
                self._locals.move_to_end(key)
                if trace.enabled:
                    trace.add("cache_hits")
                return cached
            self._misses += 1
            epoch = self._epoch
            graph = self._graph
        # Extraction runs outside the lock so concurrent workers on
        # *different* vertices never serialize (identical concurrent
        # queries are collapsed upstream by repro.serve's single-flight).
        with trace.span("two_hop_extract"):
            local = extract_local(graph, side, q, self._kernel)
        if trace.enabled:
            trace.add("cache_misses")
            trace.record_twohop(
                local.num_upper,
                local.num_lower,
                local.num_edges,
            )
        with self._cache_lock:
            if self._epoch != epoch:
                return local  # raced an update: answer, don't cache
            if key not in self._locals:
                self._locals[key] = local
            else:
                self._locals.move_to_end(key)
            while len(self._locals) > self._cache_size:
                self._locals.popitem(last=False)
                self._evictions += 1
        return local
