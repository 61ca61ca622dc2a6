"""Budgeted background construction of hot vertices' search trees.

The :class:`BackgroundBuilder` closes the loop between the traffic
signal (:class:`~repro.adaptive.hotset.HotSetTracker`) and the answer
tier (:class:`~repro.adaptive.partial.PartialIndex`): a single
sweeper thread periodically ranks the hot vertices, builds the trees
of the ones not yet resident on the :mod:`repro.exec` substrate (the
``build_tree`` task — the same per-vertex construction the full
PMBC-IC build runs), and inserts them under the memory budget.  Builds
happen entirely off the request path; the serving workers only ever
*read* the partial index.

Every build emits a trace summary (``kind="adaptive_build"`` with a
``build`` span) through the injected sink, so ``/debug/traces`` and
the trace ring show warmup activity alongside query traces.

The builder also owns hot-set persistence: every ``persist_interval``
seconds — and once at shutdown — the resident trees are exported
through :meth:`repro.adaptive.partial.PartialIndex.to_index` and
written with the unified ``index.save``, so a restarted server
re-warms from disk instead of re-paying the build cost.

Shutdown is deterministic: :meth:`close` signals the sweeper, wakes
it, and joins it before returning, so no build is in flight when the
owning service closes its executor — the ordering
``builder.close() → executor.close()`` is the contract
:meth:`repro.serve.PMBCService.close` maintains.
"""

from __future__ import annotations

import os
import threading
import time

from repro.adaptive.hotset import HotSetTracker
from repro.adaptive.partial import PartialIndex
from repro.exec.executor import Executor, ExecutorClosedError
from repro.graph.bipartite import BipartiteGraph, Side
from repro.obs.trace import SearchTrace

__all__ = ["BackgroundBuilder"]

#: Histogram buckets (seconds) for per-tree build latency.
BUILD_SECONDS_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


class BackgroundBuilder:
    """Builds per-vertex search trees for the hot set, off-path.

    Parameters
    ----------
    graph:
        The served graph (persistence needs its layer sizes).
    executor:
        The :mod:`repro.exec` backend builds run on.  With a thread
        backend the build runs on the sweeper thread itself; with a
        process backend it ships to the pool.
    partial:
        The bounded store built trees are inserted into.
    hotset:
        The traffic signal promotions are read from.
    threshold:
        Decayed query count at which a vertex becomes a build candidate.
    interval:
        Seconds between sweeps (a sweep can be forced with :meth:`kick`).
    max_builds_per_sweep:
        Cap on trees built in one sweep, so a cold start with a huge
        hot set still yields the sweeper thread regularly.
    persist_path / persist_interval:
        When ``persist_path`` is set, the resident trees are saved
        there every ``persist_interval`` seconds and at shutdown.
    metrics:
        Optional duck-typed registry (``pmbc_adaptive_builds_total``,
        ``pmbc_adaptive_evictions_total``,
        ``pmbc_adaptive_build_queue_depth``,
        ``pmbc_adaptive_build_seconds``).
    trace_sink:
        Optional callable receiving each build's trace summary dict.
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        executor: Executor,
        partial: PartialIndex,
        hotset: HotSetTracker,
        threshold: float = 3.0,
        interval: float = 0.1,
        max_builds_per_sweep: int = 64,
        persist_path: str | os.PathLike | None = None,
        persist_interval: float = 30.0,
        metrics=None,
        trace_sink=None,
    ) -> None:
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if max_builds_per_sweep < 1:
            raise ValueError(
                "max_builds_per_sweep must be >= 1, "
                f"got {max_builds_per_sweep}"
            )
        if persist_interval <= 0:
            raise ValueError(
                f"persist_interval must be positive, got {persist_interval}"
            )
        self._graph = graph
        self._executor = executor
        self._partial = partial
        self._hotset = hotset
        self.threshold = threshold
        self.interval = interval
        self.max_builds_per_sweep = max_builds_per_sweep
        self.persist_path = (
            os.fspath(persist_path) if persist_path is not None else None
        )
        self.persist_interval = persist_interval
        self._trace_sink = trace_sink

        self._stop = threading.Event()
        self._wake = threading.Event()
        self._thread: threading.Thread | None = None
        self._lifecycle_lock = threading.Lock()
        self._pending = 0
        self._last_persist = time.monotonic()
        self.builds_total = 0
        self.build_failures_total = 0
        self.persists_total = 0

        self._builds_counter = None
        self._evictions_counter = None
        self._build_seconds = None
        if metrics is not None:
            self._builds_counter = metrics.counter(
                "pmbc_adaptive_builds_total",
                "Per-vertex search trees built by the background builder.",
            )
            self._evictions_counter = metrics.counter(
                "pmbc_adaptive_evictions_total",
                "Partial-index entries evicted (LRU, replacement, oversize).",
            )
            metrics.gauge(
                "pmbc_adaptive_build_queue_depth",
                "Hot vertices awaiting a background build.",
            ).set_function(self.pending)
            self._build_seconds = metrics.histogram(
                "pmbc_adaptive_build_seconds",
                "Per-tree background build latency.",
                buckets=BUILD_SECONDS_BUCKETS,
            )

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> "BackgroundBuilder":
        """Start the sweeper thread (idempotent)."""
        with self._lifecycle_lock:
            if self._stop.is_set():
                raise RuntimeError("builder already closed")
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._loop,
                    name="pmbc-adaptive-builder",
                    daemon=True,
                )
                self._thread.start()
        return self

    def close(self, wait: bool = True) -> None:
        """Stop sweeping, join the thread, persist one final snapshot.

        Idempotent.  With ``wait=True`` (the default) the sweeper —
        including any build currently running on it — has finished when
        this returns, so the owning service can safely close the
        executor afterwards.
        """
        with self._lifecycle_lock:
            already = self._stop.is_set()
            self._stop.set()
            self._wake.set()
            thread = self._thread
        if wait and thread is not None:
            thread.join()
        if not already and wait:
            self._persist(final=True)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has begun."""
        return self._stop.is_set()

    @property
    def running(self) -> bool:
        """True while the sweeper thread is alive."""
        thread = self._thread
        return thread is not None and thread.is_alive()

    def kick(self) -> None:
        """Wake the sweeper immediately instead of awaiting the interval."""
        self._wake.set()

    def update_graph(self, graph: BipartiteGraph) -> None:
        """Point future builds at a post-update graph snapshot.

        Streaming updates (:meth:`repro.serve.PMBCService.update_batch`)
        call this after swapping the serving graph so persistence and
        subsequent builds see the new layer sizes.  A build already in
        flight on the pre-update graph is dropped when it finishes: the
        caller's eviction pass, which runs after this swap, moves the
        partial index's generation.
        """
        self._graph = graph

    # ------------------------------------------------------------------
    # sweeping

    def pending(self) -> int:
        """Build-queue depth: hot, not-yet-resident vertices last seen."""
        return self._pending

    def _candidates(self) -> list[tuple[Side, int]]:
        hot = self._hotset.hot(self.threshold)
        return [key for key, __ in hot if key not in self._partial]

    def run_once(self) -> int:
        """Run one sweep synchronously; returns the number of builds.

        Public for tests and warmup scripts — the background thread
        runs exactly this between waits.
        """
        candidates = self._candidates()
        self._pending = len(candidates)
        built = 0
        for side, vertex in candidates[: self.max_builds_per_sweep]:
            if self._stop.is_set():
                break
            if self._build(side, vertex):
                built += 1
            self._pending = max(0, self._pending - 1)
        self._pending = len(self._candidates()) if not self._stop.is_set() else 0
        self._hotset.prune()
        return built

    def _build(self, side: Side, vertex: int) -> bool:
        trace = SearchTrace()
        trace.annotate(
            kind="adaptive_build",
            build={"side": side.value, "vertex": vertex},
        )
        # Read before building: an update that evicts meanwhile moves
        # it, and put() then drops this possibly pre-update tree.
        generation = self._partial.generation
        start = time.perf_counter()
        try:
            with trace.span("build"):
                __, __, tree, bicliques = self._executor.run(
                    "build_tree", (side, vertex)
                )
        except ExecutorClosedError:
            self._stop.set()
            return False
        except Exception as exc:
            self.build_failures_total += 1
            trace.annotate(error=repr(exc))
            self._emit_trace(trace)
            return False
        elapsed = time.perf_counter() - start
        inserted, evicted = self._partial.put(
            side, vertex, tree, bicliques, generation=generation
        )
        self.builds_total += 1
        if self._builds_counter is not None:
            self._builds_counter.inc()
        if self._build_seconds is not None:
            self._build_seconds.observe(elapsed)
        if evicted and self._evictions_counter is not None:
            self._evictions_counter.inc(len(evicted))
        for cold_side, cold_vertex in evicted:
            # Eviction feedback: a vertex we just dropped should need a
            # fresh burst of traffic (not a stale decayed count) to be
            # rebuilt, or the builder would thrash at the budget edge.
            self._hotset.forget(cold_side, cold_vertex)
        trace.annotate(
            inserted=inserted,
            evicted=[[s.value, x] for s, x in evicted],
            tree_nodes=len(tree),
            partial_bytes=self._partial.total_bytes,
        )
        self._emit_trace(trace)
        return inserted

    def _emit_trace(self, trace: SearchTrace) -> None:
        if self._trace_sink is not None:
            try:
                self._trace_sink(trace.to_dict())
            except Exception:  # pragma: no cover - sink must never kill us
                pass

    def _loop(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(self.interval)
            self._wake.clear()
            if self._stop.is_set():
                break
            try:
                self.run_once()
            except Exception:  # defensive: never kill the sweeper
                self.build_failures_total += 1
            self._maybe_persist()

    # ------------------------------------------------------------------
    # persistence

    def _maybe_persist(self) -> None:
        if self.persist_path is None:
            return
        now = time.monotonic()
        if now - self._last_persist < self.persist_interval:
            return
        self._persist()

    def _persist(self, final: bool = False) -> None:
        if self.persist_path is None:
            return
        if final and len(self._partial) == 0:
            return
        index = self._partial.to_index(
            self._graph.num_upper, self._graph.num_lower
        )
        tmp_path = f"{self.persist_path}.tmp"
        try:
            index.save(tmp_path, format=self._persist_format())
            os.replace(tmp_path, self.persist_path)
            self.persists_total += 1
        except OSError:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
        finally:
            self._last_persist = time.monotonic()

    def _persist_format(self) -> str:
        from repro.core.index import PMBCIndex

        extension = os.path.splitext(self.persist_path or "")[1].lower()
        return (
            "binary"
            if extension in PMBCIndex.BINARY_EXTENSIONS
            else "json"
        )

    # ------------------------------------------------------------------

    def drain(self, timeout: float = 10.0) -> bool:
        """Wait until no hot vertex lacks a resident tree (or timeout).

        Tests and benchmarks use this to make "the head is warm" a
        deterministic state instead of a sleep.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self._stop.is_set():
                return False
            if not self._candidates():
                return True
            self.kick()
            time.sleep(0.01)
        return not self._candidates()

    def stats(self) -> dict:
        """A JSON-friendly snapshot for ``/stats``."""
        return {
            "running": self.running,
            "threshold": self.threshold,
            "pending": self.pending(),
            "builds": self.builds_total,
            "build_failures": self.build_failures_total,
            "persists": self.persists_total,
            "persist_path": self.persist_path,
        }
