"""The execution substrate: one pool abstraction for many work items.

The branch-and-bound at the heart of every personalized query is pure
Python, so a *thread* pool saturates a single core under the GIL no
matter how wide it is.  This module factors the "run many ``(side, q,
τU, τL)`` work items" concern into an :class:`Executor` with two
interchangeable backends:

- :class:`ThreadBackend` — tasks run in the calling thread (``run``)
  or a small thread pool (``map``), against one shared in-process
  engine.  Zero startup cost, shared LRU, GIL bound.  The serving
  layer runs every search and adaptive build on one.
- :class:`ProcessBackend` — a ``ProcessPoolExecutor`` whose workers
  inherit the immutable graph + core bounds **once** (copy-on-write
  under ``fork``, a single pickle per worker under ``spawn``) and then
  answer work items without re-shipping the graph.  Real-core
  parallelism for the parallel index build and bulk sweeps.

Use :func:`create_executor` to pick a backend by name with graceful
degradation: a platform where process pools are unavailable falls back
to threads with a :class:`RuntimeWarning` instead of failing.

Both backends expose the same metrics through an optional
:class:`~repro.serve.metrics.MetricsRegistry`:
``pmbc_exec_tasks_total`` (by backend and task), an
``pmbc_exec_queue_depth`` gauge of in-flight work items, and a
per-backend latency histogram ``pmbc_exec_task_seconds_<backend>``.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.corenum.bounds import CoreBounds, compute_bounds
from repro.exec.tasks import TASKS, WorkerState, initialize_worker, run_task
from repro.graph.bipartite import BipartiteGraph
from repro.kernel import resolve_kernel

__all__ = [
    "Executor",
    "ThreadBackend",
    "ProcessBackend",
    "ExecutorClosedError",
    "create_executor",
    "process_start_method",
    "EXECUTION_KINDS",
]

#: Valid backend names for :func:`create_executor` and
#: ``build_index_parallel(execution=...)``.
EXECUTION_KINDS = ("thread", "process")


class ExecutorClosedError(RuntimeError):
    """A task was submitted to an executor after :meth:`close`."""


def process_start_method() -> str | None:
    """The start method a :class:`ProcessBackend` would use, or None.

    Prefers ``fork`` (workers inherit the graph copy-on-write, no
    pickling at all), falls back to ``spawn``/``forkserver`` (one
    pickle of the graph per worker).  Returns None when the platform
    offers no usable start method — :func:`create_executor` then falls
    back to threads.
    """
    available = _available_start_methods()
    for preferred in ("fork", "spawn", "forkserver"):
        if preferred in available:
            return preferred
    return None


def _available_start_methods() -> list[str]:
    # Isolated for tests: monkeypatching this simulates platforms
    # without fork/spawn support.
    try:
        return multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return []


def _init_worker_process(graph, bounds, cache_size, kernel) -> None:
    # Terminal Ctrl-C delivers SIGINT to the whole foreground process
    # group; pool workers blocked on the call queue would die with a
    # KeyboardInterrupt traceback each.  Shutdown is coordinated by the
    # parent (pool.shutdown sends sentinels), so workers ignore SIGINT.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    initialize_worker(graph, bounds, cache_size, kernel)


class Executor:
    """Common machinery: task dispatch, lifecycle, metrics.

    Subclasses implement :meth:`_execute` (one item) and may override
    :meth:`map` (many items).  ``run``/``map`` raise whatever the task
    raises; pool-level failures surface as-is for the caller's
    degradation logic.
    """

    kind: str = "abstract"

    def __init__(self, num_workers: int, metrics=None) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers
        self._closed = False
        self._depth = 0
        self._depth_lock = threading.Lock()
        self._tasks_total = None
        self._latency = None
        if metrics is not None:
            self._tasks_total = metrics.counter(
                "pmbc_exec_tasks_total",
                "Executor work items by backend and task.",
            )
            metrics.gauge(
                "pmbc_exec_queue_depth",
                "Work items submitted to the executor and not yet done.",
            ).set_function(lambda: self._depth)
            self._latency = metrics.histogram(
                f"pmbc_exec_task_seconds_{self.kind}",
                f"Work-item latency on the {self.kind} backend.",
            )

    # -- dispatch ------------------------------------------------------

    def run(self, task: str, item):
        """Execute one work item and return its result (blocking)."""
        if task not in TASKS:
            raise KeyError(f"unknown task {task!r}")
        if self._closed:
            raise ExecutorClosedError(f"{self.kind} executor is closed")
        with self._depth_lock:
            self._depth += 1
        start = time.perf_counter()
        try:
            return self._execute(task, item)
        finally:
            with self._depth_lock:
                self._depth -= 1
            if self._tasks_total is not None:
                self._tasks_total.inc(backend=self.kind, task=task)
            if self._latency is not None:
                self._latency.observe(time.perf_counter() - start)

    def map(self, task: str, items) -> list:
        """Execute many work items; results in item order."""
        return [self.run(task, item) for item in items]

    def _execute(self, task: str, item):
        raise NotImplementedError

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ThreadBackend(Executor):
    """In-process execution against one shared engine (GIL bound).

    ``run`` executes in the calling thread — when the serving layer's
    worker threads call it, behaviour is identical to calling the
    engine directly.  ``map`` fans out over a thread pool, which
    preserves the pre-executor semantics of the parallel index build
    (shared array + skyline, lock-serialized appends).
    """

    kind = "thread"

    def __init__(
        self,
        graph: BipartiteGraph,
        bounds: CoreBounds | None = None,
        num_workers: int = 4,
        cache_size: int = 256,
        metrics=None,
        state: WorkerState | None = None,
        kernel: str | None = None,
    ) -> None:
        super().__init__(num_workers, metrics)
        self.state = state or WorkerState(
            graph=graph, bounds=bounds, cache_size=cache_size, kernel=kernel
        )
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    def _execute(self, task: str, item):
        return TASKS[task](self.state, item)

    def map(self, task: str, items) -> list:
        items = list(items)
        if len(items) <= 1 or self.num_workers == 1:
            return [self.run(task, item) for item in items]
        with self._pool_lock:
            if self._pool is None:
                if self._closed:
                    raise ExecutorClosedError("thread executor is closed")
                self._pool = ThreadPoolExecutor(
                    max_workers=self.num_workers,
                    thread_name_prefix="pmbc-exec",
                )
            pool = self._pool
        futures = [pool.submit(self.run, task, item) for item in items]
        return [future.result() for future in futures]

    def close(self) -> None:
        with self._pool_lock:
            super().close()
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None


class ProcessBackend(Executor):
    """Fork/spawn-safe process-pool execution for CPU-bound search.

    Workers are initialized once with the graph and bounds (see
    :func:`repro.exec.tasks.initialize_worker`); afterwards only tiny
    work-item tuples and answers cross the boundary.  Each worker owns
    a private two-hop LRU, so skewed traffic still reuses extractions
    within a worker.
    """

    kind = "process"

    def __init__(
        self,
        graph: BipartiteGraph,
        bounds: CoreBounds | None = None,
        num_workers: int = 4,
        cache_size: int = 256,
        metrics=None,
        start_method: str | None = None,
        kernel: str | None = None,
    ) -> None:
        super().__init__(num_workers, metrics)
        method = start_method or process_start_method()
        if method is None:
            raise RuntimeError(
                "no multiprocessing start method available on this platform"
            )
        self.start_method = method
        # Resolve the kernel in the parent so every worker — and any
        # differential comparison against the parent — agrees on it
        # even if the workers see a different environment.
        kernel = resolve_kernel(kernel)
        context = multiprocessing.get_context(method)
        self._pool = ProcessPoolExecutor(
            max_workers=num_workers,
            mp_context=context,
            initializer=_init_worker_process,
            initargs=(graph, bounds, cache_size, kernel),
        )

    def _execute(self, task: str, item):
        return self._pool.submit(run_task, task, item).result()

    def map(self, task: str, items) -> list:
        items = list(items)
        if not items:
            return []
        if self._closed:
            raise ExecutorClosedError("process executor is closed")
        with self._depth_lock:
            self._depth += len(items)
        start = time.perf_counter()
        try:
            futures = [
                self._pool.submit(run_task, task, item) for item in items
            ]
            return [future.result() for future in futures]
        finally:
            with self._depth_lock:
                self._depth -= len(items)
            if self._tasks_total is not None:
                self._tasks_total.inc(
                    len(items), backend=self.kind, task=task
                )
            if self._latency is not None:
                elapsed = time.perf_counter() - start
                self._latency.observe(elapsed / len(items))

    def close(self) -> None:
        super().close()
        self._pool.shutdown(wait=True)


def create_executor(
    kind: str,
    graph: BipartiteGraph,
    bounds: CoreBounds | None = None,
    use_core_bounds: bool = True,
    num_workers: int = 4,
    cache_size: int = 256,
    metrics=None,
    start_method: str | None = None,
    kernel: str | None = None,
) -> Executor:
    """Build an executor by backend name, with graceful degradation.

    ``kind`` is ``"thread"`` or ``"process"``.  When ``"process"`` is
    requested but no start method is usable (or the pool cannot be
    created — restricted containers lack ``/dev/shm`` semaphores), a
    :class:`RuntimeWarning` is emitted and a :class:`ThreadBackend` is
    returned instead, so callers never have to branch per platform.

    ``bounds`` may be precomputed; otherwise they are computed here
    **once** (when ``use_core_bounds``) and shared with every worker.
    ``kernel`` picks the compute kernel; it is resolved here, once, and
    installed in every worker's state by the pool initializer — workers
    never re-resolve (or re-pack adjacency) per task.
    """
    if kind not in EXECUTION_KINDS:
        raise ValueError(
            f"execution must be one of {EXECUTION_KINDS}, got {kind!r}"
        )
    kernel = resolve_kernel(kernel)
    if bounds is None and use_core_bounds:
        bounds = compute_bounds(graph)
    if kind == "process":
        try:
            return ProcessBackend(
                graph,
                bounds=bounds,
                num_workers=num_workers,
                cache_size=cache_size,
                metrics=metrics,
                start_method=start_method,
                kernel=kernel,
            )
        except (RuntimeError, OSError, ValueError, BrokenProcessPool) as exc:
            method = start_method or process_start_method()
            warnings.warn(
                f"requested {kind!r} execution is unavailable on this "
                f"platform (start method: {method or 'none'}): {exc}; "
                "falling back to the thread backend",
                RuntimeWarning,
                stacklevel=2,
            )
    return ThreadBackend(
        graph,
        bounds=bounds,
        num_workers=num_workers,
        cache_size=cache_size,
        metrics=metrics,
        kernel=kernel,
    )
