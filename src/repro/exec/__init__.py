"""repro.exec — the process-parallel execution substrate.

One pool abstraction for the parallel index build (Algorithm 6) and
direct :func:`create_executor` users; the serving layer runs its
searches and adaptive builds on a :class:`ThreadBackend` only:

- :class:`~repro.exec.executor.Executor` — dispatch named tasks over
  ``(side, q, τU, τL)`` work items with uniform metrics;
- :class:`~repro.exec.executor.ThreadBackend` — in-process execution:
  shared engine, shared LRU, GIL bound;
- :class:`~repro.exec.executor.ProcessBackend` — worker processes that
  inherit the immutable graph + core bounds once and then answer work
  items without re-pickling the graph, for real-core parallelism;
- :func:`~repro.exec.executor.create_executor` — backend selection by
  name with graceful thread fallback on platforms without usable
  process pools.

See ``docs/execution.md`` for the backend-selection guide.
"""

from repro.exec.executor import (
    EXECUTION_KINDS,
    Executor,
    ExecutorClosedError,
    ProcessBackend,
    ThreadBackend,
    create_executor,
    process_start_method,
)
from repro.exec.tasks import WorkerState

__all__ = [
    "Executor",
    "ThreadBackend",
    "ProcessBackend",
    "ExecutorClosedError",
    "create_executor",
    "process_start_method",
    "EXECUTION_KINDS",
    "WorkerState",
]
