"""repro.serve — the production query-serving layer.

Turns the in-process query stack (PMBC-Index, the caching engine,
online search) into a shared, instrumented service:

- :class:`~repro.serve.service.PMBCService` — bounded request queue
  with admission control, a worker thread pool that runs the searches,
  per-request deadlines, single-flight deduplication, a vertex-grouped
  batch path (:meth:`~repro.serve.service.PMBCService.query_batch`),
  and partial → index → engine → online degradation;
- :class:`~repro.serve.aserver.AsyncPMBCServer` — the asyncio HTTP/JSON
  front-end (``/query``, ``/query_batch``, ``/update``, ``/healthz``,
  ``/metrics``, ``/stats``, ``/debug/traces``) multiplexing many open
  connections on one event loop over one service (``pmbc serve``);
- :class:`~repro.serve.client.PMBCClient` — stdlib client mapping
  HTTP errors back onto the service exception types;
- :mod:`~repro.serve.metrics` — dependency-free counters, gauges and
  fixed-bucket latency histograms (p50/p95/p99);
- :mod:`~repro.serve.singleflight` — in-flight request collapsing.

See ``docs/serving.md`` for architecture and the endpoint reference,
and ``pmbc serve`` for the CLI entry point.
"""

from repro.serve.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.serve.singleflight import (
    FlightResult,
    SingleFlight,
    SingleFlightTimeout,
)
from repro.serve.service import (
    BackendError,
    BatchResult,
    DeadlineExceededError,
    InvalidRequestError,
    PMBCService,
    QueryResult,
    QueueFullError,
    ServeError,
    ServiceClosedError,
    ServiceConfig,
    Submission,
)
from repro.serve.aserver import AsyncPMBCServer
from repro.serve.client import PMBCClient, RemoteServiceError

__all__ = [
    "PMBCService",
    "ServiceConfig",
    "QueryResult",
    "BatchResult",
    "Submission",
    "AsyncPMBCServer",
    "PMBCClient",
    "RemoteServiceError",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "SingleFlight",
    "FlightResult",
    "SingleFlightTimeout",
    "ServeError",
    "InvalidRequestError",
    "QueueFullError",
    "DeadlineExceededError",
    "ServiceClosedError",
    "BackendError",
]
