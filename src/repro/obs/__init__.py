"""repro.obs — end-to-end query observability.

A dependency-free tracing subsystem threaded through the whole query
path (two-hop extraction, progressive bounding, Branch&Bound, the
index walk, the caching engine, the serving layer):

- :class:`~repro.obs.trace.SearchTrace` — spans + counters for one
  query: ``|H_q|``, progressive rounds, B&B nodes, prune counts by
  rule (:data:`~repro.obs.trace.PRUNE_RULES` maps rules to the
  paper's lemmas), index tree visits, cache hits/misses;
- :func:`~repro.obs.trace.use_trace` /
  :func:`~repro.obs.trace.current_trace` — context-local trace
  installation with a near-zero-cost :data:`~repro.obs.trace.NULL_TRACE`
  default;
- :class:`~repro.obs.ring.TraceRing` — the bounded buffer behind
  ``GET /debug/traces``;
- :func:`~repro.obs.render.render_trace` — the human-readable report
  ``pmbc explain`` prints;
- :func:`~repro.obs.metrics_bridge.publish_trace` — aggregation into
  a (duck-typed) metrics registry: ``pmbc_search_nodes_total``,
  ``pmbc_prune_total{rule=...}``, ``pmbc_twohop_size``.

See docs/observability.md for the trace anatomy and counter glossary.
"""

from repro.obs.metrics_bridge import (
    TWOHOP_SIZE_BUCKETS,
    publish_trace,
    register_search_metrics,
)
from repro.obs.render import render_trace
from repro.obs.ring import TraceRing
from repro.obs.trace import (
    NULL_TRACE,
    PRUNE_RULES,
    NullTrace,
    SearchTrace,
    current_trace,
    new_trace_id,
    use_trace,
)

__all__ = [
    "SearchTrace",
    "NullTrace",
    "NULL_TRACE",
    "PRUNE_RULES",
    "current_trace",
    "use_trace",
    "new_trace_id",
    "TraceRing",
    "render_trace",
    "publish_trace",
    "register_search_metrics",
    "TWOHOP_SIZE_BUCKETS",
]
