"""Metric names and units: the single list ``BENCHMARK.json`` mirrors.

End-to-end metrics come from untraced runs (``--trace 0``) and every
workload reports every one.  Per-layer metrics come from traced runs
(``--trace 1``); a layer a workload does not reach reads 0.  Per-layer
calls and times are normalised per end-to-end request (a query, or an
update batch on ``update_churn``) so runs of different length compare;
totals over a fixed input stream (builds, cascade vertices, repacks)
are reported as counts.
"""

from __future__ import annotations

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "query_p50_ms": ("ms", "lower"),
    "query_p90_ms": ("ms", "lower"),
    "queries_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}

# Bounds: the share of the parent commit's median by which each metric
# may worsen before a change counts as a regression.
# The gated tail is p90, not p99: on the shared reference host, stalls
# of a few milliseconds come and go for minutes at a time, and in such a
# stretch the http_zipf p99 spread 59 % over ten seeds while its p50
# spread 6 %.  Every workload still prints its p99.
# Latency and throughput bounds sit at the 0.25 cap, tied with set-up:
# even with timings scaled to a reference host speed (speed.py), the
# quartile spread over ten seeds reaches about 10 % on the shared 2-core
# reference VM, mostly from what the seed puts in the stream (see
# README.md).  The server's peak RSS varies by a few MiB with the stream.
BOUNDS = {
    "setup_s": 0.25,
    "query_p50_ms": 0.25,
    "query_p90_ms": 0.25,
    "queries_per_s": 0.25,
    "peak_rss_mb": 0.15,
}

PER_LAYER = {
    # front-end (repro.serve.aserver)
    "aserver.self_ms.p50": ("ms", "lower"),
    "aserver.self_ms.p99": ("ms", "lower"),
    "aserver.http_4xx": ("count", "lower"),
    "aserver.http_5xx": ("count", "lower"),
    # service core (repro.serve.service)
    "service.admit_ms.p50": ("ms", "lower"),
    "service.queue_wait_ms.p50": ("ms", "lower"),
    "service.queue_wait_ms.p99": ("ms", "lower"),
    "service.rejected": ("count", "lower"),
    "service.deadline_exceeded": ("count", "lower"),
    "service.singleflight.shared_ratio": ("ratio", "higher"),
    "service.update_batch_ms.p50": ("ms", "lower"),
    "service.update_batch_ms.p99": ("ms", "lower"),
    "service.update.applied_ratio": ("ratio", "higher"),
    # adaptive partial-index tier (repro.adaptive)
    "adaptive.hit_ratio": ("ratio", "higher"),
    "adaptive.lookup_ms.p50": ("ms", "lower"),
    "adaptive.builder.builds": ("count", "lower"),
    "adaptive.builder.busy_ms": ("ms", "lower"),
    "adaptive.evictions": ("count", "lower"),
    "adaptive.invalidations": ("count", "lower"),
    # engine (repro.core.engine)
    "engine.query.calls": ("count", "lower"),
    "engine.query_ms.p50": ("ms", "lower"),
    "engine.cache.hit_ratio": ("ratio", "higher"),
    "engine.cache.evictions": ("count", "lower"),
    # execution hop (repro.exec)
    "exec.run.calls": ("count", "lower"),
    "exec.run_ms.p50": ("ms", "lower"),
    # online search (repro.core.online)
    "online.extract_local.calls": ("count", "lower"),
    "online.extract_local.busy_ms": ("ms", "lower"),
    "online.pmbc_online_local.calls": ("count", "lower"),
    "online.pmbc_online_local.busy_ms": ("ms", "lower"),
    # maximum-biclique search (repro.mbc, repro.kernel)
    "mbc.greedy.busy_ms": ("ms", "lower"),
    "mbc.reduce.busy_ms": ("ms", "lower"),
    "mbc.search.busy_ms": ("ms", "lower"),
    "mbc.bb.busy_ms": ("ms", "lower"),
    "kernel.bb_nodes": ("count", "lower"),
    "kernel.prunes": ("count", "higher"),
    "kernel.rounds": ("count", "lower"),
    "kernel.twohop_vertices": ("count", "lower"),
    # bound maintenance (repro.corenum)
    "corenum.compute_bounds_ms": ("ms", "lower"),
    "corenum.incremental.insert_ms": ("ms", "lower"),
    "corenum.incremental.delete_ms": ("ms", "lower"),
    "corenum.cascade_vertices": ("count", "lower"),
    "corenum.sweep_fallbacks": ("count", "lower"),
    # packed adjacency patching (repro.kernel.dynadj)
    "dynadj.patch_ms": ("ms", "lower"),
    "dynadj.repacks": ("count", "lower"),
    # benchmark health
    "loadgen.lag_p99_ms": ("ms", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_ms": ("ms", "lower"),
}

# Exact-count metrics: each must repeat exactly across runs of one seed.
EXACT_COUNTS = {
    "ol_topdeg": (
        "kernel.bb_nodes", "kernel.prunes", "kernel.rounds",
        "kernel.twohop_vertices",
    ),
    "http_zipf": (),
    "update_churn": ("corenum.cascade_vertices", "dynadj.repacks"),
}


def zero_layers() -> dict:
    """Every per-layer metric at 0: what a layer a workload skips reports."""
    return {name: 0.0 for name in PER_LAYER}
