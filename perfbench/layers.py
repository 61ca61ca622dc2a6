"""Per-layer metrics of a traced server phase.

Times come from the benchmark's own spans (:mod:`tracing`); counts come
from the program's ``/stats`` and ``/metrics``.  Everything is
normalised per end-to-end request of the phase, except counts over the
fixed input stream (builds, evictions, cascade vertices, repacks).
"""

from __future__ import annotations

import re

from stats import pct_or_zero, ratio
from tracing import durations_ms, waterfall

_SAMPLE = re.compile(r"^([a-zA-Z_:][\w:]*)(\{[^}]*\})?\s+(\S+)$")


def metric_totals(text: str) -> dict[str, float]:
    """Sum every sample of each name in a Prometheus text exposition."""
    totals: dict[str, float] = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line.strip())
        if match:
            name, __, value = match.groups()
            totals[name] = totals.get(name, 0.0) + float(value)
    return totals


def search_layers(spans, rids, requests: int) -> dict:
    """The online/mbc span metrics shared by every workload."""
    def busy(name):
        return sum(durations_ms(spans, name, rids)) / requests if requests else 0.0

    def calls(name):
        return len(durations_ms(spans, name, rids)) / requests if requests else 0.0

    return {
        "online.extract_local.calls": calls("two_hop_extract"),
        "online.extract_local.busy_ms": busy("two_hop_extract"),
        "online.pmbc_online_local.calls": calls("online.pmbc_online_local"),
        "online.pmbc_online_local.busy_ms": busy("online.pmbc_online_local"),
        "mbc.greedy.busy_ms": busy("mbc.greedy"),
        "mbc.reduce.busy_ms": busy("reduce"),
        "mbc.search.busy_ms": busy("mbc.search"),
        "mbc.bb.busy_ms": busy("bb"),
    }


def server_layers(spans, query_rtt: dict, update_rtt: dict, stats: dict,
                  metrics_text: str, statuses: list[int]) -> tuple[dict, dict]:
    """Per-layer metrics and the waterfall of one traced server phase.

    ``query_rtt`` / ``update_rtt`` map request id -> client latency (ms)
    for the measured requests.
    """
    roots = {**query_rtt, **update_rtt}
    flow = waterfall(spans, roots)
    qids = set(query_rtt)
    uids = set(update_rtt)
    queries = len(qids)
    service_ms = {
        s[0]: (s[4] - s[3]) * 1e3 for s in spans if s[1] == "service" and s[0] in qids
    }
    update_ms = {
        s[0]: (s[4] - s[3]) * 1e3
        for s in spans if s[1] == "service.update_batch" and s[0] in uids
    }
    front = [rtt - service_ms[rid] for rid, rtt in query_rtt.items() if rid in service_ms]
    front += [rtt - update_ms[rid] for rid, rtt in update_rtt.items() if rid in update_ms]
    totals = metric_totals(metrics_text)
    requests = stats["requests"]
    wait = stats["queue_wait_seconds"]
    flight = stats["singleflight"]
    adaptive = stats["adaptive"] or {}
    partial = adaptive.get("partial_index") or {}
    cache = stats["engine_cache"]
    updates = stats["updates"]
    bounds = updates.get("bounds") or {}
    adjacency = updates.get("adjacency") or {}
    inserts = durations_ms(spans, "corenum.insert", uids)
    deletes = durations_ms(spans, "corenum.delete", uids)
    patches = durations_ms(spans, "dynadj.patch", uids)
    engine = durations_ms(spans, "engine.query", qids)
    execs = durations_ms(spans, "exec.run", qids)
    computations = totals.get("pmbc_traces_total", 0.0)
    layers = {
        "aserver.self_ms.p50": pct_or_zero(front, 50),
        "aserver.self_ms.p99": pct_or_zero(front, 99),
        "aserver.http_4xx": sum(1 for s in statuses if 400 <= s < 500),
        "aserver.http_5xx": sum(1 for s in statuses if s >= 500),
        "service.admit_ms.p50": pct_or_zero(durations_ms(spans, "admit", qids), 50),
        "service.queue_wait_ms.p50": (wait.get("p50") or 0.0) * 1e3,
        "service.queue_wait_ms.p99": (wait.get("p99") or 0.0) * 1e3,
        "service.rejected": requests["queue_full"],
        "service.deadline_exceeded": requests["deadline_exceeded"],
        "service.singleflight.shared_ratio": ratio(
            flight["shared"], flight["leaders"] + flight["shared"]
        ),
        "service.update_batch_ms.p50": pct_or_zero(list(update_ms.values()), 50),
        "service.update_batch_ms.p99": pct_or_zero(list(update_ms.values()), 99),
        "service.update.applied_ratio": ratio(
            updates["inserts"] + updates["deletes"],
            updates["inserts"] + updates["deletes"] + updates["noops"],
        ),
        "adaptive.hit_ratio": ratio(
            adaptive.get("hits", 0),
            adaptive.get("hits", 0) + adaptive.get("misses", 0),
        ),
        "adaptive.lookup_ms.p50": pct_or_zero(durations_ms(spans, "tier.partial", qids), 50),
        "adaptive.builder.builds": (adaptive.get("builder") or {}).get("builds", 0),
        "adaptive.builder.busy_ms": sum(durations_ms(spans, "adaptive.builder")),
        "adaptive.evictions": partial.get("evictions", 0),
        "adaptive.invalidations": partial.get("invalidations", 0)
        + updates["partial_evictions"],
        "engine.query.calls": ratio(len(engine), queries),
        "engine.query_ms.p50": pct_or_zero(engine, 50),
        "engine.cache.hit_ratio": cache["hit_rate"],
        "engine.cache.evictions": cache["evictions"],
        "exec.run.calls": ratio(len(execs), queries),
        "exec.run_ms.p50": pct_or_zero(execs, 50),
        **search_layers(spans, qids, queries),
        "kernel.bb_nodes": ratio(totals.get("pmbc_search_nodes_total", 0.0), computations),
        "kernel.prunes": ratio(totals.get("pmbc_prune_total", 0.0), computations),
        "kernel.rounds": ratio(totals.get("pmbc_progressive_rounds_total", 0.0), computations),
        "kernel.twohop_vertices": ratio(
            totals.get("pmbc_twohop_size_sum", 0.0), totals.get("pmbc_twohop_size_count", 0.0)
        ),
        "corenum.compute_bounds_ms": pct_or_zero(durations_ms(spans, "corenum.compute_bounds"), 50),
        "corenum.incremental.insert_ms": ratio(sum(inserts), len(inserts)),
        "corenum.incremental.delete_ms": ratio(sum(deletes), len(deletes)),
        "corenum.cascade_vertices": updates["cascade_vertices"],
        "corenum.sweep_fallbacks": bounds.get("sweep_fallbacks", 0),
        "dynadj.patch_ms": ratio(sum(patches), len(patches)),
        "dynadj.repacks": adjacency.get("repacks", 0),
        "trace.coverage": flow["coverage"],
    }
    return layers, flow
