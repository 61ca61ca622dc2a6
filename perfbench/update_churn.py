"""``update_churn``: closed-loop edge updates interleaved with queries over HTTP.

The same server as ``http_zipf`` but with the adaptive tier off (see
``ADAPTIVE``).  One keep-alive connection replays a ``temporal_replay``
stream on Amazon in stream order: edge updates go as ``POST /update``
batches of 4 and four ``POST /query`` reads (τ=2) follow every batch.  The
stream is pure steady-state rewire churn (every insert re-inserts an
earlier delete), so the packed adjacency must never re-pack.  Writes
sit beside reads: ``corenum.incremental`` and ``kernel.dynadj`` do most
of the work, and every update evicts warm state the reads rely on.

The stream length is fixed by ``--seconds`` and the seed (not by the
clock), so exact counts such as the cascade size repeat per seed.  Each
answer is checked against ``pmbc_online`` with the ``set`` kernel on a
graph rebuilt from the replayed edge set at that query point; at the
end the server's final edge set must match the replay and its
maintained bounds must equal ``compute_bounds`` of that edge set.
"""

from __future__ import annotations

import sys
import time

from checks import edge_digest
from client import Conn, answer_edges, query_body, time_to_first_answer
from layers import server_layers
from speed import chunk_factors, probe, scale
from stats import median, percentile, ratio, table

DATASET = "Amazon"
TAU = 2
BATCH = 4
# One read per update, so four follow each batch: the read percentiles
# rest on about 3000 samples per 20 s run, which keeps their spread over
# seeds small (with one read per batch it was 10 %).
QUERY_EVERY = 1
QUERY_EXPONENT = 1.1
DELETE_FRACTION = 0.45
# The adaptive tier stays off here: with it on, a background build that
# started before an update can land after the update's eviction and the
# partial tier then serves a stale answer (seen as a wrong answer about
# once in five 20 s runs), which would fail the run.
ADAPTIVE = False
# Updates the stream holds per requested second; a batch plus its reads
# take about 25 ms on the reference machine, so a run lasts about
# --seconds.
UPDATES_PER_SECOND = 150
# Untimed read-only warm-up that fills the engine's two-hop cache before
# the stream starts; then the first tenth of the stream is untimed too.
PREWARM_QUERIES = 600
WARMUP_FRACTION = 0.1
SETUP_REPEATS = 5
# Requests between host-speed probes (about 40 ms of work); the server
# is idle while the client probes, and shares its CPU (see speed.py).
PROBE_EVERY = 8


def schedule(seed: int, seconds: float):
    """The request sequence: ``("batch", ops)`` and ``("query", (side, v))``."""
    from repro.bench.workloads import temporal_replay
    from repro.datasets.zoo import load_dataset

    graph = load_dataset(DATASET)
    events = temporal_replay(
        graph,
        num_updates=max(BATCH * 10, int(seconds * UPDATES_PER_SECOND)),
        delete_fraction=DELETE_FRACTION,
        rewire_fraction=1.0,
        query_every=QUERY_EVERY,
        query_exponent=QUERY_EXPONENT,
        seed=seed,
    )
    # Updates go out in batches of BATCH; the reads generated while a
    # batch filled follow it, answered against the post-batch graph.
    steps, pending, reads = [], [], []
    for __, kind, a, b in events:
        if kind == "query":
            reads.append(("query", (a, b)))
            continue
        pending.append((kind, a, b))
        if len(pending) == BATCH:
            steps.append(("batch", pending))
            steps.extend(reads)
            pending, reads = [], []
    if pending:
        steps.append(("batch", pending))
    steps.extend(reads)
    return graph, steps


def prewarm_stream(graph, seed: int):
    """Read-only warm-up queries from the stream's own Zipf distribution."""
    from repro.bench.workloads import zipf_queries

    return zipf_queries(
        graph, num_queries=PREWARM_QUERIES, exponent=QUERY_EXPONENT,
        seed=seed + 2,
    )


def replay_reference(graph, steps):
    """Expected edge counts per query step, plus the final edge-set digest."""
    from repro.core.online import pmbc_online
    from repro.graph.bipartite import BipartiteGraph, Side

    adj = [set(graph.neighbors(Side.UPPER, u)) for u in range(graph.num_upper)]
    expected = {}
    current = graph
    for position, (kind, payload) in enumerate(steps):
        if kind == "batch":
            for action, u, v in payload:
                (adj[u].add if action == "insert" else adj[u].discard)(v)
            current = None
            continue
        if current is None:  # rebuilt once per batch, for the reads after it
            current = BipartiteGraph([sorted(n) for n in adj], num_lower=graph.num_lower)
        answer = pmbc_online(current, *payload, TAU, TAU, kernel="set")
        expected[position] = answer.num_edges if answer else 0
    final = BipartiteGraph([sorted(n) for n in adj], num_lower=graph.num_lower)
    return expected, edge_digest(final)


def _prewarm(conn, port: int, prewarm, reference) -> int:
    """Send the read-only warm-up and let any builder drain; returns failures."""
    from http_zipf import drain_builder

    wrong = 0
    for k, (side, vertex) in enumerate(prewarm):
        status, reply = conn.post("/query", query_body(side, vertex, TAU, f"w{k}"))
        if status != 200 or answer_edges(reply) != reference[(side, vertex)]:
            wrong += 1
    drain_builder(port)
    return wrong


def _replay(server, prewarm, reference, steps, expected, warm: int):
    """Warm up, then send every step in order; returns timings and checks.

    Request latencies are scaled to the reference host speed by probes
    between chunks of ``PROBE_EVERY`` steps; raw ones are kept too.
    """
    conn = Conn(server.port)
    perf = time.perf_counter
    query_ms, update_ms, raw_ms, statuses = {}, {}, {}, []
    wrong = rejected = queries = batches = measured_updates = 0
    try:
        wrong += _prewarm(conn, server.port, prewarm, reference)
        probes, chunks, chunk = [probe()], [], []
        for position, (kind, payload) in enumerate(steps):
            t0 = perf()
            if kind == "batch":
                rid = f"u{batches}"
                batches += 1
                status, reply = conn.post("/update", {"updates": [
                    {"action": a, "u": u, "v": v} for a, u, v in payload
                ]})
            else:
                rid = f"q{queries}"
                queries += 1
                status, reply = conn.post("/query", query_body(*payload, TAU, rid))
            elapsed = (perf() - t0) * 1e3
            statuses.append(status)
            if status != 200:
                rejected += 1
                print(f"  step {position} ({kind}) answered {status}: {reply}",
                      file=sys.stderr)
            elif kind == "query" and answer_edges(reply) != expected[position]:
                wrong += 1
                print(f"  step {position} query {payload}: {answer_edges(reply)} "
                      f"edges from {reply.get('backend')}, expected "
                      f"{expected[position]}", file=sys.stderr)
            if position >= warm:
                chunk.append((rid, elapsed))
                if kind == "batch":
                    measured_updates += len(payload)
            if (position + 1) % PROBE_EVERY == 0 or position == len(steps) - 1:
                probes.append(probe())
                chunks.append(chunk)
                chunk = []
        for part, factor in zip(chunks, chunk_factors(probes)):
            for rid, ms in part:
                (update_ms if rid[0] == "u" else query_ms)[rid] = ms * factor
                raw_ms[rid] = ms
        stats = conn.get_json("/stats")
        metrics_text = conn.get("/metrics")[1].decode()
    finally:
        conn.close()
    return {
        "query_ms": query_ms,
        "update_ms": update_ms,
        "raw_ms": raw_ms,
        "measured_updates": measured_updates,
        "wrong": wrong,
        "rejected": rejected,
        "attempted": len(prewarm) + len(steps),
        "statuses": statuses,
        "stats": stats,
        "metrics_text": metrics_text,
    }


def _state_failures(phase, report, digest, out) -> int:
    """End-of-stream checks: final edges, exact bounds, zero re-packs."""
    problems = []
    if report.get("edge_digest") != digest:
        problems.append("final edge set differs from the replay")
    if not report.get("bounds_ok"):
        problems.append("maintained bounds differ from compute_bounds")
    repacks = (phase["stats"]["updates"].get("adjacency") or {}).get("repacks", 0)
    if repacks:
        problems.append(f"{repacks} re-pack(s) on the steady-state stream")
    for problem in problems:
        print(f"  check failed: {problem}", file=out)
    return len(problems)


def run(seed: int, seconds: float, trace: bool, out=sys.stdout) -> dict:
    """Run the workload; see :func:`run.main` for the result shape."""
    from http_zipf import reference_edges

    graph, steps = schedule(seed, seconds / 2 if trace else seconds)
    prewarm = prewarm_stream(graph, seed)
    reference = reference_edges(graph, prewarm)
    expected, digest = replay_reference(graph, steps)
    warm = int(len(steps) * WARMUP_FRACTION)
    request = query_body(*prewarm[0], TAU, "setup")

    setups, raw_setups = [], []
    server = None
    for __ in range(1 if trace else SETUP_REPEATS):
        if server is not None:
            server.stop()
        before = probe()
        elapsed, server = time_to_first_answer(DATASET, request, False, ADAPTIVE)
        setups.append(elapsed * scale(before, probe()))
        raw_setups.append(elapsed)
    try:
        phase = _replay(server, prewarm, reference, steps, expected, warm)
        report = server.stop()
    finally:
        server.kill()
    state_failed = _state_failures(phase, report, digest, out)
    queries = list(phase["query_ms"].values())
    batches = list(phase["update_ms"].values())
    # Closed loop, one connection: reads per second of (scaled) request
    # time, update batches included.
    plain = {
        "query_p50_ms": median(queries),
        "query_p90_ms": percentile(queries, 90),
        "query_p99_ms": percentile(queries, 99),
        "queries_per_s": len(queries) / ((sum(queries) + sum(batches)) / 1e3),
    }
    raw = phase["raw_ms"]
    raw_queries = [raw[rid] for rid in phase["query_ms"]]
    failed = phase["wrong"] + phase["rejected"] + state_failed
    stats = phase["stats"]["updates"]
    table(f"update_churn seed={seed}: {DATASET} tau={TAU}, batches of {BATCH} "
          f"+ 4 reads each, closed loop over one keep-alive connection", [
              ("query_p50_ms", plain["query_p50_ms"], "ms"),
              ("query_p90_ms", plain["query_p90_ms"], "ms"),
              ("query_p99_ms (printed, not gated)", plain["query_p99_ms"], "ms"),
              ("queries_per_s", plain["queries_per_s"], "1/s"),
              ("raw query_p50_ms / query_p99_ms",
               f"{median(raw_queries):.4f} / {percentile(raw_queries, 99):.4f}", "ms"),
              ("updates_per_s", phase["measured_updates"] / (sum(batches) / 1e3), "1/s"),
              ("update_p50_ms", median(batches), "ms"),
              ("update_p99_ms", percentile(batches, 99), "ms"),
              ("samples (queries / batches)", f"{len(queries)} / {len(batches)}", ""),
              ("failed_frac", ratio(failed, phase["attempted"]), "ratio"),
              ("cascade_vertices (exact)", stats["cascade_vertices"], "count"),
              ("repacks", (stats.get("adjacency") or {}).get("repacks", 0), "count"),
              ("setup_s (median of %d)" % len(setups), median(setups), "s"),
              ("raw setup_s", median(raw_setups), "s"),
          ], out)
    result = {
        "correct": failed == 0,
        "attempted": phase["attempted"],
        "failed": failed,
    }
    if not trace:
        result["metrics"] = {
            "setup_s": median(setups),
            "peak_rss_mb": report["peak_rss_mb"],
            **plain,
        }
        return result

    __, traced_server = time_to_first_answer(DATASET, request, True, ADAPTIVE)
    try:
        traced = _replay(traced_server, prewarm, reference, steps, expected, warm)
        traced_report = traced_server.stop()
    finally:
        traced_server.kill()
    failed += traced["wrong"] + traced["rejected"]
    failed += _state_failures(traced, traced_report, digest, out)
    # Spans are raw times, so the layer split uses raw client latencies.
    raw = traced["raw_ms"]
    layers, flow = server_layers(
        traced_report["spans"],
        {rid: raw[rid] for rid in traced["query_ms"]},
        {rid: raw[rid] for rid in traced["update_ms"]},
        traced["stats"], traced["metrics_text"], traced["statuses"],
    )
    # Exact counts: the traced replay must reproduce the untraced one.
    if traced["stats"]["updates"]["cascade_vertices"] != stats["cascade_vertices"]:
        print("  exact-count check: corenum.cascade_vertices differs between "
              "the untraced and traced replays", file=out)
        failed += 1
    layers["trace.overhead_ms"] = (
        median(list(traced["query_ms"].values())) - plain["query_p50_ms"]
    )
    result.update(
        correct=failed == 0,
        attempted=phase["attempted"] + traced["attempted"],
        failed=failed,
        layers=layers,
        waterfall=flow,
    )
    return result
