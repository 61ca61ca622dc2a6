"""``http_zipf``: HTTP keep-alive Zipf stream on Amazon at τ=2, 200 qps.

One load process sends a Zipf-skewed query stream (s=1.05) over
keep-alive connections to an ``AsyncPMBCServer`` over an unsharded
``PMBCService`` (adaptive tier on, ``pmbc serve`` defaults otherwise)
running in its own process.  Repeats hit the partial tier, the engine
LRU and single-flight, so the front-end, the service hop and the tiers
do most of the work.

Phases: an untimed open-loop warm-up at the nominal rate; the measured
phase at the nominal rate over one connection (end-to-end metrics);
then an open-loop rate ladder over two connections, latency from each
request's scheduled send, starting at the nominal rate (printed only,
with ``max_qps``: the highest rung whose p99 stays within the limit
with at most 1 % failed and no growing backlog).

The measured phase is paced, not open: request ``k`` goes out at its
due time ``k / rate`` or when the previous answer arrives, whichever is
later, and its latency runs from that send.  On the shared 2-core
reference host the open-loop figures did not repeat: a background build
can hold the interpreter for up to ~100 ms and stalls every request due
meanwhile, and the open-loop p99 spread 52 % over five seeds.  Paced,
such a build delays one request.
"""

from __future__ import annotations

import sys
import time

from client import Conn, answer_edges, open_loop, query_body, time_to_first_answer
from layers import server_layers
from speed import chunk_factors, probe, scale
from stats import median, percentile, ratio, table

DATASET = "Amazon"
TAU = 2
EXPONENT = 1.05
NOMINAL_QPS = 200.0
# Untimed warm-up at the nominal rate; the measured phase then starts
# once the adaptive builder has no hot vertex left to build.
WARMUP_S = 4.0
DRAIN_TIMEOUT_S = 10.0
# The measured phase lasts --seconds; the printed ladder runs after it.
# Requests between host-speed probes (40 ms at the nominal rate; the
# probe runs in the idle time before the next request is due).
PROBE_EVERY = 8
SETUP_REPEATS = 5
LADDER_QPS = (NOMINAL_QPS, 400.0, 560.0, 800.0, 1120.0, 1600.0)
LADDER_RUNG_S = 1.5
P99_LIMIT_MS = 50.0
MAX_FAILED_FRAC = 0.01
# A run whose generator sent later than this (p99) is flagged invalid.
MAX_LAG_MS = 5.0


def _stream(seed: int, count: int):
    from repro.bench.workloads import zipf_queries
    from repro.datasets.zoo import load_dataset

    graph = load_dataset(DATASET)
    return graph, zipf_queries(graph, num_queries=count, exponent=EXPONENT, seed=seed)


def reference_edges(graph, stream) -> dict:
    """Edge counts from the ``set`` reference kernel, one per distinct vertex."""
    from repro.core.online import pmbc_online

    reference = {}
    for side, vertex in stream:
        if (side, vertex) not in reference:
            answer = pmbc_online(graph, side, vertex, TAU, TAU, kernel="set")
            reference[(side, vertex)] = answer.num_edges if answer else 0
    return reference


class _Feed:
    """Hands out consecutive slices of the stream as request bodies."""

    def __init__(self, stream) -> None:
        self.stream = stream
        self.pos = 0

    def take(self, count: int):
        items = self.stream[self.pos:self.pos + count]
        bodies = [
            query_body(side, vertex, TAU, f"q{self.pos + k}")
            for k, (side, vertex) in enumerate(items)
        ]
        self.pos += count
        return items, bodies


def _check(samples, items, reference) -> tuple[int, int]:
    """``(non-200, wrong answers)`` of one open-loop phase."""
    rejected = wrong = 0
    for sample, key in zip(samples, items):
        if sample.status != 200:
            rejected += 1
        elif sample.edges != reference[key]:
            wrong += 1
            print(f"  query {key}: {sample.edges} edges, expected "
                  f"{reference[key]}", file=sys.stderr)
    return rejected, wrong


def _ladder(port: int, feed: _Feed, reference, out) -> tuple[float, int]:
    """Climb the rate ladder; returns ``(max_qps, wrong answers)``."""
    best = 0.0
    wrong_total = 0
    for rate in LADDER_QPS:
        items, bodies = feed.take(int(rate * LADDER_RUNG_S))
        samples = open_loop(port, bodies, rate)
        rejected, wrong = _check(samples, items, reference)
        wrong_total += wrong
        lat = [(s.done - s.scheduled) * 1e3 for s in samples if s.status == 200]
        p50, p99 = (median(lat), percentile(lat, 99)) if lat else (0.0, float("inf"))
        quarter = max(1, len(samples) // 4)
        head = median([s.sent - s.scheduled for s in samples[:quarter]])
        tail = median([s.sent - s.scheduled for s in samples[-quarter:]])
        backlog = (tail - head) * 1e3 > P99_LIMIT_MS / 2
        failed_frac = ratio(rejected + wrong, len(samples))
        ok = p99 <= P99_LIMIT_MS and failed_frac <= MAX_FAILED_FRAC and not backlog
        print(
            f"  ladder {rate:5.0f} qps: p50 {p50:7.3f} p99 {p99:9.3f} ms (raw) "
            f"over {len(lat)}, failed {failed_frac:.3%}, "
            f"backlog {'yes' if backlog else 'no'} -> {'pass' if ok else 'stop'}",
            file=out,
        )
        if not ok:
            break
        best = rate
    return best, wrong_total


def _paced(port: int, items, bodies, reference) -> dict:
    """Send ``bodies`` over one connection, paced at the nominal rate.

    Request ``k`` goes out at ``k / NOMINAL_QPS`` or when the previous
    answer arrives, whichever is later; latency runs from its send.
    Latencies are scaled to the reference host speed by probes between
    chunks of ``PROBE_EVERY`` requests (the server is idle then, but
    for background builds); raw ones are kept beside them.
    """
    conn = Conn(port)
    perf = time.perf_counter
    scaled, raw, statuses = {}, {}, []
    rejected = wrong = 0
    try:
        probes, chunks, chunk = [probe()], [], []
        start = perf()
        for k, (key, body) in enumerate(zip(items, bodies)):
            wait = start + k / NOMINAL_QPS - perf()
            if wait > 0:
                time.sleep(wait)
            t0 = perf()
            status, reply = conn.post("/query", body)
            elapsed = (perf() - t0) * 1e3
            statuses.append(status)
            if status != 200:
                rejected += 1
            elif answer_edges(reply) != reference[key]:
                wrong += 1
                print(f"  query {key}: {answer_edges(reply)} edges, expected "
                      f"{reference[key]}", file=sys.stderr)
            else:
                chunk.append((body["trace_id"], elapsed))
            if (k + 1) % PROBE_EVERY == 0 or k == len(bodies) - 1:
                probes.append(probe())
                chunks.append(chunk)
                chunk = []
        wall = perf() - start
    finally:
        conn.close()
    for part, factor in zip(chunks, chunk_factors(probes)):
        for rid, ms in part:
            scaled[rid] = ms * factor
            raw[rid] = ms
    return {"scaled": scaled, "raw": raw, "statuses": statuses,
            "failed": rejected + wrong, "rate": len(bodies) / wall}


def _phase(server, feed: _Feed, reference, count: int):
    """Open-loop warm-up, then ``count`` measured paced queries."""
    items, bodies = feed.take(int(NOMINAL_QPS * WARMUP_S))
    warm = open_loop(server.port, bodies, NOMINAL_QPS)
    warm_rejected, warm_wrong = _check(warm, items, reference)
    drain_builder(server.port)
    items, bodies = feed.take(count)
    paced = _paced(server.port, items, bodies, reference)
    return {
        **paced,
        "attempted": len(warm) + len(bodies),
        "failed": warm_rejected + warm_wrong + paced["failed"],
        "statuses": [s.status for s in warm] + paced["statuses"],
        "lag_p99_ms": percentile([s.lag * 1e3 for s in warm], 99),
    }


def drain_builder(port: int) -> None:
    """Wait (bounded) until the adaptive builder reports nothing pending."""
    conn = Conn(port)
    try:
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while time.perf_counter() < deadline:
            stats = conn.get_json("/stats")
            builder = (stats["adaptive"] or {}).get("builder") or {}
            if not builder.get("pending"):
                return
            time.sleep(0.05)
    finally:
        conn.close()


def run(seed: int, seconds: float, trace: bool, out=sys.stdout) -> dict:
    """Run the workload; see :func:`run.main` for the result shape."""
    count = max(PROBE_EVERY, int(NOMINAL_QPS * seconds * (0.5 if trace else 1.0)))
    ladder_n = 0 if trace else int(sum(LADDER_QPS) * LADDER_RUNG_S)
    per_phase = int(NOMINAL_QPS * WARMUP_S) + count
    graph, stream = _stream(seed, 1 + 2 * per_phase + ladder_n)
    reference = reference_edges(graph, stream)
    request = query_body(*stream[0], TAU, "setup")

    setups, raw_setups = [], []
    server = None
    for __ in range(1 if trace else SETUP_REPEATS):
        if server is not None:
            server.stop()
        before = probe()
        elapsed, server = time_to_first_answer(DATASET, request, False, True)
        setups.append(elapsed * scale(before, probe()))
        raw_setups.append(elapsed)
    feed = _Feed(stream[1:])
    try:
        phase = _phase(server, feed, reference, count)
        max_qps, ladder_wrong = (0.0, 0)
        if not trace:
            max_qps, ladder_wrong = _ladder(server.port, feed, reference, out)
        report = server.stop()
    finally:
        server.kill()
    lat = list(phase["scaled"].values())
    raw = list(phase["raw"].values())
    plain = {
        "query_p50_ms": median(lat),
        "query_p90_ms": percentile(lat, 90),
        "query_p99_ms": percentile(lat, 99),
        # Achieved rate at the offered NOMINAL_QPS: moves only if the
        # server cannot keep up.
        "queries_per_s": phase["rate"],
    }
    attempted = phase["attempted"]
    failed = phase["failed"] + ladder_wrong
    table(f"http_zipf seed={seed}: {DATASET} tau={TAU} zipf s={EXPONENT}, "
          f"{NOMINAL_QPS:g} qps paced over one keep-alive connection", [
              ("query_p50_ms", plain["query_p50_ms"], "ms"),
              ("query_p90_ms", plain["query_p90_ms"], "ms"),
              ("query_p99_ms (printed, not gated)", plain["query_p99_ms"], "ms"),
              ("queries_per_s (achieved)", plain["queries_per_s"], "1/s"),
              ("raw query_p50_ms / query_p99_ms",
               f"{median(raw):.4f} / {percentile(raw, 99):.4f}", "ms"),
              ("samples", len(lat), "requests"),
              ("max_qps (open loop, p99 <= %g ms)" % P99_LIMIT_MS, max_qps, "1/s"),
              ("failed_frac", ratio(failed, attempted), "ratio"),
              ("loadgen.lag_p99_ms (warm-up)", phase["lag_p99_ms"], "ms"),
              ("run valid (generator lag p99 <= %g ms)" % MAX_LAG_MS,
               "yes" if phase["lag_p99_ms"] <= MAX_LAG_MS else "NO", ""),
              ("setup_s (median of %d)" % len(setups), median(setups), "s"),
              ("raw setup_s", median(raw_setups), "s"),
          ], out)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
    }
    if not trace:
        result["metrics"] = {
            "setup_s": median(setups),
            "peak_rss_mb": report["peak_rss_mb"],
            **plain,
        }
        return result

    # Traced phase: a fresh server with spans around every layer call.
    __, traced_server = time_to_first_answer(DATASET, request, True, True)
    try:
        traced = _phase(traced_server, feed, reference, count)
        conn = Conn(traced_server.port)
        stats = conn.get_json("/stats")
        metrics_text = conn.get("/metrics")[1].decode()
        conn.close()
        traced_report = traced_server.stop()
    finally:
        traced_server.kill()
    # Spans are raw times, so the layer split uses raw client latencies.
    layers, flow = server_layers(
        traced_report["spans"], traced["raw"], {}, stats, metrics_text,
        traced["statuses"],
    )
    layers["loadgen.lag_p99_ms"] = traced["lag_p99_ms"]
    layers["trace.overhead_ms"] = (
        median(list(traced["scaled"].values())) - plain["query_p50_ms"]
    )
    result.update(
        attempted=attempted + traced["attempted"],
        failed=failed + traced["failed"],
        correct=failed + traced["failed"] == 0,
        layers=layers,
        waterfall=flow,
    )
    return result
