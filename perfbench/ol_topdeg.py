"""``ol_topdeg``: library-direct PMBC-OL* on top-degree queries.

The paper's Fig 6/7 workload and the kernel-direct floor: one closed-loop
caller runs ``pmbc_online`` with precomputed (α,β)-core bounds on
``top_degree_queries`` over the four scalability datasets at
τ ∈ {2, 3, 5}, in seed-shuffled passes until the time is up.  The
kernel, mbc and core.online layers do all the work and the serving
layers none, so a front-end or tier change should leave it flat.
"""

from __future__ import annotations

import random
import sys
import time

from metrics import EXACT_COUNTS
from speed import chunk_factors, probe, scale
from stats import median, peak_rss_mb, percentile, table

TAUS = (2, 3, 5)
# Per dataset, the seed picks QUERIES of the POOL highest-degree
# vertices: most of the pool, so seeds differ in inputs without moving
# the latency mix much.
QUERIES = 45
POOL = 50
SETUP_REPEATS = 5
# Queries between host-speed probes (a chunk takes about 30 ms).
PROBE_EVERY = 30


def setup(seed: int):
    """Generate the graphs, their bounds and the query list; time it.

    Returns ``(seconds, bounds_seconds, graphs, bounds, queries)``.  The
    dataset cache is cleared first so every repeat pays generation.
    """
    from repro.bench.workloads import top_degree_queries
    from repro.corenum.bounds import compute_bounds
    from repro.datasets.zoo import load_dataset, scalability_dataset_names

    load_dataset.cache_clear()
    start = time.perf_counter()
    graphs, bounds, queries = {}, {}, []
    bounds_s = 0.0
    for name in scalability_dataset_names():
        graphs[name] = load_dataset(name)
        t0 = time.perf_counter()
        bounds[name] = compute_bounds(graphs[name])
        bounds_s += time.perf_counter() - t0
        for side, vertex in top_degree_queries(
            graphs[name], num_queries=QUERIES, pool_size=POOL, seed=seed
        ):
            for tau in TAUS:
                queries.append((name, side, vertex, tau))
    return time.perf_counter() - start, bounds_s, graphs, bounds, queries


def reference_edges(graphs, queries) -> list[int]:
    """Edge counts from the ``set`` reference kernel (no bounds)."""
    from repro.core.online import pmbc_online

    edges = []
    for name, side, vertex, tau in queries:
        answer = pmbc_online(graphs[name], side, vertex, tau, tau, kernel="set")
        edges.append(answer.num_edges if answer else 0)
    return edges


def _measure(graphs, bounds, queries, seconds, rng, tracer=None):
    """Closed-loop passes until ``seconds`` are used (at least one pass).

    Returns the per-query ``(index, scaled ms, raw ms, edges, counters)``
    records and the wall time they took.  A host-speed probe runs
    between chunks of ``PROBE_EVERY`` queries; a chunk's latencies are
    scaled by the probes around it (see :mod:`speed`).
    """
    from repro.core.online import pmbc_online
    from repro.obs.trace import SearchTrace, use_trace

    order = list(range(len(queries)))
    chunks = []
    probes = [probe()]
    done = 0
    perf = time.perf_counter
    start = perf()
    while not chunks or perf() < start + seconds:  # at least one pass
        rng.shuffle(order)
        for first in range(0, len(order), PROBE_EVERY):
            chunk = []
            for i in order[first:first + PROBE_EVERY]:
                name, side, vertex, tau = queries[i]
                if tracer is None:
                    t0 = perf()
                    answer = pmbc_online(
                        graphs[name], side, vertex, tau, tau, bounds=bounds[name]
                    )
                    elapsed = perf() - t0
                    counters = None
                else:
                    trace = SearchTrace(trace_id=f"q{done + len(chunk)}")
                    t0 = perf()
                    with use_trace(trace):
                        answer = pmbc_online(
                            graphs[name], side, vertex, tau, tau, bounds=bounds[name]
                        )
                    elapsed = perf() - t0
                    counters = (
                        trace.counters.get("bb_nodes", 0),
                        sum(trace.prunes.values()),
                        trace.counters.get("progressive_rounds", 0),
                        trace.counters.get("twohop_vertices", 0),
                    )
                chunk.append((i, elapsed * 1e3, answer.num_edges if answer else 0,
                              counters))
            probes.append(probe())
            chunks.append(chunk)
            done += len(chunk)
    wall = perf() - start
    records = [
        (i, ms * factor, ms, edges, counters)
        for chunk, factor in zip(chunks, chunk_factors(probes))
        for i, ms, edges, counters in chunk
    ]
    return records, wall


def _timed_setup(seed: int):
    """:func:`setup` with its time scaled to the reference host speed."""
    before = probe()
    elapsed, bounds_s, *built = setup(seed)
    factor = scale(before, probe())
    return (elapsed * factor, elapsed, bounds_s * factor, *built)


def run(seed: int, seconds: float, trace: bool, out=sys.stdout) -> dict:
    """Run the workload; see :func:`run.main` for the result shape."""
    setups = []
    for __ in range(SETUP_REPEATS):
        elapsed, raw_s, bounds_s, graphs, bounds, queries = _timed_setup(seed)
        setups.append((elapsed, raw_s, bounds_s))
    reference = reference_edges(graphs, queries)
    rng = random.Random(seed)
    # Untimed warm-up pass over every config: lazy imports, first-touch
    # allocations.  Peak memory is read after it, so it covers the
    # search itself but not the run-length-dependent sample store.
    _measure(graphs, bounds, queries, 0.0, rng)
    peak_mb = peak_rss_mb()

    measure_s = seconds / 2 if trace else seconds
    records, wall = _measure(graphs, bounds, queries, measure_s, rng)
    latencies = [ms for __, ms, __, __, __ in records]
    raw = [ms for __, __, ms, __, __ in records]
    wrong = sum(1 for i, __, __, edges, __ in records if edges != reference[i])
    plain = {
        "query_p50_ms": median(latencies),
        "query_p90_ms": percentile(latencies, 90),
        "query_p99_ms": percentile(latencies, 99),
        # Closed loop, one caller: queries per second of (scaled) query time.
        "queries_per_s": len(records) / (sum(latencies) / 1e3),
    }
    setup_s = median([s for s, __, __ in setups])
    table(f"ol_topdeg seed={seed}: {len(queries)} (dataset, vertex, tau) "
          f"configs, PMBC-OL* closed loop, one caller", [
              ("query_p50_ms", plain["query_p50_ms"], "ms"),
              ("query_p90_ms", plain["query_p90_ms"], "ms"),
              ("query_p99_ms (printed, not gated)", plain["query_p99_ms"], "ms"),
              ("samples", len(latencies), "queries"),
              ("queries_per_s", plain["queries_per_s"], "1/s"),
              ("raw query_p50_ms / query_p99_ms",
               f"{median(raw):.4f} / {percentile(raw, 99):.4f}", "ms"),
              ("raw queries_per_s (wall, probes included)", len(records) / wall, "1/s"),
              ("failed_frac", wrong / len(records), "ratio"),
              ("setup_s (median of %d)" % SETUP_REPEATS, setup_s, "s"),
              ("raw setup_s", median([r for __, r, __ in setups]), "s"),
          ], out)
    result = {"correct": wrong == 0, "attempted": len(records), "failed": wrong}
    if not trace:
        result["metrics"] = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_mb,
            **plain,
        }
        return result

    from layers import search_layers
    from tracing import SEARCH_TARGETS, Tracer, waterfall

    tracer = Tracer()
    tracer.install(SEARCH_TARGETS)
    try:
        traced, __ = _measure(graphs, bounds, queries, measure_s, rng, tracer)
    finally:
        tracer.uninstall()
    # Exact counts: every repeat of a config must reproduce its first
    # counters; a mismatch fails the run like a wrong answer.
    first: dict[int, tuple] = {}
    mismatched = 0
    for i, __, __, edges, counters in traced:
        if first.setdefault(i, counters) != counters:
            mismatched += 1
        if edges != reference[i]:
            wrong += 1
    per_config = [first[i] for i in sorted(first)]
    roots = {f"q{k}": ms for k, (__, __, ms, __, __) in enumerate(traced)}
    flow = waterfall(tracer.spans, roots)
    layers = search_layers(tracer.spans, set(roots), len(roots))
    for position, name in enumerate(EXACT_COUNTS["ol_topdeg"]):
        layers[name] = sum(c[position] for c in per_config) / len(per_config)
    layers["corenum.compute_bounds_ms"] = median([b for __, __, b in setups]) * 1e3
    layers["trace.coverage"] = flow["coverage"]
    layers["trace.overhead_ms"] = (
        median([ms for __, ms, __, __, __ in traced]) - plain["query_p50_ms"]
    )
    if mismatched:
        print(f"  exact-count check: {mismatched} repeats disagreed", file=out)
    failed = wrong + mismatched
    result.update(
        correct=failed == 0,
        attempted=len(records) + len(traced),
        failed=failed,
        layers=layers,
        waterfall=flow,
    )
    return result
