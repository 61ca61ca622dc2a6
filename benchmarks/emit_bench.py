#!/usr/bin/env python
"""Emit benchmark snapshots: kernel latency and adaptive serve throughput.

Four suites, selected with ``--suite {kernel,serve,load,update,all}``:

**kernel** (default) emits ``BENCH_kernel.json``, a kernel latency
snapshot covering all three compute kernels (``set``, ``bitset``,
``words``) plus a batched-vs-per-request comparison — see below.

**serve** emits ``BENCH_serve.json``: a Zipf-skewed serve workload
against a :class:`repro.serve.PMBCService` with the traffic-adaptive
partial index enabled (:mod:`repro.adaptive`).  The same stream is
replayed twice — cold (nothing resident, queries answered by the
engine/OL* path) and warm (after the background builder drained the
hot set) — and the snapshot records per-phase latency percentiles, the
answering backend mix, and the head-query speedup of the warmed
partial-index tier over the cold path.  ``--smoke`` gates on: the
builder drained, the adaptive tier answered (hits > 0), resident bytes
never exceeded the budget, and warm head p50 strictly below cold p50.

**load** merges a ``"load"`` section into ``BENCH_serve.json``: the
open-loop harness (:mod:`loadgen`) hunts the maximum sustainable
arrival rate under a p99 latency SLO for two deployments serving the
same Zipf stream behind the same asyncio front-end
(:class:`~repro.serve.AsyncPMBCServer`) with the same total worker
count — one unsharded :class:`~repro.serve.PMBCService` and a
:class:`repro.shard.ShardedService`.  ``--smoke`` gates on each stack
finding a sustainable rate with no untyped error at any sustainable
rate (the CI load-smoke gate).  The section is merged, not
overwritten: serve-suite results already in the file are preserved,
and vice versa.

**update** emits ``BENCH_update.json``: a temporal edge-update replay
(:func:`repro.bench.workloads.temporal_replay` — seeded churn with
interleaved Zipf queries) applied once through the streaming
maintenance path (:meth:`PMBCService.update_batch`: in-place
(α,β)-core bound repair, packed-adjacency patching, scoped
invalidation) and once as a per-batch full rebuild.  Both paths time
their interleaved queries at the engine layer.  Interleaved
answers are asserted equal, the final bounds and packed adjacency are
asserted identical to a from-scratch build (differential failures are
hard in every mode), and the steady-state segment must trigger zero
re-packs.  The throughput gate: incremental strictly beats rebuild in
``--smoke`` (fig6-small), and is at least 10x on the full fig6-medium
replay.

Runs the Figure 6 / Figure 7 query workloads (same datasets, query
pools and τ settings as ``test_fig6_query_time.py`` and
``test_fig7_vary_tau.py``) once per compute kernel and writes a
machine-readable snapshot to the repository root: per (suite, dataset,
config) row, p50/p95/mean per-query latency for each kernel plus two
speedups of ``bitset`` over ``set`` — ``speedup_mean`` on the workload
mean (the Figure 6 protocol: the benchmark times the whole query sweep,
so heavy personalized queries dominate, which is exactly the regime the
bitset kernel targets) and ``speedup_p50`` on the median query (the
typical-query view; small two-hop subgraphs leave word-parallelism
little to chew on, so this is the kernel's worst case).  The ``words``
kernel rides the same rows head-to-head (``speedup_mean_words`` /
``speedup_p50_words``, also over ``set``).  The summary reports the
median of each per size class; the headline metric is the workload
one.  Latencies are per-query best-of-N to keep the snapshot stable on
noisy machines.

All kernels answer every query in the same process and the result
sizes are asserted equal — each snapshot doubles as a differential run.
The plan also carries a ``balanced`` suite: the same Figure 6 datasets
queried under the pluggable ``"balanced"`` objective
(:mod:`repro.objectives`), so the snapshot covers the objective ×
kernel matrix, not just the PMBC family.

A ``batch`` suite rounds out the kernel snapshot: a Zipf-skewed
request stream (τ floors alternating, duplicates expected — that is
serving traffic) is answered once via :func:`pmbc_online_batch` and
once as a per-request :func:`pmbc_online` loop, per packed kernel.
Rows record whole-stream latency stats for both execution modes and
the speedup of batched over per-request; answers are asserted equal,
so the batch rows double as a batch-vs-single differential run.

An ``hq_sweep`` group shows the search schedule on both sides of
:data:`repro.mbc.progressive.ONE_ROUND_MAX_TWOHOP`.  No zoo dataset has
a two-hop subgraph that large, so its rows run top-degree PMBC-OL\*
queries (bitset kernel) on capped power-law generator graphs with
planted blocks.  Each query is timed under the schedule the constant
selects for its ``|H_q|`` and under the other one (the constant is set
in-process, in interleaved pairs), the two answers are asserted equal,
and every query's ``|H_q|`` is recorded.  The constant is the largest
swept ``|H_q|`` at which one round won every query.

``--smoke`` runs a two-dataset subset with fewer repeats and exits
non-zero unless (a) the bitset kernel is at least as fast as the set
kernel on every smoke row of the fig6 **pmbc** suite and (b) the batched
path beats per-request execution on every batch row (the CI
benchmark-smoke gate).  Balanced rows are exempt from the speed gate —
the balanced family switches the Lemma 9 size bounds off, so the
bitset advantage is not contractual there — and the ``words`` columns
are head-to-head measurements, not gates: the word-array kernel trades
per-query scan latency for in-place mutation, so it is expected to
trail on narrow per-query extractions and win where reduction loops
dominate.  Cross-kernel answer equality is asserted on every row
regardless.  The smoke plan also runs one ``hq_sweep`` row on each side
of the constant, as a differential check with no timing gate.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from repro.bench.workloads import top_degree_queries, zipf_queries  # noqa: E402
from repro.core.online import (  # noqa: E402
    extract_local,
    pmbc_online,
    pmbc_online_batch,
)
from repro.core.query import QueryRequest  # noqa: E402
from repro.corenum.bounds import compute_bounds  # noqa: E402
from repro.kernel import KERNEL_KINDS, PACKED_KERNELS  # noqa: E402
from repro.datasets.zoo import (  # noqa: E402
    dataset_names,
    load_dataset,
    scalability_dataset_names,
)
from repro.graph.generators import (  # noqa: E402
    capped_power_law_bipartite,
    with_planted_blocks,
)
from repro.mbc import progressive  # noqa: E402

#: Same workload scaling as benchmarks/conftest.py.
NUM_QUERIES = 20
QUERY_POOL = 50
WORKLOAD_SEED = 2022
TAU_FIG6 = 5
FIG7_TAUS = (2, 4, 6, 8, 10)
#: Dataset size classes by edge count (upper bound, class name).
SIZE_CLASSES = ((2000, "small"), (5000, "medium"), (float("inf"), "large"))

SMOKE_DATASETS = ("Writers", "StackOverflow")
BALANCED_TAU = 2

#: Batch-suite workload: a Zipf request stream (repeats are the point)
#: with alternating τ floors, answered batched vs per-request.
BATCH_NUM_QUERIES = 80
BATCH_SMOKE_QUERIES = 60
BATCH_EXPONENT = 1.2
BATCH_TAUS = (TAU_FIG6, 2)

#: hq_sweep graphs as ``(n, m, cap)``: ``capped_power_law_bipartite(n,
#: n, m, cap_upper=cap, cap_lower=cap, seed=7)`` with HQ_SWEEP_BLOCKS
#: planted (seed 3).  Their top-degree ``|H_q|`` spans are noted.
HQ_SWEEP_GRAPHS = (
    (1500, 9000, 90),  # 599-872
    (1750, 11500, 120),  # 928-1308
    (1900, 13000, 140),  # 1080-1396
    (2000, 14000, 150),  # 1196-1678
    (3000, 25000, 300),  # 2409-2875
)
HQ_SWEEP_BLOCKS = ((12, 10), (9, 14), (20, 6), (6, 25))
HQ_SWEEP_TAUS = (5, 3, 2)
#: The top-degree vertices of each graph (the pool is the sample).
HQ_SWEEP_QUERIES = 10
#: Interleaved (one round, rounds) timing pairs per query on full runs.
#: Near the crossover the schedules differ by ~10%, about the host's
#: run-to-run noise, so a query's verdict is its median per-pair ratio
#: rather than a best-of-5 comparison.
HQ_SWEEP_PAIRS = 9
#: Where the sweep stops: on the largest graph some τ=2 queries take
#: over 30 s under either schedule.
HQ_SWEEP_SKIP = (((3000, 25000, 300), 2),)
#: Smoke: one row on each side of the constant.
HQ_SWEEP_SMOKE = (((1500, 9000, 90), 5), ((2000, 14000, 150), 5))

#: Serve-suite workload: a Zipf stream against the Github dataset.
SERVE_DATASET = "Github"
SERVE_NUM_QUERIES = 400
SERVE_SMOKE_QUERIES = 150
SERVE_EXPONENT = 1.2
SERVE_TAU = 2
SERVE_BUDGET_MB = 16.0
SERVE_HOT_THRESHOLD = 2.0

#: Update-suite workload: a temporal edge-update replay with
#: interleaved queries on a fig6-medium dataset (fig6-small in smoke
#: mode), applied once through the incremental maintenance path
#: (:meth:`PMBCService.update_batch`) and once as a per-batch full
#: rebuild (fresh graph + (α,β)-core bounds from scratch).
UPDATE_DATASET = "Amazon"          # fig6-medium
UPDATE_SMOKE_DATASET = "Writers"   # fig6-small
UPDATE_NUM_EVENTS = 1500
UPDATE_SMOKE_EVENTS = 400
#: Batch size doubles as the freshness SLA: answers may lag the stream
#: by at most this many updates, and both paths must be query-ready at
#: every batch boundary (a rebuild-based system pays a full
#: graph+bounds rebuild per boundary no matter how few updates it
#: covers).
UPDATE_BATCH = 4
UPDATE_QUERY_EVERY = 40
UPDATE_TAU = 2
UPDATE_DELETE_FRACTION = 0.45
#: First fraction of the stream treated as warm-up; the remainder is
#: the steady-state segment whose re-pack counter must stay at zero.
UPDATE_WARMUP_FRACTION = 0.2

#: Load-suite workload: open-loop Zipf arrivals against two HTTP
#: stacks on a fig6-medium dataset.  Worker threads are split across
#: shards so both stacks field the same total compute.
LOAD_DATASET = "Amazon"
LOAD_STREAM = 512
LOAD_EXPONENT = 1.2
LOAD_TAU = 2
LOAD_SLO_MS = 250.0
LOAD_SHARDS = 2
LOAD_WORKERS = 4
LOAD_CACHE = 64
LOAD_DEADLINE = 1.0
LOAD_START_QPS = 32.0


def size_class(num_edges: int) -> str:
    """The size-class label for a dataset with ``num_edges`` edges."""
    for bound, label in SIZE_CLASSES:
        if num_edges < bound:
            return label
    raise AssertionError("unreachable")


def percentile(values: list[float], frac: float) -> float:
    """Nearest-rank percentile of an unsorted sample."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(frac * (len(ordered) - 1))))
    return ordered[rank]


def run_workload(graph, queries, tau, bounds, kernel, repeats, objective):
    """Per-query best-of-``repeats`` latencies (ms) and answer sizes."""
    best = [float("inf")] * len(queries)
    sizes = [0] * len(queries)
    perf_counter = time.perf_counter
    for rep in range(repeats):
        for i, (side, q) in enumerate(queries):
            t0 = perf_counter()
            result = pmbc_online(
                graph, side, q, tau, tau,
                bounds=bounds, kernel=kernel, objective=objective,
            )
            elapsed = (perf_counter() - t0) * 1e3
            if elapsed < best[i]:
                best[i] = elapsed
            if rep == 0:
                sizes[i] = result.num_edges if result is not None else 0
    return best, sizes


def latency_stats(latencies: list[float]) -> dict:
    return {
        "p50_ms": round(percentile(latencies, 0.50), 4),
        "p95_ms": round(percentile(latencies, 0.95), 4),
        "mean_ms": round(statistics.fmean(latencies), 4),
    }


def bench_case(graph, queries, tau, bounds, repeats, objective="pmbc"):
    """One (dataset, config) row: every kernel, checked and timed."""
    kernels = {}
    sizes_by_kernel = {}
    for kernel in KERNEL_KINDS:
        latencies, sizes = run_workload(
            graph, queries, tau, bounds, kernel, repeats, objective
        )
        kernels[kernel] = latency_stats(latencies)
        sizes_by_kernel[kernel] = sizes
    for kernel in PACKED_KERNELS:
        if sizes_by_kernel["set"] != sizes_by_kernel[kernel]:
            raise AssertionError(
                f"{kernel} answers diverged from set — differential "
                "failure on this config"
            )
    speedups = {
        "speedup_mean": round(
            kernels["set"]["mean_ms"] / kernels["bitset"]["mean_ms"], 3
        ),
        "speedup_p50": round(
            kernels["set"]["p50_ms"] / kernels["bitset"]["p50_ms"], 3
        ),
        "speedup_mean_words": round(
            kernels["set"]["mean_ms"] / kernels["words"]["mean_ms"], 3
        ),
        "speedup_p50_words": round(
            kernels["set"]["p50_ms"] / kernels["words"]["p50_ms"], 3
        ),
    }
    return kernels, speedups


def batch_requests(graph, num_queries):
    """The Zipf batch stream as :class:`QueryRequest`s with a τ mix.

    Alternating τ floors model clients asking different questions about
    the same hot vertices: exact duplicates (same vertex, same floors)
    exercise the duplicate collapse, near-duplicates (same vertex,
    different floors) exercise the shared extraction and the seed /
    reduction memos.
    """
    stream = zipf_queries(
        graph,
        num_queries=num_queries,
        exponent=BATCH_EXPONENT,
        seed=WORKLOAD_SEED,
    )
    return [
        QueryRequest(side, vertex, tau, tau)
        for (side, vertex), tau in zip(stream, itertools.cycle(BATCH_TAUS))
    ]


def bench_batch_case(graph, requests, bounds, kernel, repeats):
    """Batched vs per-request packed search over one request stream.

    Times ``repeats`` full passes of each execution mode over the same
    stream (whole-stream totals, not per-query) and asserts the batched
    answers match the per-request ones — a batch-vs-single differential
    check on top of the timing.
    """
    batch_totals: list[float] = []
    single_totals: list[float] = []
    perf_counter = time.perf_counter
    batched = singles = None
    for __ in range(repeats):
        t0 = perf_counter()
        batched = pmbc_online_batch(
            graph, requests, bounds=bounds, kernel=kernel
        )
        batch_totals.append((perf_counter() - t0) * 1e3)
        t0 = perf_counter()
        singles = [
            pmbc_online(
                graph,
                r.side,
                r.vertex,
                r.tau_u,
                r.tau_l,
                bounds=bounds,
                kernel=kernel,
                objective=r.objective,
            )
            for r in requests
        ]
        single_totals.append((perf_counter() - t0) * 1e3)
    batch_sizes = [b.num_edges if b else 0 for b in batched]
    single_sizes = [s.num_edges if s else 0 for s in singles]
    if batch_sizes != single_sizes:
        raise AssertionError(
            "batched answers diverged from per-request — differential "
            "failure on this config"
        )
    modes = {
        "batched": latency_stats(batch_totals),
        "per_request": latency_stats(single_totals),
    }
    speedups = {
        "speedup_mean": round(
            modes["per_request"]["mean_ms"] / modes["batched"]["mean_ms"], 3
        ),
        "speedup_p50": round(
            modes["per_request"]["p50_ms"] / modes["batched"]["p50_ms"], 3
        ),
    }
    return modes, speedups


@contextlib.contextmanager
def search_schedule(one_round_max: int):
    """Run the enclosed searches with ``ONE_ROUND_MAX_TWOHOP`` set."""
    shipped = progressive.ONE_ROUND_MAX_TWOHOP
    progressive.ONE_ROUND_MAX_TWOHOP = one_round_max
    try:
        yield
    finally:
        progressive.ONE_ROUND_MAX_TWOHOP = shipped


def hq_sweep_graph(n: int, m: int, cap: int):
    """One hq_sweep generator graph (see ``HQ_SWEEP_GRAPHS``)."""
    graph = capped_power_law_bipartite(
        n, n, m, cap_upper=cap, cap_lower=cap, seed=7
    )
    return with_planted_blocks(graph, HQ_SWEEP_BLOCKS, seed=3)


def bench_hq_case(graph, queries, tau, bounds, pairs):
    """One hq_sweep row: each query timed in ``pairs`` interleaved
    (one round, rounds) pairs, alternating which goes first.

    The schedule the shipped constant selects for a query's ``|H_q|``
    is its ``schedule``; the row totals compare that choice against
    always taking the other one.
    """
    shipped = progressive.ONE_ROUND_MAX_TWOHOP
    schedules = {"one_round": 10**9, "rounds": 0}
    perf_counter = time.perf_counter
    rows = []
    for side, q in queries:
        local = extract_local(graph, side, q, "bitset")
        hq = local.num_upper + local.num_lower
        best = dict.fromkeys(schedules, float("inf"))
        edges = {}
        ratios = []
        for pair in range(pairs):
            order = list(schedules.items())
            if pair % 2:
                order.reverse()
            elapsed = {}
            for name, one_round_max in order:
                with search_schedule(one_round_max):
                    t0 = perf_counter()
                    result = pmbc_online(
                        graph, side, q, tau, tau,
                        bounds=bounds, kernel="bitset",
                    )
                    elapsed[name] = (perf_counter() - t0) * 1e3
                best[name] = min(best[name], elapsed[name])
                edges[name] = result.num_edges if result is not None else 0
            ratios.append(elapsed["one_round"] / elapsed["rounds"])
        if edges["one_round"] != edges["rounds"]:
            raise AssertionError(
                f"one round and the rounds disagree on {side.value} {q} "
                f"at tau={tau}: {edges} — differential failure"
            )
        rows.append(
            {
                "side": side.value,
                "vertex": q,
                "hq": hq,
                "schedule": "one_round" if hq <= shipped else "rounds",
                "one_round_ms": round(best["one_round"], 4),
                "rounds_ms": round(best["rounds"], 4),
                "one_round_ratio": round(statistics.median(ratios), 3),
                "edges": edges["rounds"],
            }
        )
    totals = {
        name: round(sum(r[f"{name}_ms"] for r in rows), 4)
        for name in schedules
    }
    totals["selected"] = round(
        sum(r[f"{r['schedule']}_ms"] for r in rows), 4
    )
    totals["other"] = round(
        totals["one_round"] + totals["rounds"] - totals["selected"], 4
    )
    return {
        "hq_min": min(r["hq"] for r in rows),
        "hq_max": max(r["hq"] for r in rows),
        "one_round_wins": sum(r["one_round_ratio"] < 1 for r in rows),
        "totals_ms": totals,
        "speedup_selected": round(totals["other"] / totals["selected"], 3),
        "queries": rows,
    }


def build_plan(smoke: bool, only: list[str] | None):
    """The (suite, dataset, config, tau, with_bounds, objective) rows."""
    plan = []
    fig6_datasets = SMOKE_DATASETS if smoke else tuple(dataset_names())
    if only:
        fig6_datasets = tuple(d for d in fig6_datasets if d in only) or tuple(
            only
        )
    for dataset in fig6_datasets:
        plan.append(
            ("fig6", dataset, f"OL tau={TAU_FIG6}", TAU_FIG6, False, "pmbc")
        )
        plan.append(
            ("fig6", dataset, f"OL* tau={TAU_FIG6}", TAU_FIG6, True, "pmbc")
        )
    for dataset in fig6_datasets:
        plan.append(
            (
                "balanced",
                dataset,
                f"OL* tau={BALANCED_TAU}",
                BALANCED_TAU,
                True,
                "balanced",
            )
        )
    if not smoke:
        for dataset in scalability_dataset_names():
            if only and dataset not in only:
                continue
            for tau in FIG7_TAUS:
                plan.append(
                    ("fig7", dataset, f"OL* tau={tau}", tau, True, "pmbc")
                )
    return plan


def replay(service, stream, tau):
    """Replay a query stream; per-query ``(latency_ms, backend)`` rows."""
    rows = []
    perf_counter = time.perf_counter
    for side, vertex in stream:
        t0 = perf_counter()
        result = service.query(side, vertex, tau, tau)
        rows.append(((perf_counter() - t0) * 1e3, result.backend))
    return rows


def phase_stats(rows) -> dict:
    """Latency percentiles plus the answering-backend mix of a phase."""
    backends: dict[str, int] = {}
    for __, backend in rows:
        backends[backend] = backends.get(backend, 0) + 1
    return {
        **latency_stats([ms for ms, __ in rows]),
        "by_backend": backends,
    }


def bench_serve(smoke: bool) -> tuple[dict, list[str]]:
    """Cold-vs-warm Zipf serve run; returns ``(snapshot_body, failures)``.

    The cold phase measures the degradation chain with nothing
    resident; after the background builder drains the hot set, the
    identical stream is replayed warm.  The headline comparison is
    *head* queries only: cold p50 over queries the partial tier did
    not answer vs warm p50 over queries it did.
    """
    from repro.bench.workloads import zipf_queries
    from repro.serve.service import PMBCService, ServiceConfig

    num_queries = SERVE_SMOKE_QUERIES if smoke else SERVE_NUM_QUERIES
    graph = load_dataset(SERVE_DATASET)
    stream = zipf_queries(
        graph,
        num_queries=num_queries,
        exponent=SERVE_EXPONENT,
        seed=WORKLOAD_SEED,
    )
    config = ServiceConfig(
        num_workers=2,
        max_queue=num_queries + 8,
        adaptive=True,
        index_budget_mb=SERVE_BUDGET_MB,
        hot_threshold=SERVE_HOT_THRESHOLD,
        build_interval=0.02,
    )
    budget_bytes = config.index_budget_bytes
    with PMBCService(graph, config=config) as service:
        cold_rows = replay(service, stream, SERVE_TAU)
        drained = service.builder.drain(timeout=60.0)
        warm_rows = replay(service, stream, SERVE_TAU)
        stats = service.stats()
    adaptive = stats["adaptive"]
    partial = adaptive["partial_index"]

    cold_head = [ms for ms, backend in cold_rows if backend != "partial"]
    warm_head = [ms for ms, backend in warm_rows if backend == "partial"]
    failures: list[str] = []
    if not drained:
        failures.append("background builder did not drain the hot set")
    if not adaptive["hits"]:
        failures.append("adaptive tier answered no queries (hits == 0)")
    if partial["bytes"] > budget_bytes:
        failures.append(
            f"resident bytes {partial['bytes']} exceed budget {budget_bytes}"
        )
    summary = {
        "drained": drained,
        "head_queries_warm": len(warm_head),
        "head_fraction_warm": round(len(warm_head) / len(warm_rows), 3),
    }
    if cold_head and warm_head:
        cold_p50 = percentile(cold_head, 0.50)
        warm_p50 = percentile(warm_head, 0.50)
        summary.update(
            cold_head_p50_ms=round(cold_p50, 4),
            warm_head_p50_ms=round(warm_p50, 4),
            head_speedup_p50=round(cold_p50 / warm_p50, 3)
            if warm_p50
            else None,
        )
        if warm_p50 >= cold_p50:
            failures.append(
                f"warm head p50 {warm_p50:.4f}ms not better than "
                f"cold {cold_p50:.4f}ms"
            )
    else:
        failures.append("no head queries to compare (empty cold/warm sets)")

    body = {
        "workload": {
            "dataset": SERVE_DATASET,
            "num_queries": num_queries,
            "exponent": SERVE_EXPONENT,
            "tau": SERVE_TAU,
            "seed": WORKLOAD_SEED,
            "budget_mb": SERVE_BUDGET_MB,
            "hot_threshold": SERVE_HOT_THRESHOLD,
        },
        "phases": {
            "cold": phase_stats(cold_rows),
            "warm": phase_stats(warm_rows),
        },
        "adaptive": {
            "hits": adaptive["hits"],
            "misses": adaptive["misses"],
            "builds": adaptive["builder"]["builds"],
            "entries": partial["entries"],
            "bytes": partial["bytes"],
            "budget_bytes": budget_bytes,
            "evictions": partial["evictions"],
            "coverage": stats["index_coverage"]["adaptive"]["fraction"],
        },
        "summary": summary,
    }
    return body, failures


def bench_load(smoke: bool) -> tuple[dict, list[str]]:
    """Open-loop rate hunt for both deployments; ``(body, failures)``.

    Drives the same repeating Zipf request stream at fixed arrival
    rates (latency measured from each request's *scheduled* arrival,
    so queue build-up counts — no coordinated omission) and bisects
    for the max rate whose p99 stays under :data:`LOAD_SLO_MS` with at
    most ~1% rejects/deadline-misses/errors.  Both the unsharded
    service and the sharded stack (same total workers) run behind the
    one asyncio front-end, so the rows differ only in sharding.
    """
    from loadgen import (
        HTTPTarget,
        ResourceCaps,
        find_max_sustainable,
        zipf_request_stream,
    )
    from repro.serve import AsyncPMBCServer, PMBCService, ServiceConfig
    from repro.shard import ShardedService

    graph = load_dataset(LOAD_DATASET)
    requests = zipf_request_stream(
        graph, LOAD_STREAM, LOAD_TAU, LOAD_EXPONENT, WORKLOAD_SEED
    )
    duration = 1.0 if smoke else 2.0
    refine = 1 if smoke else 2
    wall_cap = 45.0 if smoke else 180.0

    def measure(label: str, service) -> dict:
        with AsyncPMBCServer(service, port=0) as server:
            target = HTTPTarget(server.url, deadline=LOAD_DEADLINE)
            best, runs, notes = find_max_sustainable(
                target,
                requests,
                start_qps=LOAD_START_QPS,
                duration=duration,
                slo_ms=LOAD_SLO_MS,
                refine_steps=refine,
                caps=ResourceCaps(wall_seconds=wall_cap),
                log=lambda msg: print(f"[{label}]{msg}", flush=True),
            )
        return {
            "max_sustainable_qps": round(best.offered_qps, 2)
            if best
            else None,
            "best": best.to_json() if best else None,
            "rates": [r.to_json() for r in runs],
            "notes": notes,
        }

    single_config = ServiceConfig(
        num_workers=LOAD_WORKERS,
        max_queue=LOAD_STREAM,
        cache_size=LOAD_CACHE,
        default_deadline=LOAD_DEADLINE,
    )
    single = PMBCService(graph, config=single_config).start()
    single_report = measure("single  ", single)

    shard_config = ServiceConfig(
        num_workers=max(1, LOAD_WORKERS // LOAD_SHARDS),
        max_queue=max(64, LOAD_STREAM // LOAD_SHARDS),
        cache_size=LOAD_CACHE,
        default_deadline=LOAD_DEADLINE,
    )
    sharded = ShardedService(graph, LOAD_SHARDS, config=shard_config).start()
    sharded_report = measure(f"sharded{LOAD_SHARDS}", sharded)

    single_qps = single_report["max_sustainable_qps"]
    sharded_qps = sharded_report["max_sustainable_qps"]
    failures: list[str] = []
    for name, report in (("single", single_report), ("sharded", sharded_report)):
        if report["max_sustainable_qps"] is None:
            failures.append(f"{name} stack found no sustainable rate")
        for run in report["rates"]:
            if run["sustainable"] and run["errors"]:
                failures.append(
                    f"{name} stack failed {run['errors']} requests as "
                    f"untyped errors at a sustainable "
                    f"{run['offered_qps']:g} qps"
                )
    summary = {
        "slo_p99_ms": LOAD_SLO_MS,
        "single_qps": single_qps,
        "sharded_qps": sharded_qps,
        "speedup": round(sharded_qps / single_qps, 3)
        if single_qps and sharded_qps
        else None,
    }
    body = {
        "workload": {
            "dataset": LOAD_DATASET,
            "stream": LOAD_STREAM,
            "exponent": LOAD_EXPONENT,
            "tau": LOAD_TAU,
            "seed": WORKLOAD_SEED,
            "slo_p99_ms": LOAD_SLO_MS,
            "deadline_seconds": LOAD_DEADLINE,
            "run_duration_seconds": duration,
            "timing": "open-loop, latency from scheduled arrival",
        },
        "configs": {
            "single": {
                "front_end": "asyncio",
                "shards": 1,
                "workers": LOAD_WORKERS,
                "cache_size": LOAD_CACHE,
                **single_report,
            },
            "sharded": {
                "front_end": "asyncio",
                "shards": LOAD_SHARDS,
                "workers_per_shard": max(1, LOAD_WORKERS // LOAD_SHARDS),
                "cache_size_per_shard": LOAD_CACHE,
                **sharded_report,
            },
        },
        "summary": summary,
    }
    return body, failures


def bench_update(smoke: bool) -> tuple[dict, list[str]]:
    """Temporal-replay maintenance: incremental vs rebuild.

    Replays one seeded :func:`temporal_replay` stream (edge churn with
    interleaved Zipf queries) twice:

    - **incremental** — a :class:`~repro.serve.PMBCService` applies
      each update batch through :meth:`update_batch` (in-place bound
      repair + packed-adjacency patching + scoped invalidation) and
      answers the interleaved queries;
    - **rebuild** — the pre-streaming baseline: each batch re-creates
      the :class:`BipartiteGraph` and recomputes the (α,β)-core
      bounds from scratch, then answers queries from a fresh
      :class:`PMBCQueryEngine` over the rebuilt graph and bounds.

    Both paths see identical batch boundaries and time their queries
    at the same layer — the engine (``service.engine.query`` on the
    incremental side), so neither side's query latency includes the
    service's admission, queue or worker hop.  The headline metric is
    maintenance throughput (updates/s, query time excluded).  Every
    interleaved query is asserted equal across the two paths, and the
    run ends with a differential identity check: the incrementally
    maintained bounds must equal ``compute_bounds`` of the final
    graph, and the patched packed adjacency must be byte-identical to
    a fresh pack.  Failures are hard (returned regardless of smoke):
    this snapshot doubles as an incremental-vs-rebuild differential
    run.  The steady-state segment (after the warm-up prefix) must
    trigger zero re-packs.
    """
    from repro.bench.workloads import temporal_replay
    from repro.core.engine import PMBCQueryEngine
    from repro.graph.bipartite import BipartiteGraph, Side
    from repro.kernel.dynadj import DynamicPackedAdjacency
    from repro.serve.service import PMBCService, ServiceConfig

    dataset = UPDATE_SMOKE_DATASET if smoke else UPDATE_DATASET
    num_events = UPDATE_SMOKE_EVENTS if smoke else UPDATE_NUM_EVENTS
    graph = load_dataset(dataset)
    events = temporal_replay(
        graph,
        num_updates=num_events,
        delete_fraction=UPDATE_DELETE_FRACTION,
        rewire_fraction=1.0,
        query_every=UPDATE_QUERY_EVERY,
        seed=WORKLOAD_SEED,
    )

    # Shared batch schedule: updates accumulate up to UPDATE_BATCH and
    # flush on queries, so both paths apply identical batches.
    batches: list[list] = []
    schedule: list[tuple[str, object]] = []  # ("batch", ops) | ("query", q)
    pending: list[tuple[str, int, int]] = []
    for __, kind, a, b in events:
        if kind == "query":
            if pending:
                schedule.append(("batch", pending))
                batches.append(pending)
                pending = []
            schedule.append(("query", (a, b)))
        else:
            pending.append((kind, a, b))
            if len(pending) >= UPDATE_BATCH:
                schedule.append(("batch", pending))
                batches.append(pending)
                pending = []
    if pending:
        schedule.append(("batch", pending))
        batches.append(pending)
    num_updates = sum(len(b) for b in batches)
    warmup_batches = round(len(batches) * UPDATE_WARMUP_FRACTION)

    failures: list[str] = []
    perf_counter = time.perf_counter

    # -- incremental path -------------------------------------------------
    config = ServiceConfig(num_workers=2, max_queue=64)
    inc_answers: list[int] = []
    inc_update_seconds = 0.0
    inc_query_ms: list[float] = []
    steady_repacks = repacks_at_warmup = 0
    with PMBCService(graph, config=config) as service:
        batch_index = 0
        for kind, payload in schedule:
            if kind == "batch":
                t0 = perf_counter()
                service.update_batch(payload)
                inc_update_seconds += perf_counter() - t0
                batch_index += 1
                if batch_index == warmup_batches:
                    repacks_at_warmup = service._dynadj.repack_count
            else:
                side, vertex = payload
                request = QueryRequest(side, vertex, UPDATE_TAU, UPDATE_TAU)
                t0 = perf_counter()
                result = service.engine.query(request)
                inc_query_ms.append((perf_counter() - t0) * 1e3)
                inc_answers.append(
                    result.num_edges if result is not None else 0
                )
        stats = service.stats()
        final_graph = service.graph
        final_bounds = service.engine.bounds
        dynadj_bytes = (
            service._dynadj.canonical_bytes()
            if service._dynadj is not None
            else None
        )
        total_repacks = stats["updates"]["repacks"]
        steady_repacks = total_repacks - repacks_at_warmup
        cascade = stats["updates"]["cascade_vertices"]

    # -- rebuild baseline -------------------------------------------------
    upper_adj = [
        set(graph.neighbors(Side.UPPER, u)) for u in range(graph.num_upper)
    ]
    reb_graph = graph
    reb_bounds = compute_bounds(graph)
    reb_engine = PMBCQueryEngine(reb_graph, bounds=reb_bounds)
    reb_answers: list[int] = []
    reb_update_seconds = 0.0
    reb_query_ms: list[float] = []
    for kind, payload in schedule:
        if kind == "batch":
            for action, u, v in payload:
                if action == "insert":
                    upper_adj[u].add(v)
                else:
                    upper_adj[u].discard(v)
            t0 = perf_counter()
            reb_graph = BipartiteGraph(
                [sorted(ns) for ns in upper_adj], num_lower=graph.num_lower
            )
            reb_bounds = compute_bounds(reb_graph)
            reb_update_seconds += perf_counter() - t0
            reb_engine = PMBCQueryEngine(reb_graph, bounds=reb_bounds)
        else:
            side, vertex = payload
            request = QueryRequest(side, vertex, UPDATE_TAU, UPDATE_TAU)
            t0 = perf_counter()
            result = reb_engine.query(request)
            reb_query_ms.append((perf_counter() - t0) * 1e3)
            reb_answers.append(result.num_edges if result is not None else 0)

    # -- differential checks (hard failures, smoke or not) ----------------
    if inc_answers != reb_answers:
        diverged = sum(
            1 for a, b in zip(inc_answers, reb_answers) if a != b
        )
        failures.append(
            f"incremental answers diverged from rebuild on "
            f"{diverged}/{len(inc_answers)} interleaved queries"
        )
    exact = compute_bounds(final_graph)
    for side in Side:
        if (
            final_bounds.z[side] != exact.z[side]
            or final_bounds.prefix[side] != exact.prefix[side]
            or final_bounds.suffix[side] != exact.suffix[side]
        ):
            failures.append(
                f"incremental bounds diverged from recomputed bounds "
                f"on the {side.value} layer"
            )
    if dynadj_bytes is not None:
        fresh = DynamicPackedAdjacency(final_graph).canonical_bytes()
        if dynadj_bytes != fresh:
            failures.append(
                "patched packed adjacency is not byte-identical to a "
                "fresh pack of the final graph"
            )
    if steady_repacks != 0:
        failures.append(
            f"{steady_repacks} re-pack(s) on the steady-state segment "
            "(expected 0: rewire churn stays inside the drift budget)"
        )

    inc_tput = num_updates / inc_update_seconds if inc_update_seconds else 0.0
    reb_tput = num_updates / reb_update_seconds if reb_update_seconds else 0.0
    speedup = inc_tput / reb_tput if reb_tput else None
    if smoke:
        if speedup is not None and speedup <= 1.0:
            failures.append(
                f"incremental maintenance (x{speedup:.2f}) does not beat "
                "per-batch rebuild"
            )
    elif speedup is not None and speedup < 10.0:
        failures.append(
            f"incremental maintenance x{speedup:.2f} below the 10x "
            "rebuild gate on the full temporal replay"
        )

    body = {
        "workload": {
            "dataset": dataset,
            "num_events": num_events,
            "num_updates": num_updates,
            "num_queries": len(inc_answers),
            "batch_size": UPDATE_BATCH,
            "query_every": UPDATE_QUERY_EVERY,
            "delete_fraction": UPDATE_DELETE_FRACTION,
            "rewire_fraction": 1.0,
            "tau": UPDATE_TAU,
            "seed": WORKLOAD_SEED,
            "warmup_batches": warmup_batches,
            "num_batches": len(batches),
        },
        "incremental": {
            "update_seconds": round(inc_update_seconds, 4),
            "updates_per_second": round(inc_tput, 1),
            "query": latency_stats(inc_query_ms),
            "cascade_vertices": cascade,
            "repacks_total": total_repacks,
            "repacks_steady_state": steady_repacks,
        },
        "rebuild": {
            "update_seconds": round(reb_update_seconds, 4),
            "updates_per_second": round(reb_tput, 1),
            "query": latency_stats(reb_query_ms),
        },
        "summary": {
            "speedup": round(speedup, 1) if speedup else None,
            "differential_ok": not any(
                "diverged" in f or "byte-identical" in f for f in failures
            ),
            "steady_state_repack_free": steady_repacks == 0,
        },
    }
    return body, failures


def git_commit() -> str:
    """``HEAD`` hash, with ``-dirty`` when the working tree has changes."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        return f"{head}-dirty" if status else head
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--suite",
        choices=("kernel", "serve", "load", "update", "all"),
        default="kernel",
        help="which benchmark suite(s) to run (default: kernel)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick run with pass/fail gates (the CI benchmark-smoke mode)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_kernel.json",
        help="kernel-suite output path (default: repo-root BENCH_kernel.json)",
    )
    parser.add_argument(
        "--serve-out",
        type=Path,
        default=REPO_ROOT / "BENCH_serve.json",
        help="serve-suite output path (default: repo-root BENCH_serve.json)",
    )
    parser.add_argument(
        "--update-out",
        type=Path,
        default=REPO_ROOT / "BENCH_update.json",
        help="update-suite output path (default: repo-root BENCH_update.json)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="best-of-N repeats per query (default: 5, smoke: 3)",
    )
    parser.add_argument(
        "--datasets",
        nargs="*",
        default=None,
        help="restrict the kernel suite to these datasets",
    )
    args = parser.parse_args(argv)
    status = 0
    if args.suite in ("kernel", "all"):
        status = run_kernel_suite(args) or status
    if args.suite in ("serve", "all"):
        status = run_serve_suite(args) or status
    if args.suite in ("load", "all"):
        status = run_load_suite(args) or status
    if args.suite in ("update", "all"):
        status = run_update_suite(args) or status
    return status


def _merge_serve_snapshot(path: Path, section: str, body: dict) -> dict:
    """Merge one suite's ``section`` into the snapshot at ``path``.

    ``BENCH_serve.json`` is shared by the serve and load suites; each
    run refreshes its own section plus the commit/machine stamps and
    leaves the other suite's results in place.
    """
    try:
        snapshot = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError, ValueError):
        snapshot = {}
    snapshot.update(
        schema=1,
        suite="serve",
        commit=git_commit(),
        created_unix=int(time.time()),
        machine={
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
    )
    snapshot[section] = body
    path.write_text(json.dumps(snapshot, indent=2) + "\n")
    return snapshot


def run_load_suite(args) -> int:
    """Run the open-loop load benchmark; merge into ``BENCH_serve.json``."""
    body, failures = bench_load(args.smoke)
    _merge_serve_snapshot(args.serve_out, "load", body)
    summary = body["summary"]
    print(
        f"load {LOAD_DATASET}: single {summary['single_qps'] or '?'} qps "
        f"vs sharded x{LOAD_SHARDS} {summary['sharded_qps'] or '?'} qps "
        f"(x{summary['speedup'] or '?'}) under p99<={LOAD_SLO_MS:g}ms",
        flush=True,
    )
    print(f"wrote {args.serve_out}")
    if args.smoke:
        if failures:
            for failure in failures:
                print(f"SMOKE FAIL (load): {failure}", file=sys.stderr)
            return 1
        print(
            "smoke ok: both stacks found a sustainable rate with no "
            "untyped errors"
        )
    return 0


def run_update_suite(args) -> int:
    """Run the temporal-replay update benchmark; write ``BENCH_update.json``.

    Differential failures (answer/bound/byte divergence) and
    steady-state re-packs fail the run in *any* mode; the throughput
    gate is strictly-beats in smoke and 10x on the full replay.
    """
    body, failures = bench_update(args.smoke)
    snapshot = {
        "schema": 1,
        "suite": "update",
        "commit": git_commit(),
        "created_unix": int(time.time()),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        **body,
    }
    args.update_out.write_text(json.dumps(snapshot, indent=2) + "\n")
    summary = body["summary"]
    print(
        f"update {body['workload']['dataset']}: incremental "
        f"{body['incremental']['updates_per_second']:,.0f} upd/s vs rebuild "
        f"{body['rebuild']['updates_per_second']:,.0f} upd/s "
        f"(x{summary['speedup'] or '?'}), "
        f"steady-state repacks="
        f"{body['incremental']['repacks_steady_state']}, "
        f"differential {'ok' if summary['differential_ok'] else 'FAILED'}",
        flush=True,
    )
    print(f"wrote {args.update_out}")
    if failures:
        for failure in failures:
            print(f"UPDATE FAIL: {failure}", file=sys.stderr)
        return 1
    if args.smoke:
        print(
            "smoke ok: incremental maintenance beats rebuild, zero "
            "steady-state re-packs, differential identity holds"
        )
    return 0


def run_serve_suite(args) -> int:
    """Run the adaptive serve benchmark and write ``BENCH_serve.json``."""
    body, failures = bench_serve(args.smoke)
    try:
        previous = json.loads(args.serve_out.read_text())
    except (OSError, json.JSONDecodeError, ValueError):
        previous = {}
    snapshot = {
        "schema": 1,
        "suite": "serve",
        "commit": git_commit(),
        "created_unix": int(time.time()),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        **body,
    }
    if "load" in previous:
        snapshot["load"] = previous["load"]
    args.serve_out.write_text(json.dumps(snapshot, indent=2) + "\n")
    summary = body["summary"]
    print(
        f"serve {SERVE_DATASET}: cold head p50="
        f"{summary.get('cold_head_p50_ms', '?')}ms warm head p50="
        f"{summary.get('warm_head_p50_ms', '?')}ms "
        f"x{summary.get('head_speedup_p50', '?')} "
        f"(warm head {summary['head_fraction_warm']:.0%} of stream, "
        f"{body['adaptive']['builds']} builds, "
        f"{body['adaptive']['bytes']:,}/{body['adaptive']['budget_bytes']:,} "
        f"bytes)",
        flush=True,
    )
    print(f"wrote {args.serve_out}")
    if args.smoke:
        if failures:
            for failure in failures:
                print(f"SMOKE FAIL (serve): {failure}", file=sys.stderr)
            return 1
        print("smoke ok: warmed adaptive tier beats the cold path")
    return 0


def run_kernel_suite(args) -> int:
    """Run the kernel and batch suites and write ``BENCH_kernel.json``."""
    repeats = args.repeats or (3 if args.smoke else 5)

    graphs: dict[str, object] = {}
    bounds_cache: dict[str, object] = {}
    workloads: dict[str, list] = {}

    def graph_of(name):
        if name not in graphs:
            graphs[name] = load_dataset(name)
        return graphs[name]

    def bounds_of(name):
        if name not in bounds_cache:
            bounds_cache[name] = compute_bounds(graph_of(name))
        return bounds_cache[name]

    def workload_of(name):
        if name not in workloads:
            workloads[name] = top_degree_queries(
                graph_of(name),
                num_queries=NUM_QUERIES,
                pool_size=QUERY_POOL,
                seed=WORKLOAD_SEED,
            )
        return workloads[name]

    rows = []
    for suite, dataset, config, tau, with_bounds, objective in build_plan(
        args.smoke, args.datasets
    ):
        graph = graph_of(dataset)
        kernels, speedups = bench_case(
            graph,
            workload_of(dataset),
            tau,
            bounds_of(dataset) if with_bounds else None,
            repeats,
            objective,
        )
        rows.append(
            {
                "suite": suite,
                "dataset": dataset,
                "size_class": size_class(graph.num_edges),
                "config": config,
                "objective": objective,
                "kernels": kernels,
                **speedups,
            }
        )
        print(
            f"{suite} {dataset:14s} {config:12s} "
            f"set={kernels['set']['mean_ms']:.3f}ms "
            f"bitset={kernels['bitset']['mean_ms']:.3f}ms "
            f"words={kernels['words']['mean_ms']:.3f}ms "
            f"x{speedups['speedup_mean']:.2f} "
            f"(p50 x{speedups['speedup_p50']:.2f}, "
            f"words x{speedups['speedup_mean_words']:.2f})",
            flush=True,
        )

    batch_datasets = SMOKE_DATASETS if args.smoke else tuple(dataset_names())
    if args.datasets:
        batch_datasets = tuple(
            d for d in batch_datasets if d in args.datasets
        ) or tuple(args.datasets)
    num_batch = BATCH_SMOKE_QUERIES if args.smoke else BATCH_NUM_QUERIES
    batch_config = f"zipf tau={BATCH_TAUS[0]}/{BATCH_TAUS[1]}"
    for dataset in batch_datasets:
        graph = graph_of(dataset)
        requests = batch_requests(graph, num_batch)
        for kernel in PACKED_KERNELS:
            modes, speedups = bench_batch_case(
                graph, requests, bounds_of(dataset), kernel, repeats
            )
            rows.append(
                {
                    "suite": "batch",
                    "dataset": dataset,
                    "size_class": size_class(graph.num_edges),
                    "config": f"{batch_config} {kernel}",
                    "objective": "pmbc",
                    "kernel": kernel,
                    "modes": modes,
                    **speedups,
                }
            )
            print(
                f"batch {dataset:14s} {kernel:7s} "
                f"per-request={modes['per_request']['mean_ms']:.1f}ms "
                f"batched={modes['batched']['mean_ms']:.1f}ms "
                f"x{speedups['speedup_mean']:.2f} "
                f"(p50 x{speedups['speedup_p50']:.2f})",
                flush=True,
            )

    if not args.datasets:
        rows.extend(
            run_hq_sweep(args.smoke, repeats if args.smoke else HQ_SWEEP_PAIRS)
        )

    summary = {}
    for suite in ("fig6", "fig7", "balanced", "batch"):
        for label in ("small", "medium", "large"):
            selected = [
                r
                for r in rows
                if r["suite"] == suite and r["size_class"] == label
            ]
            if selected:
                summary[f"{suite}_{label}_median_speedup"] = round(
                    statistics.median(r["speedup_mean"] for r in selected),
                    3,
                )
                summary[f"{suite}_{label}_median_speedup_p50"] = round(
                    statistics.median(r["speedup_p50"] for r in selected),
                    3,
                )

    snapshot = {
        "schema": 1,
        "commit": git_commit(),
        "created_unix": int(time.time()),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "workload": {
            "num_queries": NUM_QUERIES,
            "query_pool": QUERY_POOL,
            "seed": WORKLOAD_SEED,
            "repeats": repeats,
            "timing": "per-query best-of-repeats",
            "batch": {
                "num_queries": num_batch,
                "exponent": BATCH_EXPONENT,
                "taus": list(BATCH_TAUS),
                "timing": "whole-stream totals over repeats",
            },
            "hq_sweep": {
                "one_round_max_twohop": progressive.ONE_ROUND_MAX_TWOHOP,
                "num_queries": HQ_SWEEP_QUERIES,
                "kernel": "bitset",
                "pairs": repeats if args.smoke else HQ_SWEEP_PAIRS,
                "timing": "per-query best-of-pairs and median per-pair "
                "ratio, schedules interleaved",
            },
        },
        "results": rows,
        "summary": summary,
    }
    args.out.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.smoke:
        # Balanced rows are differential-only: without the Lemma 9 size
        # bounds the packed kernels' edge is not guaranteed, so only the
        # pmbc-objective rows gate on speed.
        failed = False
        for r in rows:
            # hq_sweep rows are differential checks, not speed gates.
            if r["objective"] != "pmbc" or r["suite"] == "hq_sweep":
                continue
            if r["suite"] == "batch":
                if r["speedup_mean"] < 1.0:
                    failed = True
                    print(
                        f"SMOKE FAIL: batched not faster than per-request "
                        f"on {r['dataset']} {r['config']} "
                        f"(x{r['speedup_mean']})",
                        file=sys.stderr,
                    )
                continue
            # Only bitset gates on speed: words trades per-query scan
            # latency for in-place mutation and only wins when reduction
            # loops dominate (batch rows, index builds), so its fig6
            # columns are reported head-to-head, not gated.
            if r["speedup_mean"] < 1.0:
                failed = True
                print(
                    f"SMOKE FAIL: bitset slower than set on "
                    f"{r['dataset']} {r['config']} (x{r['speedup_mean']})",
                    file=sys.stderr,
                )
        if failed:
            return 1
        print(
            "smoke ok: bitset >= set on every pmbc smoke config, "
            "batched beats per-request on every batch row; "
            "kernels agreed on every objective, schedules on every "
            "hq_sweep row"
        )
    return 0


def run_hq_sweep(smoke: bool, pairs: int) -> list[dict]:
    """The hq_sweep rows (one per graph and τ; see the module docstring)."""
    if smoke:
        plan = HQ_SWEEP_SMOKE
    else:
        plan = [
            (spec, tau)
            for spec in HQ_SWEEP_GRAPHS
            for tau in HQ_SWEEP_TAUS
            if (spec, tau) not in HQ_SWEEP_SKIP
        ]
    graphs: dict[tuple, tuple] = {}
    rows = []
    for spec, tau in plan:
        if spec not in graphs:
            graph = hq_sweep_graph(*spec)
            queries = top_degree_queries(
                graph,
                num_queries=HQ_SWEEP_QUERIES,
                pool_size=HQ_SWEEP_QUERIES,
            )
            graphs[spec] = graph, queries, compute_bounds(graph)
        graph, queries, bounds = graphs[spec]
        n, m, cap = spec
        row = bench_hq_case(graph, queries, tau, bounds, pairs)
        rows.append(
            {
                "suite": "hq_sweep",
                "dataset": f"capped n={n} m={m} cap={cap}",
                "config": f"OL* tau={tau}",
                "objective": "pmbc",
                **row,
            }
        )
        totals = row["totals_ms"]
        print(
            f"hq_sweep n={n:<5d} tau={tau} |H_q| "
            f"{row['hq_min']}-{row['hq_max']} "
            f"one_round={totals['one_round']:.1f}ms "
            f"rounds={totals['rounds']:.1f}ms "
            f"one round won {row['one_round_wins']}/{len(queries)}",
            flush=True,
        )
    return rows


if __name__ == "__main__":
    raise SystemExit(main())
