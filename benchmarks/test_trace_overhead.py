"""Trace overhead guard (ours): observability must be ~free by default.

The ISSUE's acceptance bar: the null-trace default adds <5% latency on
a zoo-graph workload.  The null path's entire cost is its guards — a
``current_trace()`` contextvar lookup plus an ``.enabled`` check at
each instrumentation point, and a no-op span around the two extraction
/search phases.  We measure that guard cost directly with min-of-N
timing, scale it by a deliberately generous per-query guard budget,
and assert it stays under 5% of the measured per-query latency.  A
second test sanity-bounds *fully enabled* tracing, which does strictly
more work than the null path; it takes the median of per-pair ratios
over interleaved (null, traced) pairs, so one slow pass moves one ratio
rather than the estimate.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.bench.workloads import top_degree_queries
from repro.core import pmbc_online_star
from repro.obs import NULL_TRACE, SearchTrace, current_trace, use_trace

pytestmark = pytest.mark.benchmark(group="trace-overhead")

DATASET = "Writers"
ROUNDS = 7  # min-of-N; the minimum is the least noisy estimator

#: Generous upper bounds on null-trace work per query.  Actual usage
#: (counted from an enabled trace on this workload): one guard per
#: pmbc_online/branch_and_bound/progressive-round entry, ~12-15 total,
#: and two no-op spans (extraction, search).  The budget keeps a >2x
#: margin over that; the bitset kernel shrank per-query latency, so the
#: old 4-5x margin would charge the null path for work it never does.
GUARDS_PER_QUERY = 32
SPANS_PER_QUERY = 4

#: Enabled-tracing estimate: interleaved (null, traced) pairs, arm order
#: alternating, each arm ``PASSES`` workload passes long.  The median of
#: the per-pair ratios replaced a ratio of two min-of-7 timings, which
#: failed the 25% bound in about 1 run in 15 with a median near 11%.
PAIRS = 21
PASSES = 3


@pytest.fixture(scope="module")
def workload(graphs):
    return top_degree_queries(graphs(DATASET), num_queries=12, seed=5)


def _run(graph, bounds, queries):
    return [
        pmbc_online_star(graph, side, q, 2, 2, bounds=bounds)
        for side, q in queries
    ]


def _min_of(rounds, fn):
    best = float("inf")
    for __ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_null_trace_overhead_under_five_percent(graphs, all_bounds, workload):
    graph = graphs(DATASET)
    bounds = all_bounds(DATASET)
    assert current_trace() is NULL_TRACE

    _run(graph, bounds, workload)  # warm caches before timing
    query_s = _min_of(ROUNDS, lambda: _run(graph, bounds, workload)) / len(
        workload
    )

    reps = 10_000

    def guards():
        for __ in range(reps):
            if current_trace().enabled:  # pragma: no cover - never taken
                raise AssertionError
    guard_s = _min_of(ROUNDS, guards) / reps

    def spans():
        for __ in range(reps):
            with NULL_TRACE.span("x"):
                pass
    span_s = _min_of(ROUNDS, spans) / reps

    null_cost = GUARDS_PER_QUERY * guard_s + SPANS_PER_QUERY * span_s
    overhead = null_cost / query_s
    assert overhead < 0.05, (
        f"null-trace guards cost {overhead:.2%} of per-query latency "
        f"({null_cost * 1e6:.2f} us of {query_s * 1e6:.1f} us); must be <5%"
    )


def test_enabled_tracing_stays_cheap(graphs, all_bounds, workload):
    """Full tracing (a superset of the null path) stays within 25%."""
    graph = graphs(DATASET)
    bounds = all_bounds(DATASET)
    _run(graph, bounds, workload)  # warm

    def null():
        for __ in range(PASSES):
            _run(graph, bounds, workload)

    def traced():
        for __ in range(PASSES):
            with use_trace(SearchTrace()):
                _run(graph, bounds, workload)

    # Interleave the arms, alternating which goes first, so clock drift
    # and order effects hit both equally.
    ratios = []
    for i in range(PAIRS):
        elapsed = {}
        for arm in (null, traced) if i % 2 == 0 else (traced, null):
            start = time.perf_counter()
            arm()
            elapsed[arm] = time.perf_counter() - start
        ratios.append(elapsed[traced] / elapsed[null])

    overhead = statistics.median(ratios) - 1.0
    assert overhead < 0.25, (
        f"enabled tracing costs {overhead:.1%} over the null default "
        f"(median of {PAIRS} per-pair ratios; range "
        f"{min(ratios) - 1.0:.1%} to {max(ratios) - 1.0:.1%})"
    )


def test_traced_answers_match_untraced(graphs, all_bounds, workload):
    graph = graphs(DATASET)
    bounds = all_bounds(DATASET)
    untraced = _run(graph, bounds, workload)
    with use_trace(SearchTrace()):
        traced = _run(graph, bounds, workload)
    assert [
        None if a is None else (a.shape, a.num_edges) for a in untraced
    ] == [None if a is None else (a.shape, a.num_edges) for a in traced]
