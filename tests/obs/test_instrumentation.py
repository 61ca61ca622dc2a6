"""Instrumentation tests: the search stack populates expected counters.

These tests run real queries under an active :class:`SearchTrace` and
assert (a) the trace captures the counters documented in
``docs/observability.md`` and (b) tracing never changes an answer.
"""

from __future__ import annotations

import pytest

from repro.core.construction import build_index
from repro.core.engine import PMBCQueryEngine
from repro.core.online import pmbc_online, pmbc_online_star
from repro.core.query import QueryRequest, pmbc_index_query
from repro.corenum.bounds import CoreBounds, compute_bounds
from repro.datasets import load_dataset
from repro.graph.bipartite import Side
from repro.graph.subgraph import two_hop_subgraph
from repro.mbc import progressive
from repro.mbc.progressive import SearchOptions, maximum_biclique_local
from repro.obs import SearchTrace, use_trace
from tests.property.test_kernel_differential import GRAPHS

DIFFERENTIAL_GRAPHS = dict(GRAPHS)


def _traced(fn, *args, **kwargs):
    trace = SearchTrace()
    with use_trace(trace):
        answer = fn(*args, **kwargs)
    return answer, trace


def _same_answer(a, b):
    if a is None or b is None:
        return a is b
    return a.shape == b.shape and a.num_edges == b.num_edges


def _key(answer):
    """An answer's exact vertex sets (a local pair stays as it is)."""
    if answer is None or isinstance(answer, tuple):
        return answer
    return frozenset(answer.upper), frozenset(answer.lower)


# ----------------------------------------------------------------------
# online path


def test_online_populates_search_counters(paper_graph):
    answer, trace = _traced(
        pmbc_online, paper_graph, Side.UPPER, 0, tau_u=2, tau_l=2
    )
    assert answer is not None
    counters = trace.counters
    assert counters["twohop_extractions"] == 1
    assert counters["twohop_vertices"] > 0
    assert counters["twohop_edges"] > 0
    assert counters["progressive_rounds"] >= 1
    assert counters["bb_calls"] >= 1
    assert counters["bb_nodes"] >= 1
    assert len(trace.rounds) == counters["progressive_rounds"]
    names = [span["name"] for span in trace.spans]
    assert "two_hop_extract" in names
    assert "progressive_search" in names


def test_online_star_records_core_prunes(medium_planted_graph):
    answer, trace = _traced(
        pmbc_online_star, medium_planted_graph, Side.UPPER, 0, 2, 2
    )
    untraced = pmbc_online_star(medium_planted_graph, Side.UPPER, 0, 2, 2)
    assert _same_answer(answer, untraced)
    # The bigger planted graph must exercise at least one pruning rule.
    assert sum(trace.prunes.values()) > 0
    assert set(trace.prunes) <= {
        "core_z_bound",
        "core_suffix_bound",
        "core_prefix_bound",
        "tau_filter",
        "shape_cap",
        "non_maximal",
        "size_bound",
        "reduction",
    }


def test_rounds_record_floors_and_nodes(small_random_graph):
    __, trace = _traced(
        pmbc_online, small_random_graph, Side.UPPER, 0, tau_u=1, tau_l=1
    )
    assert trace.rounds
    for round_info in trace.rounds:
        assert round_info["tau_p"] >= 1
        assert round_info["tau_w"] >= 1
        assert round_info["nodes"] >= 0


@pytest.mark.parametrize("fn", [pmbc_online, pmbc_online_star])
def test_tracing_does_not_change_answers(skewed_graph, fn):
    for vertex in range(0, skewed_graph.num_upper, 9):
        untraced = fn(skewed_graph, Side.UPPER, vertex, 2, 2)
        traced, __ = _traced(fn, skewed_graph, Side.UPPER, vertex, 2, 2)
        assert _same_answer(traced, untraced)


# ----------------------------------------------------------------------
# engine path (two-hop cache)


def test_engine_counts_cache_hits_and_misses(paper_graph):
    engine = PMBCQueryEngine(paper_graph)
    request = QueryRequest(Side.UPPER, 0, 2, 2)
    first, trace_miss = _traced(engine.query, request)
    second, trace_hit = _traced(engine.query, request)
    assert _same_answer(first, second)
    assert trace_miss.counters.get("cache_misses") == 1
    assert "cache_hits" not in trace_miss.counters
    assert trace_hit.counters.get("cache_hits") == 1
    assert "cache_misses" not in trace_hit.counters
    # Only the miss pays for a two-hop extraction.
    assert trace_miss.counters["twohop_extractions"] == 1
    assert "twohop_extractions" not in trace_hit.counters


# ----------------------------------------------------------------------
# index path


def test_index_query_counts_tree_visits(paper_graph):
    index = build_index(paper_graph)
    answer, trace = _traced(
        pmbc_index_query, index, Side.UPPER, 0, 2, 2
    )
    untraced = pmbc_index_query(index, Side.UPPER, 0, 2, 2)
    assert _same_answer(answer, untraced)
    assert trace.counters["index_lookups"] == 1
    assert trace.counters["index_nodes_visited"] >= 1
    # The index walk never touches the B&B machinery.
    assert "bb_nodes" not in trace.counters


# ----------------------------------------------------------------------
# cross-kernel parity


KERNELS = ("set", "bitset")


@pytest.mark.parametrize("query", [(Side.UPPER, 0), (Side.LOWER, 3)])
def test_kernels_count_identical_events(skewed_graph, query):
    """Both compute kernels flush identical counters and prune tallies.

    The bitset kernel must be observationally equivalent, not just
    answer-equivalent: ``bb_nodes``, the prune counters behind
    ``pmbc_prune_total{rule=...}``, and the per-round records must all
    match the set kernel event for event.
    """
    side, q = query
    per_kernel = {}
    for kernel in KERNELS:
        answer, trace = _traced(
            pmbc_online, skewed_graph, side, q, 2, 2, kernel=kernel
        )
        per_kernel[kernel] = (answer, trace)
    set_answer, set_trace = per_kernel["set"]
    for kernel in KERNELS[1:]:
        answer, trace = per_kernel[kernel]
        assert _same_answer(set_answer, answer), kernel
        assert set_trace.counters == trace.counters, kernel
        assert set_trace.prunes == trace.prunes, kernel
        assert set_trace.rounds == trace.rounds, kernel


def _parity_graph(name, request):
    if name == "Writers":
        return load_dataset("Writers")
    if name in DIFFERENTIAL_GRAPHS:
        return DIFFERENTIAL_GRAPHS[name]
    return request.getfixturevalue(name)


def _zeroed_rows(bounds):
    """``bounds`` with every prefix and suffix row zeroed (z kept)."""
    return CoreBounds(
        z=bounds.z,
        prefix={s: [[0] * len(r) for r in rows] for s, rows in bounds.prefix.items()},
        suffix={s: [[0] * len(r) for r in rows] for s, rows in bounds.suffix.items()},
    )


def _star_runs(graph, bounds, tau, mode, kernel):
    """Traced PMBC-OL* runs, one ``(key, answer, trace)`` per search.

    The query vertices are a stride sample of about
    :data:`PARITY_PER_SIDE` per side.  ``plain`` queries each one;
    ``seeded`` hands each query its own answer as ``seed=`` (the search
    starts from the final incumbent); ``capped`` runs the two Lemma 6
    children of each answer through ``maximum_biclique_local`` with
    caps, as index construction does; ``zero-rows`` searches under
    all-zero prefix/suffix rows, so only anchor protection keeps ``q``
    in ``P``.
    """
    tau_u, tau_l = tau
    runs = []
    for side in (Side.UPPER, Side.LOWER):
        n = graph.num_vertices_on(side)
        for q in range(0, n, max(1, n // PARITY_PER_SIDE)):
            if mode == "plain":
                runs.append(((side, q), *_traced(
                    pmbc_online_star, graph, side, q, tau_u, tau_l,
                    bounds=bounds, kernel=kernel,
                )))
                continue
            answer = pmbc_online_star(
                graph, side, q, tau_u, tau_l, bounds=bounds, kernel="set"
            )
            if answer is None:
                continue
            if mode == "seeded":
                runs.append(((side, q), *_traced(
                    pmbc_online_star, graph, side, q, tau_u, tau_l,
                    bounds=bounds, seed=answer, kernel=kernel,
                )))
            elif mode == "zero-rows":
                found, trace = _traced(
                    pmbc_online_star, graph, side, q, tau_u, tau_l,
                    bounds=_zeroed_rows(bounds), kernel=kernel,
                )
                assert q in (found.upper if side is Side.UPPER else found.lower)
                runs.append(((side, q), found, trace))
            else:
                local = two_hop_subgraph(graph, side, q)
                tau_p, tau_w = (tau_u, tau_l) if side is Side.UPPER else (tau_l, tau_u)
                num_p, num_w = (
                    answer.shape if side is Side.UPPER else answer.shape[::-1]
                )
                # The two Lemma 6 children: raise one floor, cap the
                # other side below the answer's.
                for floors, caps in (
                    ((num_p + 1, tau_w), (None, num_w - 1)),
                    ((tau_p, num_w + 1), (num_p - 1, None)),
                ):
                    options = SearchOptions(
                        bounds=bounds, max_p=caps[0], max_w=caps[1], kernel=kernel
                    )
                    runs.append(((side, q, floors), *_traced(
                        maximum_biclique_local, local, *floors, options=options
                    )))
    return runs


#: Query vertices sampled per side of each parity graph.
PARITY_PER_SIDE = 24
PARITY_GRAPHS = (
    *DIFFERENTIAL_GRAPHS,
    "skewed_graph",
    "medium_planted_graph",
    "Writers",
)
PARITY_CASES = [
    pytest.param(name, "plain", tau, id=f"{name}-{tau[0]}x{tau[1]}")
    for name in PARITY_GRAPHS
    for tau in ((1, 1), (2, 2), (3, 2))
] + [
    pytest.param(name, mode, (2, 2), id=f"{name}-{mode}")
    for name in PARITY_GRAPHS
    for mode in ("seeded", "capped", "zero-rows")
]


@pytest.mark.parametrize("schedule", ["one-round", "rounds"])
@pytest.mark.parametrize("name,mode,tau", PARITY_CASES)
def test_kernels_count_identical_events_with_bounds(
    name, mode, tau, schedule, request, monkeypatch
):
    """Counter parity holds on the PMBC-OL* path (core bounds live).

    Sampled query vertices of both sides, under both search schedules:
    the answers, counters, prune tallies and round records of the two
    kernels match query for query.
    """
    if schedule == "rounds":
        monkeypatch.setattr(progressive, "ONE_ROUND_MAX_TWOHOP", 0)
    graph = _parity_graph(name, request)
    bounds = compute_bounds(graph)
    per_kernel = {
        kernel: _star_runs(graph, bounds, tau, mode, kernel)
        for kernel in KERNELS
    }
    reference = per_kernel["set"]
    assert reference
    for kernel in KERNELS[1:]:
        assert len(per_kernel[kernel]) == len(reference)
        for (key, set_answer, set_trace), (__, answer, trace) in zip(
            reference, per_kernel[kernel]
        ):
            context = (kernel, key)
            assert _key(answer) == _key(set_answer), context
            assert trace.counters == set_trace.counters, context
            assert trace.prunes == set_trace.prunes, context
            assert trace.rounds == set_trace.rounds, context
