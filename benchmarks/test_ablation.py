"""Ablation study (ours) — isolating each design choice of the paper.

Not a paper table, but DESIGN.md calls out five load-bearing design
choices; each gets an on/off comparison on one mid-size dataset:

1. (α,β)-core bounds (PMBC-OL vs PMBC-OL*, Section VI-C);
2. Lemma 6 shape caps during index construction;
3. skyline cost-sharing (PMBC-IC vs PMBC-IC*, Section VI-B);
4. the two-hop (wedge) reduction inside the online search;
5. progressive-bounding rounds vs one exact round (Algorithm 1/5).
   Every Github two-hop subgraph is below ``ONE_ROUND_MAX_TWOHOP``, so
   the shipped setting runs one round; setting the constant to 0
   forces the rounds.

Every variant must return identical answer sizes — the knobs are pure
accelerators — which each case asserts.
"""

from __future__ import annotations

import pytest

from repro.core import build_index, build_index_star, pmbc_online
from repro.datasets.zoo import load_dataset
from repro.mbc import progressive

pytestmark = pytest.mark.benchmark(group="ablation")

DATASET = "Github"


@pytest.fixture(scope="module")
def graph():
    return load_dataset(DATASET)


@pytest.fixture(scope="module")
def reference_answers(graph, request):
    """Answer sizes from the default configuration, for equivalence."""
    from repro.bench.workloads import top_degree_queries

    queries = top_degree_queries(graph, num_queries=10, seed=5)
    answers = {}
    for side, q in queries:
        result = pmbc_online(graph, side, q, 2, 2)
        answers[(side, q)] = result.num_edges if result else 0
    return queries, answers


def _run_queries(graph, queries, answers, **kwargs):
    for side, q in queries:
        result = pmbc_online(graph, side, q, 2, 2, **kwargs)
        assert (result.num_edges if result else 0) == answers[(side, q)]
    return True


@pytest.mark.parametrize("with_bounds", [True, False],
                         ids=["OL*-bounds", "OL-plain"])
def test_ablate_core_bounds(benchmark, graph, reference_answers, with_bounds, all_bounds):
    queries, answers = reference_answers
    bounds = all_bounds(DATASET) if with_bounds else None
    benchmark.pedantic(
        lambda: _run_queries(graph, queries, answers, bounds=bounds),
        rounds=2,
        iterations=1,
    )


@pytest.mark.parametrize("with_wedge", [True, False],
                         ids=["wedge-on", "wedge-off"])
def test_ablate_two_hop_reduction(benchmark, graph, reference_answers, with_wedge):
    queries, answers = reference_answers
    benchmark.pedantic(
        lambda: _run_queries(
            graph, queries, answers, use_two_hop_reduction=with_wedge
        ),
        rounds=2,
        iterations=1,
    )


@pytest.mark.parametrize(
    "one_round_max",
    [progressive.ONE_ROUND_MAX_TWOHOP, 0],
    ids=["one-round", "rounds"],
)
def test_ablate_progressive_rounds(
    benchmark, graph, reference_answers, one_round_max, all_bounds, monkeypatch
):
    queries, answers = reference_answers
    bounds = all_bounds(DATASET)
    monkeypatch.setattr(progressive, "ONE_ROUND_MAX_TWOHOP", one_round_max)
    benchmark.pedantic(
        lambda: _run_queries(graph, queries, answers, bounds=bounds),
        rounds=2,
        iterations=1,
    )


@pytest.mark.parametrize("with_caps", [True, False],
                         ids=["lemma6-on", "lemma6-off"])
def test_ablate_lemma6_caps(benchmark, graph, with_caps, all_bounds):
    bounds = all_bounds(DATASET)
    index = benchmark.pedantic(
        lambda: build_index(
            graph, bounds=bounds, use_lemma6_caps=with_caps
        ),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["num_bicliques"] = index.num_bicliques


@pytest.mark.parametrize("with_skyline", [True, False],
                         ids=["cost-sharing-on", "cost-sharing-off"])
def test_ablate_cost_sharing(benchmark, graph, with_skyline, all_bounds):
    bounds = all_bounds(DATASET)
    builder = build_index_star if with_skyline else build_index
    index = benchmark.pedantic(
        lambda: builder(graph, bounds=bounds), rounds=1, iterations=1
    )
    benchmark.extra_info["num_bicliques"] = index.num_bicliques
