"""Differential suite: the set and bitset kernels are interchangeable.

The bitset kernel (``repro.kernel``) must be a pure performance
substitution: on any graph, both kernels return the same ``(U, L)``
answer for every query surface (PMBC-OL, PMBC-OL*, the query engine,
the batch paths) and build byte-identical serialized indexes.  Seeded
generator graphs give deterministic cross-kernel coverage over dense,
sparse and skewed degree shapes.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.construction_star import build_index_star
from repro.core.engine import PMBCQueryEngine
from repro.core.online import pmbc_online, pmbc_online_batch, pmbc_online_star
from repro.core.query import QueryRequest
from repro.core.serialize import write_binary
from repro.corenum.bounds import compute_bounds
from repro.graph.bipartite import Side
from repro.graph.generators import power_law_bipartite, random_bipartite
from repro.kernel import KERNEL_KINDS

#: Every test runs under both search schedules (tests/conftest.py).
pytestmark = pytest.mark.usefixtures("search_schedule")

KERNELS = KERNEL_KINDS


def _graphs():
    yield "random-dense", random_bipartite(24, 18, 0.35, seed=11)
    yield "random-sparse", random_bipartite(40, 32, 0.08, seed=12)
    yield "power-law", power_law_bipartite(50, 40, 220, 1.6, seed=13)


GRAPHS = list(_graphs())


def _queries(graph, per_side=6):
    for side in (Side.UPPER, Side.LOWER):
        n = graph.num_vertices_on(side)
        for q in range(0, n, max(1, n // per_side)):
            yield side, q


def _key(result):
    if result is None:
        return None
    return (frozenset(result.upper), frozenset(result.lower))


def _assert_all_equal(got: dict, context) -> None:
    reference = got[KERNELS[0]]
    for kernel in KERNELS[1:]:
        assert got[kernel] == reference, (kernel, context)


@pytest.mark.parametrize("name,graph", GRAPHS, ids=[n for n, _ in GRAPHS])
@pytest.mark.parametrize("tau", [(1, 1), (2, 2), (3, 2)])
def test_online_kernels_agree(name, graph, tau):
    tau_u, tau_l = tau
    for side, q in _queries(graph):
        got = {
            kernel: _key(
                pmbc_online(graph, side, q, tau_u, tau_l, kernel=kernel)
            )
            for kernel in KERNELS
        }
        _assert_all_equal(got, (name, side, q, tau))


@pytest.mark.parametrize("name,graph", GRAPHS, ids=[n for n, _ in GRAPHS])
def test_online_star_kernels_agree(name, graph):
    bounds = compute_bounds(graph)
    for side, q in _queries(graph):
        got = {
            kernel: _key(
                pmbc_online_star(
                    graph, side, q, 2, 2, bounds=bounds, kernel=kernel
                )
            )
            for kernel in KERNELS
        }
        _assert_all_equal(got, (name, side, q))


@pytest.mark.parametrize("name,graph", GRAPHS, ids=[n for n, _ in GRAPHS])
def test_engine_kernels_agree(name, graph):
    engines = {
        kernel: PMBCQueryEngine(graph, kernel=kernel) for kernel in KERNELS
    }
    for side, q in _queries(graph):
        for tau_u, tau_l in ((1, 1), (2, 3)):
            got = {
                kernel: _key(engine.query(side, q, tau_u, tau_l))
                for kernel, engine in engines.items()
            }
            _assert_all_equal(got, (name, side, q, tau_u, tau_l))


def _batch_requests(graph):
    """A mixed batch: repeated vertices, duplicate requests, both sides."""
    requests = []
    for (side, q), (tau_u, tau_l) in itertools.product(
        itertools.islice(_queries(graph, per_side=3), 6),
        ((1, 1), (2, 2)),
    ):
        requests.append(QueryRequest(side, q, tau_u, tau_l))
    # Exact duplicates — the batch path answers them from one search.
    requests.extend(requests[:3])
    return requests


@pytest.mark.parametrize("name,graph", GRAPHS, ids=[n for n, _ in GRAPHS])
def test_batch_kernels_agree_and_match_single(name, graph):
    """query_batch is kernel-independent AND equals per-request answers."""
    requests = _batch_requests(graph)
    bounds = compute_bounds(graph)
    got = {
        kernel: [
            _key(b)
            for b in pmbc_online_batch(
                graph, requests, bounds=bounds, kernel=kernel
            )
        ]
        for kernel in KERNELS
    }
    _assert_all_equal(got, name)
    single = [
        _key(pmbc_online(graph, r, bounds=bounds, kernel="bitset"))
        for r in requests
    ]
    assert got["bitset"] == single, name


@pytest.mark.parametrize("name,graph", GRAPHS, ids=[n for n, _ in GRAPHS])
def test_engine_batch_kernels_agree_and_match_single(name, graph):
    requests = _batch_requests(graph)
    answers = {}
    for kernel in KERNELS:
        engine = PMBCQueryEngine(graph, kernel=kernel)
        answers[kernel] = [_key(b) for b in engine.query_batch(requests)]
        single = [_key(engine.query(r)) for r in requests]
        assert answers[kernel] == single, (name, kernel)
    _assert_all_equal(answers, name)


@pytest.mark.parametrize("name,graph", GRAPHS, ids=[n for n, _ in GRAPHS])
def test_indexes_serialize_byte_identical(name, graph, tmp_path):
    """Mask-space builds serialize byte-identically to frozenset builds."""
    bounds = compute_bounds(graph)
    payloads = {}
    for kernel in KERNELS:
        index = build_index_star(graph, bounds=bounds, kernel=kernel)
        path = tmp_path / f"{kernel}.idx"
        write_binary(index, path)
        payloads[kernel] = path.read_bytes()
    _assert_all_equal(payloads, name)
