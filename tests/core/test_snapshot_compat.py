"""Index snapshots saved before the one-round search schedule still answer.

``tests/data/writers_ic_star_progressive.bin`` is the PMBC-IC* binary
index of the Writers zoo dataset, built with ``build_index_star`` (core
bounds on) when every search ran the progressive rounds.  Searches on
subgraphs below ``ONE_ROUND_MAX_TWOHOP`` now take one round, which may
pick a different biclique of the same size.  Whichever way the old file
is loaded, every answer must keep its edge count.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.core import PMBCIndex, pmbc_index_query, pmbc_online
from repro.datasets.zoo import load_dataset
from repro.graph.bipartite import Side
from repro.serve import PMBCService, ServiceConfig

SNAPSHOT = Path(__file__).resolve().parent.parent / "data" / (
    "writers_ic_star_progressive.bin"
)
TAUS = ((1, 1), (2, 2), (3, 2))


@pytest.fixture(scope="module")
def writers():
    return load_dataset("Writers")


@pytest.fixture(scope="module")
def expected(writers):
    """Edge counts of fresh ``pmbc_online`` answers, per query."""
    return {
        (side, q, tau_u, tau_l): _edges(
            pmbc_online(writers, side, q, tau_u, tau_l)
        )
        for side, q in _vertices(writers)
        for tau_u, tau_l in TAUS
    }


def _vertices(graph):
    for side in Side:
        for q in range(graph.num_vertices_on(side)):
            yield side, q


def _edges(biclique):
    return biclique.num_edges if biclique is not None else 0


def test_saved_index_loads_and_answers(writers, expected):
    index = PMBCIndex.load(SNAPSHOT)
    assert (index.num_upper, index.num_lower) == (
        writers.num_upper,
        writers.num_lower,
    )
    got = {
        key: _edges(pmbc_index_query(index, *key)) for key in expected
    }
    assert got == expected


def test_saved_index_warms_an_adaptive_restart(writers, expected, tmp_path):
    # The service persists its hot set back to the path on close, so it
    # gets a copy of the snapshot.
    path = tmp_path / SNAPSHOT.name
    shutil.copyfile(SNAPSHOT, path)
    config = ServiceConfig(
        num_workers=1, adaptive=True, adaptive_persist_path=str(path)
    )
    with PMBCService(writers, config=config) as service:
        assert service.stats()["adaptive"]["warm_restored"] > 0
        for key, edges in expected.items():
            result = service.query(*key)
            assert result.backend == "partial", key
            assert _edges(result.biclique) == edges, key
