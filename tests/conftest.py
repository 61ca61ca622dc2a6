"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.graph.generators import (
    paper_example_graph,
    planted_biclique_graph,
    power_law_bipartite,
    random_bipartite,
)
from repro.mbc import progressive

# pytest >= 8.4 can leave a parameter out of the test id; older
# versions name it.
_SHIPPED_ID = getattr(pytest, "HIDDEN_PARAM", "one-round")


@pytest.fixture
def paper_graph():
    """The Figure 2 running-example graph (reconstructed)."""
    return paper_example_graph()


@pytest.fixture
def small_random_graph():
    """A small dense-ish random bipartite graph for oracle comparisons."""
    return random_bipartite(8, 8, 0.4, seed=42)


@pytest.fixture
def medium_planted_graph():
    """A medium graph with planted bicliques for integration tests."""
    return planted_biclique_graph(
        60, 50, 220, planted=((6, 5), (5, 4), (4, 6)), seed=7
    )


@pytest.fixture
def skewed_graph():
    """A heavy-tailed graph exercising degree-skew code paths."""
    return power_law_bipartite(80, 60, 300, exponent=1.4, seed=11)


@pytest.fixture(
    scope="module",
    params=[
        pytest.param(progressive.ONE_ROUND_MAX_TWOHOP, id=_SHIPPED_ID),
        pytest.param(0, id="rounds"),
    ],
)
def search_schedule(request):
    """Run a module under both search schedules.

    The first parameter keeps the shipped ``ONE_ROUND_MAX_TWOHOP`` (and
    the test ids as they were); ``0`` sends every search through the
    progressive rounds, which no test graph here is large enough to
    reach otherwise.  Use it module-wide with
    ``pytestmark = pytest.mark.usefixtures("search_schedule")``.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(progressive, "ONE_ROUND_MAX_TWOHOP", request.param)
        yield request.param
