"""repro — a reproduction of "Efficient Personalized Maximum Biclique
Search" (Wang, Zhang, Lin, Qin, Zhou — ICDE 2022).

Quickstart::

    from repro import from_edges, Side, build_index_star, pmbc_index_query

    graph = from_edges([("alice", "p1"), ("bob", "p1"), ("alice", "p2")])
    index = build_index_star(graph)
    q = graph.vertex_by_label(Side.UPPER, "alice")
    biclique = pmbc_index_query(index, Side.UPPER, q, tau_u=1, tau_l=1)
    print(biclique.with_labels(graph))

Packages:

- :mod:`repro.graph` — bipartite graph substrate (structure, IO,
  generators, two-hop subgraphs, sampling);
- :mod:`repro.corenum` — (α,β)-core decomposition and the Lemma 9
  biclique-size bounds;
- :mod:`repro.mbc` — maximum biclique search substrate (greedy seed,
  reductions, Branch&Bound, progressive bounding, brute-force oracles);
- :mod:`repro.mbe` — maximal biclique enumeration (secondary oracle);
- :mod:`repro.core` — the paper's contribution: PMBC-OL / PMBC-OL*,
  the PMBC-Index, PMBC-IQ, PMBC-IC / PMBC-IC*, parallel construction,
  and the basic-index baseline;
- :mod:`repro.datasets` — synthetic analogues of the paper's KONECT
  datasets;
- :mod:`repro.bench` — experiment harness reproducing every table and
  figure of Section VII;
- :mod:`repro.serve` — the production query-serving layer: request
  queue, worker pool, deadlines, single-flight dedup, metrics, and an
  HTTP/JSON front-end (``pmbc serve``).
"""

from repro.core import (
    Biclique,
    PMBCIndex,
    build_index,
    build_index_parallel,
    build_index_star,
    build_naive_index,
    pmbc_index_query,
    pmbc_online,
    pmbc_online_star,
)
from repro.graph import (
    BipartiteGraph,
    Side,
    Vertex,
    from_biadjacency,
    from_edges,
    read_edge_list,
    read_konect,
)
from repro.serve import (
    AsyncPMBCServer,
    PMBCClient,
    PMBCService,
    ServiceConfig,
)

__version__ = "1.0.0"

__all__ = [
    "AsyncPMBCServer",
    "Biclique",
    "BipartiteGraph",
    "PMBCClient",
    "PMBCIndex",
    "PMBCService",
    "ServiceConfig",
    "Side",
    "Vertex",
    "build_index",
    "build_index_parallel",
    "build_index_star",
    "build_naive_index",
    "from_biadjacency",
    "from_edges",
    "pmbc_index_query",
    "pmbc_online",
    "pmbc_online_star",
    "read_edge_list",
    "read_konect",
    "__version__",
]
