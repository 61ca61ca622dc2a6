"""Answer and state checks shared by the benchmark and its server process."""

from __future__ import annotations

import hashlib


def edge_digest(graph) -> str:
    """A digest of a graph's edge set, independent of construction order."""
    from repro.graph.bipartite import Side

    edges = sorted(
        (u, v)
        for u in range(graph.num_upper)
        for v in graph.neighbors(Side.UPPER, u)
    )
    return hashlib.sha256(repr(edges).encode()).hexdigest()


def bounds_match(bounds, graph) -> bool:
    """True when ``bounds`` equals a from-scratch ``compute_bounds(graph)``."""
    from repro.corenum.bounds import compute_bounds
    from repro.graph.bipartite import Side

    exact = compute_bounds(graph)
    return all(
        bounds.z[side] == exact.z[side]
        and bounds.prefix[side] == exact.prefix[side]
        and bounds.suffix[side] == exact.suffix[side]
        for side in Side
    )
