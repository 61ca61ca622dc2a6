"""PMBC-Index construction: PMBC-IC (Algorithm 3).

For each vertex ``q``, a BFS over critical ``(τ_U, τ_L)`` combinations
builds the search tree: the root is ``(1, 1)``; a node whose answer is
the biclique ``C`` spawns children ``(|U(C)|+1, τ_L)`` and
``(τ_U, |L(C)|+1)`` (Lemma 4).  Each node's answer is computed with the
online search, seeded per Algorithm 3/4 and constrained by the Lemma 6
shape caps derived from its parent's answer.

Children are enqueued only when feasible:

- ``τ_U`` cannot exceed the largest neighbor degree of ``q`` on the
  opposite layer and ``τ_L`` cannot exceed ``deg(q)`` (oriented per
  query side) — the paper's "size constraints are satisfied" check;
- a Lemma 6 cap below the child's own constraint proves infeasibility;
- with core bounds available, ``τ_U·τ_L > z_q`` proves infeasibility
  (Lemma 9).

``build_index`` uses PMBC-OL* internally by default (``bounds`` are
computed once per graph), matching the paper's evaluation setup.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

from repro.core.index import (
    BicliqueArray,
    PMBCIndex,
    SearchTree,
    SearchTreeNode,
)
from repro.core.online import extract_local, pmbc_online_local
from repro.core.skyline import SkylineIndex
from repro.corenum.bounds import CoreBounds, compute_bounds
from repro.graph.bipartite import BipartiteGraph, Side
from repro.kernel import resolve_kernel


@dataclass
class BuildStats:
    """Instrumentation collected during index construction."""

    seconds: float = 0.0
    online_calls: int = 0
    skyline_seed_hits: int = 0
    per_vertex_seconds: dict[Side, list[float]] = field(default_factory=dict)


def vertex_constraint_limits(
    graph: BipartiteGraph, side: Side, q: int
) -> tuple[int, int]:
    """The largest feasible ``(τ_U, τ_L)`` for queries on ``q``.

    A biclique containing ``q`` has at most ``deg(q)`` vertices on the
    opposite layer and at most ``max_{w∈N(q)} deg(w)`` on ``q``'s own
    layer (every own-layer member is a neighbor of each opposite
    member).
    """
    other = side.other
    own_limit = max(
        (graph.degree(other, w) for w in graph.neighbors(side, q)), default=0
    )
    other_limit = graph.degree(side, q)
    if side is Side.UPPER:
        return own_limit, other_limit
    return other_limit, own_limit


def build_search_tree(
    graph: BipartiteGraph,
    side: Side,
    q: int,
    array: BicliqueArray,
    bounds: CoreBounds | None = None,
    skyline: SkylineIndex | None = None,
    stats: BuildStats | None = None,
    use_lemma6_caps: bool = True,
    kernel: str | None = None,
) -> SearchTree:
    """Build ``T_q`` (the per-vertex loop body of Algorithms 3/4/6).

    ``use_lemma6_caps=False`` disables the Lemma 6 shape caps — an
    ablation knob; the resulting tree is identical, only slower to
    build.  ``kernel`` picks the compute kernel for the per-node
    searches; both kernels build identical trees.  ``graph`` only needs
    ``degree``/``neighbors``, so dynamic callers pass their live
    :class:`~repro.kernel.DynamicPackedAdjacency` and skip the snapshot.
    """
    tree = SearchTree()
    if graph.degree(side, q) == 0:
        return tree
    limit_u, limit_l = vertex_constraint_limits(graph, side, q)
    z_q = bounds.z_bound(side, q) if bounds is not None else None
    local = extract_local(graph, side, q, resolve_kernel(kernel))

    root = SearchTreeNode(tau_u=1, tau_l=1)
    tree.nodes.append(root)
    # Queue entries: (node_id, lemma-6 caps on the answer shape).
    queue: deque[tuple[int, int | None, int | None]] = deque()
    queue.append((0, None, None))
    while queue:
        node_id, max_u, max_l = queue.popleft()
        node = tree.nodes[node_id]
        seed = None
        if skyline is not None:
            seed = skyline.lookup(side, q, node.tau_u, node.tau_l)
            if seed is not None and stats is not None:
                stats.skyline_seed_hits += 1
        if stats is not None:
            stats.online_calls += 1
        result = pmbc_online_local(
            local,
            node.tau_u,
            node.tau_l,
            seed=seed,
            bounds=bounds,
            max_u=max_u if use_lemma6_caps else None,
            max_l=max_l if use_lemma6_caps else None,
            kernel=kernel,
        )
        if result is None:
            continue
        biclique_id, newly_added = array.add(result)
        node.biclique_id = biclique_id
        if skyline is not None and newly_added:
            skyline.update(result, biclique_id)

        num_u, num_l = result.shape
        # Child via condition (1): raise tau_u; the answer must then
        # have strictly fewer lower vertices (Lemma 6).
        child1 = (num_u + 1, node.tau_l, None, num_l - 1)
        # Child via condition (2): raise tau_l.
        child2 = (node.tau_u, num_l + 1, num_u - 1, None)
        for tau_u_new, tau_l_new, cap_u, cap_l in (child1, child2):
            if tau_u_new > limit_u or tau_l_new > limit_l:
                continue
            if cap_u is not None and cap_u < tau_u_new:
                continue
            if cap_l is not None and cap_l < tau_l_new:
                continue
            if z_q is not None and tau_u_new * tau_l_new > z_q:
                continue
            child = SearchTreeNode(tau_u=tau_u_new, tau_l=tau_l_new)
            child_id = len(tree.nodes)
            tree.nodes.append(child)
            if tau_u_new > node.tau_u:
                node.left = child_id
            else:
                node.right = child_id
            queue.append((child_id, cap_u, cap_l))
    return tree


def _build(
    graph: BipartiteGraph,
    use_skyline: bool,
    bounds: CoreBounds | None,
    use_core_bounds: bool,
    instrument: bool,
    use_lemma6_caps: bool = True,
    kernel: str | None = None,
) -> tuple[PMBCIndex, BuildStats]:
    start = time.perf_counter()
    kernel = resolve_kernel(kernel)
    if bounds is None and use_core_bounds:
        bounds = compute_bounds(graph)
    array = BicliqueArray()
    skyline = SkylineIndex(graph, array) if use_skyline else None
    stats = BuildStats()
    if instrument:
        stats.per_vertex_seconds = {
            side: [0.0] * graph.num_vertices_on(side) for side in Side
        }
    trees: dict[Side, list[SearchTree]] = {}
    for side in Side:
        side_trees = []
        for q in range(graph.num_vertices_on(side)):
            tick = time.perf_counter() if instrument else 0.0
            side_trees.append(
                build_search_tree(
                    graph,
                    side,
                    q,
                    array,
                    bounds,
                    skyline,
                    stats,
                    use_lemma6_caps=use_lemma6_caps,
                    kernel=kernel,
                )
            )
            if instrument:
                stats.per_vertex_seconds[side][q] = time.perf_counter() - tick
        trees[side] = side_trees
    index = PMBCIndex(
        num_upper=graph.num_upper,
        num_lower=graph.num_lower,
        trees=trees,
        array=array,
    )
    stats.seconds = time.perf_counter() - start
    return index, stats


def build_index(
    graph: BipartiteGraph,
    bounds: CoreBounds | None = None,
    use_core_bounds: bool = True,
    instrument: bool = False,
    use_lemma6_caps: bool = True,
    kernel: str | None = None,
):
    """PMBC-IC (Algorithm 3): build the index without cost-sharing.

    Returns the index, or ``(index, stats)`` when ``instrument`` is
    set.  ``use_core_bounds`` selects PMBC-OL* (the paper's setting)
    over plain PMBC-OL for the per-node searches;
    ``use_lemma6_caps=False`` is an ablation knob.  ``kernel`` picks
    the compute kernel; both kernels build byte-identical indexes.
    """
    index, stats = _build(
        graph,
        use_skyline=False,
        bounds=bounds,
        use_core_bounds=use_core_bounds,
        instrument=instrument,
        use_lemma6_caps=use_lemma6_caps,
        kernel=kernel,
    )
    return (index, stats) if instrument else index
