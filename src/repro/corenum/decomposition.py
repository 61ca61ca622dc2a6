"""Full bicore ((α,β)-core) decomposition.

Computes, for every vertex, the complete *staircase region*
``R_x = {(α, β) : x ∈ (α,β)-core}`` in ``O(δ·m)`` peeling sweeps, where
δ is the maximal value with a non-empty (δ,δ)-core (bounded by √m).
This is the decomposition algorithm of Liu et al. (WWW 2019) that the
paper cites for pre-computing the α-/β-offsets of Definition 7:

- ``s_a(u, α)`` — the maximal β such that ``u`` is in an (α,β)-core;
- ``s_b(v, β)`` — the maximal α such that ``v`` is in an (α,β)-core.

Both directions are provided for vertices of *either* layer because a
query vertex on the lower layer flips the local orientation of its
two-hop subgraph.

The δ-bounded scheme: any (α,β) with a non-empty core has
``min(α,β) ≤ δ``, so sweeping α over ``1..δ`` (max-β per vertex) and β
over ``1..δ`` (max-α per vertex) fully describes every region; values
beyond δ in one coordinate are recovered by inverting the other sweep.
δ itself falls out of the α-sweeps (:func:`_sweeps`), so no separate
search for it is run.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from repro.graph.bipartite import BipartiteGraph, Side


def _peel_levels(
    graph: BipartiteGraph, fixed_side: Side, fixed_value: int
) -> dict[Side, list[int]]:
    """Max free-side threshold per vertex under a fixed-side constraint.

    With ``fixed_side = UPPER`` and ``fixed_value = α`` this returns,
    for every vertex ``x``, the maximal β such that ``x`` belongs to the
    (α,β)-core (0 when ``x`` is in no such core).  Implemented as
    min-degree peeling of the free side with cascading deletions on the
    fixed side — the classic core-decomposition argument extended with
    one static constraint.  Degrees only fall, so the free side is
    peeled from per-degree buckets: a vertex is queued again only when
    its degree drops to a bucket not yet passed, and a removed vertex's
    degree is set to -1 so its leftover entries are skipped.
    """
    free_side = fixed_side.other
    fixed_adj = [
        graph.neighbors(fixed_side, u)
        for u in range(graph.num_vertices_on(fixed_side))
    ]
    free_adj = [
        graph.neighbors(free_side, v)
        for v in range(graph.num_vertices_on(free_side))
    ]
    fixed_deg = [len(ns) for ns in fixed_adj]
    free_deg = [len(ns) for ns in free_adj]
    fixed_level = [0] * len(fixed_adj)
    free_level = [0] * len(free_adj)

    # Enforce the fixed constraint once (removing fixed-side vertices
    # never lowers another fixed-side degree, so no cascade yet).  A
    # fixed-side vertex leaves exactly when its degree falls to
    # fixed_value - 1, which those removed here never reach again.
    for u, d in enumerate(fixed_deg):
        if d < fixed_value:
            for w in fixed_adj[u]:
                free_deg[w] -= 1

    buckets: list[list[int]] = [
        [] for __ in range(max(free_deg, default=0) + 1)
    ]
    for v, d in enumerate(free_deg):
        buckets[d].append(v)
    last = fixed_value - 1
    for k, bucket in enumerate(buckets):
        while bucket:
            v = bucket.pop()
            if free_deg[v] < 0:
                continue  # already peeled at a lower bucket
            free_deg[v] = -1
            free_level[v] = k
            for u in free_adj[v]:
                d = fixed_deg[u] - 1
                fixed_deg[u] = d
                if d != last:
                    continue
                fixed_level[u] = k
                for w in fixed_adj[u]:
                    d = free_deg[w] - 1
                    free_deg[w] = d
                    if d >= k:
                        buckets[d].append(w)
    return {fixed_side: fixed_level, free_side: free_level}


def _sweeps(
    graph: BipartiteGraph,
) -> tuple[list[dict[Side, list[int]]], list[dict[Side, list[int]]]]:
    """Every α-sweep and β-sweep up to δ; δ is their common length.

    α-sweeps run ``α = 1, 2, …`` until the (α,α)-core is empty — some
    vertex has level ≥ α in the α-sweep exactly when it is non-empty —
    and stop one sweep early when the top level is α itself, since the
    (α+1)-sweep's levels are at most the α-sweep's.  The β-sweeps then
    cover ``β = 1..δ``.
    """
    alpha_sweeps: list[dict[Side, list[int]]] = []
    alpha = 1
    while True:
        level = _peel_levels(graph, Side.UPPER, alpha)
        top = max(level[Side.LOWER], default=0)
        if top < alpha:
            break
        alpha_sweeps.append(level)
        if top == alpha:
            break
        alpha += 1
    beta_sweeps = [
        _peel_levels(graph, Side.LOWER, beta)
        for beta in range(1, len(alpha_sweeps) + 1)
    ]
    return alpha_sweeps, beta_sweeps


def _invert_staircase(
    direct_prefix: list[int], own_max: int, delta: int
) -> list[int]:
    """Extend a staircase beyond δ by inverting the opposite sweep.

    ``direct_prefix[i]`` (0-indexed, i.e. value at coordinate ``i+1``)
    is the max opposite coordinate for own coordinate ``i+1 ≤ δ`` taken
    from the *other* sweep; the result is the max opposite coordinate
    for own coordinates ``δ+1 .. own_max``, computed as
    ``max{c ≤ δ : direct_prefix[c] ≥ coordinate}`` with a suffix-max
    scan.
    """
    if own_max <= delta:
        return []
    # marker[a] = max c with direct_prefix[c] == a capped at own_max
    # (c increases through the loop, so plain assignment keeps the max).
    marker = [0] * (own_max + 1)
    for c_idx, cap in enumerate(direct_prefix):
        capped = min(cap, own_max)
        if capped >= 1:
            marker[capped] = c_idx + 1
    # suffix max: best[a] = max c with direct_prefix[c] >= a, via a
    # C-speed scan over marker[own_max] .. marker[1].
    suffix = list(accumulate(marker[:0:-1], max))
    # suffix[own_max - a] == best[a]; emit a = delta+1 .. own_max.
    return suffix[own_max - delta - 1 :: -1]


def _vertex_stairs(
    beta_prefix: list[int], alpha_prefix: list[int], delta: int
) -> tuple[list[int], list[int]]:
    """Assemble one vertex's (α-stairs, β-stairs) from its sweep columns.

    ``beta_prefix[i]`` is the vertex's level in the α=i+1 sweep (max β)
    and ``alpha_prefix[i]`` its level in the β=i+1 sweep (max α).  The
    direct prefixes cover coordinates up to δ; the tails are recovered
    by inverting the opposite sweep.
    """
    alpha_max = alpha_prefix[0] if alpha_prefix else 0
    beta_max = beta_prefix[0] if beta_prefix else 0
    full_alpha = beta_prefix[: min(delta, alpha_max)]
    full_alpha += _invert_staircase(alpha_prefix, alpha_max, delta)
    full_beta = alpha_prefix[: min(delta, beta_max)]
    full_beta += _invert_staircase(beta_prefix, beta_max, delta)
    return full_alpha, full_beta


@dataclass
class BicoreDecomposition:
    """Per-vertex (α,β)-core staircases of a bipartite graph.

    ``alpha_stairs[side][v]`` is a 0-indexed list whose entry ``i``
    holds the maximal β such that ``v`` is in the (i+1, β)-core; its
    length is the maximal α for which ``v`` is in any (α,1)-core.
    ``beta_stairs`` is symmetric (max α per β).
    """

    delta: int
    alpha_stairs: dict[Side, list[list[int]]]
    beta_stairs: dict[Side, list[list[int]]]

    def s_a(self, side: Side, v: int, alpha: int) -> int:
        """Definition 7's α-offset: max β such that ``v`` ∈ (α,β)-core."""
        if alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {alpha}")
        stairs = self.alpha_stairs[side][v]
        if alpha > len(stairs):
            return 0
        return stairs[alpha - 1]

    def s_b(self, side: Side, v: int, beta: int) -> int:
        """Definition 7's β-offset: max α such that ``v`` ∈ (α,β)-core."""
        if beta < 1:
            raise ValueError(f"beta must be >= 1, got {beta}")
        stairs = self.beta_stairs[side][v]
        if beta > len(stairs):
            return 0
        return stairs[beta - 1]

    def alpha_max(self, side: Side, v: int) -> int:
        """The maximal α such that ``v`` is in an (α,1)-core."""
        return len(self.alpha_stairs[side][v])

    def beta_max(self, side: Side, v: int) -> int:
        """The maximal β such that ``v`` is in a (1,β)-core."""
        return len(self.beta_stairs[side][v])

    def in_core(self, side: Side, v: int, alpha: int, beta: int) -> bool:
        """Whether ``v`` belongs to the (α,β)-core."""
        return self.s_a(side, v, alpha) >= beta


def decompose(graph: BipartiteGraph) -> BicoreDecomposition:
    """Compute the full bicore decomposition of ``graph``."""
    alpha_sweeps, beta_sweeps = _sweeps(graph)
    return _decomposition_from_sweeps(
        alpha_sweeps,
        beta_sweeps,
        {side: graph.num_vertices_on(side) for side in Side},
    )


def _decomposition_from_sweeps(
    alpha_sweeps: list[dict[Side, list[int]]],
    beta_sweeps: list[dict[Side, list[int]]],
    sizes: dict[Side, int],
) -> BicoreDecomposition:
    """Every vertex's staircases from a sweep family (δ = its length).

    ``alpha_sweeps[i]`` holds the α=i+1 levels (max β per vertex) and
    ``beta_sweeps[i]`` the β=i+1 levels (max α); ``sizes`` gives the
    layer sizes, which an empty family (δ = 0) cannot.
    """
    delta = len(alpha_sweeps)
    alpha_stairs: dict[Side, list[list[int]]] = {}
    beta_stairs: dict[Side, list[list[int]]] = {}
    for side in Side:
        side_alpha: list[list[int]] = []
        side_beta: list[list[int]] = []
        for v in range(sizes[side]):
            beta_prefix = [sweep[side][v] for sweep in alpha_sweeps]
            alpha_prefix = [sweep[side][v] for sweep in beta_sweeps]
            full_alpha, full_beta = _vertex_stairs(
                beta_prefix, alpha_prefix, delta
            )
            side_alpha.append(full_alpha)
            side_beta.append(full_beta)
        alpha_stairs[side] = side_alpha
        beta_stairs[side] = side_beta
    return BicoreDecomposition(
        delta=delta, alpha_stairs=alpha_stairs, beta_stairs=beta_stairs
    )
