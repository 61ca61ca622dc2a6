"""The greedy initial solution ``C*_0`` of the progressive framework.

The paper (Section IV) seeds the search with a biclique grown greedily
from the query vertex: "it first initializes C*_0 as {q} and then
iteratively adds a vertex that maximizes |C*_0|".  For an anchored
two-hop subgraph the anchor is adjacent to every local lower vertex, so
``({q}, L(H_q))`` is already a biclique and the greedy phase only needs
to trade lower vertices for additional upper vertices.

Every compute kernel (see :mod:`repro.kernel`) grows the seed over the
same defined candidate order — stable degree-descending, ties by
ascending local id — so they pick identical vertices on ties and return
identical seeds; that order is exactly the packed bit order of
:func:`repro.kernel.pack_local`, which lets the packed variant scan
candidate masks in ascending bit order.  Because the seed is
kernel-independent it is memoized per extraction
(:func:`repro.kernel.batch.cached_seed`), so batched requests and index
builds that revisit a floor pair pay the greedy cost once.
"""

from __future__ import annotations

from repro.graph.subgraph import LocalGraph
from repro.kernel import resolve_kernel
from repro.kernel.batch import cached_seed
from repro.kernel.packed import pack_local


def greedy_biclique(
    local: LocalGraph,
    tau_p: int = 1,
    tau_w: int = 1,
    kernel: str | None = None,
) -> tuple[frozenset[int], frozenset[int]] | None:
    """A greedily grown biclique in local ids, or None.

    Starts from ``({anchor}, N(anchor))`` (or the highest-degree upper
    vertex when the graph is unanchored) and repeatedly adds the upper
    vertex whose addition maximizes, lexicographically, (constraint
    satisfaction, edge count).  Returns None when the greedy result
    violates the (tau_p, tau_w) constraints — callers then start the
    search without a seed.  ``kernel`` picks the compute kernel; both
    kernels return the identical seed.
    """
    if local.num_upper == 0 or local.num_lower == 0:
        return None
    # The seed is a pure function of (local, tau_p, tau_w) — identical
    # across kernels — so it is memoized on the extraction: batched
    # requests sharing H_q and repeated floor pairs inside one index
    # build grow it once (see repro.kernel.batch).
    if resolve_kernel(kernel) == "bitset":
        return cached_seed(
            local, tau_p, tau_w, lambda: _greedy_bitset(local, tau_p, tau_w)
        )
    return cached_seed(
        local, tau_p, tau_w, lambda: _greedy_set(local, tau_p, tau_w)
    )


def _greedy_set(
    local: LocalGraph, tau_p: int, tau_w: int
) -> tuple[frozenset[int], frozenset[int]] | None:
    adj_upper = local.adj_upper
    order = sorted(
        range(local.num_upper), key=local.degree_upper, reverse=True
    )
    start = local.q_local if local.q_local is not None else order[0]
    upper = {start}
    lower = set(adj_upper[start])
    if not lower:
        return None

    candidates = [u for u in order if u != start]
    while candidates:
        num_upper = len(upper)
        # _objective, inlined in the scan (it dominates greedy cost):
        # satisfaction of a candidate round is constant, so the
        # comparison reduces to (satisfied, product) done on ints.
        grown_sat = min(num_upper + 1, tau_p)
        lower_size = len(lower)
        best_sat = min(num_upper, tau_p) + min(lower_size, tau_w)
        best_product = num_upper * lower_size
        best_u = None
        for u in candidates:
            # Candidates come in degree-descending order, and the
            # candidate's gain is capped by its degree — once the cap
            # cannot strictly beat the incumbent, nothing later can.
            degree = len(adj_upper[u])
            cap = degree if degree < lower_size else lower_size
            bound_sat = grown_sat + (cap if cap < tau_w else tau_w)
            bound_product = (num_upper + 1) * cap
            if bound_sat < best_sat or (
                bound_sat == best_sat and bound_product <= best_product
            ):
                break
            new_lower_size = len(lower & adj_upper[u])
            sat = grown_sat + (
                new_lower_size if new_lower_size < tau_w else tau_w
            )
            product = (num_upper + 1) * new_lower_size
            if sat > best_sat or (sat == best_sat and product > best_product):
                best_sat = sat
                best_product = product
                best_u = u
        if best_u is None:
            break
        upper.add(best_u)
        lower &= adj_upper[best_u]
        candidates = [
            u for u in candidates if u != best_u and lower & adj_upper[u]
        ]

    if len(upper) < tau_p or len(lower) < tau_w:
        return None
    return frozenset(upper), frozenset(lower)


def _greedy_bitset(
    local: LocalGraph, tau_p: int, tau_w: int
) -> tuple[frozenset[int], frozenset[int]] | None:
    packed = pack_local(local)
    adj_upper = packed.adj_upper
    if local.q_local is not None:
        start = packed.upper_rank[local.q_local]
    else:
        start = 0  # bit 0 = highest degree, lowest id on ties
    upper = 1 << start
    lower = adj_upper[start]
    if not lower:
        return None
    num_upper = 1

    candidates = packed.all_upper & ~upper
    while candidates:
        lower_size = lower.bit_count()
        # Same inlined objective comparison as the set variant; the
        # candidate scan order (ascending bits = stable degree
        # descending) matches it too, so ties resolve identically.
        grown_sat = min(num_upper + 1, tau_p)
        best_sat = min(num_upper, tau_p) + min(lower_size, tau_w)
        best_product = num_upper * lower_size
        best_bit = -1
        drop = 0
        rest = candidates
        deg_upper = packed.deg_upper
        while rest:
            low = rest & -rest
            rest ^= low
            bit = low.bit_length() - 1
            # Same degree-bounded early break as the set variant: the
            # scan is full-degree-descending, so once the degree cap on
            # the objective cannot strictly beat the incumbent, stop.
            degree = deg_upper[bit]
            cap = degree if degree < lower_size else lower_size
            bound_sat = grown_sat + (cap if cap < tau_w else tau_w)
            bound_product = (num_upper + 1) * cap
            if bound_sat < best_sat or (
                bound_sat == best_sat and bound_product <= best_product
            ):
                break
            new_lower_size = (lower & adj_upper[bit]).bit_count()
            if not new_lower_size:
                # A candidate disjoint from the current lower side can
                # never win a round (it cannot beat the no-op
                # objective), so dropping it here cannot change any
                # round's argmax — it only shortens future scans.
                drop |= low
                continue
            sat = grown_sat + (
                new_lower_size if new_lower_size < tau_w else tau_w
            )
            product = (num_upper + 1) * new_lower_size
            if sat > best_sat or (sat == best_sat and product > best_product):
                best_sat = sat
                best_product = product
                best_bit = bit
        if best_bit < 0:
            break
        candidates &= ~(drop | (1 << best_bit))
        upper |= 1 << best_bit
        lower &= adj_upper[best_bit]
        num_upper += 1

    if num_upper < tau_p or lower.bit_count() < tau_w:
        return None
    return packed.upper_locals(upper), packed.lower_locals(lower)


def _objective(
    num_upper: int, num_lower: int, tau_p: int, tau_w: int
) -> tuple[int, int]:
    """Lexicographic greedy objective: satisfy constraints, then size."""
    satisfied = min(num_upper, tau_p) + min(num_lower, tau_w)
    return (satisfied, num_upper * num_lower)
