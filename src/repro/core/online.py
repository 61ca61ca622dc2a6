"""Online personalized maximum biclique search: PMBC-OL and PMBC-OL*.

``pmbc_online`` implements Algorithm 1: extract the two-hop subgraph
``H_q`` (the answer lives entirely inside it — Lemma 1), seed with a
greedy biclique, then run the progressive-bounding maximum biclique
search.  ``pmbc_online_star`` is Algorithm 5: the same search
accelerated by the precomputed (α,β)-core bounds of Section VI-C
(Lemma 9 vertex pruning plus the prefix/suffix bounds inside
Branch&Bound).
"""

from __future__ import annotations

from repro.core.query import QueryRequest, as_request
from repro.core.result import Biclique
from repro.corenum.bounds import CoreBounds
from repro.graph.bipartite import BipartiteGraph, Side
from repro.graph.subgraph import LocalGraph, two_hop_subgraph
from repro.kernel import resolve_kernel
from repro.kernel.packed import two_hop_packed
from repro.mbc.greedy import greedy_biclique
from repro.mbc.progressive import SearchOptions, maximum_biclique_local
from repro.objectives import DEFAULT_OBJECTIVE, Objective, get_objective
from repro.obs.trace import current_trace


def pmbc_online(
    graph: BipartiteGraph,
    side: Side | QueryRequest,
    q: int | None = None,
    tau_u: int = 1,
    tau_l: int = 1,
    seed: Biclique | None = None,
    bounds: CoreBounds | None = None,
    max_u: int | None = None,
    max_l: int | None = None,
    use_two_hop_reduction: bool = True,
    kernel: str | None = None,
    objective: str = DEFAULT_OBJECTIVE,
) -> Biclique | None:
    """The personalized maximum biclique ``C^q_{τU,τL}`` (Definition 3).

    Parameters
    ----------
    graph, side, q:
        The bipartite graph and the query vertex (layer + id).  A
        single :class:`~repro.core.query.QueryRequest` may replace
        ``side``/``q``/``tau_u``/``tau_l``.
    tau_u, tau_l:
        Layer-size constraints on the answer (≥ 1).
    seed:
        An optional known valid biclique containing ``q`` that already
        satisfies the constraints — used as a search lower bound
        (Lemma 7 cost-sharing).  The greedy seed is computed regardless
        and the larger of the two is used.
    bounds:
        Precomputed :class:`~repro.corenum.bounds.CoreBounds`; when
        given, the search runs as PMBC-OL*.
    max_u, max_l:
        Optional Lemma 6 caps on the answer shape, used by the index
        constructor.  They are redundant for correctness (any
        constraint-valid candidate obeys them) and only prune search.
    kernel:
        Compute kernel for the search (``"bitset"``/``"set"``); None
        means ``"bitset"``.  Both kernels return identical answers.
    objective:
        Query-family name from the :mod:`repro.objectives` registry
        (default ``"pmbc"``); ``"balanced"`` maximizes ``min(|U|,|L|)``
        and returns the trimmed ``k×k`` answer.

    Returns the objective-maximal biclique containing ``q`` with
    ``|U| ≥ tau_u`` and ``|L| ≥ tau_l``, or None when none exists.
    """
    request = as_request(side, q, tau_u, tau_l, objective=objective)
    side, q, tau_u, tau_l, objective = request.key
    _validate_query(graph, side, q, tau_u, tau_l)
    kernel = resolve_kernel(kernel)
    trace = current_trace()
    with trace.span("two_hop_extract"):
        local = extract_local(graph, side, q, kernel)
    _trace_twohop(trace, local)
    return pmbc_online_local(
        local,
        tau_u,
        tau_l,
        seed=seed,
        bounds=bounds,
        max_u=max_u,
        max_l=max_l,
        use_two_hop_reduction=use_two_hop_reduction,
        kernel=kernel,
        objective=objective,
    )


def pmbc_online_local(
    local: LocalGraph,
    tau_u: int,
    tau_l: int,
    seed: Biclique | None = None,
    bounds: CoreBounds | None = None,
    max_u: int | None = None,
    max_l: int | None = None,
    use_two_hop_reduction: bool = True,
    kernel: str | None = None,
    objective: str | Objective | None = None,
) -> Biclique | None:
    """PMBC-OL on an already-extracted two-hop subgraph.

    The index constructor calls the search many times per vertex with
    different constraints; reusing the extracted ``H_q`` avoids
    rebuilding it per tree node.  Constraints, caps, seed and result
    are all in global coordinates; the local orientation is resolved
    here via ``local.upper_side``.
    """
    side = local.upper_side
    if side is Side.UPPER:
        tau_p, tau_w = tau_u, tau_l
        max_p, max_w = max_u, max_l
    else:
        tau_p, tau_w = tau_l, tau_u
        max_p, max_w = max_l, max_u

    obj = get_objective(objective)
    tau_p, tau_w = obj.effective_floors(tau_p, tau_w)
    kernel = resolve_kernel(kernel)
    local_seed = _best_local_seed(local, seed, side, tau_p, tau_w, kernel, obj)
    options = SearchOptions(
        bounds=bounds,
        max_p=max_p,
        max_w=max_w,
        use_two_hop_reduction=use_two_hop_reduction,
        kernel=kernel,
        objective=obj,
    )
    with current_trace().span("progressive_search"):
        found = maximum_biclique_local(
            local, tau_p, tau_w, local_seed, options
        )
    if found is None:
        return None
    return _finalize_biclique(local, found, obj)


def pmbc_online_star(
    graph: BipartiteGraph,
    side: Side | QueryRequest,
    q: int | None = None,
    tau_u: int = 1,
    tau_l: int = 1,
    bounds: CoreBounds | None = None,
    seed: Biclique | None = None,
    max_u: int | None = None,
    max_l: int | None = None,
    kernel: str | None = None,
    objective: str = DEFAULT_OBJECTIVE,
) -> Biclique | None:
    """PMBC-OL* (Algorithm 5): PMBC-OL with (α,β)-core upper bounds.

    ``bounds`` should be precomputed once per graph (the paper computes
    them offline); when omitted they are computed on the fly, which is
    correct but defeats the purpose for repeated queries.  A single
    :class:`~repro.core.query.QueryRequest` may replace
    ``side``/``q``/``tau_u``/``tau_l``/``objective``.  Non-``"pmbc"``
    objectives ignore the core bounds (not admissible for their score)
    but share every other acceleration.
    """
    from repro.corenum.bounds import compute_bounds

    request = as_request(side, q, tau_u, tau_l, objective=objective)
    side, q, tau_u, tau_l, objective = request.key
    if bounds is None and get_objective(objective).uses_size_bounds:
        bounds = compute_bounds(graph)
    return pmbc_online(
        graph,
        side,
        q,
        tau_u,
        tau_l,
        seed=seed,
        bounds=bounds,
        max_u=max_u,
        max_l=max_l,
        kernel=kernel,
        objective=objective,
    )


def pmbc_online_batch(
    graph: BipartiteGraph,
    requests,
    bounds: CoreBounds | None = None,
    use_core_bounds: bool = True,
    kernel: str | None = None,
) -> list[Biclique | None]:
    """Answer a batch of requests with shared offline work.

    The batch analogue of :func:`pmbc_online_star`: the (α,β)-core
    bounds are computed **once** for the whole batch (instead of once
    per call), requests are grouped by query vertex so each distinct
    two-hop subgraph is extracted exactly once, and each group is
    answered from that one shared extraction
    (:func:`answer_group_local`): duplicate requests share one search,
    and the per-extraction seed/reduction caches of
    :mod:`repro.kernel.batch` amortize the progressive rounds across
    the rest.  Answers come back in request order.
    """
    from repro.corenum.bounds import compute_bounds

    reqs = [QueryRequest.of(r) for r in requests]
    kernel = resolve_kernel(kernel)
    for request in reqs:
        _validate_query(
            graph, request.side, request.vertex, request.tau_u, request.tau_l
        )
    if bounds is None and use_core_bounds and reqs:
        bounds = compute_bounds(graph)
    results: list[Biclique | None] = [None] * len(reqs)
    order = sorted(
        range(len(reqs)),
        key=lambda i: (reqs[i].side.value, reqs[i].vertex),
    )
    trace = current_trace()
    start = 0
    while start < len(order):
        side = reqs[order[start]].side
        vertex = reqs[order[start]].vertex
        stop = start
        while stop < len(order) and (
            reqs[order[stop]].side is side
            and reqs[order[stop]].vertex == vertex
        ):
            stop += 1
        with trace.span("two_hop_extract"):
            local = extract_local(graph, side, vertex, kernel)
        _trace_twohop(trace, local)
        group = order[start:stop]
        answers = answer_group_local(
            local,
            [reqs[i] for i in group],
            bounds=bounds,
            kernel=kernel,
        )
        for i, answer in zip(group, answers):
            results[i] = answer
        start = stop
    return results


def answer_group_local(
    local: LocalGraph,
    requests: list[QueryRequest],
    bounds: CoreBounds | None = None,
    kernel: str | None = None,
) -> list[Biclique | None]:
    """Answer requests sharing one extracted ``H_q`` (batch inner loop).

    All requests must target the vertex ``local`` was extracted around.
    Identical requests — same τ floors and objective — share a single
    progressive search: the first occurrence runs it and duplicates
    reuse its answer, tallied by the ``batch_dedup`` trace counter
    (fires identically on both kernels).  Distinct requests still share
    the extraction's packed view plus the memoized seeds and reduction
    fixpoints of :mod:`repro.kernel.batch`.
    """
    answered: dict[tuple[int, int, str], Biclique | None] = {}
    trace = current_trace()
    results: list[Biclique | None] = []
    for request in requests:
        key = (request.tau_u, request.tau_l, request.objective)
        if key in answered:
            if trace.enabled:
                trace.add("batch_dedup")
            results.append(answered[key])
            continue
        answer = pmbc_online_local(
            local,
            request.tau_u,
            request.tau_l,
            bounds=bounds,
            kernel=kernel,
            objective=request.objective,
        )
        answered[key] = answer
        results.append(answer)
    return results


def extract_local(
    graph: BipartiteGraph, side: Side, q: int, kernel: str
) -> LocalGraph:
    """Extract ``H_q`` via the extractor matched to the compute kernel.

    The bitset kernel uses the fused extractor (adjacency packed
    straight into bitmasks, sets deferred); both extractors produce
    interchangeable ``LocalGraph`` views of the same subgraph.
    """
    if kernel == "bitset":
        return two_hop_packed(graph, side, q)
    return two_hop_subgraph(graph, side, q)


def _trace_twohop(trace, local: LocalGraph) -> None:
    """Record the size of a freshly extracted two-hop subgraph."""
    if trace.enabled:
        trace.record_twohop(
            local.num_upper,
            local.num_lower,
            local.num_edges,
        )


def _validate_query(
    graph: BipartiteGraph, side: Side, q: int, tau_u: int, tau_l: int
) -> None:
    if not 0 <= q < graph.num_vertices_on(side):
        raise ValueError(
            f"query vertex {q} out of range for the {side.value} layer"
        )
    if tau_u < 1 or tau_l < 1:
        raise ValueError(
            f"size constraints must be >= 1, got ({tau_u}, {tau_l})"
        )


def _best_local_seed(
    local: LocalGraph,
    seed: Biclique | None,
    side: Side,
    tau_p: int,
    tau_w: int,
    kernel: str | None = None,
    objective: Objective | None = None,
) -> tuple[frozenset[int], frozenset[int]] | None:
    """The better-scoring of the greedy seed and the caller's seed."""
    obj = get_objective(objective)
    best = greedy_biclique(local, tau_p, tau_w, kernel=kernel)
    if seed is not None:
        local_seed = _seed_to_local(local, seed, side)
        if local_seed is not None and (
            len(local_seed[0]) >= tau_p and len(local_seed[1]) >= tau_w
        ):
            if best is None or (
                obj.score(len(local_seed[0]), len(local_seed[1]))
                > obj.score(len(best[0]), len(best[1]))
            ):
                best = local_seed
    return best


def _seed_to_local(
    local: LocalGraph, seed: Biclique, side: Side
) -> tuple[frozenset[int], frozenset[int]] | None:
    """Map a global-coordinate seed into local ids (None if outside H_q)."""
    if side is Side.UPPER:
        own_globals, other_globals = seed.upper, seed.lower
    else:
        own_globals, other_globals = seed.lower, seed.upper
    upper_index = local.upper_index()
    lower_index = local.lower_index()
    try:
        upper = frozenset(upper_index[g] for g in own_globals)
        lower = frozenset(lower_index[g] for g in other_globals)
    except KeyError:
        return None
    return upper, lower


def _to_biclique(
    local: LocalGraph, found: tuple[frozenset[int], frozenset[int]]
) -> Biclique:
    side, own, other = local.to_global(found[0], found[1])
    if side is Side.UPPER:
        return Biclique(upper=own, lower=other)
    return Biclique(upper=other, lower=own)


def _finalize_biclique(
    local: LocalGraph,
    found: tuple[frozenset[int], frozenset[int]],
    objective: Objective,
) -> Biclique:
    """Map a local answer to global ids and apply the objective's trim.

    The anchor (when the subgraph is anchored) is passed through so
    trims — e.g. the balanced objective cutting the larger side down to
    ``k`` — never drop the personalized query vertex.
    """
    result = _to_biclique(local, found)
    anchor_upper = anchor_lower = None
    if local.q_local is not None:
        anchor = local.upper_globals[local.q_local]
        if local.upper_side is Side.UPPER:
            anchor_upper = anchor
        else:
            anchor_lower = anchor
    upper, lower = objective.finalize(
        result.upper, result.lower, anchor_upper, anchor_lower
    )
    if upper is result.upper and lower is result.lower:
        return result
    return Biclique(upper=upper, lower=lower)
