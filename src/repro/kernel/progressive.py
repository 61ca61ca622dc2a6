"""The bitset kernel's progressive-bounding loop (mask-space rounds).

:func:`repro.mbc.progressive.maximum_biclique_local` delegates here when
the resolved kernel is ``"bitset"``.  The set kernel materializes a
restricted :class:`~repro.graph.subgraph.LocalGraph` per round (Lemma 9
z-prune, then the one-/two-hop reductions, each rebuilding adjacency
sets); profiling showed those rebuilds — not the branch-and-bound — to
dominate personalized queries once the core bounds have shrunk the
search tree.  This loop instead packs the extracted subgraph **once**
(memoized per extraction, see :mod:`repro.kernel.packed`) and runs every
round as alive-mask narrowing over that single packed view:

- z-prune clears bits (:func:`repro.kernel.ops.z_alive_masks`);
- reductions narrow the masks (:func:`repro.kernel.ops.reduce_alive`,
  memoized per extraction by :func:`repro.kernel.batch.cached_reduce`
  so batched requests sharing ``H_q`` replay rounds for free);
- the branch-and-bound starts from ``P = alive_upper`` with candidates
  drawn from ``alive_lower`` — adjacency intersections against ``P``
  induce the restricted graph for free.

Trace bookkeeping (round records, ``core_z_bound``/``reduction`` prune
tallies, per-run branch-and-bound flushes) mirrors the set path event
for event, and the candidate order is the set kernel's stable
degree-descending order computed on the alive masks, so both kernels
explore identical search trees and return identical answers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.graph.subgraph import LocalGraph
from repro.kernel.batch import cached_reduce
from repro.kernel.bitset import bitset_search
from repro.kernel.ops import z_alive_masks
from repro.kernel.packed import iter_bits, pack_local
from repro.mbc.branch_bound import (
    BranchBoundConfig,
    _SearchState,
    flush_search_trace,
)
from repro.objectives import get_objective
from repro.obs.trace import current_trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mbc.progressive import SearchOptions

__all__ = ["bitset_progressive"]


def bitset_progressive(
    local: LocalGraph,
    tau_p: int,
    tau_w: int,
    best: tuple[frozenset[int], frozenset[int]] | None,
    best_size: int,
    floor_w: int,
    one_round: bool,
    options: "SearchOptions",
) -> tuple[frozenset[int], frozenset[int]] | None:
    """Run the progressive rounds of Algorithm 1/5 in mask space.

    ``best``/``best_size``/``floor_w`` are the seed incumbent and the
    initial lower floor, and ``one_round`` the schedule decision, all
    computed by the shared prologue in
    :func:`repro.mbc.progressive.maximum_biclique_local`; the return
    value is in the same local coordinates as the set path's.
    """
    packed = pack_local(local)
    adj_lower = packed.adj_lower
    lower_order = packed.lower_order
    total = local.num_upper + local.num_lower
    anchored = local.q_local is not None
    q_bit = packed.upper_rank[local.q_local] if anchored else None
    objective = get_objective(options.objective)
    bounds = options.bounds if objective.uses_size_bounds else None
    trace = current_trace()

    while True:
        tau_p_k, tau_w_k = objective.round_floors(
            best_size, floor_w, tau_p, tau_w
        )
        if one_round:
            # floor_w is still the largest |W| in H_q, so the upper
            # floor holds for every biclique; search down to tau_w.
            tau_w_k = tau_w
        if trace.enabled:
            trace.add("progressive_rounds")
            nodes_before = trace.counters.get("bb_nodes", 0)
            round_info: dict[str, int] = {
                "tau_p": tau_p_k,
                "tau_w": tau_w_k,
            }

        alive = (packed.all_upper, packed.all_lower)
        if bounds is not None:
            alive = z_alive_masks(packed, bounds, best_size, anchored)
            if trace.enabled:
                kept = (
                    0
                    if alive is None
                    else alive[0].bit_count() + alive[1].bit_count()
                )
                trace.prune("core_z_bound", total - kept)
        if alive is not None:
            before = alive[0].bit_count() + alive[1].bit_count()
            alive_u, alive_l = cached_reduce(
                packed,
                tau_p_k,
                tau_w_k,
                alive[0],
                alive[1],
                options.use_two_hop_reduction,
            )
            if trace.enabled:
                trace.prune(
                    "reduction",
                    before - alive_u.bit_count() - alive_l.bit_count(),
                )
                round_info["working_upper"] = alive_u.bit_count()
                round_info["working_lower"] = alive_l.bit_count()
            if not anchored or (alive_u >> q_bit) & 1:
                found = _run_masked_search(
                    local,
                    packed,
                    adj_lower,
                    lower_order,
                    alive_u,
                    alive_l,
                    tau_p_k,
                    tau_w_k,
                    best_size,
                    options,
                    bounds=bounds,
                    objective=objective,
                )
                if found is not None:
                    best = found
                    best_size = objective.score(len(best[0]), len(best[1]))
        if trace.enabled:
            round_info["nodes"] = (
                trace.counters.get("bb_nodes", 0) - nodes_before
            )
            round_info["best_size"] = best_size
            trace.add_round(**round_info)
        if tau_w_k <= tau_w:
            break
        floor_w = tau_w_k
    return best


def _run_masked_search(
    local: LocalGraph,
    packed,
    adj_lower: list[int],
    lower_order: list[int],
    alive_u: int,
    alive_l: int,
    tau_p_k: int,
    tau_w_k: int,
    best_size: int,
    options: "SearchOptions",
    *,
    bounds=None,
    objective=None,
) -> tuple[frozenset[int], frozenset[int]] | None:
    """One branch-and-bound run over the alive masks.

    Builds the same :class:`BranchBoundConfig` the set path would for
    its restricted working graph — the bound view reads the rows of the
    extraction's global ids, which the restricted graph would have
    carried over unchanged — and visits candidates in the set kernel's
    order: stable degree-descending, with degrees counted against the
    alive upper mask and ties broken by ascending local id.
    """
    objective = get_objective(
        objective if objective is not None else options.objective
    )
    config = BranchBoundConfig(
        tau_p=tau_p_k,
        tau_w=tau_w_k,
        max_p=options.max_p,
        max_w=options.max_w,
        prune_non_maximal=options.prune_non_maximal and bounds is None,
        bounds=bounds.local_view(local) if bounds is not None else None,
        protected_upper=local.q_local,
        objective=objective,
    )
    survivors = sorted(iter_bits(alive_l), key=lambda b: lower_order[b])
    candidates = sorted(
        survivors,
        key=lambda b: (adj_lower[b] & alive_u).bit_count(),
        reverse=True,
    )
    state = _SearchState(best_size)
    bitset_search(local, config, state, p0=alive_u, candidates=candidates)
    flush_search_trace(state)
    if state.best_upper is None:
        return None
    return state.best_upper, state.best_lower
