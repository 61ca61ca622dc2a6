"""The bitset branch-and-bound: the hot recursion on packed ints.

A line-for-line port of the ``frozenset`` recursion in
:mod:`repro.mbc.branch_bound` where the candidate sets ``P``/``W`` are
int bitmasks, ``R``/``X`` are lists of lower *bit positions*,
intersection is ``&`` and set size is ``int.bit_count()``.  Because the
packed lower-bit order equals the set kernel's candidate order (stable
degree-descending — see :mod:`repro.kernel.packed`), both kernels visit
the same search-tree nodes, take the same pruning decisions, record the
same incumbents and accumulate identical per-rule prune tallies; only
the constant factor differs.

The recursion is a closure over the per-run constants (adjacency masks,
floors, caps, bound hooks) so the inner loop pays cell loads instead of
attribute lookups; incumbent and prune counters live in local variables
and are written back to the shared search state once per run.

Bound hooks (`lower_bound_at_least` / ``upper_bound_at_most``) are
defined on *local* vertex ids, so the recursion translates bit
positions through the packed order arrays at call time; recorded
bicliques are translated back to local-id frozensets once, at the end.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.graph.subgraph import LocalGraph
from repro.kernel.packed import pack_local

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.mbc.branch_bound import BranchBoundConfig, _SearchState

__all__ = ["bitset_search"]


def bitset_search(
    local: LocalGraph,
    config: "BranchBoundConfig",
    state: "_SearchState",
    p0: int | None = None,
    candidates: list[int] | None = None,
) -> None:
    """Run one branch-and-bound on the packed view of ``local``.

    Mutates ``state`` exactly like the set kernel's recursion:
    ``best_upper``/``best_lower`` become local-id frozensets of the best
    recorded biclique (or stay None) and the per-rule prune counters
    accumulate the same totals.

    ``p0`` (initial upper mask) and ``candidates`` (lower bit positions
    in visit order) restrict the search to an alive submask — the
    progressive loop passes its post-reduction masks here instead of
    materializing a restricted graph.  Defaults search the whole view.
    """
    packed = pack_local(local)
    adj_lower = packed.adj_lower
    upper_order = packed.upper_order
    lower_order = packed.lower_order
    tau_p = config.tau_p
    tau_w = config.tau_w
    max_p = config.max_p
    max_w = config.max_w
    prune_non_maximal = config.prune_non_maximal
    lower_at_least = config.lower_bound_at_least
    upper_at_most = config.upper_bound_at_most
    # Objective hooks, hoisted like every other per-run constant.  Both
    # kernels call the identical bound methods, so pruning decisions
    # (and thus the visited search tree) stay in lockstep.
    score_of = config.objective.score
    bound_of = config.objective.bound
    protected_bit = (
        packed.upper_rank[config.protected_upper]
        if config.protected_upper is not None
        else None
    )

    best_size = state.best_size
    best_p = best_w = 0
    have_best = False
    nodes = 0
    skip_suffix = drop_prefix = skip_tau = 0
    prune_shape = prune_dominated = prune_bound = 0

    def recurse(p: int, w: int, r: list[int], x: list[int]) -> None:
        nonlocal best_size, best_p, best_w, have_best, nodes
        nonlocal skip_suffix, drop_prefix, skip_tau
        nonlocal prune_shape, prune_dominated, prune_bound
        nodes += 1
        # _maybe_record, inlined on bit counts.
        p_count = p.bit_count()
        w_count = w.bit_count()
        if (
            p_count >= tau_p
            and w_count >= tau_w
            and (max_p is None or p_count <= max_p)
            and (max_w is None or w_count <= max_w)
        ):
            score = score_of(p_count, w_count)
            if score > best_size:
                best_p, best_w, best_size = p, w, score
                have_best = True

        x_current = list(x)
        for idx, v_star in enumerate(r):
            # PMBC-OL* candidate skip: v_star would be the (|W|+1)-th
            # lower vertex of anything recorded below.
            if lower_at_least is not None:
                if lower_at_least(lower_order[v_star], w_count + 1) <= best_size:
                    skip_suffix += 1
                    x_current.append(v_star)
                    continue

            p_new = p & adj_lower[v_star]
            if upper_at_most is not None:
                limit = p_new.bit_count()
                mask = p_new
                while mask:
                    low = mask & -mask
                    mask ^= low
                    bit = low.bit_length() - 1
                    if (
                        bit != protected_bit
                        and upper_at_most(upper_order[bit], limit) <= best_size
                    ):
                        p_new ^= low
                drop_prefix += limit - p_new.bit_count()
            p_size = p_new.bit_count()
            if p_size < tau_p:
                skip_tau += 1
                x_current.append(v_star)
                continue

            w_new = w | (1 << v_star)
            r_new: list[int] = []
            for v in r[idx + 1 :]:
                overlap = (p_new & adj_lower[v]).bit_count()
                if overlap == p_size:
                    w_new |= 1 << v  # free vertex: adjacent to all of P'
                elif overlap >= tau_p:
                    r_new.append(v)

            w_new_count = w_new.bit_count()
            if max_w is not None and w_new_count > max_w:
                prune_shape += 1
                x_current.append(v_star)
                continue

            # X feeds only the non-maximality rule; without that rule
            # every child gets an empty X.
            x_new: list[int] = []
            if prune_non_maximal:
                dominated = False
                for v in x_current:
                    overlap = (p_new & adj_lower[v]).bit_count()
                    if overlap == p_size:
                        dominated = True
                        break
                    if overlap >= tau_p:
                        x_new.append(v)
                if dominated:
                    prune_dominated += 1
                    x_current.append(v_star)
                    continue

            max_possible_p = p_size if max_p is None else min(p_size, max_p)
            max_possible_w = w_new_count + len(r_new)
            if max_w is not None:
                max_possible_w = min(max_possible_w, max_w)
            if (
                max_possible_p >= tau_p
                and max_possible_w >= tau_w
                and bound_of(max_possible_p, max_possible_w) > best_size
            ):
                recurse(p_new, w_new, r_new, x_new)
            else:
                prune_bound += 1
            x_current.append(v_star)

    if p0 is None:
        p0 = packed.all_upper
    if candidates is None:
        candidates = list(range(packed.num_lower))
    recurse(p0, 0, candidates, [])

    state.nodes += nodes
    state.skip_suffix += skip_suffix
    state.drop_prefix += drop_prefix
    state.skip_tau += skip_tau
    state.prune_shape += prune_shape
    state.prune_dominated += prune_dominated
    state.prune_bound += prune_bound
    if have_best:
        state.best_size = best_size
        state.best_upper = packed.upper_locals(best_p)
        state.best_lower = packed.lower_locals(best_w)
