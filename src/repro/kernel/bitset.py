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
floors, caps, bound tables) so the inner loop pays cell loads instead of
attribute lookups; incumbent and prune counters live in local variables
and are written back to the shared search state once per run.

The PMBC-OL* prefix/suffix bounds (the config's
:class:`~repro.corenum.bounds.LocalCoreBounds` view) are read as two
tables in bit space, built when the run starts and rebuilt only when the
incumbent improves: per ``|P'|``, the mask of upper bits whose prefix
bound at that size cannot beat the incumbent (the anchor excluded), and
per lower bit, the first ``|W|+1`` at which its suffix bound stops
beating it.  A bound row is monotone, so each vertex has one threshold
per incumbent, and the recursion makes no per-vertex bound call.  Three
more constant-factor cuts keep every decision and tally unchanged:

- with dominance pruning off, ``X`` is never grown (it only feeds that
  rule);
- on the PMBC-OL* query path (no ``max_w``, no dominance pruning) a
  branch whose size bound over ``|W| + |R| - idx`` lower vertices
  cannot beat the incumbent is counted as a size-bound prune before its
  ``R'`` scan — the scan could only shrink that bound, and no other
  rule would claim the branch first;
- recorded bicliques are translated back to local-id frozensets once,
  at the end.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.graph.subgraph import LocalGraph
from repro.kernel.packed import iter_bits, pack_local

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
    tau_p = config.tau_p
    tau_w = config.tau_w
    max_p = config.max_p
    max_w = config.max_w
    prune_non_maximal = config.prune_non_maximal
    # The size bound over |W| + |R| - idx lower vertices claims a branch
    # before its R' scan only where no shape cap or dominance check
    # would claim it first.
    early_cut = max_w is None and not prune_non_maximal
    # Objective hooks, hoisted like every other per-run constant.  Both
    # kernels call the identical bound methods, so pruning decisions
    # (and thus the visited search tree) stay in lockstep.
    score_of = config.objective.score
    bound_of = config.objective.bound
    if p0 is None:
        p0 = packed.all_upper
    if candidates is None:
        candidates = list(range(packed.num_lower))

    best_size = state.best_size
    best_p = best_w = 0
    have_best = False
    nodes = 0
    skip_suffix = drop_prefix = skip_tau = 0
    prune_shape = prune_dominated = prune_bound = 0

    # Bound tables (see the module docstring).  Without bounds nothing
    # is ever cut: no prefix masks, and no |W|+1 reaches a stop.
    max_size = p0.bit_count()
    cut = [0] * (max_size + 1)
    stop = [packed.num_lower + 2] * packed.num_lower
    view = config.bounds
    if view is not None:
        protected = config.protected_upper
        upper_bits = [
            b for b in iter_bits(p0) if packed.upper_order[b] != protected
        ]
        upper_ids = [packed.upper_order[b] for b in upper_bits]
        lower_ids = [packed.lower_order[b] for b in candidates]

    def tabulate() -> None:
        """Rebuild ``cut`` and ``stop`` for the current incumbent."""
        nonlocal cut
        cut = [0] * (max_size + 1)
        for bit, size in zip(upper_bits, view.prefix_cuts(upper_ids, best_size)):
            if size:
                cut[min(size, max_size)] |= 1 << bit
        # An upper cut at size i is cut at every smaller size too.
        for size in range(max_size - 1, 0, -1):
            cut[size] |= cut[size + 1]
        for bit, k in zip(candidates, view.suffix_stops(lower_ids, best_size)):
            stop[bit] = k

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
                if view is not None:
                    tabulate()

        # X feeds only the non-maximality rule, so it is kept only with
        # that rule on: every candidate joins it once its branch is
        # settled, and later branches of this node exclude it.
        x_current = list(x)
        # PMBC-OL* candidate skip: v_star would be the (|W|+1)-th lower
        # vertex of anything recorded below.
        k = w_count + 1
        reach = w_count + len(r)
        for idx, v_star in enumerate(r):
            if stop[v_star] <= k:
                skip_suffix += 1
                if prune_non_maximal:
                    x_current.append(v_star)
                continue

            # PMBC-OL* prefix drop: uppers whose bound at |P'| cannot
            # beat the incumbent (never the anchor).
            p_new = p & adj_lower[v_star]
            p_size = p_new.bit_count()
            dropped = p_new & cut[p_size]
            if dropped:
                p_new ^= dropped
                drop_prefix += dropped.bit_count()
                p_size = p_new.bit_count()
            if p_size < tau_p:
                skip_tau += 1
                if prune_non_maximal:
                    x_current.append(v_star)
                continue
            if early_cut and bound_of(
                p_size if max_p is None or p_size < max_p else max_p,
                reach - idx,
            ) <= best_size:
                prune_bound += 1
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
                if prune_non_maximal:
                    x_current.append(v_star)
                continue

            # Without the non-maximality rule every child gets an empty X.
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
            if prune_non_maximal:
                x_current.append(v_star)

    if view is not None:
        tabulate()
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
