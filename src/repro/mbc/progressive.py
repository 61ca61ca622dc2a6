"""The progressive bounding framework (Algorithm 1 / Algorithm 5).

Drives Branch&Bound over a local (two-hop) subgraph with progressively
lowered lower-layer floors:

- ``τ_L^0`` = the maximum upper-vertex degree in ``H_q`` (no biclique
  has more lower vertices than that);
- each round searches with minimum constraints
  ``τ_U^{k+1} = max(⌊|C*_k| / τ_L^k⌋, τ_U)`` and
  ``τ_L^{k+1} = max(⌊τ_L^k / 2⌋, τ_L)``;
- rounds stop once the floor reaches ``τ_L``.

The rounds only pay on large two-hop subgraphs.  At or below
:data:`ONE_ROUND_MAX_TWOHOP` vertices the search runs one exact round
instead, with the first round's upper floor and the caller's lower
floor ``τ_L``: every early round re-runs the z-prune and the reductions
over the whole ``H_q``, and on small subgraphs that costs more than the
smaller search it buys.  Both kernels read the same decision, so they
still explore identical rounds.

Every round first prunes with Lemma 9 (``z`` bounds, when a
:class:`~repro.corenum.bounds.CoreBounds` is supplied — this is what
upgrades PMBC-OL to PMBC-OL*) and with the one-/two-hop reductions,
then runs Branch&Bound seeded with the best answer so far.  Raised
floors early on shrink the reduced subgraph dramatically, which is the
point of the framework.

All inputs and outputs here are in *local* coordinates relative to the
supplied :class:`~repro.graph.subgraph.LocalGraph`; the
:mod:`repro.core.online` layer translates to global ids and handles
query-side orientation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.corenum.bounds import CoreBounds
from repro.graph.subgraph import LocalGraph
from repro.kernel import resolve_kernel
from repro.kernel.progressive import bitset_progressive
from repro.mbc.branch_bound import BranchBoundConfig, branch_and_bound
from repro.mbc.reductions import reduce_preserving_maximum
from repro.objectives import Objective, get_objective
from repro.obs.trace import current_trace

#: Largest ``|H_q|`` (upper + lower vertices of the extraction) searched
#: in one round down to the caller's lower floor; larger subgraphs run
#: the progressive schedule.  Set from the ``hq_sweep`` rows of
#: ``benchmarks/emit_bench.py`` (docs/algorithms.md, step 3): the
#: largest swept ``|H_q|`` at which one round won every query.
ONE_ROUND_MAX_TWOHOP = 1195


@dataclass
class SearchOptions:
    """Optional accelerations for one progressive search."""

    bounds: CoreBounds | None = None
    """Global (α,β)-core bounds; enables Lemma 9 pruning and the
    prefix/suffix bounds inside Branch&Bound (PMBC-OL*).  Ignored when
    the objective's ``uses_size_bounds`` is False — the Lemma 9 bounds
    cap the *edge count*, which is only admissible for ``"pmbc"``."""

    max_p: int | None = None
    """Lemma 6 cap on local-upper vertices of the answer (inclusive)."""

    max_w: int | None = None
    """Lemma 6 cap on local-lower vertices of the answer (inclusive)."""

    use_two_hop_reduction: bool = True
    prune_non_maximal: bool = True

    kernel: str | None = None
    """Compute kernel (``"bitset"``/``"set"``) for the reductions and
    Branch&Bound; None means ``"bitset"``."""

    objective: Objective | str | None = None
    """Query-family objective (name, instance, or None for the default
    ``"pmbc"``); see :mod:`repro.objectives`."""


def maximum_biclique_local(
    local: LocalGraph,
    tau_p: int,
    tau_w: int,
    seed: tuple[frozenset[int], frozenset[int]] | None = None,
    options: SearchOptions | None = None,
) -> tuple[frozenset[int], frozenset[int]] | None:
    """The maximum biclique of ``local`` under local-size constraints.

    ``tau_p``/``tau_w`` constrain the local upper/lower layer sizes.
    ``seed`` is a known valid biclique (local ids) acting as a lower
    bound; the return value is the seed itself when nothing better
    exists, or None when no valid biclique exists at all.  When the
    graph is anchored (``local.q_local`` set), the answer is guaranteed
    to contain the anchor provided the seed does.
    """
    options = options or SearchOptions()
    if tau_p < 1 or tau_w < 1:
        raise ValueError(
            f"size constraints must be >= 1, got ({tau_p}, {tau_w})"
        )
    objective = get_objective(options.objective)
    tau_p, tau_w = objective.effective_floors(tau_p, tau_w)
    best = seed
    best_size = objective.score(len(seed[0]), len(seed[1])) if seed else 0

    floor_w = local.max_upper_degree()
    if floor_w < tau_w or local.num_upper < tau_p:
        return best

    one_round = local.num_upper + local.num_lower <= ONE_ROUND_MAX_TWOHOP
    anchored = local.q_local is not None
    bounds = options.bounds if objective.uses_size_bounds else None
    kernel = resolve_kernel(options.kernel)
    if kernel == "bitset":
        # The bitset kernel runs the whole round loop in mask space over
        # one packed view — no per-round restricted graphs (see
        # repro.kernel.progressive).  Same rounds, prunes and answer.
        return bitset_progressive(
            local, tau_p, tau_w, best, best_size, floor_w, one_round, options
        )
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

        working = local
        if bounds is not None:
            working = _prune_by_z(working, bounds, best_size, anchored)
            if trace.enabled:
                kept = (
                    0
                    if working is None
                    else working.num_upper + working.num_lower
                )
                trace.prune(
                    "core_z_bound",
                    local.num_upper + local.num_lower - kept,
                )
        if working is not None:
            before = working.num_upper + working.num_lower
            working = reduce_preserving_maximum(
                working,
                tau_p_k,
                tau_w_k,
                use_two_hop=options.use_two_hop_reduction,
                kernel=kernel,
            )
            if trace.enabled:
                trace.prune(
                    "reduction",
                    before - working.num_upper - working.num_lower,
                )
                round_info["working_upper"] = working.num_upper
                round_info["working_lower"] = working.num_lower
            if not anchored or working.q_local is not None:
                found = _run_branch_bound(
                    working,
                    tau_p_k,
                    tau_w_k,
                    best_size,
                    options,
                    kernel,
                    bounds=bounds,
                    objective=objective,
                )
                if found is not None:
                    best = _map_back(local, working, found)
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


def _prune_by_z(
    local: LocalGraph, bounds: CoreBounds, best_size: int, anchored: bool
) -> LocalGraph | None:
    """Lemma 9: drop vertices whose z bound cannot beat the incumbent.

    Returns None when the anchor itself is bounded out — no anchored
    biclique can improve, so the caller skips the search entirely.
    """
    if best_size <= 0:
        return local
    own_side = local.upper_side
    other_side = own_side.other
    if anchored:
        q_global = local.upper_globals[local.q_local]
        if bounds.z_bound(own_side, q_global) <= best_size:
            return None
    upper_keep = [
        u
        for u, g in enumerate(local.upper_globals)
        if bounds.z_bound(own_side, g) > best_size
    ]
    lower_keep = [
        v
        for v, g in enumerate(local.lower_globals)
        if bounds.z_bound(other_side, g) > best_size
    ]
    if len(upper_keep) == local.num_upper and len(lower_keep) == local.num_lower:
        return local
    return local.restrict(upper_keep, lower_keep)


def _run_branch_bound(
    working: LocalGraph,
    tau_p_k: int,
    tau_w_k: int,
    best_size: int,
    options: SearchOptions,
    kernel: str | None = None,
    *,
    bounds: CoreBounds | None = None,
    objective: Objective | None = None,
) -> tuple[frozenset[int], frozenset[int]] | None:
    objective = get_objective(objective if objective is not None else options.objective)
    config = BranchBoundConfig(
        tau_p=tau_p_k,
        tau_w=tau_w_k,
        max_p=options.max_p,
        max_w=options.max_w,
        # PMBC-OL* discards the maximality check (Section VI-C): the
        # core bounds make it redundant, and with bounds-based skips it
        # is cheaper to drop it.
        prune_non_maximal=options.prune_non_maximal and bounds is None,
        bounds=bounds.local_view(working) if bounds is not None else None,
        protected_upper=working.q_local,
        objective=objective,
    )
    return branch_and_bound(working, config, best_size, kernel=kernel)


def _map_back(
    original: LocalGraph,
    working: LocalGraph,
    found: tuple[frozenset[int], frozenset[int]],
) -> tuple[frozenset[int], frozenset[int]]:
    """Translate a result from the reduced graph back to original local ids."""
    upper_global_to_local = original.upper_index()
    lower_global_to_local = original.lower_index()
    upper = frozenset(
        upper_global_to_local[working.upper_globals[u]] for u in found[0]
    )
    lower = frozenset(
        lower_global_to_local[working.lower_globals[v]] for v in found[1]
    )
    return upper, lower
