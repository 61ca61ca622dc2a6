"""Mask-space search-space prunes over a :class:`PackedLocalGraph`.

These are the bitset kernel's counterparts of the per-round passes the
set kernel runs on materialized :class:`~repro.graph.subgraph.LocalGraph`
copies: Lemma 9 z-bound filtering and the one-/two-hop reductions of
:mod:`repro.mbc.reductions`.  Instead of restricting the graph, every
pass narrows a pair of *alive masks* (upper-bit and lower-bit ints) over
one packed view built once per two-hop extraction — no intermediate sets
or adjacency rebuilds between progressive rounds.

Exact parity with the set kernel is load-bearing (the differential suite
asserts identical answers *and* identical prune tallies), so each pass
reproduces the set implementation's decision order:

- the Lemma 9 filter compares every vertex's current ``z`` bound with
  the incumbent, one pass per layer and round, as the set kernel does;
  nothing derived from the bounds is memoized on the packed view, which
  the engine keeps across in-place bound repairs;
- the one-hop fixpoint is the unique greatest fixpoint, so a sweep over
  alive bits equals the set kernel's queue cascade;
- the two-hop filter kills vertices mid-pass in ascending local-id
  order (the packed rank array recovers that order from degree-ordered
  bit space), so later vertices see earlier kills exactly as in the set
  kernel;
- the wedge-budget estimate counts degrees against the masks that were
  alive *on entry*, matching the set kernel's use of the z-restricted
  working graph's degrees.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import neg
from typing import TYPE_CHECKING

from repro.kernel.packed import PackedLocalGraph, iter_bits

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.corenum.bounds import CoreBounds

__all__ = [
    "z_alive_masks",
    "one_hop_alive",
    "two_hop_alive",
    "reduce_alive",
]


def z_alive_masks(
    packed: PackedLocalGraph,
    bounds: "CoreBounds",
    best_size: int,
    anchored: bool,
) -> tuple[int, int] | None:
    """Lemma 9 alive masks: clear bits whose current z bound cannot beat
    the incumbent.  Returns None when the anchor itself is bounded out.
    """
    if best_size <= 0:
        return packed.all_upper, packed.all_lower
    local = packed.local
    own_side = local.upper_side
    z_upper = bounds.z[own_side]
    upper_globals = local.upper_globals
    if anchored and z_upper[upper_globals[local.q_local]] <= best_size:
        return None
    return (
        _z_alive(packed.upper_order, upper_globals, z_upper, best_size),
        _z_alive(
            packed.lower_order,
            local.lower_globals,
            bounds.z[own_side.other],
            best_size,
        ),
    )


def _z_alive(
    order: list[int], globals_: list[int], z: list[int], best_size: int
) -> int:
    """The mask of bits whose vertex's z bound exceeds ``best_size``."""
    alive = 0
    for bit, v in enumerate(order):
        if z[globals_[v]] > best_size:
            alive |= 1 << bit
    return alive


def one_hop_alive(
    packed: PackedLocalGraph,
    tau_p: int,
    tau_w: int,
    alive_u: int,
    alive_l: int,
) -> tuple[int, int]:
    """The (tau_w, tau_p)-core fixpoint of the alive submask.

    Sweeps each layer, clearing vertices whose alive degree (popcount
    of adjacency ∩ other-layer alive mask) is below the floor, until
    stable — the greatest fixpoint, identical to the set kernel's queue
    cascade.
    """
    adj_upper = packed.adj_upper
    adj_lower = packed.adj_lower
    # Initial under-floor detection.  On full masks it is one bisection
    # per layer: bit order is degree-descending, so the precomputed
    # degree arrays are sorted and the initial survivors are a bit
    # prefix.  Otherwise, one popcount sweep over the alive bits.
    if alive_u == packed.all_upper and alive_l == packed.all_lower:
        ku = bisect_right(packed.deg_upper, -tau_w, key=neg)
        kl = bisect_right(packed.deg_lower, -tau_p, key=neg)
        died_u = alive_u >> ku << ku
        died_l = alive_l >> kl << kl
    else:
        died_u = 0
        mask = alive_u
        while mask:
            low = mask & -mask
            mask ^= low
            if (adj_upper[low.bit_length() - 1] & alive_l).bit_count() < tau_w:
                died_u |= low
        died_l = 0
        mask = alive_l
        while mask:
            low = mask & -mask
            mask ^= low
            if (adj_lower[low.bit_length() - 1] & alive_u).bit_count() < tau_p:
                died_l |= low
    alive_u ^= died_u
    alive_l ^= died_l
    # Change-filtered sweeps to the fixpoint: only survivors adjacent
    # to this round's deaths (one word-level AND to test) are
    # re-popcounted, so rounds after the initial extinction touch a
    # handful of vertices.  The greatest fixpoint is unique, so the
    # sweep order cannot diverge from the set kernel's queue cascade.
    while died_u or died_l:
        new_l = 0
        if died_u:
            mask = alive_l
            while mask:
                low = mask & -mask
                mask ^= low
                adj = adj_lower[low.bit_length() - 1]
                if adj & died_u and (adj & alive_u).bit_count() < tau_p:
                    new_l |= low
            alive_l ^= new_l
        died_l |= new_l
        new_u = 0
        if died_l:
            mask = alive_u
            while mask:
                low = mask & -mask
                mask ^= low
                adj = adj_upper[low.bit_length() - 1]
                if adj & died_l and (adj & alive_l).bit_count() < tau_w:
                    new_u |= low
            alive_u ^= new_u
        died_u, died_l = new_u, 0
    return alive_u, alive_l


def two_hop_alive(
    masks: list[int],
    order: list[int],
    alive: int,
    alive_other: int,
    need_partners: int,
    need_common: int,
) -> tuple[int, int]:
    """One own-side pass of the two-hop (wedge) reduction on masks.

    ``masks`` is the own-side adjacency (bit-indexed, masks over the
    other side); ``order`` maps bit positions to local ids — alive
    vertices are visited, and killed mid-pass, in ascending local-id
    order, matching the set kernel.  Returns ``(alive, changed)``.
    """
    changed = 0
    for x_bit in sorted(iter_bits(alive), key=order.__getitem__):
        x_sel = 1 << x_bit
        if not alive & x_sel:
            continue
        mask_x = masks[x_bit] & alive_other
        qualified = 0
        if mask_x:
            rest = alive & ~x_sel
            while rest:
                low = rest & -rest
                rest ^= low
                if (mask_x & masks[low.bit_length() - 1]).bit_count() >= need_common:
                    qualified += 1
                    if qualified + 1 >= need_partners:
                        break
        if qualified + 1 < need_partners:
            alive ^= x_sel
            changed = 1
    return alive, changed


def reduce_alive(
    packed: PackedLocalGraph,
    tau_p: int,
    tau_w: int,
    alive_u: int,
    alive_l: int,
    use_two_hop: bool = True,
    wedge_budget: int | None = None,
) -> tuple[int, int]:
    """Mask-space :func:`repro.mbc.reductions.reduce_preserving_maximum`.

    One-hop fixpoint, optionally one two-hop pass per side (skipped when
    the wedge estimate exceeds the budget), then the one-hop fixpoint
    again if anything died.  The entry masks stand in for the working
    graph the set kernel would have materialized: the wedge estimate
    counts degrees against them, so both kernels take the same skip
    decision.
    """
    if wedge_budget is None:
        from repro.mbc.reductions import DEFAULT_WEDGE_BUDGET

        wedge_budget = DEFAULT_WEDGE_BUDGET
    entry_u, entry_l = alive_u, alive_l
    adj_upper = packed.adj_upper
    adj_lower = packed.adj_lower
    alive_u, alive_l = one_hop_alive(packed, tau_p, tau_w, alive_u, alive_l)
    if use_two_hop:
        wedges = sum(
            (adj_lower[b] & entry_u).bit_count() ** 2
            for b in iter_bits(alive_l)
        ) + sum(
            (adj_upper[b] & entry_l).bit_count() ** 2
            for b in iter_bits(alive_u)
        )
        if wedges <= wedge_budget:
            alive_u, changed_u = two_hop_alive(
                adj_upper, packed.upper_order, alive_u, alive_l, tau_p, tau_w
            )
            alive_l, changed_l = two_hop_alive(
                adj_lower, packed.lower_order, alive_l, alive_u, tau_w, tau_p
            )
            if changed_u or changed_l:
                alive_u, alive_l = one_hop_alive(
                    packed, tau_p, tau_w, alive_u, alive_l
                )
    return alive_u, alive_l
