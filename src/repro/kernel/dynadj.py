"""Dynamic full-graph packed adjacency with in-place edge patching.

The bitset kernel wins its benchmarks by re-encoding adjacency as
degree-ordered bitmasks — but a mutating workload would naively pay a
full re-pack per edge update.  :class:`DynamicPackedAdjacency` keeps
*global* packed rows (one big-int mask per vertex) live under
insertions and deletions, beside the neighbor sets that make it the
one mutable adjacency of the update surfaces on both kernels:

- **Patching** sets/clears one bit in the two incident rows per update
  by a single-row rebind, so mutation never re-packs untouched
  vertices.
- **Degree-order bookkeeping**: bit positions are assigned by the same
  stable degree-descending rule as :func:`repro.kernel.packed.pack_local`.
  Updates drift real degrees away from the packed order; the total
  drift (``Σ |deg - deg_at_pack|``) is tracked O(1) per patch and a
  full re-pack is amortized behind ``churn_budget`` — the re-pack
  counter stays 0 while drift remains inside the budget.
- **Extraction**: :meth:`extract` builds a two-hop
  :class:`~repro.graph.subgraph.LocalGraph` (with the packed view
  attached) straight from the live neighbor sets — the global rows are
  read only by :meth:`packed_bytes` and :meth:`bit_row` — bit-for-bit
  identical to
  :func:`repro.kernel.packed.two_hop_packed` on a materialized
  snapshot — so post-update search-tree rebuilds skip the snapshot
  round-trip entirely.

Byte-level equality is testable at two granularities:
:meth:`canonical_bytes` (id-space, order-independent — invariant under
patch-vs-rebuild within any churn budget) and :meth:`packed_bytes`
(bit-space rows — identical to a from-scratch instance after
:meth:`force_repack`).
"""

from __future__ import annotations

from bisect import bisect_left

from repro.graph.bipartite import BipartiteGraph, Side
from repro.graph.subgraph import LocalGraph
from repro.kernel.packed import PackedLocalGraph, _unpack_adjacency

__all__ = ["DynamicPackedAdjacency", "DEFAULT_CHURN_BUDGET"]

#: Default degree-drift budget before a full re-pack is triggered.
DEFAULT_CHURN_BUDGET = 256


class DynamicPackedAdjacency:
    """Patchable packed adjacency of a whole (mutating) bipartite graph.

    Parameters
    ----------
    graph:
        Starting graph; its adjacency is copied into mutable sets.
    churn_budget:
        Total absolute degree drift (summed over vertices) tolerated
        before the bit order is recomputed and all rows re-packed.
        ``0`` re-packs on every effective update (the naive baseline).
    """

    def __init__(
        self, graph: BipartiteGraph, churn_budget: int = DEFAULT_CHURN_BUDGET
    ) -> None:
        self._adj: dict[Side, list[set[int]]] = {
            side: [
                set(graph.neighbors(side, v))
                for v in range(graph.num_vertices_on(side))
            ]
            for side in Side
        }
        self.churn_budget = churn_budget
        self.patch_count = 0
        self.repack_count = 0
        self.drift = 0
        self._order: dict[Side, list[int]] = {}
        self._rank: dict[Side, list[int]] = {}
        self._bit_rows: dict[Side, list[int]] = {}
        self._packed_deg: dict[Side, list[int]] = {}
        self._edges = sum(len(ns) for ns in self._adj[Side.UPPER])
        # Sorted-row cache for snapshot(): only rows dirtied since the
        # last snapshot are re-sorted, so steady-state snapshots cost
        # O(touched vertices), not O(E).
        self._snap_rows: dict[Side, list[tuple[int, ...]]] | None = None
        self._snap_dirty: dict[Side, set[int]] = {
            Side.UPPER: set(),
            Side.LOWER: set(),
        }
        self._repack()
        self.repack_count = 0  # the initial pack is construction, not churn

    # ------------------------------------------------------------------
    # Read surface
    # ------------------------------------------------------------------
    def num_vertices_on(self, side: Side) -> int:
        """Current vertex count on ``side``."""
        return len(self._adj[side])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether edge ``(u, v)`` (upper id, lower id) exists."""
        return (
            0 <= u < len(self._adj[Side.UPPER])
            and v in self._adj[Side.UPPER][u]
        )

    def degree(self, side: Side, x: int) -> int:
        """Current degree of vertex ``x``."""
        return len(self._adj[side][x])

    def neighbors(self, side: Side, x: int) -> set[int]:
        """Current neighbor set of ``x`` (live, do not mutate)."""
        return self._adj[side][x]

    def ensure_vertex(self, side: Side, x: int) -> None:
        """Extend ``side`` so vertex id ``x`` exists (isolated if new)."""
        self._grow(side, x)

    def bit_row(self, side: Side, x: int) -> int:
        """The big-int mask row of ``x`` over the opposite bit space."""
        return self._bit_rows[side][x]

    def stats(self) -> dict:
        """JSON-friendly patching counters."""
        return {
            "patches": self.patch_count,
            "repacks": self.repack_count,
            "drift": self.drift,
            "churn_budget": self.churn_budget,
        }

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert_edge(self, u: int, v: int) -> bool:
        """Insert edge ``(u, v)``; returns False for a no-op."""
        self._grow(Side.UPPER, u)
        self._grow(Side.LOWER, v)
        if v in self._adj[Side.UPPER][u]:
            return False
        self._adj[Side.UPPER][u].add(v)
        self._adj[Side.LOWER][v].add(u)
        self._edges += 1
        self._snap_dirty[Side.UPPER].add(u)
        self._snap_dirty[Side.LOWER].add(v)
        self._patch(u, v, set_bit=True)
        return True

    def delete_edge(self, u: int, v: int) -> bool:
        """Delete edge ``(u, v)``; returns False for a no-op."""
        if not self.has_edge(u, v):
            return False
        self._adj[Side.UPPER][u].discard(v)
        self._adj[Side.LOWER][v].discard(u)
        self._edges -= 1
        self._snap_dirty[Side.UPPER].add(u)
        self._snap_dirty[Side.LOWER].add(v)
        self._patch(u, v, set_bit=False)
        return True

    def force_repack(self) -> None:
        """Recompute the bit order and re-pack every row now."""
        self._repack()

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------
    def extract(
        self,
        graph: BipartiteGraph | None,
        side: Side,
        q: int,
        kernel: str = "bitset",
    ) -> LocalGraph:
        """Two-hop ``H_q`` with the packed view attached, from the live
        neighbor sets (the global bit rows are not read).

        Signature-compatible with
        :func:`repro.core.online.extract_local` (the ``graph`` argument
        is ignored — the live adjacency is authoritative), and
        bit-identical to ``two_hop_packed(snapshot(), side, q)``.
        """
        adj = self._adj
        other = side.other
        lower_globals = sorted(adj[side][q])
        nbrs = [adj[other][v] for v in lower_globals]
        counts: dict[int, int] = {q: 0}
        get = counts.get
        for ns in nbrs:
            for u in ns:
                counts[u] = get(u, 0) + 1
        counts[q] = len(lower_globals)
        upper_globals = sorted(counts)
        num_upper = len(upper_globals)
        num_lower = len(lower_globals)
        upper_degrees = [counts[u] for u in upper_globals]
        lower_degrees = [len(ns) for ns in nbrs]
        upper_order = sorted(
            range(num_upper), key=upper_degrees.__getitem__, reverse=True
        )
        lower_order = sorted(
            range(num_lower), key=lower_degrees.__getitem__, reverse=True
        )
        upper_rank = [0] * num_upper
        for bit, u in enumerate(upper_order):
            upper_rank[u] = bit
        lower_rank = [0] * num_lower
        for bit, v in enumerate(lower_order):
            lower_rank[v] = bit
        gbit = {upper_globals[u]: bit for bit, u in enumerate(upper_order)}
        adj_upper = [0] * num_upper
        adj_lower = [0] * num_lower
        for vi, ns in enumerate(nbrs):
            vsel = 1 << lower_rank[vi]
            row = 0
            for u in ns:
                ubit = gbit[u]
                row |= 1 << ubit
                adj_upper[ubit] |= vsel
            adj_lower[lower_rank[vi]] = row

        local = LocalGraph(
            upper_globals=upper_globals,
            lower_globals=lower_globals,
            upper_side=side,
            q_local=bisect_left(upper_globals, q),
            adj_builder=lambda: _unpack_adjacency(local),
        )
        local._packed = PackedLocalGraph(
            local=local,
            upper_order=upper_order,
            lower_order=lower_order,
            upper_rank=upper_rank,
            lower_rank=lower_rank,
            adj_upper=adj_upper,
            adj_lower=adj_lower,
            deg_upper=[upper_degrees[u] for u in upper_order],
            deg_lower=[lower_degrees[v] for v in lower_order],
            all_upper=(1 << num_upper) - 1,
            all_lower=(1 << num_lower) - 1,
        )
        return local

    def snapshot(self) -> BipartiteGraph:
        """An immutable :class:`BipartiteGraph` of the current state.

        Incremental: sorted rows are cached between calls and only the
        vertices touched since the previous snapshot are re-sorted, so
        a steady-state update batch pays O(affected · deg), not O(E).
        """
        if self._snap_rows is None:
            self._snap_rows = {
                side: [tuple(sorted(ns)) for ns in self._adj[side]]
                for side in Side
            }
        else:
            for side in Side:
                rows = self._snap_rows[side]
                adj = self._adj[side]
                while len(rows) < len(adj):
                    rows.append(())
                for x in self._snap_dirty[side]:
                    rows[x] = tuple(sorted(adj[x]))
        self._snap_dirty[Side.UPPER].clear()
        self._snap_dirty[Side.LOWER].clear()
        return BipartiteGraph._from_sorted_rows(
            tuple(self._snap_rows[Side.UPPER]),
            tuple(self._snap_rows[Side.LOWER]),
            self._edges,
        )

    # ------------------------------------------------------------------
    # Serialization (differential-test surface)
    # ------------------------------------------------------------------
    def canonical_bytes(self) -> bytes:
        """Id-space serialization, independent of the packed bit order.

        Equal across any two instances holding the same graph, no
        matter how they got there (patched vs rebuilt) or how far the
        bit order has drifted.
        """
        out = bytearray()
        out += len(self._adj[Side.UPPER]).to_bytes(8, "big")
        out += len(self._adj[Side.LOWER]).to_bytes(8, "big")
        for ns in self._adj[Side.UPPER]:
            out += len(ns).to_bytes(4, "big")
            for v in sorted(ns):
                out += v.to_bytes(4, "big")
        return bytes(out)

    def packed_bytes(self) -> bytes:
        """Bit-space serialization of orders and mask rows.

        Equal to a from-scratch instance's only when the bit order is
        fresh — i.e. after :meth:`force_repack`.
        """
        out = bytearray()
        for side in Side:
            order = self._order[side]
            out += len(order).to_bytes(8, "big")
            for x in order:
                out += x.to_bytes(4, "big")
            width = (len(self._adj[side.other]) + 7) // 8
            for row in self._bit_rows[side]:
                out += row.to_bytes(width, "big")
        return bytes(out)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _grow(self, side: Side, x: int) -> None:
        while x >= len(self._adj[side]):
            bit = len(self._order[side])
            self._adj[side].append(set())
            self._order[side].append(len(self._adj[side]) - 1)
            self._rank[side].append(bit)
            self._bit_rows[side].append(0)
            self._packed_deg[side].append(0)

    def _patch(self, u: int, v: int, set_bit: bool) -> None:
        bu = self._rank[Side.UPPER][u]
        bv = self._rank[Side.LOWER][v]
        if set_bit:
            self._bit_rows[Side.UPPER][u] |= 1 << bv
            self._bit_rows[Side.LOWER][v] |= 1 << bu
        else:
            self._bit_rows[Side.UPPER][u] &= ~(1 << bv)
            self._bit_rows[Side.LOWER][v] &= ~(1 << bu)
        self.patch_count += 2
        for side, x in ((Side.UPPER, u), (Side.LOWER, v)):
            deg = len(self._adj[side][x])
            packed = self._packed_deg[side][x]
            before = deg - 1 if set_bit else deg + 1
            self.drift += abs(deg - packed) - abs(before - packed)
        if self.drift > self.churn_budget:
            self._repack()

    def _repack(self) -> None:
        for side in Side:
            adj = self._adj[side]
            order = sorted(
                range(len(adj)), key=lambda i: len(adj[i]), reverse=True
            )
            rank = [0] * len(order)
            for bit, x in enumerate(order):
                rank[x] = bit
            self._order[side] = order
            self._rank[side] = rank
            self._packed_deg[side] = [len(ns) for ns in adj]
        for side in Side:
            other_rank = self._rank[side.other]
            bit_rows: list[int] = []
            for ns in self._adj[side]:
                mask = 0
                for w in ns:
                    mask |= 1 << other_rank[w]
                bit_rows.append(mask)
            self._bit_rows[side] = bit_rows
        self.drift = 0
        self.repack_count += 1
