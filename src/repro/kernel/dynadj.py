"""The one live adjacency of a mutating bipartite graph.

:class:`DynamicPackedAdjacency` keeps one neighbor set per vertex —
O(m) memory, O(1) work per edge update — and is the only mutable
adjacency of both update surfaces
(:class:`~repro.core.dynamic.DynamicPMBCIndex` and
:meth:`repro.serve.PMBCService.update_batch`) on both kernels:

- **Bounds repair** reads it in place:
  :class:`~repro.corenum.incremental.IncrementalCoreBounds` traverses
  :attr:`DynamicPackedAdjacency.sets` instead of keeping a copy.
- **Tree rebuilds** extract ``H_q`` straight from the live sets with
  the ordinary extractors
  (:func:`~repro.kernel.packed.two_hop_packed` packs the bitset view
  per query); the result is identical to an extraction from
  :meth:`snapshot`.
- **Snapshots** are incremental: they share the starting graph's rows,
  and only the rows touched since the previous :meth:`snapshot` are
  re-sorted.

:meth:`canonical_bytes` is an id-space serialization, equal across any
two instances holding the same graph, however they got there.
"""

from __future__ import annotations

from repro.graph.bipartite import BipartiteGraph, Side

__all__ = ["DynamicPackedAdjacency"]


class DynamicPackedAdjacency:
    """Live neighbor sets of a whole (mutating) bipartite graph.

    Parameters
    ----------
    graph:
        Starting graph; its adjacency is copied into mutable sets.
    """

    def __init__(self, graph: BipartiteGraph) -> None:
        #: The live neighbor sets per side (read-only for callers).
        self.sets: dict[Side, list[set[int]]] = {
            side: [
                set(graph.neighbors(side, v))
                for v in range(graph.num_vertices_on(side))
            ]
            for side in Side
        }
        self.patch_count = 0
        self._edges = graph.num_edges
        # Sorted rows for snapshot(), starting as the graph's own sorted
        # tuples (shared, not copied): only rows dirtied since the last
        # snapshot are re-sorted, so no snapshot costs O(E).
        self._snap_rows: dict[Side, list[tuple[int, ...]]] = {
            side: [
                tuple(graph.neighbors(side, v))
                for v in range(graph.num_vertices_on(side))
            ]
            for side in Side
        }
        self._snap_dirty: dict[Side, set[int]] = {
            Side.UPPER: set(),
            Side.LOWER: set(),
        }

    # ------------------------------------------------------------------
    # Read surface (the BipartiteGraph subset two-hop extraction uses)
    # ------------------------------------------------------------------
    def num_vertices_on(self, side: Side) -> int:
        """Current vertex count on ``side``."""
        return len(self.sets[side])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether edge ``(u, v)`` (upper id, lower id) exists."""
        return (
            0 <= u < len(self.sets[Side.UPPER])
            and v in self.sets[Side.UPPER][u]
        )

    def degree(self, side: Side, x: int) -> int:
        """Current degree of vertex ``x``."""
        return len(self.sets[side][x])

    def neighbors(self, side: Side, x: int) -> set[int]:
        """Current neighbor set of ``x`` (live, do not mutate)."""
        return self.sets[side][x]

    def ensure_vertex(self, side: Side, x: int) -> None:
        """Extend ``side`` so vertex id ``x`` exists (isolated if new)."""
        rows = self.sets[side]
        while x >= len(rows):
            rows.append(set())

    def stats(self) -> dict:
        """JSON-friendly counters: ``patches`` counts neighbor sets
        changed, two per effective update."""
        return {"patches": self.patch_count}

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert_edge(self, u: int, v: int) -> bool:
        """Insert edge ``(u, v)``; returns False for a no-op."""
        self.ensure_vertex(Side.UPPER, u)
        self.ensure_vertex(Side.LOWER, v)
        if v in self.sets[Side.UPPER][u]:
            return False
        self.sets[Side.UPPER][u].add(v)
        self.sets[Side.LOWER][v].add(u)
        self._edges += 1
        self._touch(u, v)
        return True

    def delete_edge(self, u: int, v: int) -> bool:
        """Delete edge ``(u, v)``; returns False for a no-op."""
        if not self.has_edge(u, v):
            return False
        self.sets[Side.UPPER][u].discard(v)
        self.sets[Side.LOWER][v].discard(u)
        self._edges -= 1
        self._touch(u, v)
        return True

    def _touch(self, u: int, v: int) -> None:
        self.patch_count += 2
        self._snap_dirty[Side.UPPER].add(u)
        self._snap_dirty[Side.LOWER].add(v)

    # ------------------------------------------------------------------
    # Snapshots and serialization
    # ------------------------------------------------------------------
    def snapshot(self) -> BipartiteGraph:
        """An immutable :class:`BipartiteGraph` of the current state.

        Incremental: sorted rows are kept between calls and only the
        vertices touched since the previous snapshot are re-sorted, so
        an update batch pays O(affected · deg), not O(E).
        """
        for side in Side:
            rows = self._snap_rows[side]
            sets = self.sets[side]
            while len(rows) < len(sets):
                rows.append(())
            for x in self._snap_dirty[side]:
                rows[x] = tuple(sorted(sets[x]))
            self._snap_dirty[side].clear()
        return BipartiteGraph._from_sorted_rows(
            tuple(self._snap_rows[Side.UPPER]),
            tuple(self._snap_rows[Side.LOWER]),
            self._edges,
        )

    def canonical_bytes(self) -> bytes:
        """Id-space serialization of the vertex counts and upper rows.

        Equal across any two instances holding the same graph, no
        matter how they got there (patched vs rebuilt).
        """
        out = bytearray()
        out += len(self.sets[Side.UPPER]).to_bytes(8, "big")
        out += len(self.sets[Side.LOWER]).to_bytes(8, "big")
        for ns in self.sets[Side.UPPER]:
            out += len(ns).to_bytes(4, "big")
            for v in sorted(ns):
                out += v.to_bytes(4, "big")
        return bytes(out)
