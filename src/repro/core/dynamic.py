"""Dynamic maintenance of the PMBC-Index (the paper's future work).

Section VIII closes with: "solutions for solving this problem under a
dynamic environment is an interesting research direction for future
studies."  This module implements the natural affected-set maintenance
scheme on top of the static constructors:

- An edge ``(u, v)`` only influences the answer of a query vertex ``x``
  when the edge lies inside ``x``'s two-hop subgraph *and* can
  participate in an ``x``-containing biclique — which requires ``x`` to
  be adjacent to the endpoint on the opposite layer.  Hence the
  **affected set** of an update is ``N(v) ∪ {u}`` on the upper layer
  and ``N(u) ∪ {v}`` on the lower layer (neighborhoods taken *after*
  an insertion and *before* a deletion), and only those vertices'
  search trees need rebuilding.
- The (α,β)-core bounds are global pruning structures; they are
  maintained **incrementally** by
  :class:`~repro.corenum.incremental.IncrementalCoreBounds` — a bounded
  peeling cascade per update instead of a from-scratch ``O(δ·m)``
  recomputation — and stay *exact* at every point.
- The graph lives in one :class:`~repro.kernel.DynamicPackedAdjacency`
  (live neighbor sets) on both kernels.  The bounds maintainer reads
  it in place, and affected trees are rebuilt by extracting ``H_q``
  straight from it — no graph snapshot per update batch.
- Deleted edges can strand biclique instances in the array ``A``;
  they become unreachable (every tree referencing a broken biclique is
  in the affected set) and :meth:`DynamicPMBCIndex.compact` garbage
  collects them — automatically every ``compact_every`` deletions when
  that knob is set.

Rebuilding a tree costs the same as during construction —
``O(deg(x) · TC(PMBC-OL*))`` — so an update touches
``O(deg(u) + deg(v))`` trees instead of all ``n``.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.construction import build_search_tree
from repro.core.index import BicliqueArray, PMBCIndex, SearchTree
from repro.core.query import pmbc_index_query
from repro.core.result import Biclique
from repro.corenum.bounds import CoreBounds
from repro.corenum.incremental import (
    DEFAULT_CASCADE_CAP,
    IncrementalCoreBounds,
)
from repro.graph.bipartite import BipartiteGraph, Side
from repro.kernel import resolve_kernel
from repro.kernel.dynadj import DynamicPackedAdjacency


def edge_affected_sets(
    neighbors_of_u: Iterable[int],
    neighbors_of_v: Iterable[int],
    u: int,
    v: int,
) -> tuple[set[int], set[int]]:
    """The per-layer vertex sets an update to edge ``(u, v)`` affects.

    ``neighbors_of_u`` are the lower-layer neighbors of upper vertex
    ``u`` and ``neighbors_of_v`` the upper-layer neighbors of lower
    vertex ``v`` — taken *after* an insertion and *before* a deletion.
    Returns ``(affected_upper, affected_lower)``: exactly the vertices
    whose search trees the update can change (module docstring).  This
    is the invalidation rule shared by :class:`DynamicPMBCIndex`
    (rebuild) and :class:`repro.adaptive.PartialIndex` (evict).
    """
    return set(neighbors_of_v) | {u}, set(neighbors_of_u) | {v}


class DynamicPMBCIndex:
    """A PMBC-Index that stays correct under edge insertions/deletions.

    Parameters
    ----------
    graph:
        The starting graph.
    use_core_bounds:
        Maintain (α,β)-core bounds (PMBC-OL* pruning) incrementally.
    compact_every:
        When set, :meth:`compact` runs automatically after every this
        many effective deletions (``None`` — the default — disables
        auto-GC; stranded bicliques then accumulate until an explicit
        :meth:`compact`).
    kernel:
        Compute kernel for tree rebuilds; both kernels extract ``H_q``
        straight from the live :class:`DynamicPackedAdjacency`.
    cascade_cap:
        Tuning knob forwarded to the incremental bounds.
    bounds:
        Optional existing :class:`CoreBounds` of ``graph`` to adopt —
        it is then repaired in place, so external holders (engines,
        serving backends) observe updates without a reference swap.
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        use_core_bounds: bool = True,
        compact_every: int | None = None,
        kernel: str | None = None,
        cascade_cap: int = DEFAULT_CASCADE_CAP,
        bounds: CoreBounds | None = None,
    ) -> None:
        self._use_core_bounds = use_core_bounds
        self._kernel = resolve_kernel(kernel)
        self._dyn = DynamicPackedAdjacency(graph)
        self._inc = (
            IncrementalCoreBounds(
                self._dyn, bounds=bounds, cascade_cap=cascade_cap
            )
            if use_core_bounds
            else None
        )
        self.compact_every = compact_every
        self._snapshot: BipartiteGraph | None = None
        self._array = BicliqueArray()
        self._trees: dict[Side, list[SearchTree]] = {}
        self.trees_rebuilt = 0
        self.noop_updates = 0
        self.auto_compactions = 0
        self._deletions_since_compact = 0
        self._rebuild_all()

    # ------------------------------------------------------------------
    # Graph state
    # ------------------------------------------------------------------
    def graph(self) -> BipartiteGraph:
        """An immutable snapshot of the current graph."""
        if self._snapshot is None:
            self._snapshot = self._dyn.snapshot()
        return self._snapshot

    def num_vertices_on(self, side: Side) -> int:
        """Current vertex count on ``side`` (including isolated)."""
        return self._dyn.num_vertices_on(side)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether edge ``(u, v)`` (upper id, lower id) currently exists."""
        return self._dyn.has_edge(u, v)

    @property
    def index(self) -> PMBCIndex:
        """The current index as a plain (static) PMBCIndex view."""
        return PMBCIndex(
            num_upper=self._dyn.num_vertices_on(Side.UPPER),
            num_lower=self._dyn.num_vertices_on(Side.LOWER),
            trees=self._trees,
            array=self._array,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self, side: Side, q: int, tau_u: int = 1, tau_l: int = 1
    ) -> Biclique | None:
        """PMBC-IQ against the maintained index."""
        return pmbc_index_query(self.index, side, q, tau_u, tau_l)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert_edge(self, u: int, v: int) -> int:
        """Insert edge ``(u, v)``; new vertex ids extend the layers.

        Returns the number of search trees rebuilt.  Inserting an
        existing edge is a free, counted no-op (returns 0).
        """
        return self.apply_updates([("insert", u, v)])

    def delete_edge(self, u: int, v: int) -> int:
        """Delete edge ``(u, v)``.

        Returns the number of search trees rebuilt.  Deleting a
        missing edge is a free, counted no-op (returns 0).
        """
        return self.apply_updates([("delete", u, v)])

    def apply_updates(
        self, updates: list[tuple[str, int, int]]
    ) -> int:
        """Apply a batch of ``("insert"|"delete", u, v)`` updates.

        All graph mutations happen first, then the union of affected
        trees is rebuilt once — cheaper than per-edge maintenance when
        updates cluster around the same vertices.  Returns the number
        of trees rebuilt.  No-op updates (deleting a missing edge,
        inserting an existing one) are skipped for free and counted in
        :attr:`noop_updates` — they trigger no bounds work and no
        rebuilds; a batch of only no-ops leaves the index untouched.
        Core bounds are repaired incrementally per effective update,
        never recomputed from scratch.  The whole batch is checked
        first (a known action and non-negative int ids): a bad update
        raises :class:`ValueError` before anything changes.
        """
        updates = list(updates)
        for action, u, v in updates:
            if action not in ("insert", "delete"):
                raise ValueError(f"unknown update action {action!r}")
            if any(
                isinstance(x, bool) or not isinstance(x, int) or x < 0
                for x in (u, v)
            ):
                raise ValueError(
                    f"vertex ids must be non-negative ints: ({u!r}, {v!r})"
                )
        dyn = self._dyn
        affected_upper: set[int] = set()
        affected_lower: set[int] = set()
        deletions = 0
        for action, u, v in updates:
            if action == "insert":
                self._grow(Side.UPPER, u)
                self._grow(Side.LOWER, v)
                if not dyn.insert_edge(u, v):
                    self.noop_updates += 1
                    continue
                if self._inc is not None:
                    self._inc.insert_edge(u, v)
                affected_upper |= dyn.neighbors(Side.LOWER, v)
                affected_lower |= dyn.neighbors(Side.UPPER, u)
            else:
                if not dyn.has_edge(u, v):
                    self.noop_updates += 1
                    continue
                affected_upper |= dyn.neighbors(Side.LOWER, v)
                affected_lower |= dyn.neighbors(Side.UPPER, u)
                dyn.delete_edge(u, v)
                if self._inc is not None:
                    self._inc.delete_edge(u, v)
                deletions += 1
            affected_upper.add(u)
            affected_lower.add(v)
        if not affected_upper and not affected_lower:
            return 0  # pure no-op batch: nothing moved, nothing to do
        self._snapshot = None
        rebuilt = self._rebuild(affected_upper, affected_lower)
        if deletions:
            self._deletions_since_compact += deletions
            if (
                self.compact_every is not None
                and self._deletions_since_compact >= self.compact_every
            ):
                self.compact()
                self.auto_compactions += 1
        return rebuilt

    def delete_vertex(self, side: Side, v: int) -> int:
        """Remove all incident edges of ``v`` (the vertex id remains,
        with an empty tree).  Returns the number of trees rebuilt."""
        if not 0 <= v < self._dyn.num_vertices_on(side):
            raise ValueError(
                f"vertex {v} out of range for the {side.value} layer"
            )
        neighbors = sorted(self._dyn.neighbors(side, v))
        if not neighbors:
            return 0
        if side is Side.UPPER:
            updates = [("delete", v, w) for w in neighbors]
        else:
            updates = [("delete", w, v) for w in neighbors]
        return self.apply_updates(updates)

    def insert_vertex(
        self, side: Side, neighbors: list[int]
    ) -> tuple[int, int]:
        """Add a fresh vertex on ``side`` connected to ``neighbors``.

        Returns ``(new_vertex_id, trees_rebuilt)``.
        """
        new_id = self._dyn.num_vertices_on(side)
        if not neighbors:
            self._grow(side, new_id)
            return new_id, 0
        if side is Side.UPPER:
            updates = [("insert", new_id, w) for w in sorted(set(neighbors))]
        else:
            updates = [("insert", w, new_id) for w in sorted(set(neighbors))]
        rebuilt = self.apply_updates(updates)
        return new_id, rebuilt

    def compact(self) -> int:
        """Garbage-collect unreferenced bicliques; returns the number
        removed.  Tree pointers are remapped in place."""
        self._deletions_since_compact = 0
        referenced: set[int] = set()
        for side in Side:
            for tree in self._trees[side]:
                for node in tree.walk():
                    if node.biclique_id is not None:
                        referenced.add(node.biclique_id)
        fresh = BicliqueArray()
        remap: dict[int, int] = {}
        for old_id in sorted(referenced):
            new_id, __ = fresh.add(self._array[old_id])
            remap[old_id] = new_id
        removed = len(self._array) - len(fresh)
        for side in Side:
            for tree in self._trees[side]:
                for node in tree.walk():
                    if node.biclique_id is not None:
                        node.biclique_id = remap[node.biclique_id]
        self._array = fresh
        return removed

    def stats(self) -> dict:
        """JSON-friendly maintenance counters (nested per component)."""
        out = {
            "trees_rebuilt": self.trees_rebuilt,
            "noop_updates": self.noop_updates,
            "auto_compactions": self.auto_compactions,
            "deletions_since_compact": self._deletions_since_compact,
            "kernel": self._kernel,
        }
        if self._inc is not None:
            out["bounds"] = self._inc.stats()
        out["adjacency"] = self._dyn.stats()
        return out

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _grow(self, side: Side, v: int) -> None:
        if v < self._dyn.num_vertices_on(side):
            return
        if self._inc is not None:
            self._inc.ensure_vertex(side, v)
        self._dyn.ensure_vertex(side, v)
        while v >= len(self._trees[side]):
            self._trees[side].append(SearchTree())
        self._snapshot = None

    def _current_bounds(self) -> CoreBounds | None:
        if self._inc is None:
            return None
        return self._inc.bounds

    def _rebuild(
        self, affected_upper: set[int], affected_lower: set[int]
    ) -> int:
        bounds = self._current_bounds()
        count = 0
        for side, affected in (
            (Side.UPPER, affected_upper),
            (Side.LOWER, affected_lower),
        ):
            for x in affected:
                self._trees[side][x] = build_search_tree(
                    self._dyn,
                    side,
                    x,
                    self._array,
                    bounds,
                    kernel=self._kernel,
                )
                count += 1
        self.trees_rebuilt += count
        return count

    def _rebuild_all(self) -> None:
        graph = self.graph()
        bounds = self._current_bounds()
        self._trees = {
            side: [
                build_search_tree(
                    graph, side, q, self._array, bounds, kernel=self._kernel
                )
                for q in range(graph.num_vertices_on(side))
            ]
            for side in Side
        }
