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
  an insertion and *before* a deletion; :func:`edge_affected_sets`),
  and only those vertices' search trees need rebuilding.
- The (α,β)-core bounds are global pruning structures; they are
  maintained **incrementally** by
  :class:`~repro.corenum.incremental.IncrementalCoreBounds` — a bounded
  peeling cascade per update instead of a from-scratch ``O(δ·m)``
  recomputation — and stay *exact* at every point.
- The graph lives in one :class:`~repro.kernel.DynamicPackedAdjacency`
  (live neighbor sets) on both kernels.  The bounds maintainer reads
  it in place, and affected trees are rebuilt by extracting ``H_q``
  straight from it — no graph snapshot per update batch.
- **One update path.**  :class:`LiveGraph` owns the adjacency and the
  bounds maintainer.  A batch is checked by :func:`coerce_updates`,
  applied by :meth:`LiveGraph.apply` (net effect per edge, two-phase
  repair, affected sets) and its trees are rebuilt by
  :func:`repair_trees`.  :class:`DynamicPMBCIndex` and
  :meth:`repro.serve.PMBCService.update_batch` both run it.
- Deleted edges can strand biclique instances in the array ``A``;
  they become unreachable (every tree referencing a broken biclique is
  in the affected set) and :meth:`DynamicPMBCIndex.compact` garbage
  collects them.

Rebuilding a tree costs the same as during construction —
``O(deg(x) · TC(PMBC-OL*))`` — so an update touches
``O(deg(u) + deg(v))`` trees instead of all ``n``.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.core.construction import build_index, build_search_tree
from repro.core.index import BicliqueArray, PMBCIndex, SearchTree
from repro.core.query import pmbc_index_query
from repro.core.result import Biclique
from repro.corenum.bounds import CoreBounds
from repro.corenum.incremental import IncrementalCoreBounds
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
    is the invalidation rule shared by :meth:`LiveGraph.apply` (trees
    rebuilt, engine cache entries dropped) and
    :class:`repro.adaptive.PartialIndex` (evict).
    """
    return set(neighbors_of_v) | {u}, set(neighbors_of_u) | {v}


def coerce_updates(updates: Iterable) -> list[tuple[str, int, int]]:
    """Check a batch of updates; return it as ``(action, u, v)`` triples.

    Each update is an ``("insert"|"delete", u, v)`` triple or an
    ``{"action", "u", "v"}`` dict, with non-negative int vertex ids.
    The whole batch is checked before anything changes: the first bad
    update raises :class:`ValueError` naming it.
    """
    ops: list[tuple[str, int, int]] = []
    for raw in updates:
        if isinstance(raw, dict):
            try:
                action, u, v = raw["action"], raw["u"], raw["v"]
            except KeyError as exc:
                raise ValueError(
                    f"update missing field {exc.args[0]!r}"
                ) from None
        else:
            try:
                action, u, v = raw
            except (TypeError, ValueError):
                raise ValueError(
                    f"update must be (action, u, v), got {raw!r}"
                ) from None
        if action not in ("insert", "delete"):
            raise ValueError(
                f"update action must be 'insert' or 'delete', "
                f"got {action!r}"
            )
        if any(
            isinstance(x, bool) or not isinstance(x, int) or x < 0
            for x in (u, v)
        ):
            raise ValueError(
                f"vertex ids must be non-negative ints: ({u!r}, {v!r})"
            )
        ops.append((action, u, v))
    return ops


@dataclass(frozen=True)
class AppliedBatch:
    """What one :meth:`LiveGraph.apply` changed."""

    inserts: int    # effective insertions
    deletes: int    # effective deletions
    noops: int      # requested updates that changed nothing
    cascade: int    # vertices touched by bound-repair cascades
    #: ``(side, vertex)`` pairs whose search trees the batch can change.
    affected: set[tuple[Side, int]]


class LiveGraph:
    """The live adjacency of a mutating graph and its bounds maintainer.

    Parameters
    ----------
    graph:
        The starting graph.
    use_core_bounds:
        Maintain (α,β)-core bounds incrementally; without them
        :attr:`maintainer` and :attr:`bounds` are None.
    bounds:
        Optional existing :class:`CoreBounds` of ``graph`` to adopt —
        it is then repaired in place, so external holders (engines,
        serving backends) observe updates without a reference swap.
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        use_core_bounds: bool = True,
        bounds: CoreBounds | None = None,
    ) -> None:
        #: The one live adjacency (changed only by :meth:`apply`).
        self.adjacency = DynamicPackedAdjacency(graph)
        #: The incremental bounds maintainer reading :attr:`adjacency`.
        self.maintainer = (
            IncrementalCoreBounds(self.adjacency, bounds=bounds)
            if use_core_bounds
            else None
        )

    @property
    def bounds(self) -> CoreBounds | None:
        """The live bounds, repaired in place (None without them)."""
        return None if self.maintainer is None else self.maintainer.bounds

    def ensure_vertex(self, side: Side, x: int) -> None:
        """Extend ``side`` so vertex id ``x`` exists (isolated if new)."""
        self.adjacency.ensure_vertex(side, x)
        if self.maintainer is not None:
            self.maintainer.ensure_vertex(side, x)

    def apply(
        self,
        ops: list[tuple[str, int, int]],
        publish: Callable[[BipartiteGraph, set[tuple[Side, int]]], None]
        | None = None,
    ) -> AppliedBatch:
        """Apply checked updates (see :func:`coerce_updates`) by net effect.

        Repeated updates to one edge collapse to the last one; a net
        no-op (inserting a present edge, deleting an absent one) is
        only counted.  Unknown vertex ids of an effective insert extend
        the layers.  The rest runs in two phases, so that a reader of
        the bounds sees valid upper bounds for whichever graph it
        reads:

        1. Inserts change the adjacency and repair the bounds, one
           edge at a time.
        2. Deletes leave the adjacency; ``publish(snapshot, affected)``
           (when given) hands the new graph to readers; then the
           deletes repair the bounds, gated on the endpoint degrees
           from before the first delete.

        Each phase defers the bound-row refresh to its end.  When
        nothing changed, ``publish`` is not called.
        """
        adjacency, maintainer = self.adjacency, self.maintainer
        final: dict[tuple[int, int], str] = {}
        for action, u, v in ops:
            final[(u, v)] = action
        inserts: list[tuple[int, int]] = []
        deletes: list[tuple[int, int]] = []
        for (u, v), action in final.items():
            present = adjacency.has_edge(u, v)
            if action == "insert" and not present:
                inserts.append((u, v))
            elif action == "delete" and present:
                deletes.append((u, v))
        noops = len(ops) - len(inserts) - len(deletes)
        affected: set[tuple[Side, int]] = set()
        if not inserts and not deletes:
            return AppliedBatch(0, 0, noops, 0, affected)
        cascade = 0
        # The `with` exit flushes the inserts' bound rows, which must
        # happen before publish hands readers the grown graph.
        with (
            maintainer.defer_refresh()
            if maintainer is not None
            else nullcontext()
        ):
            for u, v in inserts:
                adjacency.insert_edge(u, v)
                if maintainer is not None:
                    cascade += maintainer.insert_edge(u, v).cascade
                self._mark_affected(affected, u, v)
        gates = [
            (adjacency.degree(Side.UPPER, u), adjacency.degree(Side.LOWER, v))
            for u, v in deletes
        ]
        for u, v in deletes:
            self._mark_affected(affected, u, v)
            adjacency.delete_edge(u, v)
        if publish is not None:
            publish(adjacency.snapshot(), affected)
        if maintainer is not None:
            with maintainer.defer_refresh():
                for (u, v), (deg_u, deg_v) in zip(deletes, gates):
                    cascade += maintainer.delete_edge(
                        u, v, deg_u, deg_v
                    ).cascade
        return AppliedBatch(
            len(inserts), len(deletes), noops, cascade, affected
        )

    def _mark_affected(
        self, affected: set[tuple[Side, int]], u: int, v: int
    ) -> None:
        upper, lower = edge_affected_sets(
            self.adjacency.neighbors(Side.UPPER, u),
            self.adjacency.neighbors(Side.LOWER, v),
            u,
            v,
        )
        affected.update((Side.UPPER, x) for x in upper)
        affected.update((Side.LOWER, x) for x in lower)


def repair_trees(
    index: PMBCIndex,
    adjacency: DynamicPackedAdjacency,
    affected: set[tuple[Side, int]],
    bounds: CoreBounds | None,
    kernel: str | None,
) -> int:
    """Grow ``index`` to ``adjacency``'s size and rebuild ``affected``.

    New vertices get empty trees.  Each affected tree is rebuilt in
    place from the live sets (upper layer first, ascending ids), its
    bicliques added to ``index.array``.  Returns the number of trees
    rebuilt.
    """
    for side in Side:
        trees = index.trees.setdefault(side, [])
        while len(trees) < adjacency.num_vertices_on(side):
            trees.append(SearchTree())
    index.num_upper = adjacency.num_vertices_on(Side.UPPER)
    index.num_lower = adjacency.num_vertices_on(Side.LOWER)
    for side, x in sorted(
        affected, key=lambda key: (key[0] is Side.LOWER, key[1])
    ):
        index.trees[side][x] = build_search_tree(
            adjacency, side, x, index.array, bounds, kernel=kernel
        )
    return len(affected)


class DynamicPMBCIndex:
    """A PMBC-Index that stays correct under edge insertions/deletions.

    One :class:`LiveGraph` plus one :class:`PMBCIndex` whose affected
    trees :func:`repair_trees` rebuilds after every batch.

    Parameters
    ----------
    graph:
        The starting graph.
    use_core_bounds:
        Maintain (α,β)-core bounds (PMBC-OL* pruning) incrementally.
    kernel:
        Compute kernel for tree builds; both kernels extract ``H_q``
        straight from the live :class:`DynamicPackedAdjacency`.
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        use_core_bounds: bool = True,
        kernel: str | None = None,
    ) -> None:
        self._kernel = resolve_kernel(kernel)
        self._live = LiveGraph(graph, use_core_bounds)
        self._index = build_index(
            graph,
            bounds=self._live.bounds,
            use_core_bounds=False,
            kernel=self._kernel,
        )
        self.trees_rebuilt = 0
        self.noop_updates = 0

    # ------------------------------------------------------------------
    # Graph state
    # ------------------------------------------------------------------
    def graph(self) -> BipartiteGraph:
        """An immutable snapshot of the current graph."""
        return self._live.adjacency.snapshot()

    def num_vertices_on(self, side: Side) -> int:
        """Current vertex count on ``side`` (including isolated)."""
        return self._live.adjacency.num_vertices_on(side)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether edge ``(u, v)`` (upper id, lower id) currently exists."""
        return self._live.adjacency.has_edge(u, v)

    @property
    def index(self) -> PMBCIndex:
        """The maintained index (every update changes it in place)."""
        return self._index

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self, side: Side, q: int, tau_u: int = 1, tau_l: int = 1
    ) -> Biclique | None:
        """PMBC-IQ against the maintained index."""
        return pmbc_index_query(self._index, side, q, tau_u, tau_l)

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

    def apply_updates(self, updates: Iterable) -> int:
        """Apply a batch of ``("insert"|"delete", u, v)`` updates.

        The batch runs :meth:`LiveGraph.apply`: repeated updates to
        one edge collapse to their net effect, and no-op updates
        (deleting a missing edge, inserting an existing one) are only
        counted in :attr:`noop_updates` — no bounds work, no rebuilds.
        Core bounds are repaired incrementally, never recomputed from
        scratch; then the union of affected trees is rebuilt once.
        Returns the number of trees rebuilt.  A bad update raises
        :class:`ValueError` before anything changes
        (:func:`coerce_updates`).
        """
        batch = self._live.apply(coerce_updates(updates))
        self.noop_updates += batch.noops
        rebuilt = repair_trees(
            self._index,
            self._live.adjacency,
            batch.affected,
            self._live.bounds,
            self._kernel,
        )
        self.trees_rebuilt += rebuilt
        return rebuilt

    def delete_vertex(self, side: Side, v: int) -> int:
        """Remove all incident edges of ``v`` (the vertex id remains,
        with an empty tree).  Returns the number of trees rebuilt."""
        if not 0 <= v < self.num_vertices_on(side):
            raise ValueError(
                f"vertex {v} out of range for the {side.value} layer"
            )
        neighbors = sorted(self._live.adjacency.neighbors(side, v))
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
        new_id = self.num_vertices_on(side)
        if side is Side.UPPER:
            updates = [("insert", new_id, w) for w in sorted(set(neighbors))]
        else:
            updates = [("insert", w, new_id) for w in sorted(set(neighbors))]
        if not updates:
            self._live.ensure_vertex(side, new_id)
        return new_id, self.apply_updates(updates)

    def compact(self) -> int:
        """Garbage-collect unreferenced bicliques; returns the number
        removed.  Tree pointers are remapped in place."""
        index = self._index
        referenced: set[int] = set()
        for side in Side:
            for tree in index.trees[side]:
                for node in tree.walk():
                    if node.biclique_id is not None:
                        referenced.add(node.biclique_id)
        fresh = BicliqueArray()
        remap: dict[int, int] = {}
        for old_id in sorted(referenced):
            new_id, __ = fresh.add(index.array[old_id])
            remap[old_id] = new_id
        removed = len(index.array) - len(fresh)
        for side in Side:
            for tree in index.trees[side]:
                for node in tree.walk():
                    if node.biclique_id is not None:
                        node.biclique_id = remap[node.biclique_id]
        index.array = fresh
        return removed

    def stats(self) -> dict:
        """JSON-friendly maintenance counters (nested per component)."""
        out = {
            "trees_rebuilt": self.trees_rebuilt,
            "noop_updates": self.noop_updates,
            "kernel": self._kernel,
        }
        if self._live.maintainer is not None:
            out["bounds"] = self._live.maintainer.stats()
        out["adjacency"] = self._live.adjacency.stats()
        return out
