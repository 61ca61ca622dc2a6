"""A bounded-memory, LRU-evicted store of per-vertex search trees.

The :class:`PartialIndex` is the answer tier the adaptive subsystem
serves from: a mapping ``(side, vertex) -> search tree`` holding trees
for only the *hot* vertices, under a configurable byte budget measured
with the same storage model as :class:`repro.core.index.PMBCIndex`
(``NODE_WORDS`` machine words per tree node, ``|U|+|L|+2`` words per
biclique instance).  Each entry owns private copies of the bicliques
its tree references, so eviction frees exactly the accounted bytes.

Lookups are the PMBC-IQ walk of Algorithm 2 — identical semantics to
:func:`repro.core.query.pmbc_index_query` — and return :data:`MISS`
when the vertex has no resident tree, letting the serving layer fall
through its degradation chain without treating the miss as a failure.

Invalidation reuses the affected-set rule of
:func:`repro.core.dynamic.edge_affected_sets`: an edge update drops
exactly the resident trees a :class:`~repro.core.dynamic.DynamicPMBCIndex`
would rebuild.  Every eviction or invalidation also bumps a
:attr:`PartialIndex.generation`; a builder that read the generation
before building passes it to :meth:`PartialIndex.put`, which drops the
tree if the generation moved meanwhile — the build may have read the
graph from before an update whose eviction it would otherwise undo.

Persistence round-trips through a plain :class:`PMBCIndex`
(:meth:`to_index` / :meth:`warm_from`), so the unified
``index.save``/``PMBCIndex.load`` formats — JSON and binary alike —
carry the hot set across restarts.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.core.dynamic import edge_affected_sets
from repro.core.index import (
    NODE_WORDS,
    WORD_BYTES,
    BicliqueArray,
    PMBCIndex,
    SearchTree,
    SearchTreeNode,
)
from repro.core.result import Biclique
from repro.graph.bipartite import BipartiteGraph, Side
from repro.obs.trace import current_trace

__all__ = ["MISS", "PartialIndex", "entry_size_bytes"]


class _Miss:
    """The singleton "no resident tree" sentinel type."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<partial-index MISS>"


#: Returned by :meth:`PartialIndex.lookup` when the queried vertex has
#: no resident tree.  Distinct from ``None``, which is a *covered*
#: vertex's genuine "no biclique satisfies the constraints" answer.
MISS = _Miss()


def entry_size_bytes(tree: SearchTree, bicliques) -> int:
    """Bytes one resident tree accounts for under the paper's model."""
    tree_bytes = len(tree) * NODE_WORDS * WORD_BYTES
    array_bytes = sum(
        (len(b.upper) + len(b.lower) + 2) * WORD_BYTES for b in bicliques
    )
    return tree_bytes + array_bytes


@dataclass
class _Entry:
    tree: SearchTree
    bicliques: list[Biclique]   # position == the tree's biclique_id space
    size_bytes: int


class PartialIndex:
    """Per-vertex search trees under a byte budget with LRU eviction.

    Parameters
    ----------
    budget_bytes:
        Upper bound on the total accounted size of resident entries.
        Inserting past it evicts least-recently-*used* entries (both
        lookups and inserts refresh recency); an entry larger than the
        whole budget is rejected outright.

    All methods are thread-safe: the serving workers look up entries
    while the background builder inserts and the persistence path
    exports.
    """

    def __init__(self, budget_bytes: int) -> None:
        if budget_bytes < 0:
            raise ValueError(
                f"budget_bytes must be >= 0, got {budget_bytes}"
            )
        self.budget_bytes = budget_bytes
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple[Side, int], _Entry] = OrderedDict()
        self._bytes = 0
        self._generation = 0
        self.evictions_total = 0
        self.invalidations_total = 0
        self.stale_puts_total = 0

    # ------------------------------------------------------------------
    # residency

    def __contains__(self, key: tuple[Side, int]) -> bool:
        """Whether ``(side, vertex)`` has a resident tree."""
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        """Number of resident trees."""
        with self._lock:
            return len(self._entries)

    @property
    def total_bytes(self) -> int:
        """Accounted size of every resident entry."""
        with self._lock:
            return self._bytes

    def keys(self) -> list[tuple[Side, int]]:
        """Resident ``(side, vertex)`` keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    @property
    def generation(self) -> int:
        """Counter bumped by every eviction, invalidation and clear.

        :meth:`evict`, :meth:`invalidate_edge` and :meth:`clear` move it;
        a builder reads it before building and passes it to :meth:`put`.
        """
        with self._lock:
            return self._generation

    def coverage(self, num_upper: int, num_lower: int) -> float:
        """Fraction of the graph's vertices with a resident tree."""
        total = num_upper + num_lower
        if total == 0:
            return 0.0
        return len(self) / total

    # ------------------------------------------------------------------
    # insert / evict

    def put(
        self,
        side: Side,
        vertex: int,
        tree: SearchTree,
        bicliques,
        generation: int | None = None,
    ) -> tuple[bool, list[tuple[Side, int]]]:
        """Insert (or replace) a vertex's tree, evicting LRU to fit.

        ``bicliques`` is the tree's private biclique list, positionally
        matching the ``biclique_id`` values stored in its nodes (the
        shape :func:`repro.exec.tasks.task_build_tree` returns).
        ``generation`` is :attr:`generation` as read before the tree was
        built; when it has moved since, the tree may predate an update
        and is dropped (counted in ``stale_puts``).  Returns
        ``(inserted, evicted_keys)``; ``inserted`` is False when the
        tree was stale or the entry alone exceeds the whole budget.
        """
        bicliques = list(bicliques)
        entry = _Entry(
            tree=tree,
            bicliques=bicliques,
            size_bytes=entry_size_bytes(tree, bicliques),
        )
        key = (side, vertex)
        evicted: list[tuple[Side, int]] = []
        with self._lock:
            if generation is not None and generation != self._generation:
                self.stale_puts_total += 1
                return False, evicted
            if entry.size_bytes > self.budget_bytes:
                # Too large to ever fit; dropping the whole hot set for
                # one monster tree would be a net loss.
                previous = self._entries.pop(key, None)
                if previous is not None:
                    self._bytes -= previous.size_bytes
                    self.evictions_total += 1
                    evicted.append(key)
                return False, evicted
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._bytes -= previous.size_bytes
            while (
                self._bytes + entry.size_bytes > self.budget_bytes
                and self._entries
            ):
                cold_key, cold = self._entries.popitem(last=False)
                self._bytes -= cold.size_bytes
                self.evictions_total += 1
                evicted.append(cold_key)
            self._entries[key] = entry
            self._bytes += entry.size_bytes
        return True, evicted

    def evict(self, side: Side, vertex: int) -> bool:
        """Drop one resident tree; returns True when it was resident.

        Bumps :attr:`generation` even when nothing was resident, so a
        build of this vertex already in flight cannot land afterwards.
        """
        with self._lock:
            self._generation += 1
            entry = self._entries.pop((side, vertex), None)
            if entry is None:
                return False
            self._bytes -= entry.size_bytes
            self.evictions_total += 1
        return True

    def clear(self) -> int:
        """Drop every resident tree; returns the number removed."""
        with self._lock:
            self._generation += 1
            removed = len(self._entries)
            self._entries.clear()
            self._bytes = 0
            self.evictions_total += removed
        return removed

    # ------------------------------------------------------------------
    # invalidation (shared rule with repro.core.dynamic)

    def invalidate_edge(
        self, graph: BipartiteGraph, u: int, v: int
    ) -> list[tuple[Side, int]]:
        """Drop resident trees an update to edge ``(u, v)`` affects.

        Uses :func:`repro.core.dynamic.edge_affected_sets` — the same
        rule :class:`~repro.core.dynamic.DynamicPMBCIndex` rebuilds by
        — with neighborhoods read from ``graph``.  For deletions pass
        the graph *before* the edge is removed; for insertions the
        graph after, matching the dynamic module's convention.
        Returns the dropped keys (the builder re-queues hot ones).
        """
        neighbors_u = graph.neighbors(Side.UPPER, u) if (
            0 <= u < graph.num_upper
        ) else ()
        neighbors_v = graph.neighbors(Side.LOWER, v) if (
            0 <= v < graph.num_lower
        ) else ()
        affected_upper, affected_lower = edge_affected_sets(
            neighbors_u, neighbors_v, u, v
        )
        dropped: list[tuple[Side, int]] = []
        with self._lock:
            self._generation += 1
            for side, affected in (
                (Side.UPPER, affected_upper),
                (Side.LOWER, affected_lower),
            ):
                for x in affected:
                    entry = self._entries.pop((side, x), None)
                    if entry is not None:
                        self._bytes -= entry.size_bytes
                        self.invalidations_total += 1
                        dropped.append((side, x))
        return dropped

    # ------------------------------------------------------------------
    # lookup (Algorithm 2 over a resident tree)

    def lookup(self, side: Side, vertex: int, tau_u: int, tau_l: int):
        """PMBC-IQ against the resident tree, or :data:`MISS`.

        A hit refreshes the entry's LRU recency and traces
        ``partial_hits`` / ``index_nodes_visited``; ``None`` is a
        *covered* vertex's genuine empty answer.
        """
        key = (side, vertex)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return MISS
            self._entries.move_to_end(key)
        tree = entry.tree
        trace = current_trace()
        visited = 0
        answer: Biclique | None = None
        node_id: int | None = 0 if tree.nodes else None
        while node_id is not None:
            visited += 1
            node = tree.nodes[node_id]
            if node.biclique_id is not None:
                candidate = entry.bicliques[node.biclique_id]
                if candidate.satisfies(tau_u, tau_l):
                    answer = candidate
                    break
            next_id: int | None = None
            for child_id in (node.left, node.right):
                if child_id is None:
                    continue
                child = tree.nodes[child_id]
                if child.tau_u <= tau_u and child.tau_l <= tau_l:
                    next_id = child_id
                    break
            node_id = next_id
        if trace.enabled:
            trace.add("partial_hits")
            trace.add("index_nodes_visited", visited)
        return answer

    # ------------------------------------------------------------------
    # persistence (through the unified PMBCIndex formats)

    def to_index(self, num_upper: int, num_lower: int) -> PMBCIndex:
        """Export the resident trees as a plain :class:`PMBCIndex`.

        Uncovered vertices get empty trees; biclique instances are
        deduplicated into one shared array.  The result round-trips
        through ``index.save`` / ``PMBCIndex.load`` in either format.
        """
        array = BicliqueArray()
        trees: dict[Side, list[SearchTree]] = {
            Side.UPPER: [SearchTree() for __ in range(num_upper)],
            Side.LOWER: [SearchTree() for __ in range(num_lower)],
        }
        with self._lock:
            items = [
                (key, entry.tree, list(entry.bicliques))
                for key, entry in self._entries.items()
            ]
        for (side, vertex), tree, bicliques in items:
            if not 0 <= vertex < len(trees[side]):
                continue  # stale entry from a shrunken graph
            id_map = [array.add(b)[0] for b in bicliques]
            nodes = [
                SearchTreeNode(
                    tau_u=n.tau_u,
                    tau_l=n.tau_l,
                    biclique_id=None
                    if n.biclique_id is None
                    else id_map[n.biclique_id],
                    left=n.left,
                    right=n.right,
                )
                for n in tree.nodes
            ]
            trees[side][vertex] = SearchTree(nodes=nodes)
        return PMBCIndex(
            num_upper=num_upper,
            num_lower=num_lower,
            trees=trees,
            array=array,
        )

    def warm_from(self, index: PMBCIndex) -> int:
        """Seed resident trees from a saved index (warm restart).

        Non-empty trees are adopted until the budget is reached;
        entries that would not fit are skipped (never evicting what was
        already warmed).  Returns the number of trees adopted.
        """
        adopted = 0
        for side in Side:
            for vertex, tree in enumerate(index.trees.get(side, [])):
                if not tree.nodes:
                    continue
                referenced = sorted(
                    {
                        node.biclique_id
                        for node in tree.nodes
                        if node.biclique_id is not None
                    }
                )
                id_map = {old: new for new, old in enumerate(referenced)}
                bicliques = [index.biclique(old) for old in referenced]
                nodes = [
                    SearchTreeNode(
                        tau_u=n.tau_u,
                        tau_l=n.tau_l,
                        biclique_id=None
                        if n.biclique_id is None
                        else id_map[n.biclique_id],
                        left=n.left,
                        right=n.right,
                    )
                    for n in tree.nodes
                ]
                fresh = SearchTree(nodes=nodes)
                size = entry_size_bytes(fresh, bicliques)
                if self.total_bytes + size > self.budget_bytes:
                    continue
                inserted, evicted = self.put(side, vertex, fresh, bicliques)
                if inserted and not evicted:
                    adopted += 1
        return adopted

    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """A JSON-friendly snapshot for ``/stats`` and dashboards."""
        with self._lock:
            entries = len(self._entries)
            size = self._bytes
        return {
            "entries": entries,
            "bytes": size,
            "budget_bytes": self.budget_bytes,
            "utilization": size / self.budget_bytes if self.budget_bytes else 0.0,
            "evictions": self.evictions_total,
            "invalidations": self.invalidations_total,
            "stale_puts": self.stale_puts_total,
        }
