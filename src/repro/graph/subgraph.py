"""Induced subgraphs and the two-hop subgraph of Definition 4.

The search algorithms operate on a small mutable working structure
(:class:`LocalGraph`) extracted around a query vertex, oriented so that
the query vertex always sits in the *upper* layer.  Keeping the query on
a fixed side lets the branch-and-bound iterate over ``L(H_q) = N(q)``
(every lower vertex is a neighbor of ``q`` — the fact behind Lemma 1)
regardless of which side of ``G`` the query came from.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.graph.bipartite import BipartiteGraph, Side

_AdjPair = tuple[list[set[int]], list[set[int]]]


class LocalGraph:
    """A small bipartite working graph with local contiguous ids.

    ``upper_side`` records which side of the parent graph the local
    *upper* layer corresponds to; ``upper_globals``/``lower_globals``
    map local ids back to parent ids on ``upper_side`` /
    ``upper_side.other`` respectively.  ``q_local`` is the local upper
    id of the anchor query vertex when the graph was extracted around
    one.

    The adjacency sets may be *deferred*: a packed extraction (see
    :func:`repro.kernel.packed.two_hop_packed`) passes ``adj_builder``
    instead of eager sets, and the sets are materialized from the
    bitmask view on first access — the bitset compute kernel never
    touches them, so a pure-bitset query skips building them entirely.
    """

    def __init__(
        self,
        adj_upper: list[set[int]] | None = None,
        adj_lower: list[set[int]] | None = None,
        upper_globals: list[int] | None = None,
        lower_globals: list[int] | None = None,
        upper_side: Side = Side.UPPER,
        q_local: int | None = None,
        adj_builder: Callable[[], _AdjPair] | None = None,
    ) -> None:
        if adj_upper is None and adj_builder is None:
            raise ValueError("need eager adjacency or an adj_builder")
        self._adj_upper = adj_upper
        self._adj_lower = adj_lower
        self._adj_builder = adj_builder
        self.upper_globals = upper_globals if upper_globals is not None else []
        self.lower_globals = lower_globals if lower_globals is not None else []
        self.upper_side = upper_side
        self.q_local = q_local
        self._upper_index: dict[int, int] | None = None
        self._lower_index: dict[int, int] | None = None

    def upper_index(self) -> dict[int, int]:
        """Memoized ``{global id -> local id}`` map for the upper layer.

        The construction pipeline translates seeds and answers for every
        tree node over the same extraction; memoizing the maps keeps the
        translation cost amortized across a batch or a build.
        """
        if self._upper_index is None:
            self._upper_index = {g: i for i, g in enumerate(self.upper_globals)}
        return self._upper_index

    def lower_index(self) -> dict[int, int]:
        """Memoized ``{global id -> local id}`` map for the lower layer."""
        if self._lower_index is None:
            self._lower_index = {g: i for i, g in enumerate(self.lower_globals)}
        return self._lower_index

    @property
    def adj_upper(self) -> list[set[int]]:
        if self._adj_upper is None:
            self._adj_upper, self._adj_lower = self._adj_builder()
        return self._adj_upper

    @property
    def adj_lower(self) -> list[set[int]]:
        if self._adj_lower is None:
            self._adj_upper, self._adj_lower = self._adj_builder()
        return self._adj_lower

    @property
    def num_upper(self) -> int:
        # The globals list is parallel to the adjacency, and is always
        # eager — safe whether or not the sets were materialized.
        return len(self.upper_globals)

    @property
    def num_lower(self) -> int:
        return len(self.lower_globals)

    @property
    def num_edges(self) -> int:
        packed = getattr(self, "_packed", None)
        if self._adj_upper is None and packed is not None:
            return sum(packed.deg_upper)
        return sum(len(ns) for ns in self.adj_upper)

    def degree_upper(self, u: int) -> int:
        return len(self.adj_upper[u])

    def degree_lower(self, v: int) -> int:
        return len(self.adj_lower[v])

    def max_upper_degree(self) -> int:
        """Maximum degree among upper vertices (0 if empty)."""
        packed = getattr(self, "_packed", None)
        if self._adj_upper is None and packed is not None:
            # Packed bit order is degree-descending: bit 0 is the max.
            return packed.deg_upper[0] if packed.deg_upper else 0
        return max((len(ns) for ns in self.adj_upper), default=0)

    def restrict(self, upper_keep: Iterable[int], lower_keep: Iterable[int]) -> "LocalGraph":
        """A new LocalGraph induced by the given local vertex subsets.

        Ids are re-compacted; global mappings and the anchor are carried
        over (``q_local`` becomes None if the anchor is dropped).
        """
        upper_keep = sorted(set(upper_keep))
        lower_keep = sorted(set(lower_keep))
        lower_remap = {v: i for i, v in enumerate(lower_keep)}
        upper_remap = {u: i for i, u in enumerate(upper_keep)}
        adj_upper = [
            {lower_remap[v] for v in self.adj_upper[u] if v in lower_remap}
            for u in upper_keep
        ]
        adj_lower = [
            {upper_remap[u] for u in self.adj_lower[v] if u in upper_remap}
            for v in lower_keep
        ]
        q_local = None
        if self.q_local is not None and self.q_local in upper_remap:
            q_local = upper_remap[self.q_local]
        return LocalGraph(
            adj_upper=adj_upper,
            adj_lower=adj_lower,
            upper_globals=[self.upper_globals[u] for u in upper_keep],
            lower_globals=[self.lower_globals[v] for v in lower_keep],
            upper_side=self.upper_side,
            q_local=q_local,
        )

    def to_global(
        self, upper_locals: Iterable[int], lower_locals: Iterable[int]
    ) -> tuple[Side, frozenset[int], frozenset[int]]:
        """Map local vertex sets back to parent-graph ids.

        Returns ``(upper_side, upper_globals, lower_globals)`` where the
        two sets contain parent ids on ``upper_side`` and
        ``upper_side.other``.
        """
        return (
            self.upper_side,
            frozenset(self.upper_globals[u] for u in upper_locals),
            frozenset(self.lower_globals[v] for v in lower_locals),
        )

    def check_biclique(self, upper_locals: Iterable[int], lower_locals: Iterable[int]) -> bool:
        """Whether the given local vertex sets induce a complete subgraph."""
        lower_set = set(lower_locals)
        return all(lower_set <= self.adj_upper[u] for u in upper_locals)


def induced_subgraph(
    graph: BipartiteGraph,
    upper_ids: Sequence[int],
    lower_ids: Sequence[int],
) -> tuple[BipartiteGraph, dict[int, int], dict[int, int]]:
    """The subgraph of ``graph`` induced by the given vertex id sets.

    Returns the new graph plus {old id -> new id} maps for each layer.
    Labels are inherited from the parent graph.
    """
    upper_ids = sorted(set(upper_ids))
    lower_ids = sorted(set(lower_ids))
    upper_map = {u: i for i, u in enumerate(upper_ids)}
    lower_map = {v: i for i, v in enumerate(lower_ids)}
    adj_upper = [
        [lower_map[v] for v in graph.neighbors(Side.UPPER, u) if v in lower_map]
        for u in upper_ids
    ]
    sub = BipartiteGraph(
        adj_upper,
        num_lower=len(lower_ids),
        upper_labels=[graph.label(Side.UPPER, u) for u in upper_ids],
        lower_labels=[graph.label(Side.LOWER, v) for v in lower_ids],
    )
    return sub, upper_map, lower_map


def two_hop_subgraph(graph: BipartiteGraph, side: Side, q: int) -> LocalGraph:
    """The two-hop subgraph ``H_q`` of Definition 4, anchored at ``q``.

    The result is oriented so that ``q`` is a local *upper* vertex: the
    local lower layer is ``N(q)`` and the local upper layer is
    ``{q} ∪ ⋃_{v∈N(q)} N(v)``.  ``H_q`` contains every biclique of ``G``
    that includes ``q``, and its maximum biclique has the same size as
    the personalized maximum biclique of ``q`` (Lemma 1).  ``N(q)`` is
    sorted here, so unordered neighbor sets (a live
    :class:`~repro.kernel.DynamicPackedAdjacency`) give the same result.
    """
    other = side.other
    lower_globals = sorted(graph.neighbors(side, q))
    upper_global_set = {q}
    for v in lower_globals:
        upper_global_set.update(graph.neighbors(other, v))
    upper_globals = sorted(upper_global_set)
    upper_remap = {u: i for i, u in enumerate(upper_globals)}

    # Every edge of H_q has its lower endpoint in N(q), so both
    # adjacency lists fall out of one sweep over the N(q) neighbor
    # lists — never scanning an upper vertex's full global neighborhood
    # (upper vertices are often hubs whose lists dwarf H_q itself).
    adj_upper: list[set[int]] = [set() for _ in upper_globals]
    adj_lower: list[set[int]] = []
    for vi, v in enumerate(lower_globals):
        row: set[int] = set()
        for u in graph.neighbors(other, v):
            ui = upper_remap[u]
            row.add(ui)
            adj_upper[ui].add(vi)
        adj_lower.append(row)
    return LocalGraph(
        adj_upper=adj_upper,
        adj_lower=adj_lower,
        upper_globals=upper_globals,
        lower_globals=lower_globals,
        upper_side=side,
        q_local=upper_remap[q],
    )
