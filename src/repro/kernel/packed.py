"""Packed (bitmask) views of a :class:`~repro.graph.subgraph.LocalGraph`.

A :class:`PackedLocalGraph` re-encodes the local adjacency as Python
ints: bit ``i`` of ``adj_lower[v]`` says whether the lower vertex at
*bit position* ``v`` is adjacent to the upper vertex at bit position
``i``.  Bit positions are assigned by a stable degree-descending
relabeling on **both** layers:

- dense vertices share low bit positions, so the intermediate ints the
  branch-and-bound intersects stay short (high zero bits are free in
  CPython's big-int representation);
- on the lower layer, ascending bit order *is* the branch-and-bound's
  candidate order (``sorted`` by degree descending, ties by local id —
  exactly the order the set kernel visits), which is what makes the two
  kernels explore identical search trees.

Packing is performed **once per extracted subgraph**: :func:`pack_local`
memoizes its result on the ``LocalGraph`` instance, so the engine's
two-hop LRU and the per-worker caches of :mod:`repro.exec` reuse one
packed view across every query and progressive round that hits the same
extraction.  :func:`pack_count` exposes a process-wide tally of real
(non-memoized) packs for regression tests against per-task re-packing.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.graph.bipartite import BipartiteGraph, Side
from repro.graph.subgraph import LocalGraph

__all__ = [
    "PackedLocalGraph",
    "pack_local",
    "pack_count",
    "iter_bits",
    "two_hop_packed",
]

#: Process-wide count of non-memoized :func:`pack_local` calls.
_pack_calls = 0


def pack_count() -> int:
    """How many times a ``LocalGraph`` was actually packed (not reused)."""
    return _pack_calls


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass
class PackedLocalGraph:
    """Bitmask adjacency of a ``LocalGraph`` in degree-ordered bit space.

    ``upper_order``/``lower_order`` map bit positions back to the local
    ids of the wrapped graph; ``upper_rank``/``lower_rank`` are the
    inverse permutations.  ``adj_lower[v]`` is the upper-bit mask of the
    lower vertex at bit position ``v`` and ``adj_upper[u]`` the
    lower-bit mask of the upper vertex at bit position ``u``;
    ``deg_upper``/``deg_lower`` are their popcounts (full degrees in
    bit order), precomputed for degree-floor cascades and greedy scan
    bounds.
    """

    local: LocalGraph
    upper_order: list[int]
    lower_order: list[int]
    upper_rank: list[int]
    lower_rank: list[int]
    adj_upper: list[int]
    adj_lower: list[int]
    deg_upper: list[int]
    deg_lower: list[int]
    all_upper: int
    all_lower: int

    @property
    def num_upper(self) -> int:
        return len(self.upper_order)

    @property
    def num_lower(self) -> int:
        return len(self.lower_order)

    def upper_locals(self, mask: int) -> frozenset[int]:
        """Translate an upper-bit mask back to local upper ids."""
        order = self.upper_order
        return frozenset(order[b] for b in iter_bits(mask))

    def lower_locals(self, mask: int) -> frozenset[int]:
        """Translate a lower-bit mask back to local lower ids."""
        order = self.lower_order
        return frozenset(order[b] for b in iter_bits(mask))

    def pack_lower(self, lower_locals: Iterable[int]) -> int:
        """Pack local lower ids into a lower-bit mask."""
        rank = self.lower_rank
        mask = 0
        for v in lower_locals:
            mask |= 1 << rank[v]
        return mask


def _degree_order(adjacency: list[set[int]]) -> list[int]:
    # Stable degree-descending order: exactly the candidate order of the
    # set kernel (sorted with reverse=True keeps ties in id order).
    return sorted(
        range(len(adjacency)), key=lambda i: len(adjacency[i]), reverse=True
    )


def pack_local(local: LocalGraph) -> PackedLocalGraph:
    """The packed view of ``local`` (built once, memoized on the graph)."""
    packed = getattr(local, "_packed", None)
    if packed is not None:
        return packed
    global _pack_calls
    _pack_calls += 1
    upper_order = _degree_order(local.adj_upper)
    lower_order = _degree_order(local.adj_lower)
    upper_rank = [0] * len(upper_order)
    for bit, u in enumerate(upper_order):
        upper_rank[u] = bit
    lower_rank = [0] * len(lower_order)
    for bit, v in enumerate(lower_order):
        lower_rank[v] = bit
    adj_upper = [
        _pack(local.adj_upper[u], lower_rank) for u in upper_order
    ]
    adj_lower = [
        _pack(local.adj_lower[v], upper_rank) for v in lower_order
    ]
    packed = PackedLocalGraph(
        local=local,
        upper_order=upper_order,
        lower_order=lower_order,
        upper_rank=upper_rank,
        lower_rank=lower_rank,
        adj_upper=adj_upper,
        adj_lower=adj_lower,
        deg_upper=[len(local.adj_upper[u]) for u in upper_order],
        deg_lower=[len(local.adj_lower[v]) for v in lower_order],
        all_upper=(1 << len(upper_order)) - 1,
        all_lower=(1 << len(lower_order)) - 1,
    )
    local._packed = packed
    return packed


def _pack(ids: set[int], rank: list[int]) -> int:
    mask = 0
    for i in ids:
        mask |= 1 << rank[i]
    return mask


def two_hop_packed(graph: BipartiteGraph, side: Side, q: int) -> LocalGraph:
    """Extract ``H_q`` straight into bitmasks, skipping the set build.

    The fused counterpart of
    :func:`repro.graph.subgraph.two_hop_subgraph` + :func:`pack_local`
    for the bitset kernel: two sweeps over the ``N(q)`` neighbor lists
    build the degree-ordered adjacency masks directly, and the returned
    :class:`~repro.graph.subgraph.LocalGraph` (with ``_packed`` already
    attached) materializes its adjacency *sets* lazily from the masks —
    a pure-bitset query never constructs them.  Local ids, bit order,
    and degree arrays are identical to the unfused path, so the two
    extractions are interchangeable.  ``graph`` may also be a
    :class:`~repro.kernel.DynamicPackedAdjacency`: ``N(q)`` is sorted
    here, so its unordered live sets give the same ``H_q`` as a snapshot.
    """
    other = side.other
    neighbors = graph.neighbors
    lower_globals = sorted(neighbors(side, q))
    # Pass 1: H_q upper degrees.  Every H_q edge has its lower endpoint
    # in N(q), so the counts fall out of the N(q) neighbor lists — and
    # a lower vertex's H_q degree is simply its full degree.
    nbrs = [neighbors(other, v) for v in lower_globals]
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
    # Pass 2: set bits.  Global upper id -> bit position, resolved once.
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
    global _pack_calls
    _pack_calls += 1
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


def _unpack_adjacency(local: LocalGraph) -> tuple[list[set[int]], list[set[int]]]:
    """Materialize local-id adjacency sets from the packed masks."""
    packed = local._packed
    upper_order = packed.upper_order
    lower_order = packed.lower_order
    adj_upper: list[set[int]] = [set()] * packed.num_upper
    for bit, mask in enumerate(packed.adj_upper):
        adj_upper[upper_order[bit]] = {
            lower_order[b] for b in iter_bits(mask)
        }
    adj_lower: list[set[int]] = [set()] * packed.num_lower
    for bit, mask in enumerate(packed.adj_lower):
        adj_lower[lower_order[bit]] = {
            upper_order[b] for b in iter_bits(mask)
        }
    return adj_upper, adj_lower
