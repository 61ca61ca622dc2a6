"""Shared-subgraph caches for batch-vectorized packed search.

A batch that groups requests by query vertex already shares one two-hop
extraction (and therefore one packed view) per group; this module makes
the *per-request* work shareable too.  Both caches memoize pure
functions of the packed view, so reuse can never change an answer, a
prune tally or a round record — it only skips recomputation:

- :func:`cached_reduce` — the reduction fixpoint of a search round is
  a pure function of ``(floors, alive masks)`` over one packed view.
  Below :data:`repro.mbc.progressive.ONE_ROUND_MAX_TWOHOP` a query runs
  one round, so repeats of the same request (same floors, same
  incumbent) replay it; above it, requests with different τ floors on
  the same ``H_q`` also pass through identical rounds (the progressive
  ladder starts at the same ``floor_w`` and halves).  Each distinct
  round computes once per extraction.
- :func:`cached_seed` — the greedy seed ``C*_0`` is a pure function of
  ``(tau_p, tau_w)`` over the extraction (every kernel grows the
  identical seed), and group members repeat floor pairs constantly.

Both caches live on the extraction they describe (the packed view / the
``LocalGraph``), so the engine's two-hop LRU and the per-worker caches
of :mod:`repro.exec` bound their lifetime, and a small per-extraction
entry cap bounds their size.  Process-wide reuse tallies
(:func:`reduce_reuse_count`, :func:`seed_reuse_count`) mirror
:func:`repro.kernel.pack_count` for regression tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.kernel.ops import reduce_alive
from repro.kernel.packed import PackedLocalGraph
from repro.kernel.words import reduce_alive_words

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.subgraph import LocalGraph

__all__ = [
    "cached_reduce",
    "cached_seed",
    "reduce_reuse_count",
    "seed_reuse_count",
]

#: Per-extraction entry caps; on overflow the cache is simply cleared
#: (correctness never depends on retention).
REDUCE_CACHE_CAP = 64
SEED_CACHE_CAP = 32

_reduce_reuses = 0
_seed_reuses = 0


def reduce_reuse_count() -> int:
    """Process-wide count of reduction rounds served from the cache."""
    return _reduce_reuses


def seed_reuse_count() -> int:
    """Process-wide count of greedy seeds served from the cache."""
    return _seed_reuses


def cached_reduce(
    packed: PackedLocalGraph,
    kernel: str,
    tau_p: int,
    tau_w: int,
    alive_u: int,
    alive_l: int,
    use_two_hop: bool,
) -> tuple[int, int]:
    """The reduction fixpoint of one search round, memoized.

    The cache key excludes the kernel: ``"bitset"`` and ``"words"``
    compute the identical fixpoint (machine-checked by the differential
    suite), so a mixed-kernel workload on one cached extraction still
    shares entries.
    """
    global _reduce_reuses
    memo = getattr(packed, "_reduce_memo", None)
    if memo is None:
        memo = {}
        packed._reduce_memo = memo
    key = (tau_p, tau_w, alive_u, alive_l, use_two_hop)
    hit = memo.get(key)
    if hit is not None:
        _reduce_reuses += 1
        return hit
    fn = reduce_alive_words if kernel == "words" else reduce_alive
    result = fn(
        packed, tau_p, tau_w, alive_u, alive_l, use_two_hop=use_two_hop
    )
    if len(memo) >= REDUCE_CACHE_CAP:
        memo.clear()
    memo[key] = result
    return result


def cached_seed(local: "LocalGraph", tau_p: int, tau_w: int, compute):
    """The greedy seed for ``(tau_p, tau_w)``, memoized on the extraction.

    ``compute`` is a zero-argument callable producing the seed on a
    miss; the key excludes the kernel because every kernel grows the
    identical seed over the same defined candidate order.
    """
    global _seed_reuses
    memo = getattr(local, "_seed_memo", None)
    if memo is None:
        memo = {}
        local._seed_memo = memo
    key = (tau_p, tau_w)
    if key in memo:
        _seed_reuses += 1
        return memo[key]
    result = compute()
    if len(memo) >= SEED_CACHE_CAP:
        memo.clear()
    memo[key] = result
    return result
