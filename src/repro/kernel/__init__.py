"""The packed compute kernel and kernel selection.

Every query surface (``pmbc_online``/``pmbc_online_star``, the caching
engine, the serving layer, index construction) funnels into the same
branch-and-bound over candidate vertex sets.  This package provides
the packed implementation of that hot path and the one way to pick a
*kernel*: an explicit ``kernel=`` argument on the query/build API.

- ``"bitset"`` (the default) — candidate sets are Python ints used as
  packed bitmasks over degree-ordered local ids; intersections are
  big-int ``&`` and set sizes are ``int.bit_count()``.  CPython big-int
  arithmetic processes 30 bits (or 64 on some builds) per machine word,
  so the per-node constant factor drops by roughly an order of
  magnitude on medium subgraphs — the same packed-set trick BBK
  (Baudin et al., 2024) and Chen et al. (2020) credit for their
  constant factors, with zero new dependencies.
- ``"set"`` — the original ``frozenset`` implementation, kept forever
  as the differential-testing reference.

Both kernels explore the identical search tree (same candidate order,
same pruning decisions, same recorded answers and obs counters); see
``docs/kernel.md`` for the argument and ``tests/property`` for the
machine-checked version.
"""

from __future__ import annotations

from repro.kernel.dynadj import DynamicPackedAdjacency
from repro.kernel.packed import (
    PackedLocalGraph,
    iter_bits,
    pack_count,
    pack_local,
)

__all__ = [
    "KERNEL_KINDS",
    "DEFAULT_KERNEL",
    "resolve_kernel",
    "PackedLocalGraph",
    "pack_local",
    "pack_count",
    "iter_bits",
    "DynamicPackedAdjacency",
]

#: Valid ``kernel=`` selector values; the CLI and config use these.
KERNEL_KINDS = ("bitset", "set")

#: The kernel used when no explicit ``kernel=`` is given.
DEFAULT_KERNEL = "bitset"


def resolve_kernel(kernel: str | None = None) -> str:
    """Validate an explicit kernel name; None means :data:`DEFAULT_KERNEL`."""
    if kernel is None:
        return DEFAULT_KERNEL
    if kernel not in KERNEL_KINDS:
        raise ValueError(
            f"kernel must be one of {KERNEL_KINDS}, got {kernel!r}"
        )
    return kernel
