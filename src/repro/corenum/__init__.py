"""(α,β)-core substrate.

Implements Definition 6 ((α,β)-core), the α-/β-offsets of Definition 7
via full bicore decomposition (Liu et al., WWW 2019 — reference [40] of
the paper), and the biclique-size upper bounds of Section VI-C
(``z_v`` and the prefix/suffix bound arrays behind Lemma 9) used to
accelerate PMBC-OL into PMBC-OL*.  The bounds are written straight from
the peeling sweeps, without materialising the staircases.  Streaming
workloads use :class:`~repro.corenum.incremental.IncrementalCoreBounds`,
which keeps the sweeps and bounds live under edge updates via bounded
peeling cascades instead of from-scratch recomputation.
"""

from repro.corenum.peeling import alpha_beta_core, max_delta
from repro.corenum.decomposition import BicoreDecomposition, decompose
from repro.corenum.bounds import CoreBounds, LocalCoreBounds, compute_bounds
from repro.corenum.incremental import IncrementalCoreBounds, UpdateRepairStats

__all__ = [
    "alpha_beta_core",
    "max_delta",
    "BicoreDecomposition",
    "decompose",
    "CoreBounds",
    "LocalCoreBounds",
    "compute_bounds",
    "IncrementalCoreBounds",
    "UpdateRepairStats",
]
