"""repro.shard — vertex-partitioned serving across worker shards.

The paper's index is *per-vertex decomposable*: every query is rooted
at one vertex and answered from that vertex's search tree, so the
vertex space partitions cleanly across N shard workers.  Each shard
owns the packed adjacency, core bounds, and partial/full index tier
for its vertex range — queries for a vertex land on the shard whose
caches, hot set, and adaptive trees already know it.

- :class:`~repro.shard.partition.ShardMap` — the deterministic
  contiguous-range partitioning rule over the combined
  (upper then lower) vertex space;
- :class:`~repro.shard.router.ShardedService` — the scatter/gather
  router: one :class:`~repro.serve.service.PMBCService` per shard,
  single queries routed to the owning shard, batches split
  shard-aware and merged back in order, degraded rerouting around a
  down shard, and ``pmbc_shard_*`` metrics;
- :class:`~repro.serve.aserver.AsyncPMBCServer` (in
  :mod:`repro.serve`) — the HTTP front-end, which serves a sharded
  service exactly as it serves a plain one.

See docs/sharding.md for the design and failure semantics.
"""

from repro.shard.partition import ShardMap
from repro.shard.router import ShardedService, ShardWorker

__all__ = [
    "ShardMap",
    "ShardedService",
    "ShardWorker",
]
