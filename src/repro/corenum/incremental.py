"""Incremental (α,β)-core / ``z``-bound maintenance under edge updates.

The static pipeline (``decompose`` → ``compute_bounds``) costs ``O(δ·m)``
peeling sweeps per call, which a mutating workload would pay on every
edge.  This module keeps the full sweep family *live* instead: for each
fixed coordinate ``a ≤ δ`` it stores the per-vertex level function

    ``ℓ(x) = max t such that x ∈ (a, t)-core``

(the exact output of ``_peel_levels``) and repairs it locally when an
edge is inserted or deleted, then rewrites the
:class:`~repro.corenum.bounds.CoreBounds` rows of exactly the vertices
whose levels moved, straight from their sweep columns through
:func:`~repro.corenum.bounds.sweep_bound_rows` — the kernel
:func:`~repro.corenum.bounds.compute_bounds` runs too.  No staircases
are kept; :attr:`IncrementalCoreBounds.decomposition` assembles them
from the sweeps on demand.  The repairs are **exact**, not
approximate — they rest on the fixpoint characterization of ``ℓ``:

- ``ℓ`` is the greatest fixpoint of the operator ``F`` where, for a
  free-side vertex, ``F(x)`` is the h-index of its neighbors' levels
  and, for a fixed-side vertex, the ``a``-th largest neighbor level.
  Any assignment with ``L ≤ F(L)`` pointwise satisfies ``L ≤ ℓ``
  (the set ``{x : L(x) ≥ t}`` is an (a,t)-core witness), so a
  decrease-only chaotic iteration started from any upper bound of the
  new levels converges to them exactly.
- **Deletion** starts the iteration from the old levels (cores only
  shrink), seeding the worklist with the two endpoints — the classic
  peeling cascade, bounded by ``cascade_cap``.
- **Insertion** uses the locality lemma: removing one fixed-side
  vertex from an (a,t)-core leaves an (a,t-1)-core, so every vertex
  except the fixed-side endpoint rises by at most one level, and the
  set of vertices changed at threshold ``t`` is a connected region of
  vertices with old level exactly ``t-1`` touching an endpoint.  The
  repair BFS-grows that candidate region per threshold, initializes it
  to ``old + 1`` (the fixed endpoint to its ``a``-th largest
  neighbor-bound), and decrease-converges with the boundary frozen.

The maintainer keeps no adjacency of its own: it reads the caller's
live :class:`~repro.kernel.DynamicPackedAdjacency`, and each repair
runs after that adjacency has changed.  Every sweep repair falls back
to a single fresh ``_peel_levels`` sweep when the cascade/region
exceeds ``cascade_cap`` — never the full decomposition.  Whole-sweep
peels read the adjacency's incremental snapshot, whose sorted tuple
rows peel faster than the live sets.  δ itself moves by at most one
per update; a growth appends two fresh sweeps, a shrink drops the top
ones.  A new (δ+1,δ+1)-core must contain the inserted edge, so a
growth is probed (one ``alpha_beta_core`` peel) only when both
endpoints reach level δ+1 in the already-repaired α=δ sweep.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.corenum.bounds import (
    CoreBounds,
    _bounds_from_sweeps,
    _level_rows,
    sweep_bound_rows,
)
from repro.corenum.decomposition import (
    BicoreDecomposition,
    _decomposition_from_sweeps,
    _peel_levels,
    _sweeps,
)
from repro.corenum.peeling import alpha_beta_core
from repro.graph.bipartite import Side

if TYPE_CHECKING:
    from repro.kernel.dynadj import DynamicPackedAdjacency

__all__ = ["IncrementalCoreBounds", "UpdateRepairStats"]

#: Default bound on vertices a single sweep repair may touch before the
#: sweep is re-peeled from scratch instead.
DEFAULT_CASCADE_CAP = 4096


def _h_index(values: list[int]) -> int:
    """Max ``t`` with at least ``t`` entries ≥ ``t``."""
    values.sort(reverse=True)
    h = 0
    for i, value in enumerate(values):
        if value >= i + 1:
            h = i + 1
        else:
            break
    return h


def _kth_largest(values: list[int], k: int) -> int:
    """The ``k``-th largest entry (0 when fewer than ``k`` entries)."""
    if len(values) < k:
        return 0
    values.sort(reverse=True)
    return values[k - 1]


@dataclass
class UpdateRepairStats:
    """Telemetry for one edge update's bound repair."""

    action: str
    cascade: int = 0  #: vertices processed across all sweep repairs
    sweeps_repaired: int = 0
    sweeps_skipped: int = 0  #: degree-gated sweeps proven unaffected
    sweep_fallbacks: int = 0  #: repairs that re-peeled a full sweep
    delta_changed: bool = False
    changed_vertices: set[tuple[Side, int]] = field(default_factory=set)


class IncrementalCoreBounds:
    """Live :class:`CoreBounds` maintained under edge insert/delete.

    The :attr:`bounds` object is mutated **in place**, so every holder
    of the object — engines, serving backends, thread-worker state —
    observes repairs without a reference swap.  Bound rows are
    replaced whole (one list assignment per vertex), never
    edited element-wise, so a concurrent reader sees either the old or
    the new row of a vertex.

    Parameters
    ----------
    adjacency:
        The live adjacency of the graph.  The caller owns and mutates
        it; the maintainer only reads it, and each
        :meth:`insert_edge`/:meth:`delete_edge` call repairs one edge
        change the adjacency has already made.
    bounds:
        Optional existing :class:`CoreBounds` of the graph to adopt and
        maintain (must have been computed from it); a fresh one is
        computed when omitted.
    cascade_cap:
        Max vertices a single sweep repair may touch before falling
        back to re-peeling that sweep.
    """

    def __init__(
        self,
        adjacency: DynamicPackedAdjacency,
        bounds: CoreBounds | None = None,
        cascade_cap: int = DEFAULT_CASCADE_CAP,
    ) -> None:
        self._adjacency = adjacency
        self._sets = adjacency.sets
        self.cascade_cap = cascade_cap
        # δ is the length of both sweep lists.
        self._alpha_sweeps, self._beta_sweeps = _sweeps(adjacency.snapshot())
        if bounds is None:
            bounds = _bounds_from_sweeps(
                self._alpha_sweeps, self._beta_sweeps, self._sizes()
            )
        self._bounds = bounds
        # Aggregate counters (exposed via stats()).
        self.updates = 0
        self.cascade_total = 0
        self.sweep_fallbacks = 0
        self.delta_changes = 0
        self.last_repair: UpdateRepairStats | None = None
        #: Pending bound-row refreshes inside a defer_refresh() block
        #: (None = eager refresh after every update).
        self._deferred_refresh: set[tuple[Side, int]] | None = None

    # ------------------------------------------------------------------
    # Read surface
    # ------------------------------------------------------------------
    @property
    def bounds(self) -> CoreBounds:
        """The live (in-place maintained) bounds object."""
        return self._bounds

    @property
    def decomposition(self) -> BicoreDecomposition:
        """The current decomposition, assembled from the maintained sweeps.

        Built on every access (nothing on the serving path reads it);
        exact even inside a :meth:`defer_refresh` block, since the
        sweeps are repaired eagerly.
        """
        return _decomposition_from_sweeps(
            self._alpha_sweeps, self._beta_sweeps, self._sizes()
        )

    @property
    def delta(self) -> int:
        """Current δ (max t with a non-empty (t,t)-core)."""
        return len(self._alpha_sweeps)

    def ensure_vertex(self, side: Side, x: int) -> None:
        """Extend the per-vertex rows so vertex id ``x`` exists on
        ``side`` (isolated if new); call it when the adjacency grows
        without an edge."""
        self._grow(side, x)

    def stats(self) -> dict:
        """JSON-friendly repair counters."""
        return {
            "updates": self.updates,
            "cascade_total": self.cascade_total,
            "sweep_fallbacks": self.sweep_fallbacks,
            "delta_changes": self.delta_changes,
            "delta": self.delta,
            "cascade_cap": self.cascade_cap,
        }

    # ------------------------------------------------------------------
    # Update surface
    # ------------------------------------------------------------------
    def insert_edge(self, u: int, v: int) -> UpdateRepairStats:
        """Repair sweep levels and bound rows for an inserted edge.

        Call it once per edge, right after the adjacency's own
        ``insert_edge(u, v)`` returned True (no other update in
        between).  Unknown vertex ids extend the per-vertex rows.
        """
        stats = UpdateRepairStats("insert")
        self._grow(Side.UPPER, u)
        self._grow(Side.LOWER, v)
        sets = self._sets
        self._repair_all_sweeps(
            stats, "insert", u, v,
            len(sets[Side.UPPER][u]), len(sets[Side.LOWER][v]),
        )
        self._maybe_grow_delta(stats, u, v)
        self._refresh_or_defer(stats.changed_vertices)
        self._account(stats)
        return stats

    def delete_edge(
        self,
        u: int,
        v: int,
        deg_u: int | None = None,
        deg_v: int | None = None,
    ) -> UpdateRepairStats:
        """Repair sweep levels and bound rows for a deleted edge.

        Call it once per edge the adjacency's ``delete_edge(u, v)``
        removed.  ``deg_u``/``deg_v`` are the endpoints' degrees that
        gate which sweeps can see the edge; they default to the current
        degrees plus one, right when the repair directly follows the
        adjacency's delete.  A caller that removes several edges before
        repairing any of them must pass the degrees from before its
        first removal: a degree read after other removals of the same
        endpoint would skip sweeps that still need repair.
        """
        stats = UpdateRepairStats("delete")
        if deg_u is None:
            deg_u = len(self._sets[Side.UPPER][u]) + 1
        if deg_v is None:
            deg_v = len(self._sets[Side.LOWER][v]) + 1
        self._repair_all_sweeps(stats, "delete", u, v, deg_u, deg_v)
        self._maybe_shrink_delta(stats)
        self._refresh_or_defer(stats.changed_vertices)
        self._account(stats)
        return stats

    @contextmanager
    def defer_refresh(self) -> Iterator[None]:
        """Batch the bound-row refresh across several updates.

        Inside the block, sweep levels are repaired eagerly (every
        update sees exact levels) but the per-vertex bound-row refresh
        is accumulated and executed once on exit — a batch touching
        overlapping neighborhoods refreshes each vertex once instead of
        once per update.  While the block is
        open the :attr:`bounds` object is stale; callers must not
        publish it (e.g. swap a graph snapshot) until the block
        closes.  Not reentrant.
        """
        if self._deferred_refresh is not None:
            raise RuntimeError("defer_refresh() is not reentrant")
        self._deferred_refresh = set()
        try:
            yield
        finally:
            pending = self._deferred_refresh
            self._deferred_refresh = None
            if pending:
                self._refresh_vertices(pending)

    def _refresh_or_defer(self, changed: set[tuple[Side, int]]) -> None:
        if self._deferred_refresh is not None:
            self._deferred_refresh |= changed
        else:
            self._refresh_vertices(changed)

    def verify(self) -> None:
        """Assert the maintained state equals a from-scratch recompute.

        The expected rows take the staircase route —
        ``compute_bounds(snapshot, decompose(snapshot))``, i.e.
        :func:`~repro.corenum.bounds.vertex_bound_rows` over fresh
        staircases — so a defect in the sweep-column kernel the
        maintainer shares with plain ``compute_bounds`` cannot compare
        equal to itself.  Test hook: raises ``AssertionError`` on any
        divergence.
        """
        from repro.corenum.bounds import compute_bounds
        from repro.corenum.decomposition import decompose

        snapshot = self._adjacency.snapshot()
        fresh_decomp = decompose(snapshot)
        assert self.delta == fresh_decomp.delta, (
            f"delta drifted: {self.delta} != {fresh_decomp.delta}"
        )
        mine = self.decomposition
        for side in Side:
            assert (
                mine.alpha_stairs[side] == fresh_decomp.alpha_stairs[side]
            ), f"alpha stairs drifted on {side}"
            assert (
                mine.beta_stairs[side] == fresh_decomp.beta_stairs[side]
            ), f"beta stairs drifted on {side}"
        fresh_bounds = compute_bounds(snapshot, fresh_decomp)
        for side in Side:
            assert self._bounds.z[side] == fresh_bounds.z[side]
            assert self._bounds.prefix[side] == fresh_bounds.prefix[side]
            assert self._bounds.suffix[side] == fresh_bounds.suffix[side]

    # ------------------------------------------------------------------
    # Sweep repair
    # ------------------------------------------------------------------
    def _repair_all_sweeps(
        self,
        stats: UpdateRepairStats,
        action: str,
        u: int,
        v: int,
        deg_u: int,
        deg_v: int,
    ) -> None:
        """Repair every stored sweep for one applied edge mutation.

        ``deg_u``/``deg_v`` gate the sweeps: for inserts the post-insert
        degree of the sweep's fixed-side endpoint, for deletes its
        degree before the delete.  A sweep whose fixed value exceeds
        that degree cannot involve the endpoint, so the edge is
        invisible to it and the sweep is skipped untouched.
        """
        for sweeps, fixed_side, gate in (
            (self._alpha_sweeps, Side.UPPER, deg_u),
            (self._beta_sweeps, Side.LOWER, deg_v),
        ):
            for a_idx, level in enumerate(sweeps):
                a = a_idx + 1
                if a > gate:
                    stats.sweeps_skipped += 1
                    continue
                if action == "insert":
                    changed = self._repair_sweep_insert(level, fixed_side, a, u, v)
                    if changed is None:
                        changed = self._repeel_sweep(level, fixed_side, a)
                        stats.sweep_fallbacks += 1
                else:
                    changed, fell_back = self._repair_sweep_delete(
                        level, fixed_side, a, u, v
                    )
                    if fell_back:
                        stats.sweep_fallbacks += 1
                stats.sweeps_repaired += 1
                stats.cascade += len(changed)
                stats.changed_vertices.update(changed)

    def _sweep_value(
        self,
        level: dict[Side, list[int]],
        fixed_side: Side,
        a: int,
        side: Side,
        x: int,
    ) -> int:
        """The fixpoint operator ``F`` at one vertex."""
        other = side.other
        other_level = level[other]
        values = [other_level[w] for w in self._sets[side][x]]
        if side is fixed_side:
            return _kth_largest(values, a)
        return _h_index(values)

    def _repair_sweep_delete(
        self,
        level: dict[Side, list[int]],
        fixed_side: Side,
        a: int,
        u: int,
        v: int,
    ) -> tuple[set[tuple[Side, int]], bool]:
        """Decrease-only cascade from the endpoints.

        Returns ``(changed, fell_back)``.  On a cap overrun the sweep is
        re-peeled from scratch; the vertices already lowered by the
        aborted cascade stay in the changed set (their levels are
        correct, but their staircases still need refreshing).
        """
        work: deque[tuple[Side, int]] = deque(
            ((Side.UPPER, u), (Side.LOWER, v))
        )
        queued = set(work)
        changed: set[tuple[Side, int]] = set()
        processed = 0
        adj = self._sets
        while work:
            side, x = work.popleft()
            queued.discard((side, x))
            processed += 1
            if processed > self.cascade_cap:
                changed |= self._repeel_sweep(level, fixed_side, a)
                return changed, True
            current = level[side][x]
            if current == 0:
                continue
            # F(x) >= current iff at least `need` neighbor values are
            # >= current — check by counting before paying for a sort.
            other_level = level[side.other]
            need = a if side is fixed_side else current
            count = 0
            for w in adj[side][x]:
                if other_level[w] >= current:
                    count += 1
                    if count >= need:
                        break
            if count >= need:
                continue
            new = self._sweep_value(level, fixed_side, a, side, x)
            if new >= current:
                continue
            level[side][x] = new
            changed.add((side, x))
            other = side.other
            other_level = level[other]
            for w in adj[side][x]:
                # w's operator value can only drop if x stopped counting
                # toward w's current level: new < ℓ(w) ≤ current.
                if new < other_level[w] <= current:
                    key = (other, w)
                    if key not in queued:
                        queued.add(key)
                        work.append(key)
        return changed, False

    def _repair_sweep_insert(
        self,
        level: dict[Side, list[int]],
        fixed_side: Side,
        a: int,
        u: int,
        v: int,
    ) -> set[tuple[Side, int]] | None:
        """Certified region repair for one insertion; ``None`` on cap.

        Region = per-threshold connected components of old-level
        ``t-1`` vertices touching an endpoint (the only vertices whose
        level can rise to ``t``), plus the fixed endpoint, whose level
        may jump multiple steps and is initialized to its ``a``-th
        largest neighbor bound instead of ``old + 1``.
        """
        adj = self._sets
        if fixed_side is Side.UPPER:
            fixed_key, free_key = (Side.UPPER, u), (Side.LOWER, v)
        else:
            fixed_key, free_key = (Side.LOWER, v), (Side.UPPER, u)
        f_side, f_x = fixed_key
        # Upper bound for the fixed endpoint: every other vertex rises
        # by ≤ 1, so F'(ℓ+1) bounds its new level.
        free_level = level[f_side.other]
        cap_values = [free_level[w] + 1 for w in adj[f_side][f_x]]
        fixed_target = _kth_largest(cap_values, a)
        free_target = level[free_key[0]][free_key[1]] + 1

        # Candidate region, grown one threshold at a time.  The two
        # endpoints seed every threshold, so their neighbors are
        # bucketed by level once instead of rescanned per threshold.
        region: set[tuple[Side, int]] = {fixed_key, free_key}
        thresholds = set(
            range(level[f_side][f_x] + 1, fixed_target + 1)
        )
        thresholds.add(free_target)
        fixed_buckets: dict[int, list[int]] = {}
        for w in adj[f_side][f_x]:
            fixed_buckets.setdefault(free_level[w], []).append(w)
        o_side = f_side.other
        fixed_level_row = level[f_side]
        free_buckets: dict[int, list[int]] = {}
        for w in adj[o_side][free_key[1]]:
            free_buckets.setdefault(fixed_level_row[w], []).append(w)

        def qualifies(side: Side, w: int, t: int) -> bool:
            # Necessary condition for w (old level t-1) to rise to t:
            # enough neighbors that can reach level >= t.  Non-endpoint
            # neighbors rise by <= 1, so they need old level >= t-1;
            # the endpoint on the opposite layer is credited by its
            # target bound instead (the fixed endpoint can jump several
            # steps).  Unqualified vertices stay put, and every riser
            # chains back to the endpoints through other risers, so
            # skipping them from the BFS loses nothing.
            need = a if side is fixed_side else t
            o_level = level[side.other]
            if side is f_side:
                ep, ep_ok = free_key[1], free_target >= t
            else:
                ep, ep_ok = f_x, fixed_target >= t
            count = 0
            t1 = t - 1
            for z in adj[side][w]:
                if o_level[z] >= t1 or (ep_ok and z == ep):
                    count += 1
                    if count >= need:
                        return True
            return False

        for t in thresholds:
            frontier = []
            rejected: set[tuple[Side, int]] = set()
            if fixed_target >= t:
                for w in fixed_buckets.get(t - 1, ()):
                    key = (o_side, w)
                    if key not in region:
                        if qualifies(o_side, w, t):
                            region.add(key)
                            frontier.append(key)
                        else:
                            rejected.add(key)
            if free_target == t:
                for w in free_buckets.get(t - 1, ()):
                    key = (f_side, w)
                    if key not in region and key not in rejected:
                        if qualifies(f_side, w, t):
                            region.add(key)
                            frontier.append(key)
                        else:
                            rejected.add(key)
            if len(region) > self.cascade_cap:
                return None
            while frontier:
                side, x = frontier.pop()
                other = side.other
                other_level = level[other]
                for w in adj[side][x]:
                    key = (other, w)
                    if (
                        other_level[w] == t - 1
                        and key not in region
                        and key not in rejected
                    ):
                        if qualifies(other, w, t):
                            region.add(key)
                            if len(region) > self.cascade_cap:
                                return None
                            frontier.append(key)
                        else:
                            rejected.add(key)

        # Decrease-converge inside the region; boundary frozen at old
        # levels (exact, since no vertex outside the region can change).
        # Candidates live in full per-side rows (copies of the level
        # rows, bumped inside the region) so the hot neighbor scans are
        # plain list indexing instead of tuple-keyed dict lookups.
        cand = {side: level[side].copy() for side in Side}
        for side, x in region:
            cand[side][x] += 1
        cand[f_side][f_x] = fixed_target
        work: deque[tuple[Side, int]] = deque(region)
        queued = set(work)
        while work:
            side, x = work.popleft()
            queued.discard((side, x))
            current = cand[side][x]
            if current == 0:
                continue
            other = side.other
            other_cand = cand[other]
            neighbors = adj[side][x]
            # Counting check first: F(x) >= current iff at least
            # `need` neighbor values are >= current, which skips the
            # sort on the (common) already-converged pops.
            need = a if side is fixed_side else current
            count = 0
            for w in neighbors:
                if other_cand[w] >= current:
                    count += 1
                    if count >= need:
                        break
            if count >= need:
                continue
            values = [other_cand[w] for w in neighbors]
            if side is fixed_side:
                new = _kth_largest(values, a)
            else:
                new = _h_index(values)
            if new >= current:
                continue
            cand[side][x] = new
            for w in neighbors:
                if new < other_cand[w] <= current:
                    key = (other, w)
                    if key in region and key not in queued:
                        queued.add(key)
                        work.append(key)

        changed: set[tuple[Side, int]] = set()
        for key in region:
            side, x = key
            value = cand[side][x]
            if value != level[side][x]:
                level[side][x] = value
                changed.add(key)
        return changed

    def _repeel_sweep(
        self, level: dict[Side, list[int]], fixed_side: Side, a: int
    ) -> set[tuple[Side, int]]:
        """Fallback: re-peel one sweep, returning the changed vertices."""
        fresh = _peel_levels(self._adjacency.snapshot(), fixed_side, a)
        changed: set[tuple[Side, int]] = set()
        for side in Side:
            old_levels = level[side]
            new_levels = fresh[side]
            for x, new in enumerate(new_levels):
                if old_levels[x] != new:
                    old_levels[x] = new
                    changed.add((side, x))
        return changed

    # ------------------------------------------------------------------
    # δ transitions
    # ------------------------------------------------------------------
    def _maybe_grow_delta(
        self, stats: UpdateRepairStats, u: int, v: int
    ) -> None:
        """δ grows by ≤ 1 per insert, and only through the new edge.

        A new (δ+1,δ+1)-core must contain both endpoints (without the
        edge it would have existed before), and it lies inside the
        (δ,δ+1)-core, so both endpoints must already sit at level ≥ δ+1
        in the repaired α=δ sweep; only then is the full peel probed.
        """
        d = self.delta + 1
        if len(self._sets[Side.UPPER][u]) < d or len(self._sets[Side.LOWER][v]) < d:
            return
        if self._alpha_sweeps:
            top = self._alpha_sweeps[-1]
            if top[Side.UPPER][u] < d or top[Side.LOWER][v] < d:
                return
        graph = self._adjacency.snapshot()
        upper, __ = alpha_beta_core(graph, d, d)
        if not upper:
            return
        self._alpha_sweeps.append(_peel_levels(graph, Side.UPPER, d))
        self._beta_sweeps.append(_peel_levels(graph, Side.LOWER, d))
        self._mark_delta_change(stats)

    def _maybe_shrink_delta(self, stats: UpdateRepairStats) -> None:
        """Drop the top sweeps when the (δ,δ)-core emptied."""
        while self._alpha_sweeps:
            top = self._alpha_sweeps[-1][Side.LOWER]
            if max(top, default=0) >= self.delta:
                return
            self._alpha_sweeps.pop()
            self._beta_sweeps.pop()
            self._mark_delta_change(stats)

    def _mark_delta_change(self, stats: UpdateRepairStats) -> None:
        # Every vertex's sweep columns gained or lost an entry, so every
        # bound row is recomputed.
        stats.delta_changed = True
        self.delta_changes += 1
        for side in Side:
            stats.changed_vertices.update(
                (side, x) for x in range(len(self._bounds.z[side]))
            )

    # ------------------------------------------------------------------
    # Bound-row refresh
    # ------------------------------------------------------------------
    def _refresh_vertices(
        self, changed: set[tuple[Side, int]]
    ) -> None:
        """Rewrite the bound rows of the changed vertices from their columns.

        Each row is replaced whole, so a concurrent reader sees either
        the old or the new row of a vertex.
        """
        level_rows = {
            side: _level_rows(self._alpha_sweeps, self._beta_sweeps, side)
            for side in Side
        }
        bounds = self._bounds
        for side, x in changed:
            own_rows, other_rows = level_rows[side]
            z_v, pref, suff = sweep_bound_rows(
                [row[x] for row in own_rows], [row[x] for row in other_rows]
            )
            bounds.z[side][x] = z_v
            bounds.prefix[side][x] = pref
            bounds.suffix[side][x] = suff

    def _grow(self, side: Side, x: int) -> None:
        """Extend every per-vertex array for a new vertex id."""
        while x >= len(self._bounds.z[side]):
            for sweep in self._alpha_sweeps:
                sweep[side].append(0)
            for sweep in self._beta_sweeps:
                sweep[side].append(0)
            self._bounds.z[side].append(0)
            self._bounds.prefix[side].append([])
            self._bounds.suffix[side].append([])

    def _account(self, stats: UpdateRepairStats) -> None:
        self.updates += 1
        self.cascade_total += stats.cascade
        self.sweep_fallbacks += stats.sweep_fallbacks
        self.last_repair = stats

    def _sizes(self) -> dict[Side, int]:
        return {
            side: self._adjacency.num_vertices_on(side) for side in Side
        }
