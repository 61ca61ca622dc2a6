"""Personalized maximum *balanced* biclique (Chen et al., 2020 family).

The score of a biclique is its smaller side, ``min(|P|, |W|)``: a
biclique scoring ``k`` can be trimmed to a complete ``k×k`` bipartite
subgraph, so maximizing the min side is exactly the maximum balanced
biclique problem, anchored at the query vertex.

Soundness notes, relative to the shared search machinery:

- The left-closed Branch&Bound enumerates, for every lower set ``W``,
  the *maximal* upper set ``P = Γ(W)``; any balanced optimum trimmed
  from some ``(P*, W*)`` is dominated by the node with ``W ⊇ W*`` and
  ``P = Γ(W) ⊇ P*`` visited by the enumeration, whose min side is no
  smaller.  Scoring nodes by min side therefore finds the optimum.
- The Lemma 9 (α,β)-core bounds compare an *edge count* against the
  incumbent, which is not admissible against a min-side score —
  ``uses_size_bounds = False`` switches them off.
- The PMBC-Index stores the Lemma 6 skyline of edge-count maxima; a
  min-side optimum need not be on it, so ``index_compatible = False``
  and the index/partial tiers decline with a MISS.
- An improving biclique has *both* sides larger than the incumbent
  score, which yields the ``τ_P^k = best+1`` progressive schedule.
"""

from __future__ import annotations

from repro.objectives.base import Objective

__all__ = ["BalancedObjective", "BALANCED_OBJECTIVE"]


class BalancedObjective(Objective):
    """Maximize ``min(|P|, |W|)`` — the balanced biclique objective."""

    name = "balanced"
    uses_size_bounds = False
    index_compatible = False

    def score(self, num_upper: int, num_lower: int) -> int:
        """The smaller side: the ``k`` of the trimmed ``k×k`` answer."""
        return num_upper if num_upper < num_lower else num_lower

    def bound(self, max_upper: int, max_lower: int) -> int:
        """min is monotone in both sides, so min of the maxima bounds it."""
        return max_upper if max_upper < max_lower else max_lower

    def effective_floors(self, tau_p: int, tau_w: int) -> tuple[int, int]:
        """A ``k×k`` answer meets both minimums only when ``k >= max``."""
        floor = max(tau_p, tau_w)
        return floor, floor

    def round_floors(
        self, best_score: int, floor_w: int, tau_p: int, tau_w: int
    ) -> tuple[int, int]:
        """Improving ``min(|P|,|W|) > best`` forces ``|P| > best``.

        Only the upper floor is raised by the incumbent: the driver's
        round loop terminates when the *lower* floor decays to
        ``tau_w``, so that floor must keep its ``floor_w // 2``
        schedule.  The final round (``τ_W^k = tau_w``) is then complete
        for any biclique beating the incumbent, which needs both sides
        ``>= best + 1 >= τ_P^k``.  The upper floor holds for every
        ``floor_w``, which is what lets a single round (two-hop
        subgraphs up to
        :data:`~repro.mbc.progressive.ONE_ROUND_MAX_TWOHOP` vertices)
        pair it with ``tau_w``.
        """
        return max(best_score + 1, tau_p), max(floor_w // 2, tau_w)

    def finalize(
        self,
        upper: frozenset[int],
        lower: frozenset[int],
        anchor_upper: int | None = None,
        anchor_lower: int | None = None,
    ) -> tuple[frozenset[int], frozenset[int]]:
        """Trim to ``k×k``, keeping the anchor and the smallest ids.

        Any sub-rectangle of a biclique is a biclique, so dropping the
        excess vertices of the larger side (never the anchor) preserves
        validity while making the answer literally balanced.
        """
        k = min(len(upper), len(lower))
        return (
            _trim(upper, k, anchor_upper),
            _trim(lower, k, anchor_lower),
        )


def _trim(vertices: frozenset[int], k: int, anchor: int | None) -> frozenset[int]:
    if len(vertices) <= k:
        return vertices
    keep: list[int] = [anchor] if anchor in vertices else []
    for v in sorted(vertices):
        if len(keep) >= k:
            break
        if keep and v == keep[0]:
            continue
        keep.append(v)
    return frozenset(keep)


#: The shared stateless instance (registered by :mod:`repro.objectives`).
BALANCED_OBJECTIVE = BalancedObjective()
