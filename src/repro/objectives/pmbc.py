"""The paper's objective: personalized maximum (edge-count) biclique.

This is the default :class:`~repro.objectives.base.Objective`; with it
installed, every layer behaves exactly as before the objective seam
existed — the score is ``|P|·|W|``, the Lemma 9 size bounds apply, the
PMBC-Index answers queries, and the progressive schedule is the
``τ_P^k = best/floor_w`` / ``τ_W^k = floor_w/2`` pair of Algorithm 5.
"""

from __future__ import annotations

from repro.objectives.base import Objective

__all__ = ["PMBCObjective", "PMBC_OBJECTIVE"]


class PMBCObjective(Objective):
    """Maximize the edge count ``|P|·|W|`` (Definition 3 of the paper)."""

    name = "pmbc"
    uses_size_bounds = True
    index_compatible = True

    def score(self, num_upper: int, num_lower: int) -> int:
        """Edge count of the biclique."""
        return num_upper * num_lower

    def bound(self, max_upper: int, max_lower: int) -> int:
        """Edge count is monotone: the product of the maxima bounds it."""
        return max_upper * max_lower

    def round_floors(
        self, best_score: int, floor_w: int, tau_p: int, tau_w: int
    ) -> tuple[int, int]:
        """Algorithm 5's schedule: beat the incumbent under ``floor_w``.

        Any biclique with more than ``best_score`` edges and at most
        ``floor_w`` lower vertices has more than ``best_score/floor_w``
        upper vertices, so the upper floor is exact for the round.  It
        assumes ``|W| <= floor_w``: a single round passes the largest
        lower side in ``H_q``, never ``tau_w``, for which the floor
        would cut winners with more than ``tau_w`` lower vertices.
        """
        return max(best_score // floor_w, tau_p), max(floor_w // 2, tau_w)


#: The shared stateless instance (registered by :mod:`repro.objectives`).
PMBC_OBJECTIVE = PMBCObjective()
