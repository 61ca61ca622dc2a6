"""Maximum balanced biclique (MBB) reference substrate.

The second related-work variant the paper surveys (Section II): find
the largest biclique with *equally sized* layers.  NP-hard; this
package provides deliberately simple exact searches (global and
personalized) plus the classic vertex-deletion greedy heuristic used
by the hardware-oriented literature the paper cites.

These are the *reference* implementations the differential suite
checks the production ``"balanced"`` objective
(:mod:`repro.objectives`) against — for actual queries, pass
``objective="balanced"`` to any query surface instead.
"""

from repro.mbb.balanced import (
    balanced_biclique_reference,
    greedy_balanced_heuristic,
    personalized_balanced_reference,
)

__all__ = [
    "balanced_biclique_reference",
    "personalized_balanced_reference",
    "greedy_balanced_heuristic",
]
