"""The pluggable query-family objective interface and registry.

The paper's machinery — progressive bounding (Algorithm 5), the
Branch&Bound of Algorithm 1, the reductions, and the two compute
kernels — maximizes *one* function of a biclique: its edge count
``|P|·|W|``.  The neighboring problems (maximum *balanced* biclique,
k-biplex, BBK-style enumeration) need the same search tree with a
different scoring/bounding rule.  An :class:`Objective` packages that
rule:

- :meth:`Objective.score` — the value of a recorded biclique, from its
  two side sizes.  Branch&Bound keeps the highest-scoring biclique.
- :meth:`Objective.bound` — an (admissible) upper bound on the score of
  any biclique reachable below a node, from the maximum attainable side
  sizes.  Branches whose bound cannot beat the incumbent are cut.
- :meth:`Objective.effective_floors` — translate the caller's
  ``(tau_p, tau_w)`` minimums into the floors the family actually
  implies (balanced answers must satisfy *both* on each side).
- :meth:`Objective.round_floors` — the progressive-bounding threshold
  schedule: given the incumbent score and the current ``floor_w``,
  produce the ``(τ_P^k, τ_W^k)`` floors for the next round.  Two-hop
  subgraphs up to :data:`repro.mbc.progressive.ONE_ROUND_MAX_TWOHOP`
  vertices run one round instead: the first round's upper floor with
  the caller's lower floor.
- :meth:`Objective.finalize` — trim/canonicalize the winning biclique
  (a balanced answer is cut down to ``k×k``, keeping the anchor).

Two capability flags gate machinery that is only *sound* for the
paper's edge-count objective:

- ``uses_size_bounds`` — whether the (α,β)-core size bounds of Lemma 9
  (the ``z`` bound, the prefix/suffix bounds) apply.  They bound the
  *edge count* of a biclique, so comparing them against a min-side
  score would prune winners.
- ``index_compatible`` — whether PMBC-Index / partial-index trees can
  answer the objective.  The storage model (Lemma 6 skyline of
  edge-count maxima) only answers the paper's objective; other
  families must fall through to online search.

Objectives must be stateless and hashable-by-identity: one shared
instance serves every thread and both kernels.  Both kernels call the
same two hot methods (:meth:`score` / :meth:`bound`), which keeps
cross-kernel answer parity by construction.

This module must not import :mod:`repro.core` / :mod:`repro.mbc` /
:mod:`repro.kernel` — they all import the registry.
"""

from __future__ import annotations

import threading

__all__ = [
    "Objective",
    "register_objective",
    "get_objective",
    "objective_kinds",
    "DEFAULT_OBJECTIVE",
]

#: The objective assumed when a query does not name one.
DEFAULT_OBJECTIVE = "pmbc"


class Objective:
    """One query family's scoring/bounding rule (see module docstring).

    Subclasses set :attr:`name` and the capability flags, and implement
    :meth:`score`; every other hook has a sound default.  Instances are
    stateless — register one singleton per family.
    """

    #: Registry key; also the ``QueryRequest.objective`` wire value.
    name: str = "abstract"

    #: Whether Lemma 9 (α,β)-core *size* bounds are admissible.
    uses_size_bounds: bool = False

    #: Whether PMBC-Index / partial-index trees answer this objective.
    index_compatible: bool = False

    # -- hot hooks (called per search node by both kernels) ------------

    def score(self, num_upper: int, num_lower: int) -> int:
        """Value of a biclique with the given side sizes."""
        raise NotImplementedError

    def bound(self, max_upper: int, max_lower: int) -> int:
        """Upper bound on :meth:`score` given maximum attainable sides.

        The default is admissible whenever :meth:`score` is monotone in
        both side sizes (true for every biclique family we know of).
        """
        return self.score(max_upper, max_lower)

    # -- query-level hooks ---------------------------------------------

    def effective_floors(self, tau_p: int, tau_w: int) -> tuple[int, int]:
        """The per-side minimums this family actually implies."""
        return tau_p, tau_w

    def round_floors(
        self, best_score: int, floor_w: int, tau_p: int, tau_w: int
    ) -> tuple[int, int]:
        """Progressive-bounding floors ``(τ_P^k, τ_W^k)`` for one round.

        ``best_score`` is the incumbent's score and ``floor_w`` the
        round's lower-side working floor (halved between rounds by the
        driver).  The returned floors must never exclude a biclique
        scoring above ``best_score`` once ``floor_w`` has decayed to
        ``tau_w`` — that is what makes the schedule exact.  The upper
        floor must hold for every biclique with at most ``floor_w``
        lower vertices, whatever the lower floor: on two-hop subgraphs
        up to :data:`~repro.mbc.progressive.ONE_ROUND_MAX_TWOHOP`
        vertices the search runs a single round with this upper floor
        (``floor_w`` the largest lower side in ``H_q``) and ``tau_w``.
        """
        return tau_p, max(floor_w, tau_w)

    def finalize(
        self,
        upper: frozenset[int],
        lower: frozenset[int],
        anchor_upper: int | None = None,
        anchor_lower: int | None = None,
    ) -> tuple[frozenset[int], frozenset[int]]:
        """Trim/canonicalize a winning biclique (identity by default).

        ``anchor_upper``/``anchor_lower`` name the personalized query
        vertex (global id) on its side, when the search was anchored;
        trims must keep it.
        """
        return upper, lower


_LOCK = threading.Lock()
_REGISTRY: dict[str, Objective] = {}


def register_objective(objective: Objective) -> Objective:
    """Register ``objective`` under its :attr:`~Objective.name`.

    Re-registering the same name with a different instance raises — the
    name is a wire-visible contract (requests, metrics labels, CLI
    choices), not a mutable binding.
    """
    name = objective.name
    if not name or not isinstance(name, str):
        raise ValueError(f"objective name must be a non-empty str, got {name!r}")
    with _LOCK:
        existing = _REGISTRY.get(name)
        if existing is not None and existing is not objective:
            raise ValueError(f"objective {name!r} is already registered")
        _REGISTRY[name] = objective
    return objective


def objective_kinds() -> tuple[str, ...]:
    """Registered objective names, default first (CLI/docs order)."""
    with _LOCK:
        names = list(_REGISTRY)
    names.sort(key=lambda n: (n != DEFAULT_OBJECTIVE, n))
    return tuple(names)


def get_objective(spec: "str | Objective | None" = None) -> Objective:
    """Resolve ``spec`` to a registered :class:`Objective` instance.

    ``None`` means the default (``"pmbc"``); an :class:`Objective`
    instance passes through; a string is looked up in the registry and
    an unknown name raises ``ValueError`` naming the valid choices.
    """
    if spec is None:
        spec = DEFAULT_OBJECTIVE
    if isinstance(spec, Objective):
        return spec
    with _LOCK:
        found = _REGISTRY.get(spec)
    if found is None:
        raise ValueError(
            f"unknown objective {spec!r}: expected one of {objective_kinds()}"
        )
    return found
