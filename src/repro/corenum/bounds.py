"""Biclique-size upper bounds derived from the bicore decomposition.

Section VI-C of the paper turns the (α,β)-core structure into pruning
bounds for the branch-and-bound:

- **Lemma 9 / ``z_v``** — any biclique containing ``v`` has at most
  ``z_v`` edges, where ``z_v`` is the maximum of ``α·β`` over ``v``'s
  core region.
- **Suffix bounds (``z→`` in the paper)** — the best biclique
  containing ``v`` with at least ``k`` vertices *on v's own layer*.
  Used to skip a candidate ``v*`` whose branch already holds ``|W|``
  lower vertices.
- **Prefix bounds (``z←`` in the paper)** — the best biclique
  containing ``u`` with at most ``i`` vertices on ``u``'s own layer.
  Used to prune upper candidates once ``|P|`` has shrunk.

A biclique ``C`` with ``|U(C)| = a`` and ``|L(C)| = b`` witnesses the
core membership ``(α, β) = (b, a)`` for each of its vertices, so the
number of vertices on a vertex's own layer corresponds to the *β*
coordinate for upper vertices and the *α* coordinate for lower
vertices.  (The paper's formulas index both arrays through Definition
7's offsets, which mixes the coordinates; we implement the
dimensionally consistent version — each bound is a maximum of ``α·β``
over the vertex's own core region restricted on the own-layer
coordinate — which is provably an upper bound and is validated against
a brute-force oracle in the tests.)
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, islice
from operator import neg
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.corenum.decomposition import BicoreDecomposition, _sweeps
from repro.graph.bipartite import BipartiteGraph, Side

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.subgraph import LocalGraph


def _own_products(stairs: list[int]) -> list[int]:
    """``products[i] = (i+1) * stairs[i]`` over the own-coordinate staircase."""
    return [(c + 1) * other for c, other in enumerate(stairs)]


def _prefix_max(values: list[int]) -> list[int]:
    # C-speed running max; values are non-negative products.
    return list(accumulate(values, max))


def _suffix_max(values: list[int]) -> list[int]:
    out = list(accumulate(reversed(values), max))
    out.reverse()
    return out


def _at_most(prefix: list[int], i: int) -> int:
    """A prefix row read at "at most ``i`` own-layer vertices"."""
    if i < 1 or not prefix:
        return 0
    return prefix[min(i, len(prefix)) - 1]


def _at_least(z: int, suffix: list[int], k: int) -> int:
    """A suffix row (and its ``z``) read at "at least ``k``"."""
    if k <= 1:
        return z
    if k > len(suffix):
        return 0
    return suffix[k - 1]


@dataclass
class CoreBounds:
    """Prefix/suffix biclique-size bounds for every vertex.

    ``prefix[side][v][i-1]`` bounds bicliques containing ``v`` whose
    own-layer vertex count is at most ``i``; ``suffix[side][v][k-1]``
    bounds those with own-layer count at least ``k``.  ``z[side][v]``
    is the unrestricted Lemma 9 bound.  Prefix rows are running maxima
    (non-decreasing) and suffix rows suffix maxima (non-increasing),
    which is what lets :class:`LocalCoreBounds` answer "from which size
    on does this bound stop beating the incumbent" with one bisection.
    """

    z: dict[Side, list[int]]
    prefix: dict[Side, list[list[int]]]
    suffix: dict[Side, list[list[int]]]

    def z_bound(self, side: Side, v: int) -> int:
        """Lemma 9: max edges of any biclique containing ``v``."""
        return self.z[side][v]

    def own_side_at_most(self, side: Side, v: int, i: int) -> int:
        """Bound for bicliques containing ``v`` with ≤ ``i`` own-layer vertices."""
        return _at_most(self.prefix[side][v], i)

    def own_side_at_least(self, side: Side, v: int, k: int) -> int:
        """Bound for bicliques containing ``v`` with ≥ ``k`` own-layer vertices."""
        return _at_least(self.z[side][v], self.suffix[side][v], k)

    def local_view(self, local: "LocalGraph") -> "LocalCoreBounds":
        """The bounds Branch&Bound reads for ``local``, in its local ids."""
        own = local.upper_side
        return LocalCoreBounds(
            prefix=self.prefix[own],
            z=self.z[own.other],
            suffix=self.suffix[own.other],
            upper_globals=local.upper_globals,
            lower_globals=local.lower_globals,
        )


#: :meth:`LocalCoreBounds.prefix_cuts` value of a vertex whose prefix
#: bound never beats the incumbent, at any size.
EVERY_SIZE = sys.maxsize


@dataclass(frozen=True)
class LocalCoreBounds:
    """One search's view of :class:`CoreBounds`, in a local graph's ids.

    Branch&Bound reads two bounds (Section VI-C): the prefix bound of a
    local upper vertex (its row in ``prefix``, the rows of the local
    upper side) and the suffix bound of a local lower vertex (``z`` and
    ``suffix``, the other side's rows); ``upper_globals`` and
    ``lower_globals`` map local ids to the rows' global ids.  The
    ``set`` kernel queries the view per vertex (:meth:`upper_at_most`,
    :meth:`lower_at_least`); the ``bitset`` kernel tabulates it per
    incumbent (:meth:`prefix_cuts`, :meth:`suffix_stops`).  Both read
    the same rows, so both take the same decisions.

    Build one per search with :meth:`CoreBounds.local_view`.  The view
    reads the live rows, which
    :class:`~repro.corenum.incremental.IncrementalCoreBounds` replaces
    whole between searches, so nothing derived from it may outlive the
    search that built it.
    """

    prefix: list[list[int]]
    z: list[int]
    suffix: list[list[int]]
    upper_globals: Sequence[int]
    lower_globals: Sequence[int]

    def upper_at_most(self, u: int, i: int) -> int:
        """Max size of a biclique containing local upper ``u`` with at
        most ``i`` upper vertices (PMBC-OL* prefix bound)."""
        return _at_most(self.prefix[self.upper_globals[u]], i)

    def lower_at_least(self, v: int, k: int) -> int:
        """Max size of a biclique containing local lower ``v`` with at
        least ``k`` lower vertices (PMBC-OL* suffix bound)."""
        g = self.lower_globals[v]
        return _at_least(self.z[g], self.suffix[g], k)

    def prefix_cuts(self, uppers: Iterable[int], best: int) -> list[int]:
        """Per local upper ``u``: the largest ``i`` with
        ``upper_at_most(u, i) <= best``, or :data:`EVERY_SIZE`.

        A prefix row is non-decreasing, so the sizes it cuts are exactly
        ``0..i``; a row whose last entry cannot beat ``best`` cuts them all.
        """
        prefix = self.prefix
        upper_globals = self.upper_globals
        cuts = []
        for u in uppers:
            row = prefix[upper_globals[u]]
            cut = bisect_right(row, best)
            cuts.append(cut if cut < len(row) else EVERY_SIZE)
        return cuts

    def suffix_stops(self, lowers: Iterable[int], best: int) -> list[int]:
        """Per local lower ``v``: the smallest ``k >= 1`` with
        ``lower_at_least(v, k) <= best``.

        A suffix row is non-increasing (and 0 past its end), so every
        ``k`` from there on is cut too.
        """
        z = self.z
        suffix = self.suffix
        return [
            1 if z[g] <= best else bisect_left(suffix[g], -best, 1, key=neg) + 1
            for g in map(self.lower_globals.__getitem__, lowers)
        ]


def vertex_bound_rows(
    stairs: list[int],
) -> tuple[int, list[int], list[int]]:
    """One vertex's ``(z, prefix, suffix)`` rows from its own-side stairs.

    The staircase route: :func:`compute_bounds` takes it when handed a
    :class:`BicoreDecomposition`, and
    :meth:`~repro.corenum.incremental.IncrementalCoreBounds.verify`
    checks the maintained rows against it.
    """
    products = _own_products(stairs)
    return (
        max(products, default=0),
        _prefix_max(products),
        _suffix_max(products),
    )


def sweep_bound_rows(
    own_fixed: Sequence[int], other_fixed: Sequence[int]
) -> tuple[int, list[int], list[int]]:
    """One vertex's ``(z, prefix, suffix)`` rows from its sweep columns.

    ``own_fixed[c-1]`` is the vertex's level in the sweep that fixes its
    own-layer coordinate at ``c`` (the max other coordinate) and
    ``other_fixed[c-1]`` its level in the sweep that fixes the other
    coordinate at ``c`` (the max own coordinate), for ``c = 1..δ``.
    The own staircase is ``own_fixed`` up to δ; beyond δ the max other
    coordinate at own coordinate ``a`` is ``#{c : other_fixed[c-1] ≥ a}``
    (``other_fixed`` is non-increasing), a step function with at most δ
    steps.  Over a step of constant other coordinate ``c`` the products
    ``a·c`` form an arithmetic run and the suffix max is constant, so the
    rows are written step by step without materialising the staircase.
    Equals :func:`vertex_bound_rows` of the staircase entry for entry.
    """
    delta = len(own_fixed)
    length = other_fixed[0] if delta else 0
    products = [c * level for c, level in enumerate(own_fixed[:length], 1)]
    prefix = list(accumulate(products, max))
    best = prefix[-1] if prefix else 0
    # Beyond δ the steps come in rising own coordinate as c falls; each
    # is kept as (own coordinates it covers, its top product).
    steps: list[tuple[int, int]] = []
    lo = delta + 1
    for c in range(delta, 0, -1):
        hi = other_fixed[c - 1]
        if hi < lo:
            continue
        # Products a·c rise through the step; the running max holds
        # `best` until they pass it.
        rise = min(max(lo, best // c + 1), hi + 1)
        prefix += [best] * (rise - lo)
        prefix += range(rise * c, hi * c + 1, c)
        best = max(best, hi * c)
        steps.append((hi - lo + 1, hi * c))
        lo = hi + 1
    # Suffix maxima, written back to front and reversed at the end.
    suffix: list[int] = []
    top = 0
    for count, step_top in reversed(steps):
        top = max(top, step_top)
        suffix += [top] * count
    suffix += islice(accumulate(reversed(products), max, initial=top), 1, None)
    suffix.reverse()
    return best, prefix, suffix


def _level_rows(
    alpha_sweeps: list[dict[Side, list[int]]],
    beta_sweeps: list[dict[Side, list[int]]],
    side: Side,
) -> tuple[list[list[int]], list[list[int]]]:
    """``side``'s level rows of the own-fixed and other-fixed sweeps.

    The own-layer coordinate is β for upper vertices and α for lower
    ones, so on the upper side the own-fixed sweeps are the β-sweeps.
    Row ``c-1`` of each list is indexed by vertex id.
    """
    if side is Side.UPPER:
        own, other = beta_sweeps, alpha_sweeps
    else:
        own, other = alpha_sweeps, beta_sweeps
    return [sweep[side] for sweep in own], [sweep[side] for sweep in other]


def _bounds_from_rows(
    rows: dict[Side, Iterable[tuple[int, list[int], list[int]]]],
) -> CoreBounds:
    """Collect per-vertex ``(z, prefix, suffix)`` rows into :class:`CoreBounds`."""
    z: dict[Side, list[int]] = {}
    prefix: dict[Side, list[list[int]]] = {}
    suffix: dict[Side, list[list[int]]] = {}
    for side, side_rows in rows.items():
        z[side], prefix[side], suffix[side] = [], [], []
        for z_v, pref, suff in side_rows:
            z[side].append(z_v)
            prefix[side].append(pref)
            suffix[side].append(suff)
    return CoreBounds(z=z, prefix=prefix, suffix=suffix)


def _bounds_from_sweeps(
    alpha_sweeps: list[dict[Side, list[int]]],
    beta_sweeps: list[dict[Side, list[int]]],
    sizes: dict[Side, int],
) -> CoreBounds:
    """:class:`CoreBounds` of every vertex from a full sweep family.

    ``alpha_sweeps[i]`` / ``beta_sweeps[i]`` are the α=i+1 / β=i+1
    levels of every vertex and δ is their length; ``sizes`` gives the
    layer sizes, which an empty family (δ = 0) cannot.
    """
    rows = {}
    for side in Side:
        own_rows, other_rows = _level_rows(alpha_sweeps, beta_sweeps, side)
        # zip(*rows) turns the per-sweep rows into per-vertex columns.
        columns = (
            zip(zip(*own_rows), zip(*other_rows))
            if own_rows
            else [((), ())] * sizes[side]
        )
        rows[side] = (sweep_bound_rows(own, other) for own, other in columns)
    return _bounds_from_rows(rows)


def compute_bounds(
    graph: BipartiteGraph, decomposition: BicoreDecomposition | None = None
) -> CoreBounds:
    """Compute :class:`CoreBounds` of ``graph``.

    Rows come straight from the α-/β-peeling sweeps through
    :func:`sweep_bound_rows`.  When a ``decomposition`` is given they
    come from its staircases through :func:`vertex_bound_rows` instead;
    the own-layer coordinate of an upper vertex is β (lower degrees in
    the core equal the upper-layer count of a witnessed biclique) and of
    a lower vertex α, so upper vertices read ``beta_stairs`` and lower
    vertices ``alpha_stairs``.  Both routes give identical rows.
    """
    if decomposition is None:
        return _bounds_from_sweeps(
            *_sweeps(graph),
            {side: graph.num_vertices_on(side) for side in Side},
        )
    own_stairs = {
        Side.UPPER: decomposition.beta_stairs[Side.UPPER],
        Side.LOWER: decomposition.alpha_stairs[Side.LOWER],
    }
    return _bounds_from_rows(
        {side: map(vertex_bound_rows, own_stairs[side]) for side in Side}
    )
