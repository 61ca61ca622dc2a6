"""Search traces: what a PMBC query actually did, and why it was slow.

A :class:`SearchTrace` collects, for one personalized query (or one
batch), the numbers the paper's analysis is written in terms of:

- the two-hop subgraph size ``|H_q|`` (Lemma 1 — the whole answer
  lives inside it, so its size bounds everything downstream);
- progressive-bounding rounds with their ``(τ_U^k, τ_L^k)`` floors and
  the working-subgraph size each round searched;
- Branch&Bound nodes expanded, and prune counts broken down by rule —
  the (α,β)-core bounds of Lemma 9 (vertex ``z`` pruning plus the
  prefix/suffix bounds inside Branch&Bound), the Lemma 6 shape caps,
  the one-/two-hop reductions, the incumbent size bound, and the
  classic non-maximality rule;
- index tree-node visits (PMBC-IQ) and engine cache hits/misses;
- wall-clock spans (two-hop extraction, the search itself).

The default trace is :data:`NULL_TRACE`, whose every operation is a
no-op; instrumented code pays one ``ContextVar.get`` plus an attribute
check per *query-level* event (never per search node — Branch&Bound
accumulates plain integers in its recursion state and flushes once).
Install a real trace with :func:`use_trace`::

    trace = SearchTrace()
    with use_trace(trace):
        pmbc_online_star(graph, Side.UPPER, q, 2, 2)
    trace.to_dict()          # JSON-friendly summary

Traces are **advisory**: they never change answers, and every consumer
treats a missing counter as zero.
"""

from __future__ import annotations

import contextvars
import time
import uuid
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "PRUNE_RULES",
    "SearchTrace",
    "NullTrace",
    "NULL_TRACE",
    "current_trace",
    "use_trace",
    "new_trace_id",
]

#: Prune rule -> (paper anchor, one-line description).  The keys are
#: the ``rule`` label values of ``pmbc_prune_total`` and the keys of a
#: trace's ``prunes`` mapping; the glossary is rendered by
#: ``pmbc explain`` and documented in docs/observability.md.
PRUNE_RULES: dict[str, tuple[str, str]] = {
    "core_z_bound": (
        "Lemma 9",
        "vertices dropped before a round because their (α,β)-core z "
        "bound cannot beat the incumbent",
    ),
    "core_suffix_bound": (
        "Lemma 9",
        "candidate lower vertices skipped in Branch&Bound by the "
        "suffix bound (best biclique with ≥ k lower vertices)",
    ),
    "core_prefix_bound": (
        "Lemma 9",
        "upper vertices dropped from P in Branch&Bound by the prefix "
        "bound (best biclique with ≤ i upper vertices)",
    ),
    "shape_cap": (
        "Lemma 6",
        "branches cut because W exceeded the result-shape cap used "
        "during index construction",
    ),
    "size_bound": (
        "incumbent",
        "branches cut because max|P'|·max|W'| cannot exceed the best "
        "answer found so far",
    ),
    "tau_filter": (
        "Definition 3",
        "branches cut because P' fell below the τ floor of the round",
    ),
    "non_maximal": (
        "MBEA",
        "branches cut because an excluded vertex dominated P' "
        "(standard non-maximality rule; off under PMBC-OL*)",
    ),
    "reduction": (
        "Lyu et al.",
        "vertices removed by the one-/two-hop reductions before "
        "Branch&Bound",
    ),
}


def new_trace_id() -> str:
    """A fresh 12-hex-digit trace identifier."""
    return uuid.uuid4().hex[:12]


class _NullSpan:
    """A reusable no-op context manager (the null trace's ``span``)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTrace:
    """The disabled trace: every operation is a no-op.

    Instrumented code guards real work behind ``trace.enabled``, so the
    cost of the default path is one attribute read per query-level
    event.  A single shared instance (:data:`NULL_TRACE`) is installed
    as the context default.
    """

    __slots__ = ()

    enabled = False
    trace_id = None

    def add(self, name: str, amount: int = 1) -> None:
        """Ignore a counter increment."""

    def prune(self, rule: str, amount: int = 1) -> None:
        """Ignore a prune-counter increment."""

    def record_twohop(
        self, num_upper: int, num_lower: int, num_edges: int
    ) -> None:
        """Ignore a two-hop subgraph measurement."""

    def add_round(self, **info) -> None:
        """Ignore a progressive-bounding round record."""

    def span(self, name: str) -> _NullSpan:
        """Return a no-op context manager."""
        return _NULL_SPAN

    def annotate(self, **meta) -> None:
        """Ignore metadata."""


#: The process-wide disabled trace (the context default).
NULL_TRACE = NullTrace()


class _Span:
    """One timed section of a trace (created via :meth:`SearchTrace.span`)."""

    __slots__ = ("_trace", "_name", "_start")

    def __init__(self, trace: "SearchTrace", name: str) -> None:
        self._trace = trace
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        elapsed = time.perf_counter() - self._start
        self._trace._record_span(self._name, self._start, elapsed)


class SearchTrace:
    """A live trace for one query (or batch).

    Parameters
    ----------
    trace_id:
        Identifier threaded from the request; a fresh one is generated
        when omitted.

    Counters are plain ints keyed by name (``bb_nodes``,
    ``progressive_rounds``, ``index_nodes_visited``, ``cache_hits``,
    ...); prune counts live in a separate ``rule -> count`` mapping
    whose keys come from :data:`PRUNE_RULES`.  ``to_dict()`` produces
    the JSON summary used by ``?explain=1``, ``/debug/traces`` and
    ``pmbc explain``.

    A trace is **not** thread-safe: it belongs to one computation
    (the serving layer creates one per single-flight leader).
    """

    __slots__ = (
        "trace_id",
        "counters",
        "prunes",
        "spans",
        "rounds",
        "meta",
        "_started",
    )

    enabled = True

    def __init__(self, trace_id: str | None = None) -> None:
        self.trace_id = trace_id or new_trace_id()
        self.counters: dict[str, int] = {}
        self.prunes: dict[str, int] = {}
        self.spans: list[dict] = []
        self.rounds: list[dict] = []
        self.meta: dict = {}
        self._started = time.perf_counter()

    # -- recording -----------------------------------------------------

    def add(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount`` (no-op when 0)."""
        if amount:
            self.counters[name] = self.counters.get(name, 0) + amount

    def prune(self, rule: str, amount: int = 1) -> None:
        """Attribute ``amount`` pruned vertices/branches to ``rule``."""
        if amount:
            self.prunes[rule] = self.prunes.get(rule, 0) + amount

    def record_twohop(
        self, num_upper: int, num_lower: int, num_edges: int
    ) -> None:
        """Record the extracted two-hop subgraph's size (``|H_q|``).

        Repeated calls (batches, engine cache hits) accumulate into
        ``twohop_vertices``/``twohop_edges`` and count extractions, so
        per-query traces carry the exact size and batch traces carry
        totals.
        """
        self.add("twohop_extractions")
        self.add("twohop_upper", num_upper)
        self.add("twohop_lower", num_lower)
        self.add("twohop_vertices", num_upper + num_lower)
        self.add("twohop_edges", num_edges)

    def add_round(self, **info) -> None:
        """Append one progressive-bounding round record."""
        self.rounds.append(info)

    def span(self, name: str) -> _Span:
        """A context manager timing one named section."""
        return _Span(self, name)

    def _record_span(self, name: str, start: float, elapsed: float) -> None:
        self.spans.append(
            {
                "name": name,
                "start_ms": (start - self._started) * 1e3,
                "ms": elapsed * 1e3,
            }
        )

    def annotate(self, **meta) -> None:
        """Attach free-form metadata (query, backend, outcome...)."""
        self.meta.update(meta)

    # -- export --------------------------------------------------------

    def elapsed_ms(self) -> float:
        """Milliseconds since the trace was created."""
        return (time.perf_counter() - self._started) * 1e3

    def to_dict(self) -> dict:
        """A JSON-friendly summary of everything recorded so far."""
        return {
            "trace_id": self.trace_id,
            "elapsed_ms": self.elapsed_ms(),
            "meta": dict(self.meta),
            "counters": dict(self.counters),
            "prunes": dict(self.prunes),
            "rounds": list(self.rounds),
            "spans": list(self.spans),
        }


#: The active trace of the current execution context.
_ACTIVE: contextvars.ContextVar[SearchTrace | NullTrace] = (
    contextvars.ContextVar("pmbc_search_trace", default=NULL_TRACE)
)


def current_trace() -> SearchTrace | NullTrace:
    """The trace installed for the current context (null by default)."""
    return _ACTIVE.get()


@contextmanager
def use_trace(trace: SearchTrace | NullTrace) -> Iterator[SearchTrace | NullTrace]:
    """Install ``trace`` as the active trace for the ``with`` body.

    Uses a :class:`contextvars.ContextVar`, so concurrent threads (and
    asyncio tasks) each see their own active trace and nested
    installations restore the previous one on exit.
    """
    token = _ACTIVE.set(trace)
    try:
        yield trace
    finally:
        _ACTIVE.reset(token)
