"""Benchmark-side spans around the public calls into each layer.

The program is not modified: :class:`Tracer` replaces a function (or a
method on its class) *where its callers look it up* with a wrapper that
records one span per call.  A span is ``[rid, name, thread, start, end,
parent]``: ``rid`` is the end-to-end request it belongs to, ``parent``
the index of the enclosing span on the same thread.  The request id is
the trace id the benchmark sent with each query (read from the request
object, or from the search trace the service installs per computation);
update batches are numbered in arrival order; a span with no id of its
own inherits its parent's.  Spans stay in memory and are analysed when
the run ends (:func:`waterfall`).

Stage names follow the program's own trace vocabulary where one exists
(``parse``, ``admit``, ``tier.partial``, ``two_hop_extract``,
``reduce``, ``bb``, ``encode``).
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import defaultdict

# (module, attribute path, span name).  Each entry patches the name the
# caller resolves at run time, so a function imported into several
# modules is wrapped once per importing module on the measured path.
SERVER_TARGETS = (
    ("repro.serve.aserver", "AsyncPMBCServer._dispatch", "aserver.dispatch"),
    ("repro.serve.aserver", "build_query_request", "parse"),
    ("repro.serve.aserver", "render_result", "encode"),
    ("repro.serve.aserver", "render_update_result", "encode"),
    ("repro.serve.service", "PMBCService.admit", "admit"),
    ("repro.serve.service", "PMBCService.update_batch", "service.update_batch"),
    ("repro.adaptive.partial", "PartialIndex.lookup", "tier.partial"),
    ("repro.adaptive.builder", "BackgroundBuilder.run_once", "adaptive.builder"),
    ("repro.exec.executor", "Executor.run", "exec.run"),
    ("repro.core.engine", "PMBCQueryEngine.query", "engine.query"),
    ("repro.core.engine", "compute_bounds", "corenum.compute_bounds"),
    ("repro.core.engine", "extract_local", "two_hop_extract"),
    ("repro.core.engine", "pmbc_online_local", "online.pmbc_online_local"),
    ("repro.corenum.incremental", "IncrementalCoreBounds.insert_edge", "corenum.insert"),
    ("repro.corenum.incremental", "IncrementalCoreBounds.delete_edge", "corenum.delete"),
    ("repro.kernel.dynadj", "DynamicPackedAdjacency.insert_edge", "dynadj.patch"),
    ("repro.kernel.dynadj", "DynamicPackedAdjacency.delete_edge", "dynadj.patch"),
)

# The search stack below the engine, shared by the library-direct
# workload (which calls ``pmbc_online`` itself) and the server.
SEARCH_TARGETS = (
    ("repro.core.online", "extract_local", "two_hop_extract"),
    ("repro.core.online", "pmbc_online_local", "online.pmbc_online_local"),
    ("repro.core.online", "greedy_biclique", "mbc.greedy"),
    ("repro.core.online", "maximum_biclique_local", "mbc.search"),
    ("repro.kernel.progressive", "cached_reduce", "reduce"),
    ("repro.mbc.progressive", "reduce_preserving_maximum", "reduce"),
    ("repro.kernel.progressive", "bitset_search", "bb"),
    ("repro.mbc.progressive", "branch_and_bound", "bb"),
)

RID, NAME, THREAD, START, END, PARENT = range(6)

# Spans that the front-end's dispatch span adopts, beside the service span.
FRONT_END = ("parse", "encode", "service", "service.update_batch")


def _active_trace_id(args):
    from repro.obs.trace import current_trace

    return current_trace().trace_id


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self._update_seq = 0
        self._last_update = None

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, rid) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = self.spans[parent][RID]
        entry = [rid, name, threading.get_ident(), 0.0, 0.0, parent]
        self.spans.append(entry)
        stack.append(len(self.spans) - 1)
        entry[START] = time.perf_counter()
        return entry

    def _close(self, entry: list) -> None:
        entry[END] = time.perf_counter()
        self._stack().pop()

    def _wrap(self, original, name, rid_of):
        tracer = self

        def wrapper(*args, **kwargs):
            entry = tracer._open(name, rid_of(args))
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(entry)

        wrapper.__wrapped__ = original
        return wrapper

    # -- installation --------------------------------------------------

    def install(self, targets) -> None:
        """Patch every ``(module, attribute, span)`` target."""
        for module_name, attr_path, name in targets:
            owner = importlib.import_module(module_name)
            *outer, attr = attr_path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrapper_for(original, name, attr))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrapper_for(self, original, name: str, attr: str):
        if name == "aserver.dispatch":
            return self._wrap_dispatch(original)
        if name == "parse":
            return self._wrap_parse(original)
        if name == "admit":
            return self._wrap_admit(original)
        if name == "exec.run":
            return self._wrap_exec(original)
        if name == "service.update_batch":
            return self._wrap(original, name, self._next_update)
        if attr == "render_result":  # (graph, result, request, verify)
            return self._wrap(original, name, lambda a: a[2].trace_id)
        if attr == "render_update_result":
            return self._wrap(original, name, lambda a: self._last_update)
        return self._wrap(original, name, _active_trace_id)

    def _next_update(self, args):
        self._last_update = f"u{self._update_seq}"
        self._update_seq += 1
        return self._last_update

    def _wrap_dispatch(self, original):
        """The async front-end handler, from request body to reply payload.

        Coroutines interleave on the loop thread, so this span stays off
        the per-thread stack; analysis adopts the spans inside it by
        interval.  Its id is the body's trace id, or the next update
        number for an update batch.
        """
        tracer = self

        async def dispatch(server, method, target, body):
            try:
                payload = json.loads(body) if body else {}
            except ValueError:
                payload = {}
            if not isinstance(payload, dict):
                payload = {}
            rid = payload.get("trace_id")
            if "updates" in payload:
                rid = f"u{tracer._update_seq}"
            start = time.perf_counter()
            try:
                return await original(server, method, target, body)
            finally:
                tracer.spans.append(
                    [rid, "aserver.dispatch", -2, start, time.perf_counter(), None]
                )

        return dispatch

    def _wrap_parse(self, original):
        """The request id is only known once parsing returns."""
        tracer = self

        def parse(*args, **kwargs):
            entry = tracer._open("parse", None)
            try:
                request = original(*args, **kwargs)
                entry[RID] = request.trace_id
                return request
            finally:
                tracer._close(entry)

        return parse

    def _wrap_admit(self, original):
        """``admit``, plus the ``service`` span: admit until the future resolves."""
        timed = self._wrap(original, "admit", lambda a: a[1].trace_id)
        tracer = self

        def admit(service, request, *args, **kwargs):
            start = time.perf_counter()
            submission = timed(service, request, *args, **kwargs)
            rid = request.trace_id

            def done(__):
                tracer.spans.append([rid, "service", -1, start, time.perf_counter(), None])

            submission.future.add_done_callback(done)
            return submission

        return admit

    def _wrap_exec(self, original):
        """``Executor.run``: query tasks are ``exec.run``, tree builds ``exec.build``."""
        query = self._wrap(original, "exec.run", _active_trace_id)
        build = self._wrap(original, "exec.build", _active_trace_id)

        def run(executor, task, item):
            if task.startswith("build"):
                return build(executor, task, item)
            return query(executor, task, item)

        return run


# ----------------------------------------------------------------------
# analysis


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _inside(spans, i: int, container) -> bool:
    """True when span ``i`` starts inside span ``container``."""
    return (
        container is not None
        and i != container
        and spans[container][START] <= spans[i][START] <= spans[container][END]
    )


def waterfall(spans, roots: dict) -> dict:
    """Per-layer self time along each request's blocking path.

    ``roots`` maps request id -> end-to-end latency (ms) as the caller
    saw it.  Spans of other ids (background builds, warm-up traffic)
    are left out.  Spans nest by thread; on the server the spans with
    no enclosing span on their thread are adopted by interval: the
    cross-thread ``service`` span (admit until the answer future
    resolves) adopts the worker-side ones, and the front-end's
    ``aserver.dispatch`` adopts ``parse``, ``service`` and ``encode``.

    Returns per-layer ``calls``, ``total_ms`` and ``self_ms`` (span
    minus the part its children cover), ``coverage`` (share of the
    summed end-to-end latency covered by the top-level spans) and the
    request count and summed latency.
    """
    by_rid: dict = defaultdict(list)
    for i, span in enumerate(spans):
        if span[RID] in roots and span[END] > 0.0:
            by_rid[span[RID]].append(i)
    calls: dict = defaultdict(int)
    total_ms: dict = defaultdict(float)
    self_ms: dict = defaultdict(float)
    covered = 0.0
    for members in by_rid.values():
        children: dict = defaultdict(list)
        named = {spans[i][NAME]: i for i in members}
        service = named.get("service")
        dispatch = named.get("aserver.dispatch")
        top = []
        for i in members:
            span = spans[i]
            if span[PARENT] is not None:
                children[span[PARENT]].append(i)
            elif _inside(spans, i, service) and span[NAME] not in FRONT_END:
                children[service].append(i)
            elif _inside(spans, i, dispatch) and i != dispatch:
                children[dispatch].append(i)
            else:
                top.append(i)
        covered += _union_length(
            (spans[i][START], spans[i][END]) for i in top
        ) * 1e3
        for i in members:
            start, end = spans[i][START], spans[i][END]
            inner = [
                (max(spans[c][START], start), min(spans[c][END], end))
                for c in children[i]
                if spans[c][END] > start and spans[c][START] < end
            ]
            name = spans[i][NAME]
            calls[name] += 1
            total_ms[name] += (end - start) * 1e3
            self_ms[name] += (end - start - _union_length(inner)) * 1e3
    root_ms = sum(roots.values())
    return {
        "layers": {
            name: {
                "calls": calls[name],
                "total_ms": total_ms[name],
                "self_ms": self_ms[name],
            }
            for name in calls
        },
        "coverage": covered / root_ms if root_ms else 0.0,
        "requests": len(roots),
        "root_ms": root_ms,
    }


def durations_ms(spans, name: str, rids=None) -> list[float]:
    """Durations of the finished spans called ``name`` (optionally of some ids)."""
    return [
        (s[END] - s[START]) * 1e3
        for s in spans
        if s[NAME] == name and s[END] > 0.0 and (rids is None or s[RID] in rids)
    ]


def render_waterfall(result: dict, out) -> None:
    """Print the per-layer self-time table, largest share first."""
    requests = max(result["requests"], 1)
    mean_root = result["root_ms"] / requests
    print(
        f"  waterfall: {result['requests']} requests, mean end-to-end "
        f"{mean_root:.4f} ms, trace.coverage {result['coverage']:.3f}",
        file=out,
    )
    print(
        f"  {'layer':28s} {'calls/req':>10s} {'self ms/req':>12s} {'share':>7s}",
        file=out,
    )
    rows = sorted(result["layers"].items(), key=lambda kv: -kv[1]["self_ms"])
    for name, row in rows:
        self_per = row["self_ms"] / requests
        share = self_per / mean_root if mean_root else 0.0
        print(
            f"  {name:28s} {row['calls'] / requests:10.3f} "
            f"{self_per:12.4f} {share:7.1%}",
            file=out,
        )
