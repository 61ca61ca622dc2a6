#!/usr/bin/env python
"""An open-loop load harness for the serving stack.

Drives a Zipf query stream at a **fixed arrival rate** against a
service (an in-process :class:`repro.serve.PMBCService` or a live HTTP
endpoint) and searches for the maximum sustainable rate under a p99
latency SLO.

Open loop means arrivals are scheduled by the clock, not by
completions: request *i* of a run at rate *r* is due at ``start +
i/r`` whether or not earlier requests have finished, and its latency
is measured **from the scheduled arrival**, so queue build-up under
overload shows up in the percentiles instead of silently throttling
the generator (the coordinated-omission trap closed-loop harnesses
fall into).  Overload therefore looks like exactly what production
would see: admission-control rejects (HTTP 429 / QueueFullError),
deadline misses, and a p99 through the roof.

A rate is *sustainable* when, over the measured window:

- completed-request p99 (from scheduled arrival) <= ``slo_ms``, and
- rejects + deadline misses + errors <= ``max_bad_fraction`` of sent.

The search ramps the rate geometrically until the first unsustainable
run, then bisects between the last good and first bad rate.  The whole
hunt runs under CPU / memory / wall-clock caps
(:class:`ResourceCaps`), so a misconfigured service degrades into a
truncated report, not a runaway benchmark.

Standalone usage (see also ``emit_bench.py --suite load``)::

    PYTHONPATH=src python benchmarks/loadgen.py --dataset Amazon \
        --workers 4 --duration 2 --slo-ms 250

With ``--url`` the harness drives a live server over HTTP (one
connection per in-flight request, stdlib-only asyncio sockets)
instead of the in-process service layer.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.workloads import zipf_queries  # noqa: E402
from repro.core.query import QueryRequest  # noqa: E402
from repro.serve.service import (  # noqa: E402
    DeadlineExceededError,
    QueueFullError,
    ServeError,
)

DEFAULT_SLO_MS = 250.0
DEFAULT_BAD_FRACTION = 0.01


def _rusage() -> tuple[float, float]:
    """(cpu seconds, max RSS MiB) for this process tree so far."""
    self_usage = resource.getrusage(resource.RUSAGE_SELF)
    child_usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (
        self_usage.ru_utime
        + self_usage.ru_stime
        + child_usage.ru_utime
        + child_usage.ru_stime
    )
    # ru_maxrss is KiB on Linux, bytes on macOS; normalise to MiB.
    scale = 1024.0 if sys.platform != "darwin" else 1024.0 * 1024.0
    rss_mb = max(self_usage.ru_maxrss, child_usage.ru_maxrss) / scale
    return cpu, rss_mb


@dataclass
class ResourceCaps:
    """Hard stops for a rate search (the algobattle-style fences)."""

    wall_seconds: float = 120.0
    cpu_seconds: float = 600.0
    rss_mb: float = 4096.0

    def start(self) -> None:
        """Record the baseline the caps are measured against."""
        self._wall0 = time.monotonic()
        self._cpu0, __ = _rusage()

    def exceeded(self) -> str | None:
        """A human-readable reason when any cap is blown, else None."""
        if time.monotonic() - self._wall0 > self.wall_seconds:
            return f"wall clock cap ({self.wall_seconds:g}s) exceeded"
        cpu, rss = _rusage()
        if cpu - self._cpu0 > self.cpu_seconds:
            return f"CPU cap ({self.cpu_seconds:g}s) exceeded"
        if rss > self.rss_mb:
            return f"RSS cap ({self.rss_mb:g} MiB) exceeded"
        return None


@dataclass
class RateRun:
    """Everything observed while driving one fixed arrival rate."""

    offered_qps: float
    duration_seconds: float
    sent: int = 0
    ok: int = 0
    empty: int = 0
    rejected: int = 0
    deadline_exceeded: int = 0
    errors: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    achieved_qps: float = 0.0
    sustainable: bool = False
    reasons: list[str] = field(default_factory=list)

    @property
    def completed(self) -> int:
        """Requests that produced an answer (ok or empty)."""
        return self.ok + self.empty

    @property
    def bad(self) -> int:
        """Requests the caller would experience as failures."""
        return self.rejected + self.deadline_exceeded + self.errors

    def percentile(self, frac: float) -> float:
        """Nearest-rank percentile of completion latency (ms)."""
        if not self.latencies_ms:
            return float("inf")
        ordered = sorted(self.latencies_ms)
        rank = max(
            0, min(len(ordered) - 1, round(frac * (len(ordered) - 1)))
        )
        return ordered[rank]

    def to_json(self) -> dict:
        """A JSON row for the benchmark snapshot."""
        return {
            "offered_qps": round(self.offered_qps, 2),
            "achieved_qps": round(self.achieved_qps, 2),
            "duration_seconds": round(self.duration_seconds, 3),
            "sent": self.sent,
            "ok": self.ok,
            "empty": self.empty,
            "rejected": self.rejected,
            "deadline_exceeded": self.deadline_exceeded,
            "errors": self.errors,
            "p50_ms": round(self.percentile(0.50), 3),
            "p95_ms": round(self.percentile(0.95), 3),
            "p99_ms": round(self.percentile(0.99), 3),
            "sustainable": self.sustainable,
            "reasons": list(self.reasons),
        }


class ServiceTarget:
    """Drive an in-process service through its non-blocking admit API.

    Uses :meth:`~repro.serve.service.PMBCService.admit`, exactly the
    admission path the asyncio front-end uses, so in-process numbers
    reflect the async serving data path minus socket framing.
    """

    def __init__(self, service, deadline: float) -> None:
        self.service = service
        self.deadline = deadline

    async def fire(self, request: QueryRequest, run: RateRun, t0: float):
        loop = asyncio.get_running_loop()
        try:
            submission = self.service.admit(request, deadline=self.deadline)
        except QueueFullError:
            run.rejected += 1
            return
        except ServeError:
            run.errors += 1
            return
        wrapped = asyncio.wrap_future(submission.future)
        try:
            try:
                result = await asyncio.wait_for(
                    asyncio.shield(wrapped), timeout=self.deadline
                )
            except asyncio.TimeoutError:
                submission.expire()
                result = await wrapped
        except DeadlineExceededError:
            run.deadline_exceeded += 1
            return
        except ServeError:
            run.errors += 1
            return
        if result.biclique is not None:
            run.ok += 1
        else:
            run.empty += 1
        run.latencies_ms.append((loop.time() - t0) * 1e3)


class HTTPTarget:
    """Drive a live ``/query`` endpoint, one connection per request."""

    def __init__(self, url: str, deadline: float) -> None:
        from urllib.parse import urlparse

        parsed = urlparse(url)
        self.host = parsed.hostname or "127.0.0.1"
        self.port = parsed.port or 80
        self.deadline = deadline

    async def fire(self, request: QueryRequest, run: RateRun, t0: float):
        loop = asyncio.get_running_loop()
        body = json.dumps(
            {
                "side": request.side.value,
                "vertex": request.vertex,
                "tau_u": request.tau_u,
                "tau_l": request.tau_l,
                "deadline": self.deadline,
            }
        ).encode()
        head = (
            f"POST /query HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        ).encode()
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port),
                timeout=self.deadline,
            )
        except (OSError, asyncio.TimeoutError):
            run.errors += 1
            return
        try:
            writer.write(head + body)
            await writer.drain()
            status_line = await asyncio.wait_for(
                reader.readline(), timeout=self.deadline + 1.0
            )
            status = int(status_line.split()[1])
            await asyncio.wait_for(reader.read(), timeout=self.deadline + 1.0)
        except (OSError, ValueError, IndexError, asyncio.TimeoutError):
            run.errors += 1
            return
        finally:
            writer.close()
        if status == 200:
            run.ok += 1
            run.latencies_ms.append((loop.time() - t0) * 1e3)
        elif status == 429:
            run.rejected += 1
        elif status == 504:
            run.deadline_exceeded += 1
        else:
            run.errors += 1


async def run_rate(
    target,
    requests: list[QueryRequest],
    rate: float,
    duration: float,
    slo_ms: float = DEFAULT_SLO_MS,
    max_bad_fraction: float = DEFAULT_BAD_FRACTION,
) -> RateRun:
    """Drive ``rate`` arrivals/s for ``duration`` seconds; judge the run.

    Latency is measured from each request's *scheduled* arrival time,
    so generator lag (falling behind the schedule) and queueing both
    count against the SLO.
    """
    run = RateRun(offered_qps=rate, duration_seconds=duration)
    loop = asyncio.get_running_loop()
    total = max(1, int(rate * duration))
    start = loop.time()
    tasks = []
    for i in range(total):
        due = start + i / rate
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        request = requests[i % len(requests)]
        run.sent += 1
        tasks.append(
            asyncio.ensure_future(target.fire(request, run, due))
        )
    if tasks:
        await asyncio.gather(*tasks)
    elapsed = loop.time() - start
    run.achieved_qps = run.completed / elapsed if elapsed > 0 else 0.0
    p99 = run.percentile(0.99)
    if p99 > slo_ms:
        run.reasons.append(f"p99 {p99:.1f}ms > SLO {slo_ms:g}ms")
    if run.bad > max_bad_fraction * run.sent:
        run.reasons.append(
            f"{run.bad}/{run.sent} failed "
            f"({run.rejected} rejected, {run.deadline_exceeded} deadline, "
            f"{run.errors} errors)"
        )
    run.sustainable = not run.reasons
    return run


def find_max_sustainable(
    target,
    requests: list[QueryRequest],
    start_qps: float = 16.0,
    duration: float = 2.0,
    slo_ms: float = DEFAULT_SLO_MS,
    max_bad_fraction: float = DEFAULT_BAD_FRACTION,
    ramp: float = 2.0,
    refine_steps: int = 2,
    caps: ResourceCaps | None = None,
    log=lambda msg: None,
) -> tuple[RateRun | None, list[RateRun], list[str]]:
    """Geometric ramp + bisection hunt for the max sustainable rate.

    Returns ``(best_run, all_runs, notes)`` — ``best_run`` is the
    highest sustainable :class:`RateRun` observed (None when even the
    starting rate failed), ``all_runs`` every rate tried in order, and
    ``notes`` records truncations (resource caps).
    """
    caps = caps or ResourceCaps()
    caps.start()
    runs: list[RateRun] = []
    notes: list[str] = []
    best: RateRun | None = None
    rate = start_qps
    first_bad: float | None = None

    def _measure(qps: float) -> RateRun:
        run = asyncio.run(
            run_rate(
                target,
                requests,
                qps,
                duration,
                slo_ms=slo_ms,
                max_bad_fraction=max_bad_fraction,
            )
        )
        runs.append(run)
        log(
            f"  rate {qps:8.1f} qps: p99={run.percentile(0.99):8.1f}ms "
            f"bad={run.bad}/{run.sent} "
            f"{'ok' if run.sustainable else 'UNSUSTAINABLE'}"
        )
        return run

    # Geometric ramp until the first unsustainable rate.
    while True:
        reason = caps.exceeded()
        if reason is not None:
            notes.append(f"ramp truncated: {reason}")
            return best, runs, notes
        run = _measure(rate)
        if run.sustainable:
            best = run
            rate *= ramp
        else:
            first_bad = rate
            break

    if best is None:
        notes.append(f"starting rate {start_qps:g} qps already unsustainable")
        return None, runs, notes

    # Bisect between the last good and first bad rate.
    low, high = best.offered_qps, first_bad
    for __ in range(refine_steps):
        reason = caps.exceeded()
        if reason is not None:
            notes.append(f"refine truncated: {reason}")
            break
        mid = math.sqrt(low * high)  # geometric midpoint
        run = _measure(mid)
        if run.sustainable:
            best, low = run, mid
        else:
            high = mid
    return best, runs, notes


def zipf_request_stream(
    graph, num_queries: int, tau: int, exponent: float, seed: int
) -> list[QueryRequest]:
    """The Zipf arrival stream as a reusable list of requests."""
    return [
        QueryRequest(side, vertex, tau, tau)
        for side, vertex in zipf_queries(
            graph,
            num_queries=num_queries,
            exponent=exponent,
            seed=seed,
        )
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="Amazon")
    parser.add_argument("--workers", type=int, default=4,
                        help="service worker threads")
    parser.add_argument("--cache-size", type=int, default=64,
                        help="engine LRU capacity")
    parser.add_argument("--url", default=None,
                        help="drive a live server at this URL instead of an "
                             "in-process service")
    parser.add_argument("--tau", type=int, default=2)
    parser.add_argument("--exponent", type=float, default=1.05)
    parser.add_argument("--stream", type=int, default=512,
                        help="distinct scheduled arrivals before the stream "
                             "repeats")
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--start-qps", type=float, default=16.0)
    parser.add_argument("--duration", type=float, default=2.0)
    parser.add_argument("--slo-ms", type=float, default=DEFAULT_SLO_MS)
    parser.add_argument("--deadline", type=float, default=1.0)
    parser.add_argument("--refine", type=int, default=2)
    parser.add_argument("--wall-cap", type=float, default=120.0)
    parser.add_argument("--cpu-cap", type=float, default=600.0)
    parser.add_argument("--rss-cap-mb", type=float, default=4096.0)
    args = parser.parse_args(argv)

    from repro.datasets.zoo import load_dataset
    from repro.serve import PMBCService, ServiceConfig

    graph = load_dataset(args.dataset)
    requests = zipf_request_stream(
        graph, args.stream, args.tau, args.exponent, args.seed
    )
    caps = ResourceCaps(
        wall_seconds=args.wall_cap,
        cpu_seconds=args.cpu_cap,
        rss_mb=args.rss_cap_mb,
    )
    if args.url:
        target = HTTPTarget(args.url, deadline=args.deadline)
        service = None
    else:
        config = ServiceConfig(
            num_workers=args.workers,
            max_queue=max(256, args.stream),
            cache_size=args.cache_size,
            default_deadline=args.deadline,
        )
        service = PMBCService(graph, config=config).start()
        target = ServiceTarget(service, deadline=args.deadline)
    print(
        f"loadgen: {args.dataset} |E|={graph.num_edges}, "
        f"{'url=' + args.url if args.url else f'workers={args.workers}'}, "
        f"SLO p99<={args.slo_ms:g}ms, stream={args.stream} zipf "
        f"s={args.exponent:g} tau={args.tau}",
        flush=True,
    )
    try:
        best, runs, notes = find_max_sustainable(
            target,
            requests,
            start_qps=args.start_qps,
            duration=args.duration,
            slo_ms=args.slo_ms,
            refine_steps=args.refine,
            caps=caps,
            log=lambda msg: print(msg, flush=True),
        )
    finally:
        if service is not None:
            service.close()
    for note in notes:
        print(f"note: {note}")
    if best is None:
        print("no sustainable rate found")
        return 1
    print(
        f"max sustainable: {best.offered_qps:.1f} qps "
        f"(achieved {best.achieved_qps:.1f}, p99 "
        f"{best.percentile(0.99):.1f}ms over {best.sent} requests)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
